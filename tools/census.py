"""Census of the ledgerlab source lines that no product path runs.

Run from anywhere inside the repository, standard library only:

    python3 tools/census.py [--json census.json]

Tracing starts (`sys.settrace`) before any ledgerlab module is imported,
so module bodies count. Then the product paths run in this process, each
through its public entry point:

* `ledgerlab run` on every bundled scenario at seeds 3 and 8, and on
  `ecash_basic.json` with real crypto;
* `ledgerlab tables` in both formats;
* `ledgerlab inspect`, in both formats, on every state the runs wrote, and
  `ledgerlab trace` of the last transaction's first output through every
  log they wrote;
* two iterations of the `utxo-ledger` and `replica-conflict` benchmark
  workloads at their `tiny` scale (bench/workloads.py, imported, not
  changed).

A line is executable when the compiled module has an instruction on it.
The report lists, per module under src/ledgerlab, the executable lines
no path ran, as line ranges on stdout and, with `--json`, as a JSON
document. Most such lines are refusal branches that only hostile input
reaches; the rest are code no product path uses.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ledgerlab"
SEEDS = (3, 8)


def executable_lines(path: Path) -> set[int]:
    """The lines that carry an instruction of `path`'s compiled code."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def trace_into(ran: dict[str, set[int]]):
    """A global trace function recording each line run in the package."""
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    return global_


def cli(*argv: str) -> None:
    """Run one ledgerlab command in-process; its output is discarded."""
    from ledgerlab.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"ledgerlab {' '.join(argv)} exited {code}")


def product_paths(work: Path) -> None:
    scenarios = sorted((PACKAGE / "scenarios").glob("*.json"))
    runs = []
    for seed in SEEDS:
        for scenario in scenarios:
            out = work / f"{scenario.stem}-{seed}"
            cli("run", str(scenario), "--seed", str(seed), "--out", str(out))
            runs.append(out)
    out = work / "ecash-real"
    cli("run", str(PACKAGE / "scenarios" / "ecash_basic.json"), "--crypto", "real",
        "--out", str(out))
    runs.append(out)
    cli("tables")
    cli("tables", "--format", "json")
    for out in runs:
        state, log = out / "state.json", out / "log.json"
        if state.is_file():
            cli("inspect", str(state))
            cli("inspect", str(state), "--format", "json")
        if log.is_file():
            rows = json.loads(log.read_text(encoding="utf-8"))["txs"]
            cli("trace", str(log), rows[-1]["txid"] + ":0")

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for name in ("utxo-ledger", "replica-conflict"):
        workload = workloads.make_workload(name, 1, workloads.SCALES["tiny"], work / name)
        workload.setup()
        for index in range(2):
            iteration = workload.run(index, lambda: None)
            if iteration.problems:
                raise RuntimeError(f"{name}: {iteration.problems}")


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as `a-b` runs of consecutive numbers."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", metavar="PATH", help="also write the census as JSON")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    ran: dict[str, set[int]] = {}
    sys.settrace(trace_into(ran))
    try:
        with tempfile.TemporaryDirectory(prefix="census-") as tmp:
            product_paths(Path(tmp))
    finally:
        sys.settrace(None)

    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        unrun = sorted(executable - ran.get(str(path), set()))
        modules[path.stem] = {"executable": len(executable), "unrun": unrun}
    total = sum(m["executable"] for m in modules.values())
    unrun = sum(len(m["unrun"]) for m in modules.values())
    for name, m in modules.items():
        print(f"{name}: {len(m['unrun'])} of {m['executable']} unrun")
        if m["unrun"]:
            print(f"  {ranges(m['unrun'])}")
    print(f"total: {unrun} of {total} executable lines unrun")
    if args.json:
        doc = {"seeds": list(SEEDS), "modules": modules, "executable": total, "unrun": unrun}
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
