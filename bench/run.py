"""Benchmark ledgerlab on one workload and print its metrics.

Run from the repository root, standard library only:

    python3 bench/run.py --workload utxo-ledger --seed 1 --seconds 20 --trace 0

Workloads: utxo-ledger, replica-conflict, cli-commands (see workloads.py).
The workload runs in a fresh child process (worker.py), whose peak
resident set size is reported as `peak_rss_mb`. Every metric the run
measured is printed first, one per line, with its unit, direction and
sample count; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Timings are rescaled to a fixed reference processor speed measured in the
same run (see worker.py), because a shared machine's speed drifts; the
`speed` line shows the factor applied.

With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
the per-layer ones from a traced run, which also measures the tracing
overhead against untraced iterations of the same inputs. The full
report and the recorded spans go to `.bench_out/` at the repository
root. The exit status is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Named here rather than imported from workloads.py: this file must not
# import ledgerlab, so that it can refuse cleanly when the sources are absent.
WORKLOADS = ("utxo-ledger", "replica-conflict", "cli-commands")
# A run must finish within three minutes, set-up and checks included.
DEADLINE_S = 175

# Per-layer metrics printed with --trace 1. Self time is reported only for
# functions that every workload calls; the rest get their call counts here
# and their self times in the report file (zero where a workload never
# calls them).
TIMED_EVERYWHERE = (
    "crypto.keygen", "crypto.derive_wallet", "crypto.sign", "crypto.verify",
    "scripts.execute", "utxo.utxo_validate", "utxo.utxo_apply", "utxo.txid_of",
    "utxo.encode_utxo_tx", "utxo.make_spend", "utxo.split_payment",
    "utxo.chainstate_snapshot", "encoding.canonical_json", "replica.state_digest",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--scale", default="full", choices=("full", "tiny"),
        help="input sizes; 'tiny' is for the smoke tests",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run_worker(spec: dict, started: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise SystemExit("benchmark worker ran out of time")
    if child.returncode != 0:
        raise SystemExit(f"benchmark worker failed with exit status {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "ledgerlab" / "__init__.py").is_file():
        print(f"ledgerlab sources not found under {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    spec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "out_dir": str(run_dir),
        "spans_file": str(OUT / f"spans-{args.workload}-seed{args.seed}.json"),
    }
    try:
        report = run_worker(spec, started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    detail = dict(report["detail"])
    detail["setup_s"] = dict(report["setup_s"], better="lower")
    detail["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "better": "lower", "samples": 1}
    report["detail"] = detail
    report["peak_rss_mb"] = peak_rss_mb
    for name, m in sorted(detail.items()):
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} "
              f"({m['better']} is better, n={m['samples']})")
    env = report["env"]
    print(f"env python={env['python']} cryptography={env['cryptography']} "
          f"nproc={env['nproc']} crypto={report['crypto']} loop={report['loop']!r}")
    print(f"inputs {json.dumps(report['inputs'], sort_keys=True)}")
    print(f"speed reference_loop_ms={1e3 * report['reference_loop_s']:.4g} "
          f"factor={report['speed_factor']:.4g} (times above are at reference speed)")
    print(f"output_digest {report['output_digest']} iterations={report['iterations']}")
    for problem in report["problems"]:
        print(f"FAILED CHECK: {problem}")

    if args.trace:
        metrics = {}
        for name, m in sorted(report["per_layer"].items()):
            function, _, kind = name.rpartition(".")
            if kind == "self_s" and function not in TIMED_EVERYWHERE:
                continue
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
    else:
        metrics = {
            "setup_s": {"value": report["setup_s"]["value"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ops_per_s": {"value": report["ops_per_s"], "unit": "1/s"},
            "iteration_s_p50": {"value": report["iteration_s_p50"], "unit": "s"},
        }

    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
