"""Command-line front door: run scenarios, inspect states, trace lineage.

Four commands:

* ``run <scenario.json>`` executes a scenario file and emits its reports,
  either as files under ``--out`` or as one JSON bundle on stdout.
* ``inspect <snapshot.json>`` renders a state snapshot as a sorted table
  or as canonical JSON.
* ``trace <log.json> <txid:index>`` follows an output's inheritance
  chain through an exported log, re-verifying every step.
* ``tables`` runs the full fraud and traceability battery and prints the
  property matrix.

Exit codes: 0 success; 2 for unreadable, unparseable, or schema-invalid
input; 3 for execution failures (the failing action index) and for trace
steps that fail re-verification (the failing step index). Diagnostics go
to stderr; data goes to stdout or to files, never mixed.

Determinism contract: with toy crypto, identical inputs and seed produce
byte-identical outputs. The seed comes from ``--seed``, else the
``LEDGERLAB_SEED`` environment variable, else the scenario file, else 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import FormatError, LedgerError, NotFoundError, ScenarioError

# Each command imports what it runs when it runs, so `inspect` never loads
# the scenario runner and no command pays for modules it does not call.
# Names are read from their modules at call time, so a wrapper installed
# over a module's name (as bench/tracer.py does) sees every call.

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EXECUTION = 3

_ENV_SEED = "LEDGERLAB_SEED"


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _read_document(path: str, context: str) -> object:
    from .encoding import parse_json

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {context} {path!r}: {exc}") from exc
    return parse_json(text, context=context)


def _resolve_seed(explicit: int | None) -> int | None:
    if explicit is not None:
        return explicit
    env = os.environ.get(_ENV_SEED)
    if env is None or env == "":
        return None
    try:
        return int(env)
    except ValueError as exc:
        raise FormatError(f"{_ENV_SEED} must be an integer, got {env!r}") from exc


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    from .encoding import canonical_json
    from .scenario import execute_scenario

    try:
        doc = _read_document(args.scenario, "scenario file")
        seed = _resolve_seed(args.seed)
    except FormatError as exc:
        _diag(str(exc))
        return EXIT_INVALID
    try:
        result = execute_scenario(
            doc if isinstance(doc, dict) else {},
            seed_override=seed,
            crypto_override=args.crypto,
        )
    except ScenarioError as exc:
        if exc.action_index is None:
            _diag(str(exc))
            return EXIT_INVALID
        _diag(f"execution failed at action {exc.action_index}: {exc}")
        return EXIT_EXECUTION
    except LedgerError as exc:
        _diag(f"execution failed: {exc}")
        return EXIT_EXECUTION

    if args.out is None:
        bundle = {
            "scenario": result.name,
            "kernel": result.kernel,
            "crypto": result.crypto,
            "seed": result.seed,
            "reports": result.reports,
        }
        sys.stdout.write(canonical_json(bundle))
        return EXIT_OK

    return _write_reports(args.out, result.reports)


def _write_reports(out: str, reports: dict[str, object]) -> int:
    """Write each report to its REPORT_FILENAMES file under `out`."""
    from .encoding import canonical_json
    from .scenario import REPORT_FILENAMES

    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, document in sorted(reports.items()):
            target = out_dir / REPORT_FILENAMES[name]
            if isinstance(document, str):
                target.write_text(document, encoding="utf-8")
            else:
                target.write_text(canonical_json(document), encoding="utf-8")
            _diag(f"wrote {target}")
    except OSError as exc:
        _diag(f"cannot write reports: {exc}")
        return EXIT_EXECUTION
    return EXIT_OK


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def _inspect_table(doc: dict) -> str:
    from .kernels import KERNEL_TABLE, render_rows

    name = doc.get("kernel")
    kernel = KERNEL_TABLE.get(name) if isinstance(name, str) else None
    if kernel is None:
        raise FormatError(f"snapshot has unknown kernel {name!r}")
    return render_rows(kernel.columns, kernel.rows(kernel.decode(doc)))


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .encoding import canonical_json

    try:
        doc = _read_document(args.snapshot, "snapshot file")
        if not isinstance(doc, dict):
            raise FormatError("snapshot must be a JSON object")
        # Both formats go through the kernel's strict decoder first.
        table = _inspect_table(doc)
    except FormatError as exc:
        _diag(str(exc))
        return EXIT_INVALID
    sys.stdout.write(canonical_json(doc) if args.format == "json" else table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def _cmd_trace(args: argparse.Namespace) -> int:
    from .analysis import audit_trace
    from .crypto import get_scheme
    from .utxo import UtxoId, decode_log_entries

    try:
        doc = _read_document(args.log, "log file")
        if not isinstance(doc, dict):
            raise FormatError("log must be a JSON object")
        target = UtxoId.parse(args.utxo_id)
        issuer_public_key, allow_p2h, entries = decode_log_entries(doc)
        scheme = get_scheme(args.crypto)
        audit = audit_trace(
            entries, issuer_public_key, scheme, target, allow_p2h=allow_p2h
        )
    except (FormatError, NotFoundError) as exc:
        _diag(str(exc))
        return EXIT_INVALID

    for position, step in enumerate(audit.steps):
        status = "verified" if step.verified else "FAILED"
        consumed = "-" if step.consumed is None else step.consumed.render()
        line = (
            f"step {position}: {status} {step.kind} txid={step.txid.hex()} "
            f"produced={step.produced.render()} consumed={consumed}"
        )
        if step.problems:
            line += " problems=" + ",".join(step.problems)
        print(line)
    terminal = audit.steps[-1]
    print(f"terminal: {terminal.kind} at log position {terminal.position}")
    if not audit.ok:
        _diag(f"verification failed at step {audit.first_failure}")
        return EXIT_EXECUTION
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _cmd_tables(args: argparse.Namespace) -> int:
    from .analysis import matrix_report, render_tables_text
    from .crypto import get_scheme
    from .encoding import canonical_json

    try:
        seed = _resolve_seed(args.seed)
    except FormatError as exc:
        _diag(str(exc))
        return EXIT_INVALID
    scheme = get_scheme(args.crypto)
    doc = matrix_report(seed if seed is not None else 0, scheme)
    text = render_tables_text(doc)
    if args.format == "json":
        sys.stdout.write(canonical_json(doc))
    else:
        sys.stdout.write(text)
    if args.out is not None:
        return _write_reports(args.out, {"matrix": doc, "tables": text})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledgerlab",
        description=(
            "account, token, and UTXO ledger kernels with a script engine, "
            "blind-signature e-cash, and a replica simulation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--seed", type=int, default=None, help="override the run seed")
    run.add_argument("--out", default=None, help="directory for report files")
    run.add_argument(
        "--crypto", choices=["toy", "real"], default=None,
        help="override the scenario's crypto mode",
    )
    run.set_defaults(func=_cmd_run)

    inspect = sub.add_parser("inspect", help="render a state snapshot")
    inspect.add_argument("snapshot", help="path to a snapshot JSON file")
    inspect.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="output format (default table)",
    )
    inspect.set_defaults(func=_cmd_inspect)

    trace = sub.add_parser("trace", help="trace an output back to its coinbase")
    trace.add_argument("log", help="path to an exported log JSON file")
    trace.add_argument("utxo_id", help="target outpoint as txid:index")
    trace.add_argument(
        "--crypto", choices=["toy", "real"], default="toy",
        help="crypto mode the log was produced under (default toy)",
    )
    trace.set_defaults(func=_cmd_trace)

    tables = sub.add_parser("tables", help="emit the property matrix report")
    tables.add_argument("--seed", type=int, default=None, help="experiment seed")
    tables.add_argument("--out", default=None, help="directory for report files")
    tables.add_argument(
        "--crypto", choices=["toy", "real"], default="toy",
        help="crypto mode (default toy)",
    )
    tables.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="stdout format (default table)",
    )
    tables.set_defaults(func=_cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
