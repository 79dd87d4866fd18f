"""Lazy package exports and per-command imports.

The package resolves its exported names on first use, and each CLI
command imports only the modules it runs. The subprocess tests read
``sys.modules`` in a fresh interpreter, so they pin what a command loads.
"""

import importlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import ledgerlab
from ledgerlab.cli import main

PACKAGE_ROOT = str(Path(ledgerlab.__file__).resolve().parents[1])
# Runs the CLI in the child, then prints what the child has imported.
CHILD = (
    "import contextlib, io, json, sys\n"
    "from ledgerlab.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()), "
    "contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
)


def child_modules(code: str, *argv: str) -> dict:
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])),
    }
    env.pop("LEDGERLAB_SEED", None)
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def ledgerlab_modules(modules) -> set[str]:
    return {name for name in modules if name == "ledgerlab" or name.startswith("ledgerlab.")}


@pytest.fixture(scope="module")
def utxo_run(tmp_path_factory):
    """The utxo_basic scenario's reports on disk, and an outpoint to trace."""
    out = tmp_path_factory.mktemp("utxo-run")
    scenario = resources.files("ledgerlab") / "scenarios" / "utxo_basic.json"
    assert main(["run", str(scenario), "--out", str(out)]) == 0
    rows = json.loads((out / "log.json").read_text(encoding="utf-8"))["txs"]
    return out, rows[-1]["txid"] + ":0"


def test_bare_cli_import_loads_only_errors():
    modules = child_modules(
        "import json, sys, ledgerlab.cli\nprint(json.dumps({'modules': sorted(sys.modules)}))"
    )["modules"]
    assert ledgerlab_modules(modules) == {"ledgerlab", "ledgerlab.cli", "ledgerlab.errors"}
    assert "cryptography" not in modules


def test_inspect_loads_no_analysis_or_runner(utxo_run):
    out, _ = utxo_run
    result = child_modules(CHILD, "inspect", str(out / "state.json"))
    assert result["code"] == 0
    loaded = ledgerlab_modules(result["modules"])
    for name in ("analysis", "scenario", "replica", "ecash"):
        assert f"ledgerlab.{name}" not in loaded


@pytest.mark.parametrize("command", ["trace", "tables", "tables --out"])
def test_trace_and_tables_load_no_runner(command, utxo_run, tmp_path):
    out, target = utxo_run
    argv = {
        "trace": ["trace", str(out / "log.json"), target],
        "tables": ["tables"],
        "tables --out": ["tables", "--out", str(tmp_path)],
    }[command]
    result = child_modules(CHILD, *argv)
    assert result["code"] == 0
    loaded = ledgerlab_modules(result["modules"])
    for name in ("scenario", "replica", "ecash"):
        assert f"ledgerlab.{name}" not in loaded


def test_every_export_is_its_submodule_binding():
    assert sorted(ledgerlab.__all__) == sorted(
        name for names in ledgerlab._EXPORTS.values() for name in names
    )
    for module, names in ledgerlab._EXPORTS.items():
        source = importlib.import_module(f"ledgerlab.{module}")
        for name in names:
            assert getattr(ledgerlab, name) is getattr(source, name), name


def test_resolving_an_export_stores_nothing_on_the_package():
    # A wrapper installed over a submodule's name (as bench/tracer.py does)
    # must be the only binding a later lookup can find, and removing it
    # must leave no stale copy on the package.
    assert ledgerlab.utxo_apply is ledgerlab.utxo.utxo_apply
    assert "utxo_apply" not in vars(ledgerlab)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from ledgerlab import *", namespace)
    assert set(ledgerlab.__all__) <= namespace.keys()


def test_dir_lists_every_export():
    assert set(ledgerlab.__all__) <= set(dir(ledgerlab))
    assert "__version__" in dir(ledgerlab)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        ledgerlab.no_such_name
