"""Lazy package exports and per-command imports.

The package resolves its exported names on first use, and each CLI
command imports only the modules it runs. The subprocess tests read
``sys.modules`` in a fresh interpreter, so they pin what a command loads.
"""

import ast
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


@pytest.fixture(scope="module")
def account_state(tmp_path_factory):
    """The account_nonce scenario's state snapshot on disk."""
    out = tmp_path_factory.mktemp("account-run")
    scenario = resources.files("ledgerlab") / "scenarios" / "account_nonce.json"
    assert main(["run", str(scenario), "--out", str(out)]) == 0
    return out / "state.json"


def test_bare_cli_import_loads_only_errors():
    modules = child_modules(
        "import json, sys, ledgerlab.cli\nprint(json.dumps({'modules': sorted(sys.modules)}))"
    )["modules"]
    assert ledgerlab_modules(modules) == {"ledgerlab", "ledgerlab.cli", "ledgerlab.errors"}
    assert "cryptography" not in modules


@pytest.mark.parametrize("module", ["ledgerlab.cli", "ledgerlab.crypto"])
def test_importing_loads_no_ctypes(module):
    """libgmp is loaded through ctypes at the first wide exponentiation,
    never at import."""
    modules = child_modules(
        f"import json, sys, {module}\nprint(json.dumps({{'modules': sorted(sys.modules)}}))"
    )["modules"]
    assert module in modules and "ctypes" not in modules


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


@pytest.mark.parametrize("command", ["inspect", "trace", "tables", "run"])
def test_toy_crypto_commands_load_no_cryptography(command, utxo_run, tmp_path):
    """`cryptography` loads on the first Ed25519 key use, which no toy
    command makes: a toy log's keys are RSA keys, whichever scheme
    verifies them."""
    out, target = utxo_run
    scenario = resources.files("ledgerlab") / "scenarios" / "utxo_basic.json"
    argv = {
        "inspect": ["inspect", str(out / "state.json")],
        "trace": ["trace", str(out / "log.json"), target],
        "tables": ["tables"],
        "run": ["run", str(scenario), "--out", str(tmp_path)],
    }[command]
    result = child_modules(CHILD, *argv)
    assert result["code"] == 0
    assert not [name for name in result["modules"] if name.partition(".")[0] == "cryptography"]


@pytest.mark.parametrize(
    "scenario, loaded, absent",
    [
        ("utxo_basic.json", (), ("ecash", "replica")),
        ("account_nonce.json", (), ("ecash", "replica")),
        ("replica_round.json", ("replica",), ("ecash",)),
        ("ecash_basic.json", ("ecash",), ("replica",)),
    ],
)
def test_run_loads_ecash_and_replica_only_when_the_document_needs_them(
    scenario, loaded, absent, tmp_path
):
    """`ecash` loads for an e-cash kernel, and `replica` for a
    broadcast-round action, whose rule check needs it too."""
    path = resources.files("ledgerlab") / "scenarios" / scenario
    result = child_modules(CHILD, "run", str(path), "--out", str(tmp_path))
    assert result["code"] == 0
    modules = ledgerlab_modules(result["modules"])
    assert "ledgerlab.scenario" in modules
    for name in loaded:
        assert f"ledgerlab.{name}" in modules
    for name in absent:
        assert f"ledgerlab.{name}" not in modules


def test_kernel_table_loads_a_kernel_module_only_on_lookup():
    result = child_modules(
        "import json, sys\n"
        "from ledgerlab.kernels import KERNEL_TABLE as table\n"
        "names = [list(table), len(table), 'utxo' in table, 'ecash' in table]\n"
        "before = sorted(sys.modules)\n"
        "missing = table.get('ecash')\n"
        "entry = table['token']\n"
        "print(json.dumps({'names': names, 'before': before, 'after': sorted(sys.modules),\n"
        "                  'missing': missing, 'entry': type(entry).__module__}))"
    )
    kernels = {"ledgerlab.accounts", "ledgerlab.tokens", "ledgerlab.utxo"}
    assert result["names"] == [["account", "token", "utxo"], 3, True, False]
    assert not kernels & set(result["before"])
    assert result["missing"] is None
    assert result["entry"] == "ledgerlab.tokens"
    assert kernels & set(result["after"]) == {"ledgerlab.tokens"}


_NO_KERNEL = {"analysis", "ecash", "replica"}
# Per command, the ledgerlab modules it must load and those it must not:
# a run loads its own kernel's module and no other.
COMMAND_MODULES = {
    "run account_naive_replay.json": (
        {"accounts"}, {"tokens", "utxo", "scripts", *_NO_KERNEL},
    ),
    "run account_nonce.json": ({"accounts"}, {"tokens", "utxo", "scripts", *_NO_KERNEL}),
    "run token_basic.json": ({"tokens"}, {"accounts", "utxo", "scripts", *_NO_KERNEL}),
    "run ecash_basic.json": (
        {"ecash"}, {"accounts", "tokens", "utxo", "scripts", "analysis", "replica"},
    ),
    "run utxo_basic.json": ({"utxo"}, {"accounts", "tokens", *_NO_KERNEL}),
    "run replica_round.json": ({"utxo", "replica"}, {"accounts", "tokens", "analysis", "ecash"}),
    "inspect utxo state": ({"utxo"}, {"accounts", "tokens"}),
    "inspect account state": ({"accounts"}, {"utxo", "tokens", "scripts"}),
    "trace": ({"utxo", "analysis"}, {"accounts", "tokens", "scenario"}),
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_its_own_kernel_and_no_other(
    command, utxo_run, account_state, tmp_path
):
    out, target = utxo_run
    verb, _, subject = command.partition(" ")
    if verb == "run":
        argv = ["run", str(resources.files("ledgerlab") / "scenarios" / subject),
                "--out", str(tmp_path)]
    elif verb == "inspect":
        argv = ["inspect", str(account_state if subject == "account state" else out / "state.json")]
    else:
        argv = ["trace", str(out / "log.json"), target]
    result = child_modules(CHILD, *argv)
    assert result["code"] == 0
    loaded = {name.removeprefix("ledgerlab.") for name in ledgerlab_modules(result["modules"])}
    loads, absent = COMMAND_MODULES[command]
    assert loads <= loaded
    assert not absent & loaded


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


# -- the public surface --------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]
# Public names kept although no code in src/, bench/ or tools/ uses them.
SURFACE_ALLOWLIST = {
    "scripts.compile_p2h": (
        "library API: pay-to-hash is one of the two script templates the "
        "validator accepts from imported logs, and the output that names no owner"
    ),
    "utxo.make_spend.preimages": (
        "library API: the only way to build a spend of a pay-to-hash output"
    ),
}


def unused_surface(root: Path) -> list[str]:
    """Every public def, class or method under `root`/src that no code in
    src/, bench/ or tools/ references, and every keyword-only parameter
    that no call there passes, as `module.qualified.name`.

    The check is by name, so it has a blind spot: a name shared with an
    identifier used elsewhere (a method `total` beside a local `total`,
    a parameter forwarded through `**kwargs`) counts as used. Dunder
    methods, which syntax calls, are not checked at all.
    """
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "bench", "tools")
        for path in sorted((root / folder).rglob("*.py"))
    }
    referenced, passed = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                passed.add(node.arg)
    unused = []

    def visit(body, prefix):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = f"{prefix}.{node.name}"
            if not node.name.startswith("_") and node.name not in referenced:
                unused.append(name)
            if isinstance(node, ast.ClassDef):
                visit(node.body, name)
            else:
                unused.extend(
                    f"{name}.{arg.arg}" for arg in node.args.kwonlyargs
                    if arg.arg not in passed
                )

    for path, tree in trees.items():
        if path.is_relative_to(root / "src"):
            visit(tree.body, path.stem)
    return unused


def test_every_public_name_has_a_product_caller():
    assert sorted(unused_surface(REPO)) == sorted(SURFACE_ALLOWLIST)


# Public fields kept although no code in src/, bench/ or tools/ reads them.
FIELD_ALLOWLIST = {
    "scripts.ExecResult.stack": (
        "the engine's observable: the stack a script leaves is what the "
        "script tests read to pin each opcode's effect"
    ),
}


def unread_fields(root: Path) -> list[str]:
    """Every public field of a public class under `root`/src (an annotated
    name in the class body, not a ClassVar) that no attribute load in src/,
    bench/ or tools/ reads, as `module.Class.field`.

    The check is by name, so it has a blind spot: a field that shares its
    name with an attribute read anywhere (`inputs`, read off transactions)
    counts as read. A field read only through `getattr`, `asdict()` or
    tuple unpacking counts as unread.
    """
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "bench", "tools")
        for path in sorted((root / folder).rglob("*.py"))
    }
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for path, tree in trees.items():
        if not path.is_relative_to(root / "src"):
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            unread.extend(
                f"{path.stem}.{cls.name}.{node.target.id}"
                for node in cls.body
                if isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and not node.target.id.startswith("_")
                and "ClassVar" not in ast.unparse(node.annotation)
                and node.target.id not in read
            )
    return unread


def test_every_public_field_has_a_product_reader():
    assert sorted(unread_fields(REPO)) == sorted(FIELD_ALLOWLIST)
