"""Command-line behaviour: exit codes, output shapes, file handling."""

import contextlib
import copy
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ledgerlab
from ledgerlab.accounts import AccountState, account_mint, account_snapshot
from ledgerlab.cli import main
from ledgerlab.crypto import derive_wallet
from ledgerlab.encoding import canonical_json
from ledgerlab.tokens import TokenRegistry, token_issue, token_snapshot
from ledgerlab.utxo import (
    Chainstate,
    TxOutput,
    UtxoId,
    UtxoTx,
    chainstate_snapshot,
    coinbase_issue,
    encode_utxo_tx,
    export_log,
    lock_to_wallet,
    split_payment,
    txid_of,
    utxo_apply,
)

SCENARIO_DIR = resources.files("ledgerlab") / "scenarios"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# Where pip puts this interpreter's console scripts; None when not installed.
INSTALLED_SCRIPT = shutil.which("ledgerlab", path=sysconfig.get_path("scripts"))


def scenario_path(name):
    return str(SCENARIO_DIR / name)


@pytest.fixture(scope="module")
def traced_log(toy, tmp_path_factory):
    """A three-hop exported log on disk plus the leaf outpoint to trace."""
    issuer = toy.keygen(b"cli-trace-issuer")
    a = derive_wallet(toy, "cli-trace-a")
    b = derive_wallet(toy, "cli-trace-b")
    c = derive_wallet(toy, "cli-trace-c")
    state = Chainstate.genesis(issuer.public_key)
    state = coinbase_issue(state, [(10, lock_to_wallet(a))], issuer, toy)
    coinbase_id = UtxoId(txid=txid_of(state.log[-1]), index=0)
    first = split_payment(toy, state, a, coinbase_id, 4, lock_to_wallet(b))
    state = utxo_apply(state, first, toy)
    second = split_payment(
        toy, state, b, UtxoId(txid=txid_of(first), index=0), 1, lock_to_wallet(c)
    )
    state = utxo_apply(state, second, toy)
    doc = export_log(state)
    path = tmp_path_factory.mktemp("trace") / "log.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    leaf = UtxoId(txid=txid_of(second), index=0).render()
    coinbase_leaf = coinbase_id.render()
    return path, doc, leaf, coinbase_leaf


# -- run ---------------------------------------------------------------------


def test_run_writes_bundle_to_stdout(capsys):
    code = main(["run", scenario_path("token_basic.json")])
    assert code == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["kernel"] == "token"
    assert bundle["scenario"] == "token-basic"
    assert set(bundle["reports"]) == {"state", "metrics", "events"}


def test_run_out_directory_writes_report_files(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["run", scenario_path("utxo_basic.json"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    written = {p.name for p in out.iterdir()}
    assert written == {"state.json", "metrics.json", "log.json", "events.json"}
    for name in written:
        assert f"wrote {out / name}" in captured.err
    log_doc = json.loads((out / "log.json").read_text(encoding="utf-8"))
    assert log_doc["kind"] == "utxo-log"


def test_run_seed_flag_overrides_document(capsys):
    code = main(["run", scenario_path("token_basic.json"), "--seed", "77"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 77


def test_run_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kernel": "account"}), encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "invalid scenario" in capsys.readouterr().err


def test_run_unknown_action_exits_2(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "kernel": "account",
        "participants": [{"name": "a"}],
        "actions": [{"action": "fly", "to": "a"}],
    }
    bad = tmp_path / "fly.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "unknown action 'fly'" in capsys.readouterr().err


def test_run_execution_failure_exits_3_with_action_index(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "kernel": "account",
        "participants": [{"name": "a"}, {"name": "b"}],
        "actions": [
            {"action": "issue", "to": "a", "amount": 5},
            {"action": "pay", "from": "a", "to": "b", "amount": 50},
        ],
    }
    path = tmp_path / "broke.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 3
    assert "execution failed at action 1" in capsys.readouterr().err


TWO_TO_THE_64 = 1 << 64


@pytest.mark.parametrize(
    "kernel, actions, message",
    [
        (
            "account",
            [
                {"action": "issue", "to": "a", "amount": 5},
                {"action": "pay", "from": "a", "to": "b", "amount": 1},
                {"action": "replay", "index": 7},
            ],
            "no submission at index 7",
        ),
        (
            "ecash",
            [
                {"action": "withdraw", "wallet": "a", "denomination": 5},
                {"action": "redeem", "wallet": "a", "coin": 3},
            ],
            "no coin at index 3",
        ),
        (
            "account",
            [
                {"action": "issue", "to": "a", "amount": TWO_TO_THE_64},
                {"action": "pay", "from": "a", "to": "b", "amount": TWO_TO_THE_64},
            ],
            "exceeds the 64-bit range",
        ),
    ],
    ids=["replay-index", "redeem-coin", "account-amount-2^64"],
)
def test_run_out_of_range_value_exits_3_without_traceback(
    kernel, actions, message, tmp_path, capsys
):
    doc = {
        "schema_version": 1,
        "kernel": kernel,
        "participants": [{"name": "a"}, {"name": "b"}],
        "actions": actions,
    }
    if kernel == "ecash":
        doc["issuer"] = {"denominations": [5]}
    path = tmp_path / "range.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"execution failed at action {len(actions) - 1}" in err
    assert message in err
    assert "Traceback" not in err


def test_run_missing_file_exits_2(capsys):
    assert main(["run", "/nonexistent/scenario.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_run_does_not_mutate_the_scenario_file(capsys):
    path = Path(scenario_path("account_nonce.json"))
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == before


# The integer fields each action takes that the fuzz below rewrites.
FUZZED_FIELDS = {
    "issue": ("amount",),
    "pay": ("amount", "nonce"),
    "split": ("amount",),
    "replay": ("index", "times"),
    "double-spend": ("amount", "coin"),
    "broadcast-round": ("amount",),
    "redeem": ("coin", "times"),
}
WIDE_INTS = st.one_of(
    st.integers(-12, 12),
    st.sampled_from([1 << 63, (1 << 64) - 1, 1 << 64, 1 << 200, -(1 << 64)]),
)
# A run repeats its probe `times` times, so like replica counts this sets
# how much work a run does rather than whether its input is valid.
TIMES = st.integers(-2, 6)
# tables.json takes no actions, so there is nothing in it to mutate.
FUZZED_SCENARIOS = sorted(
    entry.name
    for entry in SCENARIO_DIR.iterdir()
    if entry.name.endswith(".json") and entry.name != "tables.json"
)


@given(data=st.data())
def test_run_exits_0_2_or_3_on_mutated_scenarios(data, tmp_path_factory):
    name = data.draw(st.sampled_from(FUZZED_SCENARIOS))
    doc = json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8"))
    actions = doc["actions"]
    for _ in range(data.draw(st.integers(1, 4))):
        if not actions:
            break
        position = data.draw(st.integers(0, len(actions) - 1))
        action = actions[position]
        mutation = data.draw(st.sampled_from(["set", "set", "drop", "duplicate"]))
        if mutation == "drop":
            del actions[position]
        elif mutation == "duplicate":
            actions.insert(position, copy.deepcopy(action))
        elif action["action"] in FUZZED_FIELDS:
            field = data.draw(st.sampled_from(FUZZED_FIELDS[action["action"]]))
            action[field] = data.draw(TIMES if field == "times" else WIDE_INTS)
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path)])
    assert code in (0, 2, 3), err.getvalue()


# -- inspect -----------------------------------------------------------------


def test_inspect_account_table_is_sorted(toy, tmp_path, capsys):
    state = AccountState.empty()
    wallets = sorted(
        (derive_wallet(toy, f"inspect-{i}").address for i in range(3)), reverse=True
    )
    for position, address in enumerate(wallets):
        state = account_mint(state, address, position + 1)
    path = tmp_path / "account.json"
    path.write_text(canonical_json(account_snapshot(state)), encoding="utf-8")
    assert main(["inspect", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["address", "balance", "nonce"]
    listed = [line.split()[0] for line in lines[2:]]
    assert listed == sorted(wallets)


def test_inspect_token_and_utxo_tables(toy, tmp_path, capsys):
    owner = derive_wallet(toy, "inspect-owner")
    registry = token_issue(TokenRegistry.empty(), "tok-1", 9, owner.address)
    token_path = tmp_path / "token.json"
    token_path.write_text(canonical_json(token_snapshot(registry)), encoding="utf-8")
    assert main(["inspect", str(token_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["token", "value", "owner"]
    assert "tok-1" in out and owner.address in out

    issuer = toy.keygen(b"inspect-issuer")
    chain = coinbase_issue(
        Chainstate.genesis(issuer.public_key),
        [(5, lock_to_wallet(owner))],
        issuer,
        toy,
    )
    utxo_path = tmp_path / "utxo.json"
    utxo_path.write_text(canonical_json(chainstate_snapshot(chain)), encoding="utf-8")
    assert main(["inspect", str(utxo_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["outpoint", "value", "locking"]
    assert txid_of(chain.log[-1]).hex() + ":0" in out


def test_inspect_empty_chainstate_renders(toy, tmp_path, capsys):
    issuer = toy.keygen(b"inspect-empty")
    snapshot = chainstate_snapshot(Chainstate.genesis(issuer.public_key))
    path = tmp_path / "empty.json"
    path.write_text(canonical_json(snapshot), encoding="utf-8")
    assert main(["inspect", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # header and rule, no rows


def test_inspect_json_format_echoes_canonically(toy, tmp_path, capsys):
    state = account_mint(AccountState.empty(), derive_wallet(toy, "echo").address, 3)
    doc = account_snapshot(state)
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # non-canonical spacing
    assert main(["inspect", str(path), "--format", "json"]) == 0
    assert capsys.readouterr().out == canonical_json(doc)


def test_inspect_rejects_corrupt_and_unknown(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"kernel": "abacus"}), encoding="utf-8")
    for fmt in ("table", "json"):
        assert main(["inspect", str(garbled), "--format", fmt]) == 2
        capsys.readouterr()
        assert main(["inspect", str(unknown), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert "unknown kernel" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "doc",
    [
        {"kernel": "account", "balances": [1, 2]},
        {"kernel": "utxo", "active": {"x": 5}},
        {"kernel": ["utxo"]},
    ],
    ids=["account-balances-list", "utxo-entry-not-object", "kernel-not-a-string"],
)
def test_inspect_malformed_snapshot_exits_2_without_traceback(doc, tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for fmt in ("table", "json"):
        assert main(["inspect", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""


# -- trace -------------------------------------------------------------------


def test_trace_happy_path(traced_log, capsys):
    path, _, leaf, _ = traced_log
    assert main(["trace", str(path), leaf]) == 0
    lines = capsys.readouterr().out.splitlines()
    steps = [line for line in lines if line.startswith("step ")]
    assert len(steps) == 3
    assert all("verified" in line for line in steps)
    assert lines[-1] == "terminal: coinbase at log position 0"


def test_trace_coinbase_target_is_a_single_step(traced_log, capsys):
    path, _, _, coinbase_leaf = traced_log
    assert main(["trace", str(path), coinbase_leaf]) == 0
    out = capsys.readouterr().out
    assert out.count("step ") == 1
    assert "coinbase" in out


def test_trace_flags_a_tampered_row(traced_log, tmp_path, capsys):
    path, doc, leaf, _ = traced_log
    tampered = json.loads(path.read_text(encoding="utf-8"))
    raw = bytearray(bytes.fromhex(tampered["txs"][1]["raw"]))
    raw[60] ^= 0x01  # inside the unlocking signature: row stays decodable
    tampered["txs"][1]["raw"] = bytes(raw).hex()
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(canonical_json(tampered), encoding="utf-8")
    assert main(["trace", str(bad_path), leaf]) == 3
    captured = capsys.readouterr()
    assert "FAILED" in captured.out
    assert "verification failed at step 1" in captured.err


def test_trace_unknown_target_exits_2(traced_log, capsys):
    path, _, _, _ = traced_log
    assert main(["trace", str(path), "00" * 32 + ":0"]) == 2
    assert "no transaction" in capsys.readouterr().err


def test_trace_malformed_target_exits_2(traced_log, capsys):
    path, _, _, _ = traced_log
    assert main(["trace", str(path), "zz:0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("defect", ["cyclic-links", "input-less-row"])
def test_trace_malformed_log_exits_2_without_traceback(
    traced_log, wallets, tmp_path, capsys, defect
):
    path, _, _, coinbase_leaf = traced_log
    doc = json.loads(path.read_text(encoding="utf-8"))
    if defect == "cyclic-links":
        # Row 1 spends the coinbase's output and now claims the coinbase's
        # id, so its recorded link points back at itself.
        doc["txs"][1]["txid"] = doc["txs"][0]["txid"]
        target = coinbase_leaf
    else:
        orphan = UtxoTx("normal", (), (TxOutput(1, lock_to_wallet(wallets[0])),))
        doc["txs"].append(
            {"txid": txid_of(orphan).hex(), "raw": encode_utxo_tx(orphan).hex()}
        )
        target = UtxoId(txid=txid_of(orphan), index=0).render()
    bad_path = tmp_path / "malformed-log.json"
    bad_path.write_text(canonical_json(doc), encoding="utf-8")
    assert main(["trace", str(bad_path), target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1


# -- tables ------------------------------------------------------------------


def test_tables_text_output(capsys):
    assert main(["tables", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "double-spend" in out
    assert "replay" in out
    assert "traceability" in out


def test_tables_json_output_parses(capsys):
    assert main(["tables", "--seed", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 3
    assert set(doc["rows"]) == {"double-spend", "replay", "traceability"}
    assert set(doc["rows"]["replay"]) == {
        "utxo",
        "account-naive",
        "account-nonce-protected",
        "token",
    }
    assert set(doc["rows"]["double-spend"]) == {"utxo", "account", "token"}


def test_tables_out_writes_both_files(tmp_path, capsys):
    out = tmp_path / "tables-out"
    assert main(["tables", "--seed", "4", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert (out / "matrix.json").is_file()
    assert (out / "tables.txt").is_file()
    assert captured.err.count("wrote ") == 2
    doc = json.loads((out / "matrix.json").read_text(encoding="utf-8"))
    assert doc["seed"] == 4
    assert (out / "tables.txt").read_text(encoding="utf-8") == captured.out


def test_tables_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv("LEDGERLAB_SEED", "5")
    assert main(["tables", "--format", "json"]) == 0
    via_env = capsys.readouterr().out
    monkeypatch.delenv("LEDGERLAB_SEED")
    assert main(["tables", "--seed", "5", "--format", "json"]) == 0
    assert capsys.readouterr().out == via_env


def test_tables_env_seed_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("LEDGERLAB_SEED", "lots")
    assert main(["tables"]) == 2
    assert "LEDGERLAB_SEED" in capsys.readouterr().err


def test_explicit_seed_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("LEDGERLAB_SEED", "5")
    assert main(["run", scenario_path("token_basic.json"), "--seed", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9


# -- wiring ------------------------------------------------------------------


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def run_tables_seed_3(command, env=None):
    result = subprocess.run(
        [*command, "tables", "--seed", "3", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["seed"] == 3


def declared_entry_point():
    """The ``ledgerlab`` console script declared in ``pyproject.toml``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]["scripts"]["ledgerlab"]


def test_console_script_entry_point():
    # Run the declared module:attr through the launcher pip writes for a
    # console script, so the declaration is checked without an install.
    module, _, attr = declared_entry_point().partition(":")
    launcher = (
        f"import re, sys; from {module} import {attr}; "
        r"sys.argv[0] = re.sub(r'(-script\.pyw|\.exe)?$', '', sys.argv[0]); "
        f"sys.exit({attr}())"
    )
    # The child imports the same ledgerlab as this process, not another copy.
    package_root = str(Path(ledgerlab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )
    env = {**os.environ, "PYTHONPATH": pythonpath}
    run_tables_seed_3([sys.executable, "-c", launcher], env=env)


@pytest.mark.skipif(
    INSTALLED_SCRIPT is None,
    reason=f"no ledgerlab script in {sysconfig.get_path('scripts')}: "
    "the package is not installed for this interpreter",
)
def test_installed_console_script():
    run_tables_seed_3([INSTALLED_SCRIPT])
