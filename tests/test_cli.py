"""Command-line behaviour: exit codes, output shapes, file handling."""

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import sysconfig
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import ledgerlab
from conftest import json_slots
from oracles import reference_snapshot
from ledgerlab.accounts import (
    AccountState,
    account_apply,
    account_mint,
    account_snapshot,
    make_account_tx,
)
from ledgerlab.cli import build_parser, main
from ledgerlab.crypto import derive_wallet
from ledgerlab.encoding import canonical_json
from ledgerlab.scenario import MAX_COUNT
from ledgerlab.tokens import TokenRegistry, token_issue, token_snapshot
from ledgerlab.utxo import (
    Chainstate,
    TxOutput,
    UtxoId,
    UtxoTx,
    coinbase_issue,
    encode_utxo_tx,
    export_log,
    import_log,
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


def run_main(argv):
    """`main(argv)` with its stdout and stderr captured as text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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


def test_run_second_identical_issue_exits_3_naming_duplicate_txid(tmp_path, capsys):
    issue = {"action": "issue", "to": "a", "amount": 5}
    doc = {
        "schema_version": 1,
        "kernel": "utxo",
        "participants": [{"name": "a"}],
        "actions": [issue, issue],
    }
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "execution failed at action 1" in err
    assert "duplicate-txid" in err


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
            [{"action": "issue", "to": "a", "amount": TWO_TO_THE_64}],
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


@pytest.mark.parametrize(
    "change",
    [{"reports": None}, {"growth": None, "reports": ["growth"]}],
    ids=["reports-null", "growth-null"],
)
def test_run_present_null_setting_exits_2_without_traceback(change, tmp_path, capsys):
    """A key set to null is present, so validation checks it, not the runner."""
    doc = json.loads((SCENARIO_DIR / "account_naive_replay.json").read_text(encoding="utf-8"))
    path = tmp_path / "null.json"
    path.write_text(json.dumps({**doc, **change}), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "change",
    [
        lambda doc: doc["actions"][-1].update(times=10**12),
        lambda doc: doc.update(growth={"payments": 10**9}, reports=["growth"]),
    ],
    ids=["replay-times", "growth-payments"],
)
def test_run_count_over_the_cap_exits_2_at_once(change, tmp_path):
    """A count sets how much work a run does, so validation caps it; the
    run is a child process so that a runaway count fails by its timeout."""
    doc = json.loads((SCENARIO_DIR / "account_naive_replay.json").read_text(encoding="utf-8"))
    assert doc["actions"][-1]["action"] == "replay"
    change(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    package_root = str(Path(ledgerlab.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "ledgerlab.cli", "run", str(path)],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"must be an integer from 1 to {MAX_COUNT}" in result.stderr


@pytest.mark.parametrize("text", ["[1]", "null", "3", '"account"'])
def test_run_non_object_scenario_exits_2_naming_it(text, tmp_path, capsys):
    path = tmp_path / "scalar.json"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "scenario must be a JSON object" in capsys.readouterr().err


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
    code, _, err = run_main(["run", str(path)])
    assert code in (0, 2, 3), err


# -- inspect -----------------------------------------------------------------


def test_inspect_account_table_is_sorted(toy, tmp_path, capsys):
    state = AccountState()
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
    registry = token_issue(TokenRegistry(), "tok-1", 9, owner.address)
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
    utxo_path.write_text(canonical_json(reference_snapshot(chain)), encoding="utf-8")
    assert main(["inspect", str(utxo_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["outpoint", "value", "locking"]
    assert txid_of(chain.log[-1]).hex() + ":0" in out


def test_inspect_empty_chainstate_renders(toy, tmp_path, capsys):
    issuer = toy.keygen(b"inspect-empty")
    snapshot = reference_snapshot(Chainstate.genesis(issuer.public_key))
    path = tmp_path / "empty.json"
    path.write_text(canonical_json(snapshot), encoding="utf-8")
    assert main(["inspect", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # header and rule, no rows


def test_inspect_json_format_echoes_canonically(toy, tmp_path, capsys):
    state = account_mint(AccountState(), derive_wallet(toy, "echo").address, 3)
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
        {"kernel": "token", "objects": {}, "authoritative": "no"},
        {"kernel": "token", "objects": {}, "authoritative": True},
        {"kernel": "account", "balances": {"a" * 64: 3}, "nonces": {"b" * 64: 2}},
        {"kernel": "account", "balances": {"not-an-address": 5}},
        {"kernel": "token", "objects": {"t": {"value": 1, "owner": "nobody"}}},
        {"kernel": "account", "balances": {"a" * 64: TWO_TO_THE_64}},
        {"kernel": "account", "balances": {"a" * 64: 1}, "nonces": {"a" * 64: TWO_TO_THE_64}},
        {"kernel": "token", "objects": {"t": {"value": TWO_TO_THE_64, "owner": "a" * 64}}},
        {"kernel": "account", "balances": {}, "junk": 1},
        {"kernel": "token", "objects": {}, "junk": 1},
        {"kernel": "utxo", "active": {}, "junk": [1]},
        {"kernel": "utxo", "active": {}, "log_length": "abc"},
        {"kernel": "utxo", "active": {}, "log_length": -1},
        {"kernel": "utxo", "active": {}, "log_length": True},
        {"kernel": "utxo", "active": {}, "allow_p2h": 5},
        {"kernel": "utxo", "active": {}, "issuer_public_key": 7},
        {"kernel": "utxo", "active": {}, "issuer_public_key": "AB"},
    ],
    ids=[
        "account-balances-list",
        "utxo-entry-not-object",
        "kernel-not-a-string",
        "token-authoritative-string",
        "token-authoritative-true",
        "account-nonce-without-balance",
        "account-address-not-hex",
        "token-owner-not-an-address",
        "account-balance-2^64",
        "account-nonce-2^64",
        "token-value-2^64",
        "account-unknown-key",
        "token-unknown-key",
        "utxo-unknown-key",
        "utxo-log-length-string",
        "utxo-log-length-negative",
        "utxo-log-length-bool",
        "utxo-allow-p2h-int",
        "utxo-issuer-key-int",
        "utxo-issuer-key-uppercase",
    ],
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


def _non_canonical_outpoints(outpoint):
    """What int() and bytes.fromhex() read of an outpoint but render() never
    writes for one the wire can carry."""
    txid_hex, index = outpoint.txid.hex(), str(outpoint.index)
    return {
        "uppercase-and-signed": f"{txid_hex.upper()}:+0{index}",
        "uppercase": f"{txid_hex.upper()}:{index}",
        "spaced-hex": f"{txid_hex[:32]} {txid_hex[32:]}:{index}",
        "signed": f"{txid_hex}:+{index}",
        "leading-zero": f"{txid_hex}:0{index}",
        "underscore": f"{txid_hex}:{index}_0",
        "arabic-indic-digit": txid_hex + ":" + chr(0x660 + outpoint.index),
        "index-2^32": f"{txid_hex}:{outpoint.index + (1 << 32)}",
    }


@pytest.mark.parametrize("rewrite", list(_non_canonical_outpoints(UtxoId(bytes(32), 1))))
def test_inspect_refuses_an_outpoint_key_render_never_writes(toy, tmp_path, capsys, rewrite):
    owner = derive_wallet(toy, "inspect-owner")
    issuer = toy.keygen(b"inspect-issuer")
    chain = coinbase_issue(
        Chainstate.genesis(issuer.public_key), [(5, lock_to_wallet(owner))] * 2, issuer, toy
    )
    doc = reference_snapshot(chain)
    outpoint = UtxoId(txid_of(chain.log[-1]), 1)
    doc["active"][_non_canonical_outpoints(outpoint)[rewrite]] = doc["active"].pop(
        outpoint.render()
    )
    path = tmp_path / "rewritten.json"
    path.write_text(canonical_json(doc), encoding="utf-8")
    for fmt in ("table", "json"):
        assert main(["inspect", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert "bad outpoint" in captured.err and len(captured.err.splitlines()) == 1
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


def test_trace_verifies_a_log_written_with_real_crypto(tmp_path):
    """trace takes no crypto mode: it verifies each key by its own tag."""
    out = tmp_path / "real"
    argv = ["run", scenario_path("utxo_basic.json"), "--crypto", "real", "--out", str(out)]
    assert run_main(argv)[0] == 0
    doc = json.loads((out / "log.json").read_text(encoding="utf-8"))
    leaf = doc["txs"][-1]["txid"] + ":0"
    code, stdout, stderr = run_main(["trace", str(out / "log.json"), leaf])
    assert (code, stderr) == (0, "")
    steps = [line for line in stdout.splitlines() if line.startswith("step ")]
    assert len(steps) > 1 and all(line.split()[2] == "verified" for line in steps)
    assert stdout.splitlines()[-1] == "terminal: coinbase at log position 0"


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


@pytest.mark.parametrize("rewrite", list(_non_canonical_outpoints(UtxoId(bytes(32), 0))))
def test_trace_target_render_never_writes_exits_2(traced_log, capsys, rewrite):
    path, _, leaf, _ = traced_log
    target = _non_canonical_outpoints(UtxoId.parse(leaf))[rewrite]
    assert main(["trace", str(path), target]) == 2
    captured = capsys.readouterr()
    assert "bad outpoint" in captured.err and captured.out == ""


@pytest.mark.parametrize("defect", ["cyclic-links", "input-less-row", "allow-p2h-string"])
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
    elif defect == "allow-p2h-string":
        doc["allow_p2h"] = "no"
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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | WIDE_INTS | st.floats() | st.text(max_size=8)
    | st.sampled_from(["", "00", "zz", "ff" * 32 + ":0", "PUSH:00 CHECKSIG"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def fuzz_documents(toy, traced_log):
    """A valid snapshot of each kernel, and the traced log, to mutate."""
    log = traced_log[1]
    payer, payee = (derive_wallet(toy, f"fuzz-{i}") for i in range(2))
    accounts = account_mint(AccountState(), payer.address, 9)
    accounts = account_mint(accounts, payee.address, 2)
    transfer = make_account_tx(toy, payer, payee.address, 4, nonce=0)
    accounts = account_apply(accounts, transfer, "nonce-protected", toy)
    tokens = token_issue(TokenRegistry(), "tok-1", 9, payer.address)
    tokens = token_issue(tokens, "tok-2", 3, payee.address)
    return {
        "account": account_snapshot(accounts),
        "token": token_snapshot(tokens),
        "utxo": reference_snapshot(import_log(log, toy)),
        "log": log,
    }


HEX_DIGITS = "0123456789abcdef"
# Mutations that keep a slot's type reach past the decoders: "int" puts an
# int where one was, "hex" overwrites part of a hex string in place.
KEEPS_TYPE = {
    "int": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "hex": lambda value: isinstance(value, str) and value and set(value) <= set(HEX_DIGITS),
    "truncate": lambda value: isinstance(value, str) and value,
}


@settings(max_examples=200)
@given(data=st.data())
def test_inspect_and_trace_exit_0_2_or_3_on_mutated_documents(
    data, fuzz_documents, traced_log, tmp_path_factory
):
    kind = data.draw(st.sampled_from(sorted(fuzz_documents)))
    doc = copy.deepcopy(fuzz_documents[kind])
    for _ in range(data.draw(st.integers(1, 3))):
        mutation = data.draw(st.sampled_from(["set", "drop", "truncate", "int", "hex"]))
        slots = json_slots(doc, [])
        if mutation in KEEPS_TYPE:
            slots = [(c, k) for c, k in slots if KEEPS_TYPE[mutation](c[k])]
        if not slots:
            continue
        container, key = slots[data.draw(st.integers(0, len(slots) - 1))]
        if mutation == "set":
            container[key] = data.draw(JSON_VALUES)
        elif mutation == "drop":
            del container[key]
        elif mutation == "int":
            container[key] = data.draw(WIDE_INTS)
        elif mutation == "hex":
            text = container[key]
            at = data.draw(st.integers(0, len(text) - 1))
            patch = data.draw(st.text(HEX_DIGITS, min_size=1, max_size=min(8, len(text) - at)))
            container[key] = text[:at] + patch + text[at + len(patch) :]
        else:
            text = container[key]
            container[key] = text[: data.draw(st.integers(0, len(text) - 1))]
    path = tmp_path_factory.mktemp("fuzz") / f"{kind}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if kind == "log":
        argv = ["trace", str(path), data.draw(st.sampled_from(traced_log[2:]))]
    else:
        fmt = data.draw(st.sampled_from(["table", "json"]))
        argv = ["inspect", str(path), "--format", fmt]
    code, _, err = run_main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


# -- hostile bytes -----------------------------------------------------------


def every_reader(path, target):
    """The argv of each command that reads a document from `path`."""
    return [["inspect", str(path)], ["trace", str(path), target], ["run", str(path)]]


# Inputs that the strict JSON reader refuses: bytes that are not UTF-8,
# nesting past the recursion limit, an integer literal past CPython's digit
# limit, the constants json.dumps writes for NaN and the infinities, and an
# object that repeats a key.
UNREADABLE = {
    "not-utf-8": b"\xff\xfe{}",
    "nested-100000-deep": b"[" * 100_000,
    "5000-digit-literal": b'{"kernel": "account", "seed": ' + b"7" * 5000 + b"}",
    "nan": b'{"kernel": "account", "balances": {}, "junk": NaN}',
    "infinity": b'{"kernel": "account", "balances": {}, "junk": Infinity}',
    "negative-infinity": b'{"kernel": "account", "balances": {}, "junk": [-Infinity]}',
    "repeated-key": b'{"kernel": "account", "balances": {}, "kernel": "account"}',
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_input_exits_2_with_one_line(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNREADABLE[name])
    for argv in every_reader(path, "00" * 32 + ":0"):
        code, out, err = run_main(argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1, err


def test_a_fifo_exits_2_without_being_opened(tmp_path):
    """Opening a FIFO blocks until a writer comes, so the reader refuses
    any path that is not a regular file before it opens it. Run as a child
    with a timeout: a reader that opened the FIFO would hang."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("os.mkfifo is not available on this system")
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    code, out, err = cli_child(
        [sys.executable, "-m", "ledgerlab.cli", "inspect", str(fifo)], subprocess.PIPE, True
    )
    assert (code, out) == (2, b"")
    assert err.splitlines() == [f"cannot read snapshot file {str(fifo)!r}: not a regular file"]


def test_a_document_over_the_bound_exits_2_before_a_byte_is_decoded(monkeypatch, tmp_path):
    """Every reader refuses a document over MAX_DOCUMENT_BYTES by its size,
    so this one's bytes, which are not UTF-8, are never read."""
    path = tmp_path / "big.json"
    path.write_bytes(b"\xff" * 100)
    monkeypatch.setattr("ledgerlab.cli.MAX_DOCUMENT_BYTES", 99)
    for argv in every_reader(path, "00" * 32 + ":0"):
        code, out, err = run_main(argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1, err
        assert err.endswith(f"{str(path)!r}: larger than 99 bytes\n"), err


@pytest.mark.parametrize("grown", [False, True], ids=["at-stat", "grown-after-stat"])
def test_a_document_one_byte_over_the_bound_exits_2(grown, monkeypatch, tmp_path):
    """The bound is inclusive. A document that grew after its size was
    read is refused by what the bounded read returns."""
    path = tmp_path / "state.json"
    path.write_text(
        canonical_json(account_snapshot(account_mint(AccountState(), "00" * 32, 3))),
        encoding="utf-8",
    )
    size = path.stat().st_size
    if grown:
        real_stat = os.stat

        def stat_before_growth(target, **options):
            before = real_stat(target, **options)
            return os.stat_result((*before[:6], 0, *before[7:]))

        monkeypatch.setattr(os, "stat", stat_before_growth)
    monkeypatch.setattr("ledgerlab.cli.MAX_DOCUMENT_BYTES", size)
    assert run_main(["inspect", str(path)])[0] == 0
    monkeypatch.setattr("ledgerlab.cli.MAX_DOCUMENT_BYTES", size - 1)
    code, out, err = run_main(["inspect", str(path)])
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"cannot read snapshot file {str(path)!r}: larger than {size - 1} bytes"
    ]


def test_deep_nesting_exits_2_from_the_installed_module(tmp_path):
    """Run as its own process, so the recursion limit meets a real stack."""
    path = tmp_path / "deep.json"
    path.write_bytes(UNREADABLE["nested-100000-deep"])
    package_root = str(Path(ledgerlab.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "ledgerlab.cli", "inspect", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert "malformed snapshot file" in result.stderr


def test_run_refuses_balances_of_4300_digits_at_the_first_issue(tmp_path):
    """Two mints of a 4 300-digit amount to one account: the first is
    refused, so no balance too wide to print is ever reported."""
    doc = json.loads((SCENARIO_DIR / "account_naive_replay.json").read_text(encoding="utf-8"))
    issues = [action for action in doc["actions"] if action["action"] == "issue"]
    assert len(issues) == 2
    for action in issues:
        action.update(to="alice", amount=10**4299)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_main(["run", str(path)])
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "execution failed at action 0: action 0 (issue) failed: "
        f"amount exceeds the 64-bit range (at most {(1 << 64) - 1})"
    ]


@pytest.fixture(scope="module")
def real_files(tmp_path_factory):
    """The bytes of each bundled scenario this property mutates, and of the
    log and state that `run --out` writes for one, with a traceable outpoint."""
    out = tmp_path_factory.mktemp("real-files")
    code, _, _ = run_main(["run", scenario_path("utxo_basic.json"), "--out", str(out)])
    assert code == 0
    files = {name: (SCENARIO_DIR / name).read_bytes() for name in FUZZED_SCENARIOS}
    files["log.json"] = (out / "log.json").read_bytes()
    files["state.json"] = (out / "state.json").read_bytes()
    target = json.loads(files["log.json"])["txs"][0]["txid"] + ":0"
    return files, target


def mutate_bytes(data, draw):
    """Apply one byte-level mutation to `data`, drawn with `draw`."""
    mutation = draw(st.sampled_from(["flip", "truncate", "insert", "duplicate", "wrap"]))
    at = draw(st.integers(0, len(data)))
    if mutation == "flip":
        # One bit: a digit often stays a digit, so the document may still parse.
        bit = 1 << draw(st.integers(0, 7))
        return data[:at] + bytes(byte ^ bit for byte in data[at : at + 1]) + data[at + 1 :]
    if mutation == "truncate":
        return data[:at]
    if mutation == "insert":
        return data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]
    if mutation == "duplicate":
        end = draw(st.integers(at, len(data)))
        return data[:end] + data[at:end] + data[end:]
    depth = draw(st.integers(1, 3))
    return b"[" * depth + data + b"]" * draw(st.integers(0, depth))


@settings(max_examples=200)
@given(data=st.data())
def test_every_reader_exits_0_2_or_3_on_mutated_bytes(data, real_files, tmp_path_factory):
    files, target = real_files
    name = data.draw(st.sampled_from(sorted(files)))
    raw = files[name]
    for _ in range(data.draw(st.integers(1, 3))):
        raw = mutate_bytes(raw, data.draw)
    path = tmp_path_factory.mktemp("bytes") / name
    path.write_bytes(raw)
    for argv in every_reader(path, target):
        code, _, err = run_main(argv)
        event(f"{argv[0]} exit {code}")
        assert code in (0, 2, 3), err
        assert "Traceback" not in err


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


@pytest.mark.parametrize(
    "argv, env",
    [
        (["run", scenario_path("token_basic.json"), "--seed", "-5"], None),
        (["tables", "--seed", "-1"], None),
        (["tables"], "-3"),
    ],
    ids=["run-flag", "tables-flag", "env"],
)
def test_a_negative_seed_exits_2_like_a_negative_document_seed(
    argv, env, monkeypatch, capsys
):
    if env is None:
        monkeypatch.delenv("LEDGERLAB_SEED", raising=False)
    else:
        monkeypatch.setenv("LEDGERLAB_SEED", env)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "seed must be a non-negative integer" in captured.err


def test_explicit_seed_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("LEDGERLAB_SEED", "5")
    assert main(["run", scenario_path("token_basic.json"), "--seed", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9


# -- output ------------------------------------------------------------------


def cli_child(argv, stdout, unbuffered, hash_seed=None, **options):
    """`python -m ledgerlab.cli argv` as a child process with the given
    stdout and any further subprocess.run options, returning its exit
    code, stdout (if piped) and stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(ledgerlab.__file__).resolve().parents[1])}
    env.pop("LEDGERLAB_SEED", None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    result = subprocess.run(
        argv, stdout=stdout, stderr=subprocess.PIPE, timeout=120, env=env, **options
    )
    return result.returncode, result.stdout, result.stderr.decode("utf-8")


@pytest.fixture(scope="module")
def command_argv(traced_log, tmp_path_factory):
    """One argv per command, each of which prints to stdout on success."""
    snapshot = tmp_path_factory.mktemp("emit") / "account.json"
    snapshot.write_text(
        canonical_json(account_snapshot(account_mint(AccountState(), "00" * 32, 3))),
        encoding="utf-8",
    )
    path, _, leaf, _ = traced_log
    return {
        "run": ["run", scenario_path("utxo_basic.json")],
        "inspect": ["inspect", str(snapshot)],
        "trace": ["trace", str(path), leaf],
        "tables": ["tables"],
        "--help": ["--help"],
        "run --help": ["run", "--help"],
    }


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "command, sink",
    [
        ("run", "closed-pipe"),
        ("inspect", "closed-pipe"),
        ("trace", "closed-pipe"),
        ("run", "full-device"),
        ("tables", "full-device"),
        ("tables", "closed-stdout"),
        ("--help", "closed-pipe"),
        ("run --help", "closed-pipe"),
    ],
)
def test_unwritable_stdout_exits_3_with_one_line(command, sink, unbuffered, command_argv):
    """Whatever the buffering, a write that cannot land is one stderr line
    and exit 3: not a traceback (exit 1), nor a failed final flush (120)."""
    argv = [sys.executable, "-m", "ledgerlab.cli", *command_argv[command]]
    if sink == "closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, _, err = cli_child(argv, write_end, unbuffered)
        finally:
            os.close(write_end)
    elif sink == "full-device":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system to fill stdout with")
        with open("/dev/full", "wb") as full:
            code, _, err = cli_child(argv, full, unbuffered)
    else:
        # The shell starts the child with descriptor 1 closed.
        code, _, err = cli_child(["/bin/sh", "-c", 'exec "$@" >&-', "sh", *argv], None, unbuffered)
    assert "Traceback" not in err
    assert code == 3, err
    assert len(err.splitlines()) == 1
    assert err.startswith("cannot write output: ")


def test_a_failed_report_write_keeps_every_report_whole(tmp_path):
    """A report write that fails (here at a file-size limit set in the
    child) leaves the reports written before it complete, the report it
    would have replaced as it was, and no temporary file behind."""
    resource = pytest.importorskip("resource")
    if not hasattr(signal, "SIGXFSZ"):
        pytest.skip("no SIGXFSZ on this system to turn a size limit into an error")
    scenario = scenario_path("utxo_basic.json")
    whole = tmp_path / "whole"
    assert run_main(["run", scenario, "--out", str(whole)])[0] == 0
    first, failing = sorted(whole.iterdir())[:2]
    limit = first.stat().st_size
    assert failing.stat().st_size > limit
    out = tmp_path / "out"
    out.mkdir()
    (out / failing.name).write_text("an earlier report\n", encoding="utf-8")

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    argv = [sys.executable, "-m", "ledgerlab.cli", "run", scenario, "--out", str(out)]
    code, _, err = cli_child(argv, subprocess.PIPE, True, preexec_fn=limit_file_size)
    assert "Traceback" not in err
    assert code == 3, err
    assert err.splitlines()[0] == f"wrote {out / first.name}"
    assert err.splitlines()[1].startswith("cannot write reports: ")
    assert len(err.splitlines()) == 2
    assert sorted(path.name for path in out.iterdir()) == [first.name, failing.name]
    assert (out / first.name).read_bytes() == first.read_bytes()
    assert (out / failing.name).read_text(encoding="utf-8") == "an earlier report\n"


def test_output_bytes_do_not_depend_on_the_hash_seed():
    """Every bundled scenario and `tables` print the same bytes under two
    string-hash seeds, so no output order rests on set or dict hashing.
    One child per seed runs the eight commands in turn."""
    commands = [["run", scenario_path(path.name)] for path in sorted(SCENARIO_DIR.iterdir())]
    commands.append(["tables"])
    assert len(commands) == 8
    script = (
        "import json, sys\n"
        "from ledgerlab.cli import main\n"
        "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n"
    )
    argv = [sys.executable, "-c", script, json.dumps(commands)]
    outputs = [cli_child(argv, subprocess.PIPE, True, seed) for seed in (0, 987654)]
    assert outputs[0][0] == 0, outputs[0][2]
    assert outputs[0] == outputs[1]


# -- wiring ------------------------------------------------------------------


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_synopsis():
    """{command: (positional count, {option: its value word})} read from the
    fenced `ledgerlab ...` block under "## Command line"."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```", 2)[1]
    synopsis = {}
    for line in block.strip().splitlines():
        program, command, rest = line.split(" ", 2)
        assert program == "ledgerlab", line
        options = dict(re.findall(r"\[(--[a-z-]+)(?: ([^\]]+))?\]", rest))
        synopsis[command] = (len(re.findall(r"<[^>]+>", rest)), options)
    return synopsis


def parser_synopsis():
    """The same shape built from each subparser of cli.build_parser(): an
    option's word is its choices joined by "|", or its metavar or dest."""
    (commands,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    synopsis = {}
    for command, parser in commands.choices.items():
        positionals = [action for action in parser._actions if not action.option_strings]
        options = {
            action.option_strings[-1]: "|".join(action.choices) if action.choices
            else (action.metavar or action.dest.upper())
            for action in parser._actions
            if action.option_strings and action.dest != "help"
        }
        synopsis[command] = (len(positionals), options)
    return synopsis


def test_readme_synopsis_matches_the_parser():
    """Every command, positional count, option and option value the README
    lists is the parser's, and no more: `trace` takes no --crypto."""
    assert readme_synopsis() == parser_synopsis()


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
