"""Lineage, metrics, growth curves, fraud probes, the claim matrix."""

import pytest

from oracles import reference_backward_chain
from ledgerlab.accounts import AccountState, account_mint
from ledgerlab.analysis import (
    audit_replay,
    audit_trace,
    growth_report,
    lineage_dag,
    matrix_report,
    measure_state,
    pseudonym_growth_experiment,
    render_tables_text,
    run_fraud_scenario,
    trace_lineage,
    traceability_report,
)
from ledgerlab.crypto import derive_wallet, digest
from ledgerlab.errors import ConfigError, NotFoundError
from ledgerlab.rng import SeededStream
from ledgerlab.tokens import TokenRegistry, token_issue
from ledgerlab.utxo import (
    Chainstate,
    LogEntry,
    TxInput,
    TxOutput,
    UtxoId,
    UtxoTx,
    coinbase_issue,
    decode_log_entries,
    export_log,
    lock_to_wallet,
    merge_payment,
    split_payment,
    txid_of,
    utxo_apply,
)
from test_utxo import random_ledger, tip


@pytest.fixture(scope="module")
def three_step_chain(toy):
    """coinbase(10 -> a) -> split(4 -> b) -> split(1 -> c)."""
    issuer = toy.keygen(b"lineage-issuer")
    a = derive_wallet(toy, "lineage-a")
    b = derive_wallet(toy, "lineage-b")
    c = derive_wallet(toy, "lineage-c")
    state = Chainstate.genesis(issuer.public_key)
    state = coinbase_issue(state, [(10, lock_to_wallet(a))], issuer, toy)
    coinbase_out = tip(state)
    first = split_payment(toy, state, a, coinbase_out, 4, lock_to_wallet(b))
    state = utxo_apply(state, first, toy)
    second = split_payment(
        toy, state, b, UtxoId(txid=txid_of(first), index=0), 1, lock_to_wallet(c)
    )
    state = utxo_apply(state, second, toy)
    leaf = UtxoId(txid=txid_of(second), index=0)
    return state, leaf, coinbase_out


def test_three_step_lineage(three_step_chain):
    state, leaf, coinbase_out = three_step_chain
    chain = trace_lineage(state.log, leaf)
    assert len(chain) == 3
    assert chain.steps[0].produced == leaf
    assert chain.steps[-1].consumed is None
    assert chain.terminal_txid == coinbase_out.txid
    # adjacent steps link consumed-to-produced
    for earlier, later in zip(chain.steps, chain.steps[1:]):
        assert earlier.consumed == later.produced


def test_coinbase_output_traces_to_itself(three_step_chain):
    state, _, coinbase_out = three_step_chain
    chain = trace_lineage(state.log, coinbase_out)
    assert len(chain) == 1
    assert chain.terminal_txid == coinbase_out.txid


def test_unknown_target_rejected(three_step_chain):
    state, leaf, _ = three_step_chain
    with pytest.raises(NotFoundError):
        trace_lineage(state.log, UtxoId(txid=digest(b"nowhere"), index=0))
    with pytest.raises(NotFoundError):
        trace_lineage(state.log, UtxoId(txid=leaf.txid, index=9))


def test_lineage_matches_brute_force_oracle(toy):
    """Every active output of a 50-tx random ledger traces to the same
    chain the backward rescan finds, and chains stay within log length."""
    issuer = toy.keygen(b"oracle-issuer")
    parties = [derive_wallet(toy, f"oracle-party-{i}") for i in range(3)]
    state = random_ledger(toy, "lineage-oracle", 50, issuer, parties)
    assert len(state.log) >= 30
    for outpoint in sorted(state.active, key=lambda o: (o.txid, o.index)):
        chain = trace_lineage(state.log, outpoint)
        expected = reference_backward_chain(state.log, outpoint)
        assert expected is not None
        assert [step.txid for step in chain.steps] == expected
        assert len(chain) <= len(state.log)


def test_lineage_dag_includes_merge_parents(toy):
    issuer = toy.keygen(b"dag-issuer")
    a = derive_wallet(toy, "dag-a")
    state = Chainstate.genesis(issuer.public_key)
    state = coinbase_issue(state, [(3, lock_to_wallet(a))], issuer, toy)
    left = tip(state)
    state = coinbase_issue(state, [(5, lock_to_wallet(a))], issuer, toy)
    right = tip(state)
    merged = merge_payment(toy, state, a, [left, right], lock_to_wallet(a))
    state = utxo_apply(state, merged, toy)
    doc = lineage_dag(state.log, tip(state))
    merge_edges = [e for e in doc["edges"] if e["txid"] == txid_of(merged).hex()]
    assert len(merge_edges) == 1
    assert len(merge_edges[0]["consumed"]) == 2
    assert len(doc["nodes"]) == 3  # the two coinbase outputs and the merged one


def test_measure_state_counts(toy, three_step_chain):
    state, *_ = three_step_chain
    metrics = measure_state(state)
    assert metrics.kernel == "utxo"
    assert metrics.entry_count == len(state.active) == 3
    assert metrics.log_length == 3

    accounts = AccountState.empty()
    for name in ("x", "y", "z"):
        accounts = account_mint(accounts, derive_wallet(toy, name).address, 1)
    assert measure_state(accounts).entry_count == 3

    registry = TokenRegistry.empty()
    for i in range(5):
        registry = token_issue(registry, f"t{i}", 1, "nobody")
    assert measure_state(registry).entry_count == 5

    with pytest.raises(ConfigError):
        measure_state(object())


def test_growth_fresh_addresses_grow_linearly(toy):
    curve = pseudonym_growth_experiment(
        100, "fresh-address-per-payment", "account", toy
    )
    assert len(curve) == 100
    assert curve[-1].entry_count >= 100
    counts = [m.entry_count for m in curve]
    assert counts == sorted(counts)


def test_growth_reused_addresses_stay_bounded(toy):
    curve = pseudonym_growth_experiment(100, "reuse-address", "account", toy)
    assert curve[-1].entry_count == 2
    assert all(m.entry_count == 2 for m in curve)


def test_growth_utxo_split_adds_one_per_payment(toy):
    for policy in ("reuse-address", "fresh-address-per-payment"):
        curve = pseudonym_growth_experiment(30, policy, "utxo", toy, seed=3)
        counts = [m.entry_count for m in curve]
        assert counts == list(range(2, 32))


def test_growth_validations(toy):
    with pytest.raises(ConfigError):
        pseudonym_growth_experiment(0, "reuse-address", "account", toy)
    with pytest.raises(ConfigError):
        pseudonym_growth_experiment(5, "burn-address", "account", toy)
    with pytest.raises(ConfigError):
        pseudonym_growth_experiment(5, "reuse-address", "token", toy)


def test_growth_report_shape(toy):
    doc = growth_report(10, "account", toy, participants=3)
    assert doc["final_entry_count"]["reuse-address"] == 3
    assert doc["final_entry_count"]["fresh-address-per-payment"] >= 10
    assert len(doc["curves"]["reuse-address"]) == 10


def test_fraud_double_spend_outcomes(toy):
    assert run_fraud_scenario("double-spend", "utxo", 1, toy).outcome == "prevented"
    assert (
        run_fraud_scenario("double-spend", "account-naive", 1, toy).outcome
        == "prevented-by-balance"
    )
    assert run_fraud_scenario("double-spend", "token", 1, toy).outcome == "prevented"


def test_fraud_replay_outcomes(toy):
    utxo = run_fraud_scenario("replay", "utxo", 1, toy)
    assert utxo.outcome == "prevented"
    assert utxo.evidence["state_identical_to_single_application"] is True

    naive = run_fraud_scenario("replay", "account-naive", 1, toy)
    assert naive.outcome == "succeeded"
    assert naive.evidence["times_applied"] == 3  # the original plus 2 replays
    assert naive.evidence["replays_attempted"] == 2

    protected = run_fraud_scenario("replay", "account-nonce-protected", 1, toy)
    assert protected.outcome == "prevented"
    assert protected.evidence["times_applied"] == 1

    assert run_fraud_scenario("replay", "token", 1, toy).outcome == "prevented"


def test_naive_replays_past_the_balance_are_refused_not_raised(toy):
    """10 units pay 3 three times (the original and two replays); the
    last two replays fail the funds check, the first refusal reported."""
    naive = run_fraud_scenario("replay", "account-naive", 1, toy, replays=4)
    assert naive.outcome == "succeeded"
    assert naive.evidence["times_applied"] == 3
    assert naive.evidence["final_payer_balance"] == 1
    assert naive.evidence["rejection"] == "payer holds 1, cannot send 3"


def test_fraud_rejects_unknown_pairs(toy):
    with pytest.raises(ConfigError):
        run_fraud_scenario("forgery", "utxo", 1, toy)
    with pytest.raises(ConfigError):
        run_fraud_scenario("replay", "ecash", 1, toy)


def test_fraud_reports_are_deterministic(toy):
    for scenario in ("double-spend", "replay"):
        for kernel in ("utxo", "account-naive", "account-nonce-protected", "token"):
            first = run_fraud_scenario(scenario, kernel, 7, toy)
            second = run_fraud_scenario(scenario, kernel, 7, toy)
            assert first.doc() == second.doc()


def test_traceability_verdicts(toy):
    utxo = traceability_report("utxo", 2, toy)
    assert utxo.traceable == "yes"
    assert utxo.evidence["chain"]["length"] == 3

    account = traceability_report("account", 2, toy)
    assert account.traceable == "no"
    assert account.evidence["snapshots_byte_equal"] is True
    assert len(account.evidence["history_one"]) == 1
    assert len(account.evidence["history_two"]) == 3

    token = traceability_report("token", 2, toy)
    assert token.traceable == "no"
    assert token.evidence["authoritative"] is False

    with pytest.raises(ConfigError):
        traceability_report("ecash", 2, toy)


def test_matrix_rows(toy):
    doc = matrix_report(11, toy)
    assert doc["rows"] == {
        "double-spend": {
            "utxo": "prevented",
            "account": "prevented-by-balance",
            "token": "prevented",
        },
        "replay": {
            "utxo": "prevented",
            "account-naive": "succeeded",
            "account-nonce-protected": "prevented",
            "token": "prevented",
        },
        "traceability": {"utxo": "yes", "account": "no", "token": "no"},
    }
    assert doc["detail"]["replay-utxo-state-identical"] is True
    assert doc["detail"]["replay-naive-times-applied"] == 3
    assert doc["detail"]["traceability-utxo-chain-length"] == 3
    assert doc["detail"]["traceability-account-snapshots-byte-equal"] is True


def test_tables_text_layout(toy):
    text = render_tables_text(matrix_report(11, toy))
    lines = text.splitlines()
    assert lines[0].split() == ["property", "account", "token", "utxo"]
    assert "succeeded (naive) / prevented (nonce-protected)" in text
    assert text.endswith("\n")


def test_audit_replay_flags_tampered_entry(toy):
    issuer = toy.keygen(b"audit-issuer")
    parties = [derive_wallet(toy, f"audit-party-{i}") for i in range(2)]
    state = random_ledger(toy, "audit-ledger", 8, issuer, parties)
    doc = export_log(state)

    _, _, entries = decode_log_entries(doc)
    clean = audit_replay(entries, issuer.public_key, toy, allow_p2h=True)
    assert all(step.ok for step in clean)

    raw = bytearray(bytes.fromhex(doc["txs"][4]["raw"]))
    raw[60] ^= 0x01  # one byte inside the first input's signature push
    doc["txs"][4]["raw"] = bytes(raw).hex()
    _, _, entries = decode_log_entries(doc)
    audited = audit_replay(entries, issuer.public_key, toy, allow_p2h=True)
    assert not audited[4].ok
    assert not audited[4].txid_matches
    assert all(step.ok for step in audited[:4])


def test_audit_replay_keeps_an_invalid_rows_inputs_spent(toy):
    """An invalid row is still carried forward: a never-created outpoint
    it names counts as spent for every later row naming it."""
    issuer = toy.keygen(b"audit-ghost-issuer")
    lock = lock_to_wallet(derive_wallet(toy, "audit-ghost-party"))
    genesis = coinbase_issue(Chainstate.genesis(issuer.public_key), [(5, lock)], issuer, toy)
    ghost = UtxoId(txid=digest(b"never created"), index=0)
    rows = [genesis.log[0]] + [
        UtxoTx(
            kind="normal",
            inputs=(TxInput(outpoint=ghost, unlocking=()),),
            outputs=(TxOutput(value=value, locking=lock),),
        )
        for value in (1, 2)
    ]
    entries = [LogEntry(recorded_txid=txid_of(tx), tx=tx) for tx in rows]
    audits = audit_replay(entries, issuer.public_key, toy)
    assert audits[0].ok
    assert audits[1].report.reasons == ("unknown-input",)
    assert audits[2].report.reasons == ("spent-input",)


def test_audit_trace_ok_and_failure(toy, three_step_chain):
    state, leaf, _ = three_step_chain
    doc = export_log(state)
    _, _, entries = decode_log_entries(doc)
    audit = audit_trace(entries, state.issuer_public_key, toy, leaf)
    assert audit.ok
    assert len(audit.steps) == 3

    raw = bytearray(bytes.fromhex(doc["txs"][1]["raw"]))
    raw[60] ^= 0x01  # corrupt the unlocking signature, keep the row decodable
    doc["txs"][1]["raw"] = bytes(raw).hex()
    _, _, entries = decode_log_entries(doc)
    broken = audit_trace(entries, state.issuer_public_key, toy, leaf)
    assert not broken.ok
    assert broken.first_failure is not None
