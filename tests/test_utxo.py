"""Outpoint kernel: validation, atomic application, log replay."""

import copy
import dataclasses
import sys
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import consumed_outpoints, reference_active_set
from ledgerlab.analysis import audit_replay
from ledgerlab.crypto import derive_wallet, digest
from ledgerlab.encoding import canonical_json
from ledgerlab.errors import (
    AuthError,
    FormatError,
    NotFoundError,
    TxRejected,
)
from ledgerlab.rng import SeededStream
from ledgerlab.scripts import BARE_OPS, compile_p2h, push
from ledgerlab.utxo import (
    Chainstate,
    LogEntry,
    TxInput,
    TxOutput,
    UtxoId,
    UtxoTx,
    _advance,
    chainstate_snapshot,
    coinbase_issue,
    decode_log_entries,
    decode_utxo_tx,
    encode_utxo_tx,
    export_log,
    import_log,
    lock_to_wallet,
    make_coinbase,
    make_spend,
    merge_payment,
    replay_log,
    snapshot_text,
    split_payment,
    txid_of,
    utxo_apply,
    utxo_signing_payload,
    utxo_validate,
)


@pytest.fixture
def issuer(toy):
    return toy.keygen(b"issuer-fixture")


@pytest.fixture
def chain(toy, issuer, wallets):
    """Genesis plus one 12-unit coinbase paid to wallets[0]."""
    state = Chainstate.genesis(issuer.public_key)
    return coinbase_issue(state, [(12, lock_to_wallet(wallets[0]))], issuer, toy)


def tip(state, index=0):
    return UtxoId(txid=txid_of(state.log[-1]), index=index)


def test_coinbase_creates_active_output(chain, wallets):
    assert len(chain.active) == 1
    assert chain.total_active_value() == 12
    outpoint = tip(chain)
    assert chain.active[outpoint].value == 12


def test_foreign_issuer_cannot_mint(toy, chain, wallets):
    imposter = toy.keygen(b"imposter")
    with pytest.raises(AuthError):
        coinbase_issue(chain, [(5, lock_to_wallet(wallets[0]))], imposter, toy)


def test_split_pays_index_zero_change_index_one(toy, chain, wallets):
    alice, bob = wallets[0], wallets[1]
    tx = split_payment(toy, chain, alice, tip(chain), 5, lock_to_wallet(bob))
    assert len(tx.outputs) == 2
    assert tx.outputs[0].value == 5
    assert tx.outputs[0].locking == lock_to_wallet(bob)
    assert tx.outputs[1].value == 7
    assert tx.outputs[1].locking == lock_to_wallet(alice)
    after = utxo_apply(chain, tx, toy)
    assert after.total_active_value() == 12


def test_exact_split_degenerates_to_one_output(toy, chain, wallets):
    tx = split_payment(toy, chain, wallets[0], tip(chain), 12, lock_to_wallet(wallets[1]))
    assert len(tx.outputs) == 1


def test_split_bounds(toy, chain, wallets):
    with pytest.raises(FormatError):
        split_payment(toy, chain, wallets[0], tip(chain), 0, lock_to_wallet(wallets[1]))
    with pytest.raises(FormatError):
        split_payment(toy, chain, wallets[0], tip(chain), 13, lock_to_wallet(wallets[1]))
    with pytest.raises(NotFoundError):
        ghost = UtxoId(txid=digest(b"ghost"), index=0)
        split_payment(toy, chain, wallets[0], ghost, 1, lock_to_wallet(wallets[1]))


def test_merge_combines_outpoints(toy, chain, wallets):
    alice, bob = wallets[0], wallets[1]
    state = utxo_apply(
        chain, split_payment(toy, chain, alice, tip(chain), 5, lock_to_wallet(alice)), toy
    )
    pieces = [tip(state, 0), tip(state, 1)]
    merged = merge_payment(toy, state, alice, pieces, lock_to_wallet(bob))
    assert len(merged.outputs) == 1
    assert merged.outputs[0].value == 12
    after = utxo_apply(state, merged, toy)
    assert after.total_active_value() == 12
    assert len(after.active) == 1
    with pytest.raises(FormatError):
        merge_payment(toy, after, bob, [tip(after)], lock_to_wallet(alice))


def test_double_spend_is_structurally_refused(toy, chain, wallets):
    alice, bob, carol = wallets[0], wallets[1], wallets[2]
    first = split_payment(toy, chain, alice, tip(chain), 5, lock_to_wallet(bob))
    second = split_payment(toy, chain, alice, tip(chain), 5, lock_to_wallet(carol))
    state = utxo_apply(chain, first, toy)
    with pytest.raises(TxRejected) as excinfo:
        utxo_apply(state, second, toy)
    report = excinfo.value.report
    assert report is not None
    assert "spent-input" in report.reasons
    # spent vs never-existed are distinguished
    ghost_tx = dataclasses.replace(
        second,
        inputs=(
            TxInput(
                outpoint=UtxoId(txid=digest(b"ghost"), index=0),
                unlocking=second.inputs[0].unlocking,
            ),
        ),
    )
    ghost_report = utxo_validate(state, ghost_tx, toy)
    assert "unknown-input" in ghost_report.reasons


def test_replaying_an_applied_tx_is_refused(toy, chain, wallets):
    tx = split_payment(toy, chain, wallets[0], tip(chain), 4, lock_to_wallet(wallets[1]))
    state = utxo_apply(chain, tx, toy)
    before = chainstate_snapshot(state)
    with pytest.raises(TxRejected):
        utxo_apply(state, tx, toy)
    assert chainstate_snapshot(state) == before


def test_rejection_leaves_state_untouched(toy, chain, wallets):
    """Failed application is atomic: no partial debits survive."""
    alice, bob = wallets[0], wallets[1]
    good = split_payment(toy, chain, alice, tip(chain), 5, lock_to_wallet(bob))
    bad = dataclasses.replace(
        good,
        outputs=(TxOutput(value=99, locking=lock_to_wallet(bob)),) + good.outputs[1:],
    )
    before = chainstate_snapshot(chain)
    with pytest.raises(TxRejected) as excinfo:
        utxo_apply(chain, bad, toy)
    assert chainstate_snapshot(chain) == before
    assert "conservation" in excinfo.value.report.reasons


def test_conservation_is_enforced(toy, chain, wallets):
    outpoint = tip(chain)
    unsigned = UtxoTx(
        kind="normal",
        inputs=(TxInput(outpoint=outpoint, unlocking=()),),
        outputs=(TxOutput(value=11, locking=lock_to_wallet(wallets[1])),),
        issuer_signature=b"",
    )
    report = utxo_validate(chain, unsigned, toy)
    assert not report.valid
    assert "conservation" in report.reasons
    assert report.total_in == 12
    assert report.total_out == 11


def test_zero_value_outputs_rejected(toy, chain, wallets):
    tx = make_spend(
        toy,
        chain,
        [tip(chain)],
        [
            TxOutput(value=0, locking=lock_to_wallet(wallets[1])),
            TxOutput(value=12, locking=lock_to_wallet(wallets[0])),
        ],
        signer=wallets[0],
    )
    report = utxo_validate(chain, tx, toy)
    assert not report.valid
    assert any("zero-value" in reason for reason in report.reasons)


def test_structural_shape_rules(toy, issuer, chain, wallets):
    no_inputs = UtxoTx(kind="normal", inputs=(), outputs=(TxOutput(1, compile_p2h(digest(b"x"))),))
    assert not utxo_validate(chain, no_inputs, toy).valid
    coinbase_with_input = UtxoTx(
        kind="coinbase",
        inputs=(TxInput(outpoint=tip(chain), unlocking=()),),
        outputs=(TxOutput(1, compile_p2h(digest(b"x"))),),
        issuer_signature=b"",
    )
    assert not utxo_validate(chain, coinbase_with_input, toy).valid


def test_wrong_signer_fails_script_check(toy, chain, wallets):
    thief = wallets[2]
    tx = split_payment(toy, chain, thief, tip(chain), 5, lock_to_wallet(thief))
    report = utxo_validate(chain, tx, toy)
    assert not report.valid
    assert any("bad-script" in reason for reason in report.reasons)


def test_duplicate_outpoint_within_one_tx(toy, chain, wallets):
    outpoint = tip(chain)
    base = make_spend(
        toy,
        chain,
        [outpoint],
        [TxOutput(value=24, locking=lock_to_wallet(wallets[1]))],
        signer=wallets[0],
    )
    doubled = dataclasses.replace(base, inputs=(base.inputs[0], base.inputs[0]))
    report = utxo_validate(chain, doubled, toy)
    assert not report.valid
    assert any("duplicate" in reason for reason in report.reasons)


@pytest.fixture(scope="module")
def validate_world(toy, wallets):
    """A chainstate with active, spent and p2h outputs, and its outpoints
    in that order: (spent, active p2pkh, active p2pkh, active p2h)."""
    issuer = toy.keygen(b"validate-world-issuer")
    lock = lock_to_wallet(wallets[0])
    state = coinbase_issue(
        Chainstate.genesis(issuer.public_key),
        [(9, lock), (4, lock), (2, compile_p2h(digest(b"x")))],
        issuer,
        toy,
    )
    minted = txid_of(state.log[-1])
    spent = UtxoId(txid=minted, index=0)
    tx = split_payment(toy, state, wallets[0], spent, 3, lock_to_wallet(wallets[1]))
    state = utxo_apply(state, tx, toy)
    outpoints = (spent, UtxoId(txid=txid_of(tx), index=0), *(UtxoId(minted, i) for i in (1, 2)))
    return state, outpoints


SCRIPTS = st.lists(
    st.one_of(st.binary(max_size=40).map(push), st.sampled_from(list(BARE_OPS.values()))),
    max_size=5,
).map(tuple)
# An outpoint of the world by position, any 32-byte txid with a u32 index,
# or one too wide for the wire: a txid of another length, an index past u32.
OUTPOINTS = st.one_of(
    st.integers(0, 3),
    st.builds(UtxoId, txid=st.binary(min_size=32, max_size=32), index=st.integers(0, 2**32 - 1)),
    st.builds(UtxoId, txid=st.binary(max_size=40), index=st.integers(-2, 2**33)),
)
VALUES = st.one_of(
    st.integers(-3, 20),
    st.sampled_from([2**64 - 1, 2**64]),
    st.integers(-(2**70), 2**70),
)


@example(kind="normal", inputs=[(1, ())], values=[-1], signature=b"")
@example(kind="coinbase", inputs=[], values=[2**64], signature=b"\x01")
@example(kind="normal", inputs=[(UtxoId(b"x" * 5, 0), ())], values=[1], signature=b"")
@example(kind="normal", inputs=[(UtxoId(bytes(32), 2**32), ())], values=[1], signature=b"")
@given(
    kind=st.sampled_from(["normal", "coinbase"]),
    inputs=st.lists(st.tuples(OUTPOINTS, SCRIPTS), max_size=3),
    values=st.lists(VALUES, max_size=3),
    signature=st.binary(max_size=8),
)
def test_utxo_validate_never_raises_on_well_typed_transactions(
    toy, wallets, validate_world, kind, inputs, values, signature
):
    """Validation is total over transactions whose fields have their wire
    types; an out-of-range value or an outpoint too wide for the wire is
    reported, never raised, and leaves nothing to sign, so no issuer check
    or script runs."""
    state, outpoints = validate_world
    lock = lock_to_wallet(wallets[1])
    tx = UtxoTx(
        kind=kind,
        inputs=tuple(
            TxInput(outpoint=outpoints[op] if isinstance(op, int) else op, unlocking=script)
            for op, script in inputs
        ),
        outputs=tuple(TxOutput(value=value, locking=lock) for value in values),
        issuer_signature=signature,
    )
    report = utxo_validate(state, tx, toy)
    assert report.valid == (not report.reasons)
    out_of_range = any(not 0 <= value < 2**64 for value in values)
    assert ("value-range" in report.reasons) == out_of_range
    assert [status.outpoint for status in report.inputs] == [i.outpoint for i in tx.inputs]
    off_wire = any(
        not isinstance(op, int) and (len(op.txid) != 32 or not 0 <= op.index < 2**32)
        for op, _ in inputs
    )
    if off_wire:
        assert "unknown-input" in report.reasons
    if out_of_range or off_wire:
        assert "issuer-auth" not in report.reasons
        assert "bad-script" not in report.reasons
        assert not any(status.script_ok for status in report.inputs)
    if out_of_range:
        assert report.total_out is None


def test_p2h_output_spendable_by_preimage(toy, chain, wallets):
    secret = b"swordfish"
    alice, bob = wallets[0], wallets[1]
    commit = split_payment(toy, chain, alice, tip(chain), 5, compile_p2h(digest(secret)))
    state = utxo_apply(chain, commit, toy)
    locked = UtxoId(txid=txid_of(commit), index=0)
    claim = make_spend(
        toy,
        state,
        [locked],
        [TxOutput(value=5, locking=lock_to_wallet(bob))],
        preimages={locked: secret},
    )
    after = utxo_apply(state, claim, toy)
    assert after.total_active_value() == 12


def test_p2h_policy_gate(toy, issuer, wallets):
    state = Chainstate.genesis(issuer.public_key, allow_p2h=False)
    state = coinbase_issue(state, [(6, lock_to_wallet(wallets[0]))], issuer, toy)
    tx = split_payment(
        toy, state, wallets[0], tip(state), 2, compile_p2h(digest(b"s"))
    )
    report = utxo_validate(state, tx, toy)
    assert not report.valid
    assert "p2h-disabled" in report.reasons


def random_ledger(toy, seed, steps, issuer, parties):
    """Random mix of splits and merges; returns the final chainstate."""
    stream = SeededStream(seed)
    state = Chainstate.genesis(issuer.public_key)
    owners = {}
    for wallet in parties:
        state = coinbase_issue(
            state, [(stream.randbelow(40) + 10, lock_to_wallet(wallet))], issuer, toy
        )
        owners[tip(state)] = wallet
    for _ in range(steps):
        outpoint = stream.choice(sorted(owners, key=lambda o: (o.txid, o.index)))
        wallet = owners.pop(outpoint)
        payee = stream.choice(parties)
        held = state.active[outpoint].value
        mergeable = [o for o, w in owners.items() if w is wallet]
        if held == 1 or (mergeable and stream.randbelow(3) == 0):
            if not mergeable:
                owners[outpoint] = wallet
                continue
            partner = mergeable[0]
            owners.pop(partner)
            tx = merge_payment(toy, state, wallet, [outpoint, partner], lock_to_wallet(payee))
            state = utxo_apply(state, tx, toy)
            owners[tip(state)] = payee
        else:
            amount = stream.randbelow(held - 1) + 1
            tx = split_payment(toy, state, wallet, outpoint, amount, lock_to_wallet(payee))
            state = utxo_apply(state, tx, toy)
            owners[UtxoId(txid=txid_of(tx), index=0)] = payee
            if len(tx.outputs) == 2:
                owners[UtxoId(txid=txid_of(tx), index=1)] = wallet
    return state


def test_replay_matches_reference_set_arithmetic(toy, issuer):
    """The incrementally maintained active set, the from-genesis replay,
    and the hand-rolled created-minus-consumed oracle all agree."""
    parties = [derive_wallet(toy, f"ledger-party-{i}") for i in range(3)]
    for seed in range(4):
        state = random_ledger(toy, f"replay-oracle-{seed}", 25, issuer, parties)
        raw_log = list(state.log)
        replayed = replay_log(raw_log, issuer.public_key, toy)
        assert replayed.active == state.active
        flattened = {
            outpoint: (out.value, out.locking) for outpoint, out in state.active.items()
        }
        assert reference_active_set(raw_log) == flattened


def test_consumed_outpoints_helper(toy, chain, wallets):
    tx = split_payment(toy, chain, wallets[0], tip(chain), 3, lock_to_wallet(wallets[1]))
    state = utxo_apply(chain, tx, toy)
    assert consumed_outpoints(state.log) == {tx.inputs[0].outpoint}


@pytest.fixture(scope="module")
def fork_root(toy, wallets):
    """A state holding four outputs of wallets[0], shared by every example,
    so each one also branches off states that earlier examples advanced."""
    issuer = toy.keygen(b"fork-issuer")
    lock = lock_to_wallet(wallets[0])
    genesis = Chainstate.genesis(issuer.public_key)
    return coinbase_issue(genesis, [(value, lock) for value in (9, 5, 3, 1)], issuer, toy)


def expected_reasons(log, tx):
    """Oracle: the input reasons validating `tx` after `log` must give."""
    active, consumed = reference_active_set(log), consumed_outpoints(log)
    return {
        "spent-input" if tx_in.outpoint in consumed else "unknown-input"
        for tx_in in tx.inputs
        if tx_in.outpoint not in active
    }


@given(data=st.data())
def test_branching_states_match_replay_and_reference(toy, wallets, fork_root, data):
    """Applies taken from randomly chosen earlier states, read back in
    random order, each equal the replay of their own log and judge every
    transaction built in any branch as the log-derived oracle does."""
    payer, lock = wallets[0], lock_to_wallet(wallets[0])
    states, built = [fork_root], []

    def check(state):
        log = state.log
        assert state.active == replay_log(log, state.issuer_public_key, toy).active
        flattened = {op: (out.value, out.locking) for op, out in state.active.items()}
        assert flattened == reference_active_set(log)
        for tx in built:
            assert set(utxo_validate(state, tx, toy).reasons) == expected_reasons(log, tx)

    for _ in range(data.draw(st.integers(1, 10), label="steps")):
        state = data.draw(st.sampled_from(states), label="base")
        action = data.draw(st.sampled_from(["split", "resubmit", "read"]), label="action")
        if action == "read":
            check(state)
        elif action == "split":
            outpoint = data.draw(
                st.sampled_from(sorted(state.active, key=lambda o: (o.txid, o.index)))
            )
            amount = data.draw(st.integers(1, state.active[outpoint].value))
            tx = split_payment(toy, state, payer, outpoint, amount, lock)
            built.append(tx)
            states.append(utxo_apply(state, tx, toy))
        elif built:
            # A tx built in any branch: accepted iff its inputs are active here.
            tx = data.draw(st.sampled_from(built))
            expected = expected_reasons(state.log, tx)
            before = chainstate_snapshot(state)
            if expected:
                with pytest.raises(TxRejected) as excinfo:
                    utxo_apply(state, tx, toy)
                assert set(excinfo.value.report.reasons) == expected
            else:
                states.append(utxo_apply(state, tx, toy))
            assert chainstate_snapshot(state) == before
    for index in data.draw(st.permutations(range(len(states))), label="read order"):
        check(states[index])


def test_apply_allocates_per_transaction_not_per_state(toy, issuer, wallets):
    """Apply is O(|tx|): one split on a 5000-output state must allocate
    far less than a single copy of its active set."""
    lock = lock_to_wallet(wallets[0])
    genesis = Chainstate.genesis(issuer.public_key)
    state = coinbase_issue(genesis, [(2, lock)] * 5000, issuer, toy)
    tx = split_payment(toy, state, wallets[0], tip(state), 1, lock_to_wallet(wallets[1]))
    one_copy = sys.getsizeof(dict(state.active))
    tracemalloc.start()
    try:
        after = utxo_apply(state, tx, toy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(after.active) == 5001
    assert peak < one_copy / 10, (peak, one_copy)


def test_replay_and_audit_keep_no_undo_journal(toy, issuer, wallets):
    """No intermediate state of a replay or an audit escapes, so neither
    journals its rows: a replayed chain retains less than the same chain
    built by apply by at least that chain's journal, an audit's transient
    ledger is about the size of the replayed one, and the replayed state
    can still be applied to twice (which forks it)."""
    lock, payee = lock_to_wallet(wallets[0]), lock_to_wallet(wallets[1])
    state = coinbase_issue(Chainstate.genesis(issuer.public_key), [(900, lock)], issuer, toy)
    change = tip(state)
    for _ in range(300):
        tx = split_payment(toy, state, wallets[0], change, 1, payee)
        state = utxo_apply(state, tx, toy)
        change = tip(state, 1)
    txs = list(state.log)
    entries = [LogEntry(recorded_txid=txid_of(tx), tx=tx) for tx in txs]
    journal_bytes = sum(sys.getsizeof(undo) for undo in state._ledger.journal)
    tracemalloc.start()
    try:
        built = Chainstate.genesis(issuer.public_key)
        for tx in txs:
            built = utxo_apply(built, tx, toy)
        built_bytes, _ = tracemalloc.get_traced_memory()
        replayed = replay_log(txs, issuer.public_key, toy)
        replayed_bytes = tracemalloc.get_traced_memory()[0] - built_bytes
        tracemalloc.reset_peak()
        audits = audit_replay(entries, issuer.public_key, toy)
        after_audit, audit_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(audit.ok for audit in audits)
    assert built_bytes - replayed_bytes > journal_bytes, (built_bytes, replayed_bytes, journal_bytes)
    # Beside the journal-free replayed ledger, an audit's journal would show.
    audit_bytes = audit_peak - after_audit
    assert audit_bytes - replayed_bytes < journal_bytes / 2, (audit_bytes, replayed_bytes)
    assert replayed.active == built.active and not replayed._ledger.journal
    spend = split_payment(toy, replayed, wallets[0], tip(replayed, 1), 1, payee)
    other = split_payment(toy, replayed, wallets[0], tip(replayed, 1), 2, payee)
    first, second = utxo_apply(replayed, spend, toy), utxo_apply(replayed, other, toy)
    for branch in (replayed, first, second):
        assert branch.active == replay_log(branch.log, issuer.public_key, toy).active


@pytest.mark.parametrize("allow_p2h", [True, False])
def test_snapshot_text_of_empty_genesis(issuer, allow_p2h):
    genesis = Chainstate.genesis(issuer.public_key, allow_p2h=allow_p2h)
    assert '"active": {}' in snapshot_text(genesis)
    assert snapshot_text(genesis) == canonical_json(chainstate_snapshot(genesis))


@pytest.fixture(scope="module")
def snapshot_root(toy, wallets):
    """Eleven p2pkh outputs and a p2h one: with 12 outputs, rendered-key
    order ("...:10" before "...:2") and (txid, index) order differ."""
    issuer = toy.keygen(b"snapshot-issuer")
    outputs = [(value, lock_to_wallet(wallets[value % 2])) for value in range(1, 12)]
    outputs.append((5, compile_p2h(digest(b"snapshot-preimage"))))
    return coinbase_issue(Chainstate.genesis(issuer.public_key), outputs, issuer, toy)


@given(data=st.data())
def test_snapshot_text_matches_canonical_snapshot(toy, wallets, snapshot_root, data):
    """snapshot_text is canonical_json(chainstate_snapshot) for branching
    states rendered before and after they fork, including states carried
    past an invalid row by _advance, as audit_replay carries them."""
    signers = {lock_to_wallet(wallet): wallet for wallet in wallets[:2]}
    payees = [lock_to_wallet(wallets[2]), compile_p2h(digest(b"snapshot-payee"))]
    states, built = [snapshot_root], []
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        state = data.draw(st.sampled_from(states), label="base")
        action = data.draw(st.sampled_from(["split", "invalid", "render"]), label="action")
        if action == "render":
            assert snapshot_text(state) == canonical_json(chainstate_snapshot(state))
        elif action == "split":
            spendable = sorted(
                (op for op, out in state.active.items() if out.locking in signers),
                key=lambda o: (o.txid, o.index),
            )
            if not spendable:
                continue
            outpoint = data.draw(st.sampled_from(spendable))
            held = state.active[outpoint]
            amount = data.draw(st.integers(1, held.value))
            payee = data.draw(st.sampled_from(payees))
            tx = split_payment(toy, state, signers[held.locking], outpoint, amount, payee)
            built.append(tx)
            states.append(utxo_apply(state, tx, toy))
        elif built:
            # A tampered row under its honest recorded id, as in an audit.
            tx = data.draw(st.sampled_from(built))
            first = tx.outputs[0]
            forged = dataclasses.replace(
                tx, outputs=(TxOutput(first.value + 1, first.locking),) + tx.outputs[1:]
            )
            assert not utxo_validate(state, forged, toy).valid
            states.append(_advance(state, forged, txid_of(tx)))
    for index in data.draw(st.permutations(range(len(states))), label="read order"):
        state = states[index]
        assert snapshot_text(state) == canonical_json(chainstate_snapshot(state))


def test_snapshot_memo_is_invisible_to_value_semantics(toy, issuer, wallets):
    lock = lock_to_wallet(wallets[0])
    state = coinbase_issue(Chainstate.genesis(issuer.public_key), [(7, lock)], issuer, toy)
    snapshot_text(state)
    memoized, fresh = state.active[tip(state)], TxOutput(value=7, locking=lock)
    assert memoized._snapshot in snapshot_text(state)
    assert memoized == fresh and hash(memoized) == hash(fresh)
    assert dataclasses.asdict(memoized) == dataclasses.asdict(fresh)
    assert [f.name for f in dataclasses.fields(memoized)] == ["value", "locking"]
    for clone in (dataclasses.replace(memoized), copy.copy(memoized), copy.deepcopy(memoized)):
        assert clone == fresh and not hasattr(clone, "_snapshot")
    # The transaction memos (txid, signing payload) likewise.
    tx = state.log[0]
    memoized_tx, fresh_tx = decode_utxo_tx(encode_utxo_tx(tx)), dataclasses.replace(tx)
    assert not hasattr(fresh_tx, "_txid") and not hasattr(fresh_tx, "_payload")
    assert (memoized_tx._txid, memoized_tx._payload) == (txid_of(tx), utxo_signing_payload(tx))
    assert memoized_tx == fresh_tx and hash(memoized_tx) == hash(fresh_tx)
    assert dataclasses.asdict(memoized_tx) == dataclasses.asdict(fresh_tx)
    assert [f.name for f in dataclasses.fields(memoized_tx)] == [
        "kind", "inputs", "outputs", "issuer_signature"
    ]
    for clone in (
        dataclasses.replace(memoized_tx), copy.copy(memoized_tx), copy.deepcopy(memoized_tx)
    ):
        assert clone == fresh_tx
        assert not hasattr(clone, "_txid") and not hasattr(clone, "_payload")


def test_log_export_import_roundtrip(toy, issuer):
    parties = [derive_wallet(toy, f"log-party-{i}") for i in range(2)]
    state = random_ledger(toy, "log-roundtrip", 12, issuer, parties)
    doc = export_log(state)
    restored = import_log(doc, toy)
    assert restored.active == state.active
    assert [txid_of(tx) for tx in restored.log] == [txid_of(tx) for tx in state.log]


def test_import_log_rejects_tampered_ids(toy, issuer, wallets):
    state = Chainstate.genesis(issuer.public_key)
    state = coinbase_issue(state, [(4, lock_to_wallet(wallets[0]))], issuer, toy)
    doc = export_log(state)
    doc["txs"][0]["txid"] = "00" * 32
    with pytest.raises(FormatError):
        import_log(doc, toy)


def test_decode_log_entries_is_lenient_about_ids(toy, issuer, wallets):
    """The audit path must load a tampered log rather than refuse it."""
    state = Chainstate.genesis(issuer.public_key)
    state = coinbase_issue(state, [(4, lock_to_wallet(wallets[0]))], issuer, toy)
    doc = export_log(state)
    doc["txs"][0]["txid"] = "00" * 32
    _, _, entries = decode_log_entries(doc)
    assert entries[0].recorded_txid == b"\x00" * 32
    assert txid_of(entries[0].tx) != entries[0].recorded_txid


def test_make_coinbase_signature_covers_outputs(toy, issuer, wallets):
    tx = make_coinbase(toy, issuer, [(4, lock_to_wallet(wallets[0]))])
    tampered = dataclasses.replace(
        tx, outputs=(TxOutput(value=5, locking=tx.outputs[0].locking),)
    )
    state = Chainstate.genesis(issuer.public_key)
    report = utxo_validate(state, tampered, toy)
    assert not report.valid
