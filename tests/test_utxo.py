"""Outpoint kernel: validation, atomic application, log replay."""

import copy
import dataclasses
import gc
import hashlib
import pickle
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import (
    choice,
    consumed_outpoints,
    reference_active_set,
    reference_log_snapshot,
    reference_snapshot,
)
from ledgerlab.analysis import audit_replay
from ledgerlab.crypto import derive_wallet, digest
from ledgerlab.encoding import canonical_json
from ledgerlab.errors import (
    AuthError,
    FormatError,
    NotFoundError,
    TxRejected,
)
from ledgerlab.kernels import KERNEL_TABLE
from ledgerlab.replica import state_digest
from ledgerlab.rng import SeededStream
from ledgerlab.scripts import BARE_OPS, ExecResult, ExecutionContext, compile_p2h, execute, push
from ledgerlab.utxo import (
    Chainstate,
    LogEntry,
    TxInput,
    TxOutput,
    UtxoId,
    UtxoTx,
    ValidationReport,
    _advance,
    _live,
    _unjournaled_genesis,
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
    snapshot_bytes,
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
    assert sum(out.value for out in chain.active.values()) == 12
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
    assert sum(out.value for out in after.active.values()) == 12


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
    assert sum(out.value for out in after.active.values()) == 12
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


def test_replaying_a_coinbase_is_refused_whether_spent_or_not(toy, chain, wallets):
    """An input-free transaction has no input a spend check could refuse,
    so a logged one would re-create its outputs (BIP 30): replaying the
    coinbase is refused while its output is active and after it is spent."""
    coinbase = chain.log[0]
    assert utxo_validate(chain, coinbase, toy).reasons == ("duplicate-txid",)
    tx = split_payment(toy, chain, wallets[0], tip(chain), 4, lock_to_wallet(wallets[1]))
    state = utxo_apply(chain, tx, toy)
    before = chainstate_snapshot(state)
    with pytest.raises(TxRejected) as excinfo:
        utxo_apply(state, coinbase, toy)
    assert excinfo.value.report.reasons == ("duplicate-txid",)
    assert chainstate_snapshot(state) == before
    assert sum(out.value for out in state.active.values()) == 12


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


def test_multi_fault_reports_are_pinned_whole(toy, issuer, chain, wallets):
    """Each reason appears once, in the order first found; conservation
    is checked only when every input is present."""
    alice, bob = wallets[0], wallets[1]
    ghost = UtxoId(txid=digest(b"ghost"), index=0)
    p2pkh = lock_to_wallet(bob)

    gated = Chainstate.genesis(issuer.public_key, allow_p2h=False)
    coinbase = UtxoTx(
        kind="coinbase",
        inputs=(TxInput(ghost, ()), TxInput(ghost, ())),
        outputs=(
            TxOutput(1, compile_p2h(digest(b"x"))),
            TxOutput(0, p2pkh),
            TxOutput(1 << 64, p2pkh),
        ),
        issuer_signature=b"",
    )
    assert utxo_validate(gated, coinbase, toy) == ValidationReport(
        valid=False,
        reasons=(
            "coinbase-has-inputs",
            "p2h-disabled",
            "zero-value-output",
            "value-range",
            "duplicate-input",
            "missing-issuer-signature",
            "unknown-input",
        ),
    )

    state = utxo_apply(
        chain, split_payment(toy, chain, alice, tip(chain), 5, p2pkh), toy
    )
    spent, five = tip(chain), tip(state, 0)
    mixed = UtxoTx(
        kind="normal",
        inputs=(TxInput(spent, ()), TxInput(ghost, ()), TxInput(five, ())),
        outputs=(TxOutput(4, p2pkh),),
    )
    assert utxo_validate(state, mixed, toy) == ValidationReport(
        valid=False,
        reasons=("spent-input", "unknown-input", "bad-script"),
    )

    short = UtxoTx(kind="normal", inputs=(TxInput(five, ()),), outputs=(TxOutput(4, p2pkh),))
    assert utxo_validate(state, short, toy) == ValidationReport(
        valid=False,
        reasons=("bad-script", "conservation"),
    )


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
@example(kind="weird", inputs=[(1, ())], values=[5], signature=b"")
@given(
    kind=st.one_of(st.sampled_from(["normal", "coinbase"]), st.text(max_size=10)),
    inputs=st.lists(st.tuples(OUTPOINTS, SCRIPTS), max_size=3),
    values=st.lists(VALUES, max_size=3),
    signature=st.binary(max_size=8),
)
def test_utxo_validate_never_raises_on_well_typed_transactions(
    toy, wallets, validate_world, kind, inputs, values, signature
):
    """Validation is total over transactions whose fields have their wire
    types, and over any kind string; an out-of-range value, an outpoint
    too wide for the wire or an unknown kind is reported, never raised,
    and leaves nothing to sign, so no issuer check or script runs."""
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
    off_wire = any(
        not isinstance(op, int) and (len(op.txid) != 32 or not 0 <= op.index < 2**32)
        for op, _ in inputs
    )
    if off_wire:
        assert "unknown-input" in report.reasons
    unknown_kind = kind not in ("normal", "coinbase")
    assert ("unknown-kind" in report.reasons) == unknown_kind
    if out_of_range or off_wire or unknown_kind:
        assert "issuer-auth" not in report.reasons
        assert "bad-script" not in report.reasons


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
    assert sum(out.value for out in after.active.values()) == 12


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
        outpoint = choice(stream, sorted(owners, key=lambda o: (o.txid, o.index)))
        wallet = owners.pop(outpoint)
        payee = choice(stream, parties)
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


@given(data=st.data())
def test_apply_trees_with_replays_mint_once_and_log_distinct_txids(toy, wallets, data):
    """Branches of issues, splits and replays of transactions logged in any
    branch. In every state the active value is the sum of the coinbases it
    accepted, the logged txids are distinct, and each logged transaction
    validates to a rejection, never an exception: an input-free one as
    `duplicate-txid`, a spend as `spent-input`."""
    issuer = toy.keygen(b"replay-tree-issuer")
    payer, lock = wallets[0], lock_to_wallet(wallets[0])
    states = [Chainstate.genesis(issuer.public_key)]
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        state = data.draw(st.sampled_from(states), label="base")
        action = data.draw(st.sampled_from(["issue", "split", "replay"]), label="action")
        logged = [tx for other in states for tx in other.log]
        if action == "issue":
            # Few values, so identical coinbases recur within and across branches.
            tx = make_coinbase(toy, issuer, [(data.draw(st.integers(1, 3)), lock)])
        elif action == "split" and state.active:
            outpoint = data.draw(
                st.sampled_from(sorted(state.active, key=lambda o: (o.txid, o.index)))
            )
            amount = data.draw(st.integers(1, state.active[outpoint].value))
            tx = split_payment(toy, state, payer, outpoint, amount, lock)
        elif action == "replay" and logged:
            tx = data.draw(st.sampled_from(logged), label="replayed")
        else:
            continue
        if utxo_validate(state, tx, toy).valid:
            states.append(utxo_apply(state, tx, toy))
        else:
            with pytest.raises(TxRejected):
                utxo_apply(state, tx, toy)
    logged = [tx for state in states for tx in state.log]
    for state in states:
        txids = {txid_of(tx) for tx in state.log}
        assert len(txids) == len(state.log)
        minted = sum(o.value for tx in state.log if tx.kind == "coinbase" for o in tx.outputs)
        assert sum(out.value for out in state.active.values()) == minted
        for tx in logged:
            if txid_of(tx) in txids:
                expected = ("duplicate-txid",) if not tx.inputs else ("spent-input",)
                assert utxo_validate(state, tx, toy).reasons == expected


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
    assert b'"active": {}' in snapshot_bytes(genesis)
    assert_canonical_snapshot(genesis)


@pytest.fixture(scope="module")
def snapshot_root(toy, wallets):
    """Eleven p2pkh outputs and a p2h one, split 20 times and replayed from
    the log. With over ten outputs per txid, rendered-key order ("...:10"
    before "...:2") and (txid, index) order differ. The replayed ledger's
    base is 21, so a branch applying fewer transactions than that digests
    by editing the sorted rows its family shares."""
    issuer = toy.keygen(b"snapshot-issuer")
    signers = {lock_to_wallet(wallet): wallet for wallet in wallets[:2]}
    outputs = [(value, lock_to_wallet(wallets[value % 2])) for value in range(1, 12)]
    outputs.append((5, compile_p2h(digest(b"snapshot-preimage"))))
    state = coinbase_issue(Chainstate.genesis(issuer.public_key), outputs, issuer, toy)
    for step in range(20):
        outpoint, held = max(
            ((op, out) for op, out in state.active.items() if out.locking in signers),
            key=lambda item: (item[1].value, item[0]),
        )
        payee = lock_to_wallet(wallets[step % 2])
        tx = split_payment(toy, state, signers[held.locking], outpoint, 1, payee)
        state = utxo_apply(state, tx, toy)
    return replay_log(state.log, issuer.public_key, toy)


def digests_through_shared_rows(state, filled):
    """Whether rendering `state` edits sorted base rows that another ledger
    also holds; `filled` collects (rows, ledger) pairs across calls."""
    ledger = state._ledger
    if ledger.rows is None or len(ledger.journal) >= ledger.base:
        return False
    shared = any(rows is ledger.rows and other is not ledger for rows, other in filled)
    filled.append((ledger.rows, ledger))
    return shared


def assert_canonical_snapshot(state):
    """snapshot_bytes, chainstate_snapshot, the kernel's snapshot text and
    state_digest agree with canonical_json(reference_snapshot(state)) and
    its SHA-256."""
    expected = reference_snapshot(state)
    text = canonical_json(expected)
    assert snapshot_bytes(state) == text.encode()
    assert chainstate_snapshot(state) == expected
    assert KERNEL_TABLE["utxo"].snapshot_text(state) == text
    assert state_digest(state) == hashlib.sha256(text.encode()).hexdigest()


def test_snapshot_text_matches_canonical_snapshot(toy, wallets, snapshot_root):
    """snapshot_bytes is canonical_json(reference_snapshot) for branching
    states rendered before and after they fork, including states carried
    past an invalid row by _advance, as audit_replay carries them; some of
    them render through a base their family shares."""
    signers = {lock_to_wallet(wallet): wallet for wallet in wallets[:2]}
    payees = [lock_to_wallet(wallets[2]), compile_p2h(digest(b"snapshot-payee"))]
    filled, shared = [], []

    def render(state):
        assert_canonical_snapshot(state)
        shared.append(digests_through_shared_rows(state, filled))

    @given(data=st.data())
    def check(data):
        states, built = [snapshot_root], []
        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            state = data.draw(st.sampled_from(states), label="base")
            action = data.draw(st.sampled_from(["split", "invalid", "render"]), label="action")
            if action == "render":
                render(state)
            elif action == "split":
                spendable = sorted(
                    (op for op, out in state.active.items() if out.locking in signers),
                    key=lambda o: (o.txid, o.index),
                )
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
            render(states[index])

    check()
    assert any(shared)


@given(data=st.data())
def test_forks_digest_through_the_shared_base_in_any_order(toy, wallets, snapshot_root, data):
    """Once the base is filled, forks of one state digest in any order as
    canonical_json renders them, and the state's own digest is unchanged."""
    before = snapshot_bytes(snapshot_root)
    signers = {lock_to_wallet(wallet): wallet for wallet in wallets[:2]}
    spendable = sorted(
        (op for op, out in snapshot_root.active.items() if out.locking in signers),
        key=lambda o: (o.txid, o.index),
    )
    forks = []
    for outpoint in data.draw(st.lists(st.sampled_from(spendable), min_size=2, max_size=6)):
        held = snapshot_root.active[outpoint]
        payee = data.draw(st.sampled_from(list(signers)))
        tx = split_payment(toy, snapshot_root, signers[held.locking], outpoint, 1, payee)
        fork = utxo_apply(snapshot_root, tx, toy)
        if data.draw(st.booleans(), label="extend"):
            change = UtxoId(txid=txid_of(tx), index=1)
            if change in fork.active:
                extra = split_payment(toy, fork, signers[held.locking], change, 1, payee)
                fork = utxo_apply(fork, extra, toy)
        forks.append(fork)
    snapshot_bytes(forks[0])
    assert forks[0]._ledger.rows is not None
    assert forks[0]._ledger.fork_base is not None
    for index in data.draw(st.permutations(range(len(forks))), label="read order"):
        fork = forks[index]
        assert_canonical_snapshot(fork)
        assert fork._ledger.rows is forks[0]._ledger.rows
        assert fork._ledger.fork_base is forks[0]._ledger.fork_base
    assert snapshot_bytes(snapshot_root) == before
    assert before == canonical_json(reference_snapshot(snapshot_root)).encode()


def assert_holds_its_log(state):
    """The state's active set is what its log creates and leaves unspent,
    and it renders as canonical_json renders its reference snapshot."""
    active = {outpoint: (out.value, out.locking) for outpoint, out in state.active.items()}
    assert active == reference_active_set(state.log)
    assert_canonical_snapshot(state)


@given(data=st.data())
def test_forks_share_one_base_per_fork_point_in_any_order(toy, wallets, snapshot_root, data):
    """States branching from one root and from each other, applied to and
    read in any order, each hold their log's active set and render it
    canonically; the root's snapshot never changes; and every ledger
    forked at the root's length holds the one fork base the first of them
    built, which no fork writes into and no fork at another length uses."""
    before = snapshot_bytes(snapshot_root)
    length = len(snapshot_root.log)
    signers = {lock_to_wallet(wallet): wallet for wallet in wallets[:2]}
    states, ledgers, children = [snapshot_root], [], 0
    for _ in range(data.draw(st.integers(2, 16), label="steps")):
        state = data.draw(st.sampled_from(states), label="state")
        if data.draw(st.booleans(), label="read"):
            assert_holds_its_log(state)
        else:
            spendable = sorted(
                (op for op, out in state.active.items() if out.locking in signers),
                key=lambda o: (o.txid, o.index),
            )
            outpoint = data.draw(st.sampled_from(spendable), label="outpoint")
            held = state.active[outpoint]
            payee = data.draw(st.sampled_from(list(signers)), label="payee")
            tx = split_payment(toy, state, signers[held.locking], outpoint, 1, payee)
            states.append(utxo_apply(state, tx, toy))
            children += state is snapshot_root
        ledgers.append(state._ledger)
    for index in data.draw(st.permutations(range(len(states))), label="read order"):
        assert_holds_its_log(states[index])
        ledgers.append(states[index]._ledger)
    assert snapshot_bytes(snapshot_root) == before
    assert before == canonical_json(reference_snapshot(snapshot_root)).encode()
    bases = {
        id(ledger.fork_base) for ledger in ledgers
        if ledger.base == length and ledger.fork_base is not None
    }
    assert len(bases) == 1 if children > 1 else len(bases) <= 1


def test_a_rebased_ledger_drops_what_it_held_at_its_old_base(
    toy, issuer, wallets, snapshot_root, monkeypatch
):
    """replay_log moves the base of the ledger it builds to the replayed
    length, and with it drops the fork base and sorted rows the ledger
    held at its old base. Here the replay starts from a genesis ledger
    that holds another family's, as a ledger forked before it was rebased
    would: forks of the replayed state still hold their own logs' active
    sets and render them."""
    signers = {lock_to_wallet(wallet): wallet for wallet in wallets[:2]}
    spendable = sorted(
        (op for op, out in snapshot_root.active.items() if out.locking in signers),
        key=lambda o: (o.txid, o.index),
    )
    for outpoint in spendable[:2]:
        held = snapshot_root.active[outpoint]
        payee = lock_to_wallet(wallets[2])
        tx = split_payment(toy, snapshot_root, signers[held.locking], outpoint, 1, payee)
        snapshot_bytes(utxo_apply(snapshot_root, tx, toy))
    stale = snapshot_root._ledger
    assert stale.fork_base is not None and stale.rows is not None
    lock, payee = lock_to_wallet(wallets[0]), lock_to_wallet(wallets[1])
    state = coinbase_issue(Chainstate.genesis(issuer.public_key), [(50, lock)], issuer, toy)
    for step in range(3):
        state = utxo_apply(
            state, split_payment(toy, state, wallets[0], tip(state, step and 1), 1, payee), toy
        )

    def stale_genesis(issuer_public_key, allow_p2h):
        genesis = _unjournaled_genesis(issuer_public_key, allow_p2h)
        genesis._ledger.fork_base, genesis._ledger.rows = stale.fork_base, stale.rows
        return genesis

    monkeypatch.setattr("ledgerlab.utxo._unjournaled_genesis", stale_genesis)
    replayed = replay_log(state.log, issuer.public_key, toy)
    monkeypatch.undo()
    branches = [
        utxo_apply(
            replayed, split_payment(toy, replayed, wallets[0], tip(replayed, 1), amount, lock), toy
        )
        for amount in (1, 2, 3)
    ]
    for branch in (replayed, *branches, replayed):
        assert_holds_its_log(branch)


@pytest.fixture(scope="module")
def fork_pool(toy, wallets):
    """A 13-row log and transactions to apply to states branching from
    its replay: two rival splits of each of three outputs, a split of the
    change of each of those, the log's coinbase and two of its spends.
    Each is valid exactly where its inputs are active."""
    issuer = toy.keygen(b"fork-pool-issuer")
    signers = {lock_to_wallet(wallet): wallet for wallet in wallets[:2]}
    outputs = [(10 + value, lock) for value in range(6) for lock in signers]
    state = coinbase_issue(Chainstate.genesis(issuer.public_key), outputs, issuer, toy)
    for index in range(12):
        outpoint = UtxoId(txid_of(state.log[-1]), 0 if index else 11)
        held = state.active[outpoint]
        tx = split_payment(toy, state, signers[held.locking], outpoint, 1, held.locking)
        state = utxo_apply(state, tx, toy)
    log = state.log
    pool = [log[0], log[1], log[5]]
    for outpoint in sorted(state.active, key=lambda o: (o.txid, o.index))[:3]:
        held = state.active[outpoint]
        for amount in (1, 2):
            tx = split_payment(toy, state, signers[held.locking], outpoint, amount, held.locking)
            scratch = replay_log((*log, tx), issuer.public_key, toy)
            change = UtxoId(txid_of(tx), 1)
            child = split_payment(toy, scratch, signers[held.locking], change, 1, held.locking)
            pool += (tx, child)
    return issuer.public_key, log, pool


def reference_reasons(tx, log):
    """What validation refuses `tx` for after `log`, by reference_active_set:
    nothing if every input is active (or, for a coinbase, if it is not
    logged), else each input's spent-input or unknown-input."""
    active, consumed = reference_active_set(log), consumed_outpoints(log)
    if not tx.inputs:
        return ("duplicate-txid",) if txid_of(tx) in {txid_of(t) for t in log} else ()
    return tuple(dict.fromkeys(
        "spent-input" if tx_in.outpoint in consumed else "unknown-input"
        for tx_in in tx.inputs if tx_in.outpoint not in active
    ))


@given(data=st.data())
def test_forks_at_a_fork_point_read_through_its_base(toy, fork_pool, data):
    """States branching from one replayed root, and from each other,
    validate, apply and render in any order as their logs dictate,
    whether their ledger still reads through the root's fork base or has
    been flattened by a read of `active`; a flattened fork lists the
    base's outputs first, in its order, then its own in apply order; a
    fork made at the root holds only what its transaction changed; and
    nothing writes into the base."""
    issuer_public_key, log, pool = fork_pool
    root = replay_log(log, issuer_public_key, toy)
    states = [root]
    for _ in range(data.draw(st.integers(1, 14), label="steps")):
        state = data.draw(st.sampled_from(states), label="state")
        if data.draw(st.booleans(), label="read"):
            ledger, base = state._ledger, root._ledger.fork_base
            overlay = base is not None and ledger.below is base
            assert snapshot_bytes(state) == canonical_json(reference_log_snapshot(state)).encode()
            active = {outpoint: (out.value, out.locking) for outpoint, out in state.active.items()}
            assert active == reference_active_set(state.log)
            if overlay and state._length == ledger.base + len(ledger.log):
                made = [UtxoId(txid_of(t), i) for t in ledger.log for i, _ in enumerate(t.outputs)]
                assert list(active) == [o for o in (*base[0], *made) if o in active]
            continue
        tx = data.draw(st.sampled_from(pool), label="tx")
        report = utxo_validate(state, tx, toy)
        assert report.reasons == reference_reasons(tx, state.log)
        if not report.valid:
            continue
        ledger = state._ledger
        states.append(utxo_apply(state, tx, toy))
        fork = states[-1]._ledger
        if state is root and fork is not ledger:
            inputs = [tx_in.outpoint for tx_in in tx.inputs]
            made = {UtxoId(txid_of(tx), i): out for i, out in enumerate(tx.outputs)}
            assert fork.below is fork.fork_base is root._ledger.fork_base
            assert fork.active == {**dict.fromkeys(inputs), **made}
            assert fork.spent == dict.fromkeys(inputs) and fork.log == [tx]
    base = root._ledger.fork_base
    if base is not None:
        active, spent, prefix = base
        entries = {outpoint: (out.value, out.locking) for outpoint, out in active.items()}
        assert entries == reference_active_set(log)
        assert spent.keys() == consumed_outpoints(log) and prefix == log
    assert snapshot_bytes(root) == canonical_json(reference_log_snapshot(root)).encode()


def test_a_fork_at_a_fork_point_allocates_per_transaction(toy, issuer, wallets):
    """Once a state's first fork has built its fork base, a fork made
    there copies neither the active set nor the log: it allocates less
    than half a copy of the log alone."""
    lock = lock_to_wallet(wallets[0])
    state = Chainstate.genesis(issuer.public_key)
    for value in range(2, 2002):
        state = coinbase_issue(state, [(value, lock)] * 2, issuer, toy)
    spends = [
        split_payment(toy, state, wallets[0], tip(state, index), 1, lock) for index in (0, 1)
    ]
    rival = split_payment(toy, state, wallets[0], tip(state), 2, lock)
    for tx in spends:
        utxo_apply(state, tx, toy)
    assert utxo_validate(state, rival, toy).valid
    one_copy = sys.getsizeof(list(state.log))
    tracemalloc.start()
    try:
        fork = utxo_apply(state, rival, toy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fork._ledger.below is state._ledger.fork_base
    assert len(fork._ledger.active) == 3 and len(fork.active) == 4001
    assert peak < one_copy / 2, (peak, one_copy)


@pytest.mark.parametrize("builder", ["split_payment", "merge_payment", "make_spend"])
def test_building_a_spend_at_a_fork_point_keeps_the_fork_an_overlay(
    toy, issuer, wallets, builder
):
    """The spend builders read the outpoints they spend through the fork
    base, as `utxo_validate` does, so the fork that a state at its fork
    point makes for them stays an overlay. What they build equals what
    they build on a flattened copy of the same state."""
    lock = lock_to_wallet(wallets[0])
    state = Chainstate.genesis(issuer.public_key)
    for value in range(2, 42):
        state = coinbase_issue(state, [(value, lock)] * 2, issuer, toy)
    utxo_apply(state, split_payment(toy, state, wallets[0], tip(state), 1, lock), toy)
    outpoints = [tip(state), tip(state, 1)]
    build = {
        "split_payment": lambda s: split_payment(toy, s, wallets[0], outpoints[0], 3, lock),
        "merge_payment": lambda s: merge_payment(toy, s, wallets[0], outpoints, lock),
        "make_spend": lambda s: make_spend(
            toy, s, outpoints, [TxOutput(82, lock)], signer=wallets[0]
        ),
    }[builder]
    tx = build(state)
    ledger = state._ledger
    assert ledger.below is ledger.fork_base is not None
    assert not ledger.active and not ledger.log
    flat = replay_log(state.log, issuer.public_key, toy)
    assert flat._ledger.below[0] == {} and len(flat._ledger.active) == 80
    assert build(flat) == tx
    assert utxo_apply(state, tx, toy)._ledger is ledger


@pytest.mark.parametrize("root", ["genesis-family", "shared-base"])
def test_snapshot_text_with_one_output_object_at_two_outpoints(
    toy, chain, wallets, snapshot_root, root
):
    """A caller may reuse one output object; its row memo keeps the
    outpoint it was rendered at, so each outpoint gets its own row."""
    state = chain if root == "genesis-family" else snapshot_root
    payer = wallets[0]
    outpoint, held = max(
        ((op, out) for op, out in state.active.items() if out.locking == lock_to_wallet(payer)),
        key=lambda item: (item[1].value, item[0]),
    )
    reused = TxOutput(1, lock_to_wallet(payer))
    rest = TxOutput(held.value - 2, lock_to_wallet(payer))
    tx = make_spend(toy, state, [outpoint], [reused, reused, rest], signer=payer)
    once = utxo_apply(state, tx, toy)
    again = make_spend(
        toy, once, [UtxoId(txid_of(tx), 2)], [reused, TxOutput(rest.value - 1, rest.locking)],
        signer=payer,
    )
    twice = utxo_apply(once, again, toy)
    for branch in (state, once, twice, once):
        assert_canonical_snapshot(branch)


def test_snapshot_memo_is_invisible_to_value_semantics(toy, issuer, wallets):
    lock = lock_to_wallet(wallets[0])
    state = coinbase_issue(Chainstate.genesis(issuer.public_key), [(7, lock)], issuer, toy)
    snapshot = snapshot_bytes(state)
    memoized, fresh = state.active[tip(state)], TxOutput(value=7, locking=lock)
    rendered_at, row = memoized._snapshot
    assert rendered_at == tip(state) and isinstance(row, bytes) and row in snapshot
    assert memoized == fresh and hash(memoized) == hash(fresh)
    assert dataclasses.asdict(memoized) == dataclasses.asdict(fresh)
    assert [f.name for f in dataclasses.fields(memoized)] == ["value", "locking"]
    for clone in (dataclasses.replace(memoized), copy.copy(memoized), copy.deepcopy(memoized)):
        assert clone == fresh and not hasattr(clone, "_snapshot")
    # The transaction memos (txid, signing payload, verdict, script
    # results) likewise.
    tx = split_payment(toy, state, wallets[0], tip(state), 3, lock)
    memoized_tx, fresh_tx = decode_utxo_tx(encode_utxo_tx(tx)), dataclasses.replace(tx)
    assert utxo_validate(state, memoized_tx, toy).valid
    memos = ("_txid", "_payload", "_verdict", "_scripts")
    assert not any(hasattr(fresh_tx, name) for name in memos)
    assert (memoized_tx._txid, memoized_tx._payload) == (txid_of(tx), utxo_signing_payload(tx))
    assert memoized_tx._scripts[0] is toy and memoized_tx._verdict[1:] == ((), True, True)
    assert memoized_tx == fresh_tx and hash(memoized_tx) == hash(fresh_tx)
    assert dataclasses.asdict(memoized_tx) == dataclasses.asdict(fresh_tx)
    assert [f.name for f in dataclasses.fields(memoized_tx)] == [
        "kind", "inputs", "outputs", "issuer_signature"
    ]
    for clone in (
        dataclasses.replace(memoized_tx), copy.copy(memoized_tx), copy.deepcopy(memoized_tx)
    ):
        assert clone == fresh_tx
        assert not any(hasattr(clone, name) for name in memos)


def test_inputs_are_slotted_values(toy, chain, wallets):
    """An input is one object, with no instance dict, and keeps the value
    semantics of a frozen dataclass."""
    tx = split_payment(toy, chain, wallets[0], tip(chain), 3, lock_to_wallet(wallets[1]))
    tx_in, decoded = tx.inputs[0], decode_utxo_tx(encode_utxo_tx(tx)).inputs[0]
    assert not hasattr(tx_in, "__dict__") and not hasattr(decoded, "__dict__")
    assert decoded == tx_in and hash(decoded) == hash(tx_in)
    assert [f.name for f in dataclasses.fields(tx_in)] == ["outpoint", "unlocking"]
    assert dataclasses.asdict(tx_in) == {"outpoint": tx_in.outpoint, "unlocking": tx_in.unlocking}
    assert dataclasses.replace(tx_in, unlocking=()) == TxInput(tx_in.outpoint, ())
    for clone in (
        dataclasses.replace(tx_in), copy.copy(tx_in), copy.deepcopy(tx_in),
        pickle.loads(pickle.dumps(tx_in)),
    ):
        assert type(clone) is TxInput and clone == tx_in
    assert pickle.loads(pickle.dumps(tx)) == tx
    with pytest.raises(dataclasses.FrozenInstanceError):
        tx_in.unlocking = ()


def test_equal_bytes_decode_to_one_live_transaction(toy, chain, wallets):
    """While a transaction decoded from some bytes is held, decoding equal
    bytes returns it, memos and all; once the last reference is gone the
    entry goes with it and the next decode builds a new object. A builder
    or an encoder never fills the table."""
    built = split_payment(toy, chain, wallets[0], tip(chain), 3, lock_to_wallet(wallets[1]))
    raw = encode_utxo_tx(built)
    first = decode_utxo_tx(raw)
    assert first is not built and first == built
    assert utxo_validate(chain, first, toy).valid
    again = decode_utxo_tx(bytes(bytearray(raw)))
    assert again is first and again._scripts[0] is toy
    gone = weakref.ref(first)
    del first, again
    gc.collect()
    assert gone() is None and digest(raw) not in _live
    fresh = decode_utxo_tx(raw)
    assert fresh == built and not hasattr(fresh, "_scripts") and not hasattr(fresh, "_verdict")


def test_a_decode_that_raises_registers_nothing(toy, chain, wallets):
    raw = encode_utxo_tx(
        split_payment(toy, chain, wallets[0], tip(chain), 3, lock_to_wallet(wallets[1]))
    )
    gc.collect()
    before = set(_live)
    for bad in (raw + b"x", raw[:-1], b"UTX2" + raw[4:], raw[:4] + b"\x07" + raw[5:], b""):
        with pytest.raises(FormatError):
            decode_utxo_tx(bad)
    for not_a_buffer in (raw.hex(), 5, None):
        with pytest.raises(FormatError, match="cannot decode"):
            decode_utxo_tx(not_a_buffer)
    assert set(_live) <= before



def test_header_checks_run_before_the_input_is_hashed(toy, chain, wallets, monkeypatch):
    """Bytes refused at their length, magic or kind tag are never hashed."""
    raw = encode_utxo_tx(
        split_payment(toy, chain, wallets[0], tip(chain), 3, lock_to_wallet(wallets[1]))
    )
    monkeypatch.setattr("ledgerlab.utxo.digest", None)  # hashing would raise TypeError
    for bad, message in (
        (raw[:8], "truncated input: 8 bytes"),
        (b"UTX2" + raw[4:], "bad magic"),
        (raw[:4] + b"\x07" + raw[5:], "bad tx kind tag 7"),
    ):
        with pytest.raises(FormatError, match=message):
            decode_utxo_tx(bad)

def test_buffers_decode_as_bytes_do_and_are_copied(toy, chain, wallets):
    """A bytearray or memoryview decodes to exactly what its bytes decode
    to, and its fields are copies: changing the buffer afterwards changes
    neither the transaction nor the table."""
    raw = encode_utxo_tx(
        split_payment(toy, chain, wallets[0], tip(chain), 3, lock_to_wallet(wallets[1]))
    )
    expected = dataclasses.replace(decode_utxo_tx(raw))
    gc.collect()
    assert digest(raw) not in _live
    buffer = bytearray(raw)
    for data in (buffer, memoryview(buffer), memoryview(raw)):
        tx = decode_utxo_tx(data)
        assert tx == expected and hash(tx) == hash(expected)
        assert (tx._txid, tx._payload) == (txid_of(expected), utxo_signing_payload(expected))
        assert type(tx.inputs[0].outpoint.txid) is bytes and type(tx.issuer_signature) is bytes
        assert decode_utxo_tx(raw) is tx and encode_utxo_tx(tx) == raw
        del tx
        gc.collect()
    tx = decode_utxo_tx(buffer)
    keys = set(_live)
    buffer[:] = bytes(len(buffer))
    assert set(_live) == keys and all(type(key) is bytes for key in keys)
    assert decode_utxo_tx(raw) is tx and tx == expected


def test_the_live_table_is_keyed_by_each_transactions_own_txid(toy, chain, wallets):
    """An entry's key is the very txid object its transaction stores, so
    the table holds no copy of the bytes a transaction was decoded from."""
    lock = lock_to_wallet(wallets[1])
    built = [
        split_payment(toy, chain, wallets[0], tip(chain), amount, lock) for amount in (1, 2, 3)
    ]
    held = [decode_utxo_tx(encode_utxo_tx(tx)) for tx in built + [chain.log[0]]]
    entries = list(_live.items())
    assert {id(tx) for tx in held} <= {id(live) for _, live in entries}
    assert all(key is live._txid for key, live in entries)


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


@pytest.mark.parametrize("field", ["txid", "raw", "issuer_public_key"])
@pytest.mark.parametrize(
    "rewrite",
    [
        str.upper, lambda text: text[:2] + " " + text[2:],
        lambda text: " " + text, lambda text: text + "\n",
    ],
    ids=["uppercase", "inner-space", "leading-space", "trailing-newline"],
)
def test_decode_log_entries_reads_only_lowercase_hex(toy, issuer, wallets, field, rewrite):
    """bytes.fromhex reads uppercase digits and whitespace; export_log
    writes neither, so a log carrying them is refused."""
    state = Chainstate.genesis(issuer.public_key)
    state = coinbase_issue(state, [(4, lock_to_wallet(wallets[0]))], issuer, toy)
    doc = export_log(state)
    holder = doc if field == "issuer_public_key" else doc["txs"][0]
    holder[field] = rewrite(holder[field])
    for read in (decode_log_entries, lambda doc: import_log(doc, toy)):
        with pytest.raises(FormatError, match="lowercase hex"):
            read(doc)


def test_make_coinbase_signature_covers_outputs(toy, issuer, wallets):
    tx = make_coinbase(toy, issuer, [(4, lock_to_wallet(wallets[0]))])
    tampered = dataclasses.replace(
        tx, outputs=(TxOutput(value=5, locking=tx.outputs[0].locking),)
    )
    state = Chainstate.genesis(issuer.public_key)
    report = utxo_validate(state, tampered, toy)
    assert not report.valid


def test_per_call_records_are_values(toy, chain, wallets):
    """Reports and script results are named tuples: equal by value, true
    iff valid, and replaced field by field without touching the original."""
    tx = split_payment(toy, chain, wallets[0], tip(chain), 5, lock_to_wallet(wallets[1]))
    report = utxo_validate(chain, tx, toy)
    assert report == ValidationReport(valid=True, reasons=())
    assert report and report == utxo_validate(chain, dataclasses.replace(tx), toy)
    refused = report._replace(valid=False, reasons=("duplicate-txid",))
    assert not refused and report.valid
    assert repr(refused).startswith("ValidationReport(valid=False, reasons=('duplicate-txid',)")

    ctx = ExecutionContext(signing_payload=utxo_signing_payload(tx), scheme=toy)
    result = execute(tx.inputs[0].unlocking, chain.active[tip(chain)].locking, ctx)
    assert result and result == ExecResult(ok=True, fault=None, stack=(b"\x01",))
    failed = result._replace(ok=False, fault="equalverify-failed")
    assert not failed and failed != result and result.ok
    assert not ExecResult(ok=False) and ExecResult(False).stack == ()


def test_script_memo_is_keyed_by_locking_script_and_scheme(toy, real, chain, wallets):
    """An outpoint can hold different outputs in two histories (an audit
    applies a tampered row under its recorded id), and one transaction
    can be validated under either scheme: a memoized result answers only
    for the locking script and the scheme it was found with."""
    payer, other = wallets[0], wallets[2]
    payee = derive_wallet(real, "memo-payee")
    honest = split_payment(toy, chain, payer, tip(chain), 5, lock_to_wallet(payee))
    passes = utxo_apply(chain, honest, toy)
    forged = dataclasses.replace(
        honest, outputs=(TxOutput(5, lock_to_wallet(other)), honest.outputs[1])
    )
    fails = _advance(chain, forged, txid_of(honest))
    paid = UtxoId(txid_of(honest), 0)
    assert passes.active[paid] != fails.active[paid]
    spend = make_spend(
        real, passes, [paid], [TxOutput(5, lock_to_wallet(payer))], signer=payee
    )

    def fresh(state, scheme):
        return utxo_validate(state, dataclasses.replace(spend), scheme)

    assert fresh(passes, real).valid
    assert fresh(fails, real).reasons == ("bad-script",)
    assert fresh(passes, toy).reasons == ("bad-script",)
    for order in ((passes, fails), (fails, passes)):
        tx = dataclasses.replace(spend)
        for state in order + order:
            assert utxo_validate(state, tx, real) == fresh(state, real)
    for schemes in ((toy, real), (real, toy)):
        tx = dataclasses.replace(spend)
        for scheme in schemes + schemes:
            assert utxo_validate(passes, tx, scheme) == fresh(passes, scheme)


def test_verdict_memo_is_keyed_by_p2h_policy(toy, issuer):
    """The state-free checks depend on a state only through its p2h
    policy, so one transaction meets both policies correctly."""
    tx = make_coinbase(toy, issuer, [(3, compile_p2h(digest(b"secret")))])
    allowed = Chainstate.genesis(issuer.public_key)
    disabled = Chainstate.genesis(issuer.public_key, allow_p2h=False)
    assert utxo_validate(allowed, dataclasses.replace(tx), toy).valid
    assert utxo_validate(disabled, dataclasses.replace(tx), toy).reasons == ("p2h-disabled",)
    for order in ((allowed, disabled), (disabled, allowed)):
        memoized = dataclasses.replace(tx)
        for state in order + order:
            assert utxo_validate(state, memoized, toy) == utxo_validate(
                state, dataclasses.replace(tx), toy
            )
