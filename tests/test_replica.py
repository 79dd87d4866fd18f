"""Replica harness: convergence, divergence, confirmation depth."""

import itertools

import pytest

from oracles import confirmation_depth_check, deliver_explicit
from ledgerlab.crypto import derive_wallet
from ledgerlab.errors import ConfigError
from ledgerlab.replica import (
    Replica,
    broadcast,
    make_replicas,
    run_round,
    settle_round,
    state_digest,
)
from ledgerlab.utxo import (
    Chainstate,
    UtxoId,
    coinbase_issue,
    lock_to_wallet,
    replay_log,
    snapshot_bytes,
    split_payment,
    txid_of,
)


@pytest.fixture(scope="module")
def conflict_setup(toy):
    """A funded chainstate plus two spends of the same outpoint."""
    issuer = toy.keygen(b"replica-issuer")
    alice = derive_wallet(toy, "replica-alice")
    bob = derive_wallet(toy, "replica-bob")
    carol = derive_wallet(toy, "replica-carol")
    genesis = Chainstate.genesis(issuer.public_key)
    state = coinbase_issue(genesis, [(10, lock_to_wallet(alice))], issuer, toy)
    funding = UtxoId(txid=txid_of(state.log[-1]), index=0)
    to_bob = split_payment(toy, state, alice, funding, 10, lock_to_wallet(bob))
    to_carol = split_payment(toy, state, alice, funding, 10, lock_to_wallet(carol))
    assert txid_of(to_bob) != txid_of(to_carol)
    return state, to_bob, to_carol, (issuer, alice, bob, carol)


def test_broadcast_is_seeded_and_complete(toy, conflict_setup):
    state, to_bob, to_carol, _ = conflict_setup
    replicas = make_replicas(3, state)
    deliveries = broadcast([to_bob, to_carol], replicas, seed=5)
    again = broadcast([to_bob, to_carol], make_replicas(3, state), seed=5)
    assert deliveries == again
    for replica in replicas:
        assert sorted(txid_of(tx) for tx in replica.mempool) == sorted(
            [txid_of(to_bob), txid_of(to_carol)]
        )


def test_conflict_free_sets_commute(toy):
    """Valid non-conflicting txs land identically in any arrival order."""
    issuer = toy.keygen(b"commute-issuer")
    alice = derive_wallet(toy, "commute-alice")
    bob = derive_wallet(toy, "commute-bob")
    state = Chainstate.genesis(issuer.public_key)
    state = coinbase_issue(state, [(4, lock_to_wallet(alice))], issuer, toy)
    first_funding = UtxoId(txid=txid_of(state.log[-1]), index=0)
    state = coinbase_issue(state, [(6, lock_to_wallet(alice))], issuer, toy)
    second_funding = UtxoId(txid=txid_of(state.log[-1]), index=0)
    tx_a = split_payment(toy, state, alice, first_funding, 4, lock_to_wallet(bob))
    tx_b = split_payment(toy, state, alice, second_funding, 6, lock_to_wallet(bob))
    digests = set()
    for seed in range(6):
        _, report = run_round(state, [tx_a, tx_b], 3, seed, "arrival-order", toy)
        assert not report.divergent
        digests.update(o.state_digest for o in report.outcomes)
    assert len(digests) == 1


def test_canonical_order_converges_on_conflict(toy, conflict_setup):
    state, to_bob, to_carol, _ = conflict_setup
    winner = min([to_bob, to_carol], key=txid_of)
    for seed in range(10):
        _, report = run_round(state, [to_bob, to_carol], 3, seed, "canonical-txid-order", toy)
        assert not report.divergent
        for outcome in report.outcomes:
            assert list(outcome.accepted) == [txid_of(winner).hex()]
            assert len(outcome.rejected) == 1
            assert "spent-input" in outcome.rejected[0][1]


def test_arrival_order_divergence_exists_by_brute_force(toy, conflict_setup):
    """Enumerate every delivery schedule for the two conflicting txs over
    three replicas; some schedule must split the replicas, and no replica
    under any schedule ever accepts both txs."""
    state, to_bob, to_carol, _ = conflict_setup
    pair = [to_bob, to_carol]
    both = {txid_of(to_bob).hex(), txid_of(to_carol).hex()}
    divergent_schedules = 0
    for orders in itertools.product(list(itertools.permutations(pair)), repeat=3):
        replicas = make_replicas(3, state)
        deliver_explicit(replicas, orders)
        report = settle_round(replicas, "arrival-order", toy)
        for outcome in report.outcomes:
            assert set(outcome.accepted) != both  # safety under conflict
            assert len(outcome.accepted) == 1
        if report.divergent:
            divergent_schedules += 1
    assert divergent_schedules >= 1
    # mixed schedules diverge; the 2 uniform ones cannot
    assert divergent_schedules == 6


def test_run_round_is_deterministic(toy, conflict_setup):
    state, to_bob, to_carol, _ = conflict_setup
    _, first = run_round(state, [to_bob, to_carol], 3, 9, "arrival-order", toy)
    _, second = run_round(state, [to_bob, to_carol], 3, 9, "arrival-order", toy)
    assert first.doc() == second.doc()


def test_round_report_doc_shape(toy, conflict_setup):
    state, to_bob, to_carol, _ = conflict_setup
    _, report = run_round(state, [to_bob, to_carol], 2, 1, "canonical-txid-order", toy)
    doc = report.doc()
    assert doc["report"] == "replica-round"
    assert doc["rule"] == "canonical-txid-order"
    assert len(doc["replicas"]) == 2
    for row in doc["replicas"]:
        assert set(row) == {"id", "delivery", "accepted", "rejected", "state_digest"}


def test_state_digest_tracks_content(toy, conflict_setup):
    state, to_bob, _, _ = conflict_setup
    from ledgerlab.utxo import utxo_apply

    assert state_digest(state) == state_digest(state)
    assert state_digest(state) != state_digest(utxo_apply(state, to_bob, toy))


@pytest.fixture
def renders(monkeypatch):
    """Counts the snapshots state_digest renders."""
    count = [0]

    def counted(state):
        count[0] += 1
        return snapshot_bytes(state)

    monkeypatch.setattr("ledgerlab.replica.snapshot_bytes", counted)
    return count


def assert_digests_fresh(replicas, report):
    for replica, outcome in zip(replicas, report.outcomes):
        assert outcome.state_digest == state_digest(replica.chainstate)


def test_a_canonical_round_renders_its_one_end_state_once(toy, conflict_setup, renders):
    state, to_bob, to_carol, _ = conflict_setup
    replicas, report = run_round(state, [to_bob, to_carol], 5, 3, "canonical-txid-order", toy)
    assert renders[0] == 1
    assert_digests_fresh(replicas, report)


def test_an_arrival_round_renders_each_acceptance_sequence_once(toy, conflict_setup, renders):
    """Over every schedule of two conflicting txs at three replicas, a
    round renders once per distinct acceptance sequence."""
    state, to_bob, to_carol, _ = conflict_setup
    for orders in itertools.product(list(itertools.permutations([to_bob, to_carol])), repeat=3):
        replicas = make_replicas(3, state)
        deliver_explicit(replicas, orders)
        renders[0] = 0
        report = settle_round(replicas, "arrival-order", toy)
        assert renders[0] == len({outcome.accepted for outcome in report.outcomes})
        assert_digests_fresh(replicas, report)


def test_replicas_from_different_states_are_each_digested(toy, conflict_setup, renders):
    """The digest of an end state is shared only between replicas that
    started from one state object: the same acceptances from another
    state, equal or not, are digested again."""
    state, to_bob, _, (issuer, alice, _, _) = conflict_setup
    richer = coinbase_issue(state, [(5, lock_to_wallet(alice))], issuer, toy)
    equal = replay_log(state.log, state.issuer_public_key, toy)
    replicas = [
        Replica(replica_id=i, chainstate=start)
        for i, start in enumerate([state, richer, equal, state])
    ]
    for replica in replicas:
        replica.deliver(to_bob)
    report = settle_round(replicas, "canonical-txid-order", toy)
    assert renders[0] == 3
    assert len({outcome.accepted for outcome in report.outcomes}) == 1
    assert_digests_fresh(replicas, report)
    digests = [outcome.state_digest for outcome in report.outcomes]
    assert digests[0] == digests[2] == digests[3] != digests[1]
    assert report.divergent


def test_settle_round_rejects_unknown_rule(toy, conflict_setup):
    state, *_ = conflict_setup
    with pytest.raises(ConfigError):
        settle_round(make_replicas(1, state), "first-come", toy)
    with pytest.raises(ConfigError):
        make_replicas(0, state)
    with pytest.raises(ConfigError):
        deliver_explicit(make_replicas(2, state), [[]])


def test_confirmation_depth_boundaries():
    assert confirmation_depth_check(16, 10, 6)
    assert not confirmation_depth_check(15, 10, 6)
    assert confirmation_depth_check(1, 0, 0)  # depth 0: confirmed once logged
    assert confirmation_depth_check(1, 0, 1)
    assert not confirmation_depth_check(5, 5, 0)  # not logged yet
    assert not confirmation_depth_check(5, -1, 0)
    with pytest.raises(ConfigError):
        confirmation_depth_check(5, 0, -1)
