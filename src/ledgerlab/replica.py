"""Deterministic replica simulation: why transaction ordering needs an owner.

Several replicas start from one genesis chainstate and receive the same
transaction set, each in its own seed-determined arrival permutation.
A settlement round then has every replica order its pending transactions
by a rule and apply them, skipping whatever fails validation:

* ``canonical-txid-order`` is a total order identical at every replica
  (sort by transaction id), standing in for what consensus provides.
  Under it, all replicas finish bit-identical regardless of arrival
  permutations, and of two transactions spending the same outpoint every
  replica accepts the same single winner.
* ``arrival-order`` applies transactions as they came. Conflict-free
  sets still converge, but two transactions spending the same outpoint
  can be accepted differently at different replicas, and the harness
  reports the divergence rather than hiding it.

There is no proof-of-work and there are no blocks here: the simulation
isolates exactly one property, that a shared total order is what makes
the double-spend decision unanimous. Delivery is reliable and duplicate-
free; everything is a pure function of (transaction set, seed, rule), so
every divergence is replayable from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

from .crypto import CryptoScheme, digest
from .errors import ConfigError
from .rng import SeededStream
from .utxo import Chainstate, UtxoTx, _settle, snapshot_bytes, txid_of

OrderingRule = Literal["arrival-order", "canonical-txid-order"]

ORDERING_RULES: tuple[OrderingRule, ...] = ("arrival-order", "canonical-txid-order")


@dataclass
class Replica:
    """One independent validator: a chainstate and pending transactions.

    The mempool preserves arrival order; settlement consumes it."""

    replica_id: int
    chainstate: Chainstate
    mempool: list[UtxoTx] = field(default_factory=list)

    def deliver(self, tx: UtxoTx) -> None:
        self.mempool.append(tx)


def state_digest(state: Chainstate) -> str:
    """Digest of the canonical snapshot bytes; equal iff states are
    bit-identical."""
    return digest(snapshot_bytes(state)).hex()


def make_replicas(count: int, genesis: Chainstate) -> list[Replica]:
    if count < 1:
        raise ConfigError("need at least one replica")
    return [Replica(replica_id=i, chainstate=genesis) for i in range(count)]


def broadcast(
    txs: Sequence[UtxoTx], replicas: Sequence[Replica], seed: int
) -> dict[int, list[UtxoTx]]:
    """Deliver every transaction to every replica exactly once, each
    replica in its own seed-determined permutation. Returns the delivery
    sequences for the record."""
    deliveries: dict[int, list[UtxoTx]] = {}
    stream = SeededStream(seed)
    for replica in replicas:
        order = stream.fork(f"replica-{replica.replica_id}").shuffled(list(txs))
        for tx in order:
            replica.deliver(tx)
        deliveries[replica.replica_id] = order
    return deliveries


@dataclass(frozen=True)
class ReplicaOutcome:
    replica_id: int
    delivery: tuple[str, ...]
    accepted: tuple[str, ...]
    rejected: tuple[tuple[str, tuple[str, ...]], ...]
    state_digest: str


@dataclass(frozen=True)
class RoundReport:
    rule: OrderingRule
    outcomes: tuple[ReplicaOutcome, ...]
    divergent: bool

    def doc(self) -> dict:
        """Stable-keyed document form for report files."""
        return {
            "report": "replica-round",
            "rule": self.rule,
            "divergent": self.divergent,
            "replicas": [
                {
                    "id": o.replica_id,
                    "delivery": list(o.delivery),
                    "accepted": list(o.accepted),
                    "rejected": [
                        {"txid": txid, "reasons": list(reasons)}
                        for txid, reasons in o.rejected
                    ],
                    "state_digest": o.state_digest,
                }
                for o in self.outcomes
            ],
        }


def settle_round(
    replicas: Sequence[Replica], rule: OrderingRule, scheme: CryptoScheme
) -> RoundReport:
    """Have every replica order its mempool by the rule and apply it.

    Invalid transactions are skipped, not fatal: a losing double-spend is
    an expected rejection. Mempools are drained. The report carries each
    replica's acceptances, rejections with reasons, and a state digest;
    `divergent` is True iff any two replicas ended on different digests.

    Each distinct end state is digested once per call. Apply is a pure
    function of (state, tx) and a rejection leaves the state as it was,
    so replicas that start from the same state object and accept the
    same txids in the same order end bit-identical: a replica matching
    one already settled reuses its digest. The memo dies with the call,
    as does the hex of each txid, rendered once.
    """
    if rule not in ORDERING_RULES:
        raise ConfigError(f"unknown ordering rule {rule!r}")
    outcomes = []
    # (start state, accepted txids) -> digest of the state they end on. A
    # state hashes and compares by identity.
    settled: dict[tuple[Chainstate, tuple[str, ...]], str] = {}
    hexes: dict[bytes, str] = {}
    for replica in replicas:
        start = state = replica.chainstate
        pending = [(txid_of(tx), tx) for tx in replica.mempool]
        for txid, _ in pending:
            if txid not in hexes:
                hexes[txid] = txid.hex()
        delivery = tuple(hexes[txid] for txid, _ in pending)
        if rule == "canonical-txid-order":
            pending.sort(key=lambda item: item[0])
        accepted: list[str] = []
        rejected: list[tuple[str, tuple[str, ...]]] = []
        for txid, tx in pending:
            state, report = _settle(state, tx, scheme)
            if report.valid:
                accepted.append(hexes[txid])
            else:
                rejected.append((hexes[txid], report.reasons))
        replica.chainstate = state
        replica.mempool.clear()
        accepted_ids = tuple(accepted)
        end_digest = settled.get((start, accepted_ids))
        if end_digest is None:
            end_digest = settled[start, accepted_ids] = state_digest(state)
        outcomes.append(
            ReplicaOutcome(
                replica_id=replica.replica_id,
                delivery=delivery,
                accepted=accepted_ids,
                rejected=tuple(rejected),
                state_digest=end_digest,
            )
        )
    digests = {o.state_digest for o in outcomes}
    return RoundReport(rule=rule, outcomes=tuple(outcomes), divergent=len(digests) > 1)


def run_round(
    genesis: Chainstate,
    txs: Sequence[UtxoTx],
    n_replicas: int,
    seed: int,
    rule: OrderingRule,
    scheme: CryptoScheme,
) -> tuple[list[Replica], RoundReport]:
    """Broadcast then settle: the whole simulation as one deterministic call."""
    replicas = make_replicas(n_replicas, genesis)
    broadcast(txs, replicas, seed)
    report = settle_round(replicas, rule, scheme)
    return replicas, report
