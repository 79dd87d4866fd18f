"""Reference implementations the tests trust instead of the package.

Each helper here recomputes a result the package also computes, by a
deliberately different route: plain set arithmetic instead of stateful
bookkeeping, linear rescans instead of indexes, struct-by-hand instead
of the shared encoder. Agreement between the two routes is the evidence
the tests rest on.

The rest are test-side helpers the product never calls: a uniform pick
from a seeded stream, a full-ancestry walk, explicit delivery schedules
for the replica harness and a confirmation-depth rule.
"""

import struct

from ledgerlab.errors import ConfigError, NotFoundError
from ledgerlab.scripts import Opcode, script_to_text
from ledgerlab.utxo import UtxoId, txid_of

_WIRE = {
    Opcode.PUSH: 0,
    Opcode.DUP: 1,
    Opcode.HASH: 2,
    Opcode.EQUAL: 3,
    Opcode.EQUALVERIFY: 4,
    Opcode.CHECKSIG: 5,
}


def reference_active_set(log):
    """Active outputs by pure set arithmetic over the raw transaction log.

    Everything ever created, minus everything ever consumed. No ordering
    logic, no validation; assumes the log holds only accepted txs.
    """
    created = {}
    consumed = set()
    for tx in log:
        txid = txid_of(tx)
        for index, output in enumerate(tx.outputs):
            created[UtxoId(txid=txid, index=index)] = (output.value, output.locking)
        for tx_in in tx.inputs:
            consumed.add(tx_in.outpoint)
    return {
        outpoint: entry
        for outpoint, entry in created.items()
        if outpoint not in consumed
    }


def reference_snapshot(state):
    """A chainstate's snapshot document, built field by field from its
    public attributes rather than parsed from utxo.snapshot_bytes."""
    return {
        "kernel": "utxo",
        "issuer_public_key": state.issuer_public_key.hex(),
        "allow_p2h": state.allow_p2h,
        "log_length": len(state.log),
        "active": {
            outpoint.render(): {
                "value": entry.value,
                "locking": script_to_text(entry.locking),
            }
            for outpoint, entry in sorted(state.active.items())
        },
    }


def reference_log_snapshot(state):
    """The snapshot document of a state whose log holds only accepted
    transactions, built from that log by reference_active_set: unlike
    reference_snapshot, it reads nothing of the ledger behind the state."""
    return {
        "kernel": "utxo",
        "issuer_public_key": state.issuer_public_key.hex(),
        "allow_p2h": state.allow_p2h,
        "log_length": len(state.log),
        "active": {
            outpoint.render(): {"value": value, "locking": script_to_text(locking)}
            for outpoint, (value, locking) in sorted(reference_active_set(state.log).items())
        },
    }


def consumed_outpoints(log):
    """Every outpoint any transaction in the log names as an input."""
    return {tx_in.outpoint for tx in log for tx_in in tx.inputs}


def reference_backward_chain(log, target):
    """Lineage of an output by brute-force rescans of the raw log.

    Walks from the target's producing tx to a coinbase, re-scanning the
    whole log at every step to find each producer. Returns the txids
    root-last (target's producer first), or None when the target is
    unknown or a link is missing.
    """
    def producer_of(txid):
        for tx in log:
            if txid_of(tx) == txid:
                return tx
        return None

    chain = []
    tx = producer_of(target.txid)
    if tx is None or target.index >= len(tx.outputs):
        return None
    while True:
        chain.append(txid_of(tx))
        if tx.kind == "coinbase":
            return chain
        tx = producer_of(tx.inputs[0].outpoint.txid)
        if tx is None:
            return None


def choice(stream, items):
    """One of `items`, picked by a single `stream.randbelow` draw."""
    return items[stream.randbelow(len(items))]


def token_values(registry):
    """A registry's sorted (token id, value) pairs: what transfers keep."""
    return sorted((token, obj.value) for token, obj in registry.objects.items())


def lineage_dag(txs, target):
    """Full ancestry of the target across all inputs, as nodes and edges."""
    index = {txid_of(tx): tx for tx in txs}
    if target.txid not in index:
        raise NotFoundError(f"no transaction {target.txid.hex()} in the log")
    seen = set()
    edges = []
    frontier = [target]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        tx = index[current.txid]
        consumed = [tx_in.outpoint for tx_in in tx.inputs]
        edges.append(
            {
                "txid": current.txid.hex(),
                "produced": current.render(),
                "consumed": [outpoint.render() for outpoint in consumed],
                "kind": tx.kind,
            }
        )
        frontier.extend(consumed)
    edges.sort(key=lambda e: e["produced"])
    return {
        "target": target.render(),
        "nodes": sorted(outpoint.render() for outpoint in seen),
        "edges": edges,
    }


def deliver_explicit(replicas, orders):
    """Deliver caller-chosen permutations; for exhaustive schedule search."""
    if len(orders) != len(replicas):
        raise ConfigError("one delivery order per replica required")
    for replica, order in zip(replicas, orders):
        for tx in order:
            replica.deliver(tx)


def confirmation_depth_check(log_length, log_position, depth_param):
    """Is the entry at log_position buried at least depth_param entries deep?

    Depth counts the entry itself, as Bitcoin counts confirmations: at
    depth 6 it needs 5 later entries on top. Depth 0 means confirmed as
    soon as logged; an unlogged position is never confirmed.
    """
    if depth_param < 0:
        raise ConfigError("confirmation depth must be non-negative")
    if log_position < 0 or log_position >= log_length:
        return False
    return (log_length - log_position) >= depth_param


def _ref_script(script):
    parts = [struct.pack(">I", len(script))]
    for op in script:
        parts.append(struct.pack(">B", _WIRE[op.opcode]))
        if op.opcode is Opcode.PUSH:
            parts.append(struct.pack(">I", len(op.operand)) + op.operand)
    return b"".join(parts)


def _ref_varbytes(data):
    return struct.pack(">I", len(data)) + data


def reference_encode_utxo_tx(tx):
    """The documented wire layout, assembled by hand with struct."""
    parts = [b"UTX1", struct.pack(">B", 1 if tx.kind == "coinbase" else 0)]
    parts.append(struct.pack(">I", len(tx.inputs)))
    for tx_in in tx.inputs:
        parts.append(tx_in.outpoint.txid)
        parts.append(struct.pack(">I", tx_in.outpoint.index))
        parts.append(_ref_script(tx_in.unlocking))
    parts.append(struct.pack(">I", len(tx.outputs)))
    for tx_out in tx.outputs:
        parts.append(struct.pack(">Q", tx_out.value))
        parts.append(_ref_script(tx_out.locking))
    parts.append(_ref_varbytes(tx.issuer_signature))
    return b"".join(parts)


def reference_encode_account_tx(tx):
    parts = [
        b"ATX1",
        bytes.fromhex(tx.payer),
        bytes.fromhex(tx.payee),
        struct.pack(">Q", tx.amount),
        struct.pack(">B", 0 if tx.nonce is None else 1),
        struct.pack(">Q", tx.nonce or 0),
        _ref_varbytes(tx.payer_public_key),
        _ref_varbytes(tx.payer_signature),
    ]
    return b"".join(parts)
