"""Reference implementations the tests trust instead of the package.

Each helper here recomputes a result the package also computes, by a
deliberately different route: plain set arithmetic instead of stateful
bookkeeping, linear rescans instead of indexes, struct-by-hand instead
of the shared encoder. Agreement between the two routes is the evidence
the tests rest on.
"""

import struct

from ledgerlab.scripts import Opcode
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
