"""Wire format: strict readers, canonical JSON, layout stability."""

import json

import pytest

from oracles import reference_encode_account_tx, reference_encode_utxo_tx
from ledgerlab.accounts import (
    account_txid,
    decode_account_tx,
    encode_account_tx,
    make_account_tx,
)
from ledgerlab.crypto import digest
from ledgerlab.encoding import (
    MAX_FIELD_BYTES,
    Reader,
    canonical_json,
    encode_script,
    parse_json,
    u8,
    u32,
    u64,
    varbytes,
)
from ledgerlab.errors import FormatError
from ledgerlab.scripts import Op, Opcode, compile_p2h, compile_p2pkh, push
from ledgerlab.utxo import (
    TxInput,
    TxOutput,
    UtxoId,
    UtxoTx,
    decode_utxo_tx,
    encode_utxo_tx,
    txid_of,
    utxo_signing_payload,
)


def test_int_packing_widths():
    assert u8(0) == b"\x00"
    assert u8(255) == b"\xff"
    assert u32(1) == b"\x00\x00\x00\x01"
    assert u64(1) == b"\x00" * 7 + b"\x01"
    with pytest.raises(OverflowError):
        u8(256)
    with pytest.raises(OverflowError):
        u64(-1)


def test_u64_rejects_values_past_64_bits():
    assert u64((1 << 64) - 1) == b"\xff" * 8
    for value in (1 << 64, 1 << 200):
        with pytest.raises(FormatError, match="exceeds the 64-bit range"):
            u64(value)


def test_varbytes_roundtrip_and_cap():
    data = b"\x00\x01\x02"
    reader = Reader(varbytes(data))
    assert reader.varbytes() == data
    reader.finish()
    with pytest.raises(FormatError):
        varbytes(b"\x00" * (MAX_FIELD_BYTES + 1))


def test_reader_is_strict():
    reader = Reader(b"\x00\x01")
    with pytest.raises(FormatError):
        reader.read(3)  # truncated
    reader = Reader(b"\x00\x00\x00\x05ab")  # declares 5 bytes, carries 2
    with pytest.raises(FormatError):
        reader.varbytes()
    reader = Reader(b"abcx")
    reader.expect(b"abc")
    with pytest.raises(FormatError):
        reader.finish()  # trailing byte
    reader = Reader(b"abc")
    with pytest.raises(FormatError):
        reader.expect(b"abd")


def test_script_wire_roundtrip():
    script = compile_p2pkh(digest(b"key")) + (push(b""),)
    reader = Reader(encode_script(script))
    assert reader.script() == script
    reader.finish()


def test_script_wire_rejects_unknown_opcode():
    reader = Reader(u32(1) + u8(9))
    with pytest.raises(FormatError):
        reader.script()


def test_canonical_json_stability():
    a = canonical_json({"b": 1, "a": [2, 1]})
    b = canonical_json({"a": [2, 1], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, 1], "b": 1}
    assert parse_json(a) == {"a": [2, 1], "b": 1}


def test_account_tx_roundtrip(toy, wallets):
    payer, payee = wallets[0], wallets[1]
    tx = make_account_tx(toy, payer, payee.address, 7, nonce=3)
    assert decode_account_tx(encode_account_tx(tx)) == tx
    plain = make_account_tx(toy, payer, payee.address, 7)
    assert decode_account_tx(encode_account_tx(plain)) == plain
    assert account_txid(tx) != account_txid(plain)


def test_account_tx_matches_reference_layout(toy, wallets):
    payer, payee = wallets[0], wallets[1]
    for nonce in (None, 0, 9):
        tx = make_account_tx(toy, payer, payee.address, 5, nonce=nonce)
        assert encode_account_tx(tx) == reference_encode_account_tx(tx)


def test_account_tx_rejects_mangled_bytes(toy, wallets):
    tx = make_account_tx(toy, wallets[0], wallets[1].address, 1)
    raw = encode_account_tx(tx)
    with pytest.raises(FormatError):
        decode_account_tx(raw + b"\x00")
    with pytest.raises(FormatError):
        decode_account_tx(raw[:-1])
    with pytest.raises(FormatError):
        decode_account_tx(b"XTX1" + raw[4:])
    # absent-nonce flag with a nonzero nonce field is not canonical
    mangled = bytearray(raw)
    flag_offset = 4 + 32 + 32 + 8
    assert mangled[flag_offset] in (0, 1)
    mangled[flag_offset] = 0
    mangled[flag_offset + 8] = 1
    with pytest.raises(FormatError):
        decode_account_tx(bytes(mangled))


def sample_utxo_tx(signature=b"sig-bytes"):
    outpoint = UtxoId(txid=digest(b"parent"), index=1)
    return UtxoTx(
        kind="normal",
        inputs=(TxInput(outpoint=outpoint, unlocking=(push(b"s"), push(b"k"))),),
        outputs=(
            TxOutput(value=3, locking=compile_p2h(digest(b"a"))),
            TxOutput(value=4, locking=compile_p2pkh(digest(b"b"))),
        ),
        issuer_signature=b"",
    )


def test_utxo_tx_roundtrip():
    tx = sample_utxo_tx()
    assert decode_utxo_tx(encode_utxo_tx(tx)) == tx
    coinbase = UtxoTx(
        kind="coinbase",
        inputs=(),
        outputs=(TxOutput(value=9, locking=compile_p2h(digest(b"x"))),),
        issuer_signature=b"issuer",
    )
    assert decode_utxo_tx(encode_utxo_tx(coinbase)) == coinbase


def test_utxo_tx_matches_reference_layout():
    tx = sample_utxo_tx()
    assert encode_utxo_tx(tx) == reference_encode_utxo_tx(tx)


def test_output_order_is_significant():
    tx = sample_utxo_tx()
    swapped = UtxoTx(
        kind=tx.kind,
        inputs=tx.inputs,
        outputs=(tx.outputs[1], tx.outputs[0]),
        issuer_signature=tx.issuer_signature,
    )
    assert txid_of(tx) != txid_of(swapped)
    assert reference_encode_utxo_tx(tx) != reference_encode_utxo_tx(swapped)


def test_signing_payload_zeroes_unlocking():
    tx = sample_utxo_tx()
    payload = utxo_signing_payload(tx)
    stripped = decode_utxo_tx(payload)
    assert all(tx_in.unlocking == () for tx_in in stripped.inputs)
    assert stripped.outputs == tx.outputs
    # the payload does not depend on the unlocking material
    other = UtxoTx(
        kind=tx.kind,
        inputs=(TxInput(outpoint=tx.inputs[0].outpoint, unlocking=(push(b"zz"),)),),
        outputs=tx.outputs,
        issuer_signature=tx.issuer_signature,
    )
    assert utxo_signing_payload(other) == payload


def test_utxo_decode_rejects_garbage():
    tx = sample_utxo_tx()
    raw = encode_utxo_tx(tx)
    with pytest.raises(FormatError):
        decode_utxo_tx(raw + b"\x00")
    with pytest.raises(FormatError):
        decode_utxo_tx(raw[:-1])
    with pytest.raises(FormatError):
        decode_utxo_tx(b"")
    bad_kind = bytearray(raw)
    bad_kind[4] = 7
    with pytest.raises(FormatError):
        decode_utxo_tx(bytes(bad_kind))


def test_txid_is_digest_of_canonical_bytes():
    tx = sample_utxo_tx()
    assert txid_of(tx) == digest(encode_utxo_tx(tx))
    assert txid_of(tx) == digest(reference_encode_utxo_tx(tx))


def test_utxo_id_render_parse():
    outpoint = UtxoId(txid=digest(b"t"), index=5)
    assert UtxoId.parse(outpoint.render()) == outpoint
    with pytest.raises(FormatError):
        UtxoId.parse("nonsense")
