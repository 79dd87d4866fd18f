"""Wire format: strict readers, canonical JSON, layout stability."""

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import reference_encode_account_tx, reference_encode_utxo_tx
from ledgerlab.accounts import (
    account_txid,
    encode_account_tx,
    make_account_tx,
)
from ledgerlab.crypto import digest
from ledgerlab.encoding import (
    MAX_FIELD_BYTES,
    MAX_ITEM_COUNT,
    canonical_json,
    parse_json,
    u8,
    u32,
    u64,
    varbytes,
)
from ledgerlab.errors import FormatError
from ledgerlab.scripts import (
    BARE_OPS,
    Op,
    Opcode,
    compile_p2h,
    compile_p2pkh,
    push,
    read_script,
    write_script,
)
from ledgerlab.utxo import (
    Chainstate,
    TxInput,
    TxOutput,
    UtxoId,
    UtxoTx,
    coinbase_issue,
    decode_utxo_tx,
    encode_utxo_tx,
    lock_to_wallet,
    make_coinbase,
    make_spend,
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


def test_u64_rejects_values_past_64_bits():
    assert u64((1 << 64) - 1) == b"\xff" * 8
    for value in (1 << 64, 1 << 200):
        with pytest.raises(FormatError, match="exceeds the 64-bit range"):
            u64(value)


def test_u64_names_its_upper_bound_past_the_integer_string_limit():
    # 10**5000 has too many digits to print, so the refusal names the bound.
    with pytest.raises(FormatError) as refusal:
        u64(10**5000)
    assert str(refusal.value) == "value exceeds the 64-bit range (at most 18446744073709551615)"


@pytest.mark.parametrize("value", [-1, -(10**5000)], ids=["-1", "-10**5000"])
def test_u64_refuses_a_negative_value_with_format_error(value):
    with pytest.raises(FormatError, match="must be non-negative"):
        u64(value)


def wire(script):
    parts = []
    write_script(parts, script)
    return b"".join(parts)


def coinbase_bytes(issuer_signature):
    tx = UtxoTx("coinbase", (), (TxOutput(9, compile_p2h(digest(b"x"))),), issuer_signature)
    return encode_utxo_tx(tx)


def test_varbytes_roundtrip_and_cap():
    data = b"\x00\x01\x02"
    assert varbytes(data) == u32(3) + data
    # A PUSH operand and the issuer signature are both varbytes fields.
    assert read_script(wire((push(data),)), 0) == ((push(data),), 12)
    assert decode_utxo_tx(coinbase_bytes(data)).issuer_signature == data
    with pytest.raises(FormatError):
        varbytes(b"\x00" * (MAX_FIELD_BYTES + 1))
    with pytest.raises(FormatError, match="exceeds encoding cap"):
        write_script([], (push(b"\x00" * (MAX_FIELD_BYTES + 1)),))
    over_cap = u32(MAX_FIELD_BYTES + 1)
    with pytest.raises(FormatError, match="exceeds encoding cap"):
        read_script(u32(1) + u8(0) + over_cap, 0)
    raw = coinbase_bytes(b"")
    with pytest.raises(FormatError, match="exceeds encoding cap"):
        decode_utxo_tx(raw[:-4] + over_cap)
    with pytest.raises(FormatError, match="exceeds encoding cap"):
        read_script(u32(MAX_ITEM_COUNT + 1), 0)


def test_reader_is_strict():
    raw = coinbase_bytes(b"ab")
    with pytest.raises(FormatError):
        decode_utxo_tx(raw[:2])  # truncated
    with pytest.raises(FormatError):
        decode_utxo_tx(raw[:-6] + u32(5) + b"ab")  # declares 5 bytes, carries 2
    with pytest.raises(FormatError):
        read_script(u32(1) + u8(0) + u32(5) + b"ab", 0)
    with pytest.raises(FormatError):
        read_script(u32(2) + u8(1), 0)  # the second tag is missing
    with pytest.raises(FormatError):
        read_script(b"\x00\x00\x01", 0)  # a count of three bytes
    with pytest.raises(FormatError, match="trailing"):
        decode_utxo_tx(raw + b"x")  # trailing byte
    with pytest.raises(FormatError, match="bad magic"):
        decode_utxo_tx(b"UTX2" + raw[4:])


def test_script_wire_roundtrip():
    script = compile_p2pkh(digest(b"key")) + (push(b""),)
    data = wire(script)
    assert read_script(data, 0) == (script, len(data))
    # Decoded PUSHes skip Op's check, yet are the Ops push() builds.
    decoded, _ = read_script(data, 0)
    assert [type(op) for op in decoded] == [Op] * len(script)
    assert repr(decoded) == repr(script) and hash(decoded) == hash(script)
    # The reader starts at any offset and stops where the script ends.
    assert read_script(b"pad" + data + b"tail", 3) == (script, 3 + len(data))
    assert read_script(wire(()), 0) == ((), 4)


def test_script_wire_rejects_unknown_opcode():
    with pytest.raises(FormatError, match="unknown opcode tag 9"):
        read_script(u32(1) + u8(9), 0)
    tx = sample_utxo_tx()
    raw = encode_utxo_tx(tx)
    # The first input's unlocking script starts after the magic, the kind,
    # the input count, the txid and the index.
    tag_at = 4 + 1 + 4 + 32 + 4 + 4
    assert raw[tag_at] == 0
    with pytest.raises(FormatError, match="unknown opcode tag 9"):
        decode_utxo_tx(raw[:tag_at] + u8(9) + raw[tag_at + 1 :])


def test_off_wire_outpoint_index_is_a_format_error():
    for index in (-1, 2**32, 2**64):
        outpoint = UtxoId(digest(b"parent"), index)
        tx = UtxoTx("normal", (TxInput(outpoint, ()),), (TxOutput(1, compile_p2h(digest(b"a"))),))
        for encode in (encode_utxo_tx, txid_of, utxo_signing_payload):
            with pytest.raises(FormatError, match="u32 range"):
                encode(tx)
    edge = UtxoTx("normal", (TxInput(UtxoId(digest(b"p"), 2**32 - 1), ()),), ())
    assert decode_utxo_tx(encode_utxo_tx(edge)).inputs[0].outpoint.index == 2**32 - 1


def test_utxo_id_is_a_tuple_of_txid_and_index():
    txid = digest(b"t")
    two, ten = UtxoId(txid, 2), UtxoId(txid=txid, index=10)
    assert hash(two) == hash((txid, 2))
    assert two == (txid, 2) and ten.txid == txid and ten.index == 10
    assert sorted([ten, two]) == [two, ten]
    assert sorted([UtxoId(digest(b"u"), 0), ten]) == sorted(
        [UtxoId(digest(b"u"), 0), ten], key=lambda o: (o.txid, o.index)
    )
    with pytest.raises(AttributeError):
        two.index = 3  # type: ignore[misc]
    assert UtxoId.parse(ten.render()) == ten and ten.render() == txid.hex() + ":10"
    tx = UtxoTx("normal", (TxInput(ten, (push(b"s"),)),), (TxOutput(1, ()),))
    assert dataclasses.asdict(tx)["inputs"][0]["outpoint"] == ten
    assert repr(two) == f"UtxoId(txid={txid!r}, index=2)"


def test_canonical_json_stability():
    a = canonical_json({"b": 1, "a": [2, 1]})
    b = canonical_json({"a": [2, 1], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, 1], "b": 1}
    assert parse_json(a) == {"a": [2, 1], "b": 1}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_canonical_json_refuses_what_json_has_no_number_for(value):
    with pytest.raises(ValueError):
        canonical_json({"a": [value]})


@pytest.mark.parametrize(
    "text", ['{"a": NaN}', "[Infinity]", "-Infinity", '{"a": 1, "a": 1}', '[{"b": {}, "b": 2}]']
)
def test_parse_json_refuses_what_canonical_json_never_writes(text):
    with pytest.raises(FormatError, match="malformed document"):
        parse_json(text)


def test_account_tx_roundtrip(toy, wallets):
    payer, payee = wallets[0], wallets[1]
    tx = make_account_tx(toy, payer, payee.address, 7, nonce=3)
    plain = make_account_tx(toy, payer, payee.address, 7)
    assert account_txid(tx) != account_txid(plain)


def test_account_tx_matches_reference_layout(toy, wallets):
    payer, payee = wallets[0], wallets[1]
    for nonce in (None, 0, 9):
        tx = make_account_tx(toy, payer, payee.address, 5, nonce=nonce)
        assert encode_account_tx(tx) == reference_encode_account_tx(tx)


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
    assert UtxoId.parse(UtxoId(digest(b"t"), 0).render()).index == 0
    with pytest.raises(FormatError):
        UtxoId.parse("nonsense")


_TXID_HEX = digest(b"t").hex()


@pytest.mark.parametrize(
    "text",
    [
        _TXID_HEX.upper() + ":1",
        _TXID_HEX[:32] + " " + _TXID_HEX[32:] + ":1",
        " " + _TXID_HEX + ":1",
        *(
            _TXID_HEX + ":" + index
            for index in (
                "+1", " 1", "1 ", "01", "00", "1_0", "\u0663", "-1", "-0", "", "4294967296"
            )
        ),
        _TXID_HEX,
        _TXID_HEX + ":1:2",
        _TXID_HEX[:-2] + ":1",
        (_TXID_HEX + ":1").encode(),
    ],
)
def test_utxo_id_parse_refuses_what_render_never_writes(text):
    """int() and bytes.fromhex() read signs, separators, leading zeros,
    non-ASCII digits, uppercase and spaced hex; an outpoint reads none, nor
    an index past the wire's u32 field."""
    with pytest.raises(FormatError, match="bad outpoint"):
        UtxoId.parse(text)


@given(
    st.one_of(
        st.text(max_size=70),
        st.tuples(
            st.one_of(
                st.binary(min_size=32, max_size=32).map(bytes.hex),
                st.text(alphabet="0123456789abcdefABCDEF _", min_size=62, max_size=66),
            ),
            st.sampled_from([":", "", "::", ": "]),
            st.text(alphabet="0123456789+-_ \u0663x", max_size=4),
        ).map("".join),
    )
)
def test_utxo_id_parse_raises_or_round_trips(text):
    try:
        outpoint = UtxoId.parse(text)
    except FormatError:
        return
    assert outpoint.render() == text


# Any transaction encode_utxo_tx accepts, whether or not it would validate.
_ops = st.one_of(st.sampled_from(list(BARE_OPS.values())), st.binary(max_size=12).map(push))
_scripts = st.lists(_ops, max_size=4).map(tuple)
utxo_txs = st.builds(
    UtxoTx,
    kind=st.sampled_from(["normal", "coinbase"]),
    inputs=st.lists(
        st.builds(
            TxInput,
            outpoint=st.builds(
                UtxoId, txid=st.binary(min_size=32, max_size=32), index=st.integers(0, 2**32 - 1)
            ),
            unlocking=_scripts,
        ),
        max_size=2,
    ).map(tuple),
    outputs=st.lists(
        st.builds(TxOutput, value=st.integers(0, 2**64 - 1), locking=_scripts), max_size=2
    ).map(tuple),
    issuer_signature=st.binary(max_size=12),
)


def assert_memos_are_fresh(tx):
    """txid_of and utxo_signing_payload equal a fresh encoding of a copy
    that carries no memo."""
    fresh = UtxoTx(tx.kind, tx.inputs, tx.outputs, tx.issuer_signature)
    assert txid_of(tx) == digest(encode_utxo_tx(fresh))
    assert utxo_signing_payload(tx) == encode_utxo_tx(fresh, for_signing=True)


@given(tx=utxo_txs, data=st.data())
def test_tx_memos_equal_a_fresh_encoding(toy, wallets, tx, data):
    """Built, decoded and replace()d transactions, with memos filled by
    the builders, the decoder or an earlier call before each replace()."""
    issuer, payer = wallets[3], wallets[0]
    preimage = b"memo-preimage"
    state = coinbase_issue(
        Chainstate.genesis(issuer.public_key),
        [(5, lock_to_wallet(payer)), (7, compile_p2h(digest(preimage)))],
        issuer.keypair,
        toy,
    )
    owned = [UtxoId(txid_of(state.log[0]), 0), UtxoId(txid_of(state.log[0]), 1)]
    outpoints = data.draw(st.lists(st.sampled_from(owned), min_size=1, max_size=2, unique=True))
    spend = make_spend(
        toy, state, outpoints, tx.outputs, signer=payer, preimages={owned[1]: preimage}
    )
    coinbase = make_coinbase(toy, issuer.keypair, [(o.value, o.locking) for o in tx.outputs])
    candidates = [tx, spend, coinbase, state.log[0]]
    candidates += [decode_utxo_tx(encode_utxo_tx(c)) for c in candidates]
    for candidate in list(candidates):
        if data.draw(st.booleans(), label="fill memos first"):
            txid_of(candidate), utxo_signing_payload(candidate)
        field = data.draw(st.sampled_from(["kind", "inputs", "outputs", "issuer_signature"]))
        altered = {
            "kind": "normal" if candidate.kind == "coinbase" else "coinbase",
            "inputs": candidate.inputs[1:] + tx.inputs,
            "outputs": candidate.outputs[:-1],
            "issuer_signature": candidate.issuer_signature + b"!",
        }[field]
        candidates.append(dataclasses.replace(candidate, **{field: altered}))
    for candidate in candidates:
        assert_memos_are_fresh(candidate)


@given(tx=utxo_txs, flip=st.integers(1, 255), extra=st.binary(min_size=1, max_size=3))
def test_utxo_decode_is_exact_under_byte_mutations(tx, flip, extra):
    """encode(decode(b)) == b, and every 1-byte change, truncation or
    extension of a valid encoding is refused or decodes to a tx that
    encodes back to exactly the changed bytes, with exact memos."""
    raw = encode_utxo_tx(tx)
    assert encode_utxo_tx(decode_utxo_tx(raw)) == raw
    mutants = [raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1 :] for at in range(len(raw))]
    mutants += [raw[:end] for end in range(len(raw))]
    mutants += [raw + extra, extra + raw]
    for mutant in mutants:
        try:
            decoded = decode_utxo_tx(mutant)
        except FormatError:
            continue
        assert encode_utxo_tx(decoded) == mutant
        assert txid_of(decoded) == digest(mutant)
        assert_memos_are_fresh(decoded)
