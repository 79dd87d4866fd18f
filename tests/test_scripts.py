"""Stack interpreter: templates, faults, truthiness, text notation."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import choice
from ledgerlab.crypto import digest
from ledgerlab.errors import FormatError
from ledgerlab.rng import SeededStream
from ledgerlab.scripts import (
    FAULT_CHECKSIG_MALFORMED,
    FAULT_EQUALVERIFY,
    FAULT_NON_PUSH_UNLOCKING,
    FAULT_STACK_UNDERFLOW,
    ExecutionContext,
    Op,
    Opcode,
    classify,
    compile_p2h,
    compile_p2pkh,
    execute,
    is_truthy,
    p2h_unlocking,
    p2pkh_unlocking,
    push,
    script_from_text,
    script_to_text,
)


@pytest.fixture
def ctx(toy, wallets):
    return ExecutionContext(signing_payload=b"payload-under-test", scheme=toy)


def signed(toy, wallet, payload=b"payload-under-test"):
    return toy.sign(wallet.private_key, payload)


def test_op_shape_rules():
    with pytest.raises(FormatError):
        Op(opcode=Opcode.PUSH)  # push with nothing to push
    with pytest.raises(FormatError):
        Op(opcode=Opcode.DUP, operand=b"x")
    assert push(b"ab").operand == b"ab"
    # An Op is a tuple, and no tuple-level path builds one unchecked.
    with pytest.raises(FormatError):
        push(b"ab")._replace(operand=None)
    with pytest.raises(FormatError):
        Op(opcode=Opcode.DUP)._replace(operand=b"x")
    with pytest.raises(FormatError):
        Op._make((Opcode.PUSH, None))
    assert pickle.loads(pickle.dumps(push(b"ab"))) == push(b"ab")


def test_truthiness_convention():
    assert not is_truthy(b"")
    assert not is_truthy(b"\x00\x00\x00")
    assert is_truthy(b"\x01")
    assert is_truthy(b"\x00\x01")


def test_constant_true_script(ctx):
    assert execute((), (push(b"\x01"),), ctx)


def test_all_zero_top_is_false(ctx):
    assert not execute((), (push(b"\x00\x00"),), ctx)
    result = execute((), (), ctx)
    assert not result  # empty stack
    assert result.fault is None  # no fault, just falsy


def test_underflow_faults(ctx):
    result = execute((), (Op(opcode=Opcode.DUP),), ctx)
    assert not result
    assert result.fault == FAULT_STACK_UNDERFLOW
    result = execute((), (Op(opcode=Opcode.EQUAL),), ctx)
    assert result.fault == FAULT_STACK_UNDERFLOW


def test_p2pkh_manual_stack_trace(toy, wallets, ctx):
    """Walk the canonical key-hash spend one instruction at a time and
    check the interpreter agrees with the hand-computed stacks."""
    wallet = wallets[0]
    sig = signed(toy, wallet)
    pk = wallet.public_key
    commit = digest(pk)

    # Hand trace. Unlocking pushes leave [sig, pk]; then:
    #   DUP         [sig, pk, pk]
    #   HASH        [sig, pk, H(pk)]
    #   PUSH commit [sig, pk, H(pk), commit]
    #   EQUALVERIFY [sig, pk]        (H(pk) == commit, both consumed)
    #   CHECKSIG    [TRUE]           (pk, sig consumed; sig verifies)
    expected_stacks = [
        [sig],
        [sig, pk],
        [sig, pk, pk],
        [sig, pk, commit],
        [sig, pk, commit, commit],
        [sig, pk],
        [b"\x01"],
    ]
    program = list(p2pkh_unlocking(sig, pk)) + list(compile_p2pkh(commit))
    for cut in range(1, len(program) + 1):
        partial = execute((), tuple(program[:cut]), ctx)
        assert partial.fault is None
        assert list(partial.stack) == expected_stacks[cut - 1]

    final = execute(p2pkh_unlocking(sig, pk), compile_p2pkh(commit), ctx)
    assert final
    assert final.fault is None
    assert list(final.stack) == [b"\x01"]


def test_p2pkh_wrong_payload(toy, wallets, ctx):
    wallet = wallets[0]
    sig = toy.sign(wallet.private_key, b"a different payload")
    result = execute(
        p2pkh_unlocking(sig, wallet.public_key),
        compile_p2pkh(digest(wallet.public_key)),
        ctx,
    )
    assert not result
    assert result.fault is None  # CHECKSIG leaves FALSE, no fault


def test_p2pkh_wrong_key_fails_at_equalverify(toy, wallets, ctx):
    owner, thief = wallets[0], wallets[1]
    sig = signed(toy, thief)
    result = execute(
        p2pkh_unlocking(sig, thief.public_key),
        compile_p2pkh(digest(owner.public_key)),
        ctx,
    )
    assert not result
    assert result.fault == FAULT_EQUALVERIFY


def test_checksig_malformed_operands(toy, ctx):
    unlocking = (push(b"junk-signature"), push(b"junk-key"))
    locking = (Op(opcode=Opcode.CHECKSIG),)
    result = execute(unlocking, locking, ctx)
    assert not result
    assert result.fault == FAULT_CHECKSIG_MALFORMED


def test_p2h_happy_and_sad(ctx):
    secret = b"open sesame"
    locking = compile_p2h(digest(secret))
    assert execute(p2h_unlocking(secret), locking, ctx)
    assert not execute(p2h_unlocking(b"guess"), locking, ctx)


def test_p2h_is_identity_free(toy, ctx):
    """Holding the preimage is the whole condition; no key involved."""
    secret = b"\x07" * 16
    locking = compile_p2h(digest(secret))
    assert all(op.opcode is not Opcode.CHECKSIG for op in locking)
    assert execute(p2h_unlocking(secret), locking, ctx)


def test_compile_rejects_bad_digest_length():
    with pytest.raises(FormatError):
        compile_p2pkh(b"\x00" * 31)
    with pytest.raises(FormatError):
        compile_p2h(b"\x00" * 33)


def test_push_only_unlocking_enforced(ctx):
    unlocking = (push(b"\x01"), Op(opcode=Opcode.DUP))
    result = execute(unlocking, (), ctx)
    assert not result
    assert result.fault == FAULT_NON_PUSH_UNLOCKING


def test_classify(wallets):
    assert classify(compile_p2pkh(digest(wallets[0].public_key))) == "p2pkh"
    assert classify(compile_p2h(digest(b"s"))) == "p2h"
    assert classify((push(b"\x01"),)) == "other"
    assert classify(()) == "other"


def test_determinism(toy, wallets, ctx):
    wallet = wallets[0]
    sig = signed(toy, wallet)
    args = (p2pkh_unlocking(sig, wallet.public_key), compile_p2pkh(digest(wallet.public_key)))
    first = execute(*args, ctx)
    second = execute(*args, ctx)
    assert (first.ok, first.fault, first.stack) == (second.ok, second.fault, second.stack)


def test_text_notation_roundtrip(toy, wallets):
    wallet = wallets[0]
    scripts = [
        compile_p2pkh(digest(wallet.public_key)),
        compile_p2h(digest(b"secret")),
        p2pkh_unlocking(signed(toy, wallet), wallet.public_key),
        (),
        (push(b""),),
    ]
    for script in scripts:
        assert script_from_text(script_to_text(script)) == script


def test_text_notation_shape(wallets):
    text = script_to_text(compile_p2pkh(digest(wallets[0].public_key)))
    assert text.startswith("DUP HASH PUSH:")
    assert text.endswith("EQUALVERIFY CHECKSIG")


def test_text_notation_rejects_unknown_tokens():
    with pytest.raises(FormatError):
        script_from_text("DUP FLY")
    with pytest.raises(FormatError):
        script_from_text("PUSH:zz")


@pytest.mark.parametrize(
    "text",
    [
        "PUSH:AB", "PUSH:a", "PUSH:ab cd", "PUSH",
        "DUP  HASH", " DUP", "DUP ", "DUP\tHASH", "DUP\nHASH",
    ],
)
def test_text_notation_rejects_what_script_to_text_never_writes(text):
    with pytest.raises(FormatError):
        script_from_text(text)


_TEXT_TOKENS = [
    "DUP", "HASH", "EQUALVERIFY", "CHECKSIG", "PUSH:", "PUSH:ab", "PUSH:AB", "PUSH:a", ""
]


@given(st.lists(st.sampled_from(_TEXT_TOKENS), max_size=5), st.sampled_from([" ", "  ", "\t"]))
def test_text_notation_parses_or_raises_and_round_trips(tokens, separator):
    text = separator.join(tokens)
    try:
        script = script_from_text(text)
    except FormatError:
        return
    assert script_to_text(script) == text


def test_small_fuzz_never_raises(toy, ctx):
    """Random instruction soup must fault cleanly, never escape."""
    stream = SeededStream("script-fuzz-small")
    opcodes = list(Opcode)
    for _ in range(300):
        ops = []
        for _ in range(stream.randbelow(8)):
            opcode = choice(stream, opcodes)
            if opcode is Opcode.PUSH:
                ops.append(push(stream.randbytes(stream.randbelow(6))))
            else:
                ops.append(Op(opcode=opcode))
        script = tuple(ops)
        result = execute((), script, ctx)
        assert result.ok in (True, False)
