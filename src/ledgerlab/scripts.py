"""Minimal stack machine for locking and unlocking scripts.

An output carries a locking script (the challenge). A spender supplies an
unlocking script (the response). Validation runs the unlocking script and
then the locking script on one shared stack; the spend is authorized iff
execution finishes without fault and leaves a truthy top of stack.

The instruction set is six opcodes, enough for the two supported
templates:

* pay-to-public-key-hash: ``DUP HASH PUSH:<digest> EQUALVERIFY CHECKSIG``,
  unlocked by ``PUSH:<signature> PUSH:<public key>``.
* pay-to-hash: ``HASH PUSH:<digest> EQUAL``, unlocked by
  ``PUSH:<preimage>``. No identity is involved; whoever knows the
  preimage can spend.

Scripts are loop-free straight-line programs, so execution is trivially
bounded by the instruction count. Truthiness is defined here once: a
result is FALSE iff the stack is empty, or the top item is empty, or the
top item is all zero bytes; anything else is TRUE.

The unlocking script must be push-only, which precludes preparing the
stack with computed values a later locking script was never meant to see.

`write_script` and `read_script` are the wire codec of the scripts a
UTXO transaction's bytes embed; the reader is strict.

Everything in this module is pure and immutable; it is safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .crypto import DIGEST_SIZE, CryptoScheme, digest as _digest, from_hex
from .encoding import MAX_FIELD_BYTES, item_count
from .errors import FormatError


class Opcode(enum.Enum):
    PUSH = "PUSH"
    DUP = "DUP"
    HASH = "HASH"
    EQUAL = "EQUAL"
    EQUALVERIFY = "EQUALVERIFY"
    CHECKSIG = "CHECKSIG"


# Bound once: reading a member off an Enum class runs Python code.
_PUSH, _DUP, _HASH = Opcode.PUSH, Opcode.DUP, Opcode.HASH
_EQUAL, _EQUALVERIFY, _CHECKSIG = Opcode.EQUAL, Opcode.EQUALVERIFY, Opcode.CHECKSIG
_P2PKH = (_DUP, _HASH, _PUSH, _EQUALVERIFY, _CHECKSIG)
_P2H = (_HASH, _PUSH, _EQUAL)


class _OpFields(NamedTuple):
    opcode: Opcode
    operand: bytes | None = None


class Op(_OpFields):
    """One instruction; only PUSH carries an operand.

    A tuple, so scripts compare and hash in C. Construction, `_make` and
    `_replace` check the operand; only `read_script` builds a
    PUSH unchecked, after checking its wire fields itself."""

    __slots__ = ()

    def __new__(cls, opcode: Opcode, operand: bytes | None = None) -> "Op":
        if opcode is _PUSH:
            if operand is None:
                raise FormatError("PUSH requires an operand")
        elif operand is not None:
            raise FormatError(f"{opcode.value} takes no operand")
        return tuple.__new__(cls, (opcode, operand))

    @classmethod
    def _make(cls, iterable) -> "Op":
        return cls(*iterable)


Script = tuple[Op, ...]

# Stack truth values. EQUAL and CHECKSIG push one of these.
TRUE_BYTES = b"\x01"
FALSE_BYTES = b""


# One shared instance per operand-free instruction; Op is frozen.
BARE_OPS = {opcode: Op(opcode) for opcode in Opcode if opcode is not _PUSH}


def push(data: bytes) -> Op:
    return Op(_PUSH, bytes(data))


def is_truthy(item: bytes) -> bool:
    return any(item)


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


def compile_p2pkh(pubkey_hash: bytes) -> Script:
    """Locking script that encumbers an output with a public key hash."""
    if len(pubkey_hash) != DIGEST_SIZE:
        raise FormatError(
            f"pubkey hash must be {DIGEST_SIZE} bytes, got {len(pubkey_hash)}"
        )
    return (
        BARE_OPS[Opcode.DUP],
        BARE_OPS[Opcode.HASH],
        push(pubkey_hash),
        BARE_OPS[Opcode.EQUALVERIFY],
        BARE_OPS[Opcode.CHECKSIG],
    )


def compile_p2h(target: bytes) -> Script:
    """Locking script satisfied by revealing the digest's preimage."""
    if len(target) != DIGEST_SIZE:
        raise FormatError(f"hash target must be {DIGEST_SIZE} bytes, got {len(target)}")
    return (BARE_OPS[Opcode.HASH], push(target), BARE_OPS[Opcode.EQUAL])


def p2pkh_unlocking(signature: bytes, public_key: bytes) -> Script:
    return (push(signature), push(public_key))


def p2h_unlocking(preimage: bytes) -> Script:
    return (push(preimage),)


def classify(locking: Script) -> str:
    """Name the template a locking script instantiates, if any."""
    shape = tuple(op.opcode for op in locking)
    if shape == _P2PKH:
        return "p2pkh"
    if shape == _P2H:
        return "p2h"
    return "other"


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class ExecutionContext(NamedTuple):
    """What CHECKSIG verifies against: the spending transaction's canonical
    bytes with every unlocking field zeroed, plus the verifier to use."""

    signing_payload: bytes
    scheme: CryptoScheme


class ExecResult(NamedTuple):
    ok: bool
    fault: str | None = None
    stack: tuple[bytes, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


FAULT_NON_PUSH_UNLOCKING = "non-push-unlocking"
FAULT_STACK_UNDERFLOW = "stack-underflow"
FAULT_EQUALVERIFY = "equalverify-failed"
FAULT_CHECKSIG_MALFORMED = "checksig-malformed"


def _run(ops: Script, stack: list[bytes], ctx: ExecutionContext) -> str | None:
    """Execute ops against the stack in place; return a fault name or None."""
    for op in ops:
        opcode = op.opcode
        if opcode is _PUSH:
            stack.append(op.operand)  # type: ignore[arg-type]
        elif opcode is _DUP:
            if not stack:
                return FAULT_STACK_UNDERFLOW
            stack.append(stack[-1])
        elif opcode is _HASH:
            if not stack:
                return FAULT_STACK_UNDERFLOW
            stack.append(_digest(stack.pop()))
        elif opcode is _EQUAL:
            if len(stack) < 2:
                return FAULT_STACK_UNDERFLOW
            a, b = stack.pop(), stack.pop()
            stack.append(TRUE_BYTES if a == b else FALSE_BYTES)
        elif opcode is _EQUALVERIFY:
            if len(stack) < 2:
                return FAULT_STACK_UNDERFLOW
            a, b = stack.pop(), stack.pop()
            if a != b:
                return FAULT_EQUALVERIFY
        elif opcode is _CHECKSIG:
            if len(stack) < 2:
                return FAULT_STACK_UNDERFLOW
            public_key = stack.pop()
            signature = stack.pop()
            try:
                valid = ctx.scheme.verify(public_key, ctx.signing_payload, signature)
            except FormatError:
                return FAULT_CHECKSIG_MALFORMED
            stack.append(TRUE_BYTES if valid else FALSE_BYTES)
        else:  # pragma: no cover - enum is closed
            raise AssertionError(f"unhandled opcode {op.opcode}")
    return None


def execute(unlocking: Script, locking: Script, ctx: ExecutionContext) -> ExecResult:
    """Run unlocking then locking on one shared stack.

    TRUE iff execution completes without fault and the top of stack is
    truthy. Faults (underflow, failed EQUALVERIFY, undecodable CHECKSIG
    key material, non-push unlocking op) yield FALSE with the fault named.
    Pure function of its inputs.
    """
    stack: list[bytes] = []
    for op in unlocking:
        if op.opcode is not _PUSH:
            stack, fault = [], FAULT_NON_PUSH_UNLOCKING
            break
        stack.append(op.operand)  # type: ignore[arg-type]
    else:
        fault = _run(locking, stack, ctx)
    ok = fault is None and bool(stack) and is_truthy(stack[-1])
    return ExecResult(ok, fault, tuple(stack))


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

_OPCODE_WIRE = {
    Opcode.PUSH: 0,
    Opcode.DUP: 1,
    Opcode.HASH: 2,
    Opcode.EQUAL: 3,
    Opcode.EQUALVERIFY: 4,
    Opcode.CHECKSIG: 5,
}
# By opcode value: a str hashes in C, where an Enum member hashes in Python.
_OPCODE_TAG = {opcode._value_: bytes((wire,)) for opcode, wire in _OPCODE_WIRE.items()}
_PUSH_TAG = _OPCODE_TAG[_PUSH._value_]
_PUSH_WIRE = _OPCODE_WIRE[_PUSH]
_WIRE_BARE_OP = {_OPCODE_WIRE[opcode]: op for opcode, op in BARE_OPS.items()}


def write_script(parts: list[bytes], script: Script) -> None:
    """Append the wire form of `script` to `parts`: a u32 op count, then
    each op's one-byte tag, a PUSH followed by its operand as varbytes."""
    parts.append(len(script).to_bytes(4, "big"))
    for op in script:
        operand = op.operand
        if operand is None:
            parts.append(_OPCODE_TAG[op.opcode._value_])
        else:
            if len(operand) > MAX_FIELD_BYTES:
                raise FormatError(f"field of {len(operand)} bytes exceeds encoding cap")
            parts += (_PUSH_TAG, len(operand).to_bytes(4, "big"), operand)


def read_script(data: bytes, offset: int) -> tuple[Script, int]:
    """Strictly decode the script written at `offset`; return it with the
    offset just past it. Raises FormatError on truncation, a count or
    length over its cap, or an unknown opcode tag.

    A field cut short by the end of `data` reads as fewer bytes, but the
    offset advances by the field's full width, so it ends past the end."""
    at = offset + 4
    ops = []
    try:
        for _ in range(item_count(data[offset:at])):
            wire = data[at]
            at += 1
            op = _WIRE_BARE_OP.get(wire)
            if op is None:
                if wire != _PUSH_WIRE:
                    raise FormatError(f"unknown opcode tag {wire}")
                start = at + 4
                length = int.from_bytes(data[at:start], "big")
                if length > MAX_FIELD_BYTES:
                    raise FormatError(f"declared field length {length} exceeds encoding cap")
                at = start + length
                # Unchecked: a PUSH carrying an operand is all Op() checks.
                # An operand cut short is refused below.
                op = tuple.__new__(Op, (_PUSH, data[start:at]))
            ops.append(op)
    except IndexError:
        raise FormatError(f"truncated input: a script op at offset {at}") from None
    if at > len(data):
        raise FormatError(f"truncated input: the script at offset {offset}")
    return tuple(ops), at


# ---------------------------------------------------------------------------
# Text notation
# ---------------------------------------------------------------------------


def script_to_text(script: Script) -> str:
    """Render a script in the fixture notation, e.g. `DUP HASH PUSH:ab12`."""
    parts = []
    for op in script:
        if op.opcode is _PUSH:
            parts.append(f"PUSH:{op.operand.hex()}")  # type: ignore[union-attr]
        else:
            parts.append(op.opcode.value)
    return " ".join(parts)


def script_from_text(text: str) -> Script:
    """Parse the fixture notation; inverse of script_to_text. Strict: only
    what script_to_text writes parses (one space between tokens, operands
    in lowercase hex), so script_to_text(script_from_text(t)) == t."""
    ops: list[Op] = []
    for token in text.split(" ") if text else ():
        if token.startswith("PUSH:"):
            hex_part = token[len("PUSH:") :]
            try:
                operand = from_hex(hex_part)
            except FormatError as exc:
                raise FormatError(f"bad PUSH operand {hex_part!r}") from exc
            ops.append(push(operand))
        elif token == "PUSH":
            raise FormatError("PUSH requires a `:hex` operand")
        else:
            try:
                ops.append(BARE_OPS[Opcode(token)])
            except ValueError as exc:
                raise FormatError(f"unknown opcode {token!r}") from exc
    return tuple(ops)
