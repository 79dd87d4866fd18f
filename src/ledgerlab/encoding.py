"""Byte-level plumbing for canonical, order-stable wire encodings.

Every transaction kind has exactly one byte encoding: fixed-width
big-endian integers, length-prefixed variable fields, documented field
order, no optional whitespace anywhere. Transaction ids are digests of
these bytes, so "structurally equal" and "byte equal" must coincide; the
encoders here are the single source of that guarantee.

The kernels own their transaction dataclasses and field layouts; this
module supplies the primitives (integer packing, length-prefixed bytes,
one writer and one strict reader of the script wire format, which fails
loudly on truncation, an over-cap count or length, or an unknown tag).

Snapshots and reports are JSON with sorted keys and a fixed separator
convention so identical states produce identical files.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import FormatError
from .scripts import BARE_OPS, Op, Opcode, Script

# Caps keep hostile or fuzzed input from requesting absurd allocations.
MAX_FIELD_BYTES = 1 << 24
MAX_ITEM_COUNT = 1 << 16

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
_PUSH_TAG = _OPCODE_TAG[Opcode.PUSH._value_]
_PUSH_WIRE = _OPCODE_WIRE[Opcode.PUSH]
_PUSH = Opcode.PUSH
_WIRE_BARE_OP = {_OPCODE_WIRE[opcode]: op for opcode, op in BARE_OPS.items()}


def u8(value: int) -> bytes:
    return value.to_bytes(1, "big")


def u32(value: int) -> bytes:
    return value.to_bytes(4, "big")


def u64(value: int) -> bytes:
    # Callers hold amounts and nonces to crypto.check_amount first; these
    # guards keep any other value that does not fit the field off the wire.
    # They name the bound, not the value: str() of a long enough int raises.
    if value < 0:
        raise FormatError("a 64-bit field must be non-negative")
    if value > 0xFFFF_FFFF_FFFF_FFFF:
        raise FormatError("value exceeds the 64-bit range (at most 18446744073709551615)")
    return value.to_bytes(8, "big")


def varbytes(data: bytes) -> bytes:
    if len(data) > MAX_FIELD_BYTES:
        raise FormatError(f"field of {len(data)} bytes exceeds encoding cap")
    return u32(len(data)) + data


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


def item_count(field: bytes) -> int:
    """The u32 item count in `field`, refused over its cap."""
    count = int.from_bytes(field, "big")
    if count > MAX_ITEM_COUNT:
        raise FormatError(f"declared item count {count} exceeds encoding cap")
    return count


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


def canonical_json(obj: Any) -> str:
    """Render JSON with sorted keys and fixed separators; ends in newline.

    Identical objects give identical bytes, so snapshots and reports are
    diffable and golden-testable. NaN and the infinities raise ValueError.
    """
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False) + "\n"


def _refuse_constant(name: str) -> None:
    raise ValueError(f"{name} is not a JSON number")


def _distinct_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("an object repeats a key")
    return obj


def parse_json(text: str, *, context: str = "document") -> Any:
    # ValueError covers JSONDecodeError, CPython's integer-digit limit and
    # the refusals of what canonical_json never writes: NaN, the infinities
    # and an object that repeats a key.
    try:
        return json.loads(text, parse_constant=_refuse_constant, object_pairs_hook=_distinct_keys)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"malformed {context}: {exc}") from exc
