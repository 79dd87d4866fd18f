"""Byte-level plumbing for canonical, order-stable wire encodings.

Every transaction kind has exactly one byte encoding: fixed-width
big-endian integers, length-prefixed variable fields, documented field
order, no optional whitespace anywhere. Transaction ids are digests of
these bytes, so "structurally equal" and "byte equal" must coincide; the
encoders here are the single source of that guarantee.

The kernels own their transaction dataclasses and field layouts; this
module supplies the primitives (integer packing, length-prefixed bytes,
the script wire format) plus a strict reader that fails loudly on
truncation or trailing garbage.

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
_OPCODE_TAG = {opcode: bytes((wire,)) for opcode, wire in _OPCODE_WIRE.items()}
_PUSH_WIRE = _OPCODE_WIRE[Opcode.PUSH]
_WIRE_BARE_OP = {_OPCODE_WIRE[opcode]: op for opcode, op in BARE_OPS.items()}


def u8(value: int) -> bytes:
    return value.to_bytes(1, "big")


def u32(value: int) -> bytes:
    return value.to_bytes(4, "big")


def u64(value: int) -> bytes:
    # Amounts and nonces can arrive here unchecked from scenario files, so
    # a value too wide for the field is malformed input. (Callers reject
    # negative values before encoding.)
    if value > 0xFFFF_FFFF_FFFF_FFFF:
        raise FormatError(f"{value} exceeds the 64-bit range")
    return value.to_bytes(8, "big")


def varbytes(data: bytes) -> bytes:
    if len(data) > MAX_FIELD_BYTES:
        raise FormatError(f"field of {len(data)} bytes exceeds encoding cap")
    return u32(len(data)) + data


def encode_script(script: Script) -> bytes:
    parts = [u32(len(script))]
    for op in script:
        opcode = op.opcode
        parts.append(_OPCODE_TAG[opcode])
        if opcode is Opcode.PUSH:
            parts.append(varbytes(op.operand))  # type: ignore[arg-type]
    return b"".join(parts)


class Reader:
    """Strict cursor over an immutable byte string.

    Every read checks bounds and raises FormatError on truncation;
    finish() rejects trailing bytes, so decode(encode(x)) = x is the only
    way through.
    """

    def __init__(self, data: bytes):
        self._data = data
        # Index of the next unread byte.
        self.offset = 0

    def read(self, n: int) -> bytes:
        offset = self.offset
        if n < 0 or offset + n > len(self._data):
            raise FormatError(f"truncated input: wanted {n} bytes at offset {offset}")
        self.offset = offset + n
        return self._data[offset : offset + n]

    def u8(self) -> int:
        return self.read(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.read(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.read(8), "big")

    def varbytes(self) -> bytes:
        length = self.u32()
        if length > MAX_FIELD_BYTES:
            raise FormatError(f"declared field length {length} exceeds encoding cap")
        return self.read(length)

    def count(self) -> int:
        n = self.u32()
        if n > MAX_ITEM_COUNT:
            raise FormatError(f"declared item count {n} exceeds encoding cap")
        return n

    def script(self) -> Script:
        ops = []
        for _ in range(self.count()):
            wire = self.u8()
            op = _WIRE_BARE_OP.get(wire)
            if op is None:
                if wire != _PUSH_WIRE:
                    raise FormatError(f"unknown opcode tag {wire}")
                op = Op(Opcode.PUSH, self.varbytes())
            ops.append(op)
        return tuple(ops)

    def expect(self, magic: bytes) -> None:
        got = self.read(len(magic))
        if got != magic:
            raise FormatError(f"bad magic: expected {magic!r}, got {got!r}")

    def finish(self) -> None:
        if self.offset != len(self._data):
            raise FormatError(
                f"{len(self._data) - self.offset} trailing bytes after decode"
            )


def canonical_json(obj: Any) -> str:
    """Render JSON with sorted keys and fixed separators; ends in newline.

    Identical objects give identical bytes, so snapshots and reports are
    diffable and golden-testable.
    """
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def parse_json(text: str, *, context: str = "document") -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed {context}: {exc}") from exc
