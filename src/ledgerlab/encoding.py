"""Byte-level plumbing for canonical, order-stable wire encodings.

Every transaction kind has exactly one byte encoding: fixed-width
big-endian integers, length-prefixed variable fields, documented field
order, no optional whitespace anywhere. Transaction ids are digests of
these bytes, so "structurally equal" and "byte equal" must coincide; the
encoders here are the single source of that guarantee.

The kernels own their transaction dataclasses and field layouts; this
module supplies the primitives (integer packing, length-prefixed bytes,
a capped item count). The script wire format is `scripts`' own.

Snapshots and reports are JSON with sorted keys and a fixed separator
convention so identical states produce identical files.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import FormatError

# Caps keep hostile or fuzzed input from requesting absurd allocations.
MAX_FIELD_BYTES = 1 << 24
MAX_ITEM_COUNT = 1 << 16


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


def item_count(field: bytes) -> int:
    """The u32 item count in `field`, refused over its cap."""
    count = int.from_bytes(field, "big")
    if count > MAX_ITEM_COUNT:
        raise FormatError(f"declared item count {count} exceeds encoding cap")
    return count


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
