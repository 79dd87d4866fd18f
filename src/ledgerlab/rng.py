"""Deterministic random stream used everywhere reproducibility matters.

Python's ``random`` module only guarantees the stability of ``random()``
itself across versions; helpers like ``shuffle`` may change. Simulation
schedules, wallet serials, and toy key generation must instead be
byte-identical across runs, platforms, and interpreter versions, so this
module derives all randomness from a SHA-256 counter stream seeded by an
arbitrary byte string or integer.
"""

from __future__ import annotations

import hashlib


class SeededStream:
    """A deterministic byte/integer stream derived from a seed.

    Identical seeds yield identical streams forever; distinct labels fork
    independent streams from one parent seed.
    """

    def __init__(self, seed: bytes | str | int):
        if isinstance(seed, int):
            seed = str(seed).encode("ascii")
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        self._key = hashlib.sha256(b"ledgerlab-stream:" + seed).digest()
        self._counter = 0
        self._buffer = b""

    def fork(self, label: str) -> "SeededStream":
        """Derive an independent stream for a sub-purpose."""
        return SeededStream(self._key + b"/" + label.encode("utf-8"))

    def randbytes(self, n: int) -> bytes:
        while len(self._buffer) < n:
            block = hashlib.sha256(
                self._key + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        nbytes = (n.bit_length() + 7) // 8
        limit = (256**nbytes // n) * n
        while True:
            value = int.from_bytes(self.randbytes(nbytes), "big")
            if value < limit:
                return value % n

    def randint_bits(self, bits: int) -> int:
        """Uniform integer with exactly `bits` bits (top bit set)."""
        if bits < 1:
            raise ValueError("randint_bits requires bits >= 1")
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.randbytes(nbytes), "big")
        value &= (1 << bits) - 1
        value |= 1 << (bits - 1)
        return value

    def shuffled(self, items: list) -> list:
        """Fisher-Yates permutation of a copy of `items`."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.randbelow(i + 1)
            out[i], out[j] = out[j], out[i]
        return out
