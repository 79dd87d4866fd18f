"""Identities, amounts, and signature primitives shared by every kernel.

Two interchangeable instantiations sit behind :class:`CryptoScheme`:

* ``toy``: RSA full-domain-hash signatures at deliberately small,
  test-only parameters (256-bit modulus). Fully deterministic from seeds,
  fast enough for thousand-instance property runs, and byte-stable across
  platforms. Not secure, on purpose.
* ``real``: Ed25519 (via the ``cryptography`` package) for identity
  signatures, plus RSA-FDH at 2048-bit modulus for the blind-signature
  suite. Key generation is still deterministic from seeds so replayable
  runs stay replayable.

Both schemes share one digest (SHA-256, 32 bytes) and one key-encoding
convention: a 4-byte ASCII tag followed by the key material, so ``sign``
and ``verify`` dispatch on the key itself and callers never branch on the
active scheme.

RSA keys come from a seeded candidate stream; a key is the first pair
of primes in it, so a faster search must find the same ones. Every
candidate gets one test, Baillie-PSW: a strong base-2 round, then a
strong Lucas test with Selfridge's parameters. Where libgmp.so.10 loads
(through ``ctypes``, at the first key search or wide power, never at
import), GMP's mpz_probab_prime_p(n, 24) decides each candidate: trial
division, then GMP's own Baillie-PSW, with the same parameters and no
random round at 24. Elsewhere trial division runs in Python, in stages
sized to the candidate: one gcd with the product of the odd primes below
1 000, and for the 1 024-bit primes of a blind key two more, with the
primes in [1 000, 10 000) and in [10 000, 2^15) (built on first use), as
FIPS 186-4 Appendix C.3 sieves before it tests; a survivor then goes to
`_is_probable_prime`. Both paths decide the same predicate on the same
candidates, so both find the same primes; see `_is_probable_prime` for
why the predicate does not change a key.

An RSA private key is its two primes (``RPRV || p || q``), the CRT form
of PKCS #1 v2.2, section 3.2; the exponent is always 65537. Every private
operation, a signature or a blind signature, recombines its two half-size
exponentiations by Garner's formula (section 5.1.2). Those halves, the
strong base-2 round of the Python path and the e = 65537 powers of
verification and blinding go through `_powmod`, which hands a power with
an exponent of 32 bits or more, or a modulus of 192 bits or more, to
GMP's mpz_powm where libgmp loads, and everything else to CPython's
``pow``. Both compute the same integer, so every key and byte is the same
either way, and there is nothing to set; a BENCH file names the GMP
version that ran, or null.

The blind-signature suite is the classic multiplicative construction over
the RSA trapdoor permutation: ``blind`` multiplies the hashed message by
``r^e``, the issuer exponentiates with ``d``, and ``unblind`` divides by
``r``, leaving exactly the signature the issuer would have produced on the
clear message.

All operations are pure functions of their inputs; instances hold no
mutable state and are safe for unrestricted concurrent use. The eight
module-level ``functools.lru_cache``s (generated keys, the loaded GMP
binding, the products of the wide trial-division stages, decoded RSA
public keys, decoded RSA private keys with their CRT exponents, loaded
Ed25519 private keys, and the RSA and the Ed25519 verification results,
2^14 triples each) hold only results of pure functions, so a hit returns
exactly what a recomputation would, each is bounded, and each reports
through ``cache_info()``. A verification result is cached whether the signature
is valid or not, so each triple is checked once per process whichever
replica, replay or audit presents it; a key that cannot be decoded raises
on every call and is never cached. Whether a spend is allowed is still
decided by each caller's own state.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import ConfigError, DomainError, FormatError
from .rng import SeededStream

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

DIGEST_SIZE = 32

# Smallest indivisible unit; an amount is an int from 0 to MAX_AMOUNT (a u64).
Amount = int
MAX_AMOUNT = (1 << 64) - 1

# An address is the hex form of the digest of a public key.
Address = str


def digest(message: bytes) -> bytes:
    """The single core digest: SHA-256, 32 bytes, stable across releases."""
    return hashlib.sha256(message).digest()


def address_of(public_key: bytes) -> Address:
    """Derive the account address for a public key (lowercase hex digest)."""
    return digest(public_key).hex()


_HEX_DIGITS = frozenset("0123456789abcdef")


def check_address(address: Address) -> Address:
    """Accept exactly what `address_of` returns: 64 lowercase hex digits."""
    if not isinstance(address, str) or len(address) != 64 or not _HEX_DIGITS.issuperset(address):
        raise FormatError(f"address must be 64 lowercase hex digits, got {address!r}")
    return address


def from_hex(text: str) -> bytes:
    """Decode exactly what `bytes.hex` writes: lowercase hex digits and no
    separator, the rule `check_address` applies to addresses."""
    try:
        raw = bytes.fromhex(text)
    except (TypeError, ValueError):
        raw = None
    # fromhex also reads uppercase digits and whitespace; hex() writes neither.
    if raw is None or raw.hex() != text:
        raise FormatError("expected lowercase hex digits without separators")
    return raw


def check_amount(value: int, *, context: str = "amount") -> int:
    """The one amount rule of every kernel: an int, not a bool, from 0 to MAX_AMOUNT."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{context} must be an integer, got {value!r}")
    # Name the bound, not the value: str() of a long enough int raises.
    if value < 0:
        raise FormatError(f"{context} must be non-negative")
    if value > MAX_AMOUNT:
        raise FormatError(f"{context} exceeds the 64-bit range (at most {MAX_AMOUNT})")
    return value


@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    private_key: bytes


@dataclass(frozen=True)
class Wallet:
    """A key pair plus its derived address."""

    keypair: KeyPair
    address: Address

    @property
    def public_key(self) -> bytes:
        return self.keypair.public_key

    @property
    def private_key(self) -> bytes:
        return self.keypair.private_key


# ---------------------------------------------------------------------------
# Key encodings
# ---------------------------------------------------------------------------

_TAG_RSA_PUB = b"RPUB"
_TAG_RSA_PRV = b"RPRV"
_TAG_ED_PUB = b"EPUB"
_TAG_ED_PRV = b"EPRV"


def _pack_ints(tag: bytes, values: tuple[int, ...]) -> bytes:
    parts = [tag]
    for v in values:
        raw = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
        parts.append(len(raw).to_bytes(4, "big"))
        parts.append(raw)
    return b"".join(parts)


def _unpack_ints(payload: bytes, count: int) -> tuple[int, ...]:
    values = []
    offset = 0
    for _ in range(count):
        if offset + 4 > len(payload):
            raise FormatError("truncated key encoding")
        length = int.from_bytes(payload[offset : offset + 4], "big")
        offset += 4
        if offset + length > len(payload):
            raise FormatError("truncated key encoding")
        values.append(int.from_bytes(payload[offset : offset + length], "big"))
        offset += length
    if offset != len(payload):
        raise FormatError("trailing bytes in key encoding")
    return tuple(values)


@lru_cache(maxsize=1024)
def _decode_rsa_public(public_key: bytes) -> tuple[int, int]:
    if public_key[:4] != _TAG_RSA_PUB:
        raise FormatError("not an RSA public key")
    n, e = _unpack_ints(public_key[4:], 2)
    if n < 4 or e < 3:
        raise FormatError("degenerate RSA public key")
    return n, e


@lru_cache(maxsize=1024)
def _decode_rsa_private(private_key: bytes) -> tuple[int, int, int, int, int, int]:
    """(n, p, q, d mod (p-1), d mod (q-1), q^-1 mod p) of RPRV || p || q.

    d mod (p-1) is e^-1 mod (p-1), since p - 1 divides (p-1)(q-1).
    """
    if private_key[:4] != _TAG_RSA_PRV:
        raise FormatError("not an RSA private key")
    p, q = _unpack_ints(private_key[4:], 2)
    if min(p, q) < 3 or math.gcd(p, q) != 1 or math.gcd(_RSA_EXPONENT, (p - 1) * (q - 1)) != 1:
        raise FormatError("degenerate RSA private key")
    return (
        p * q, p, q,
        pow(_RSA_EXPONENT, -1, p - 1), pow(_RSA_EXPONENT, -1, q - 1), pow(q, -1, p),
    )


# ---------------------------------------------------------------------------
# Modular exponentiation
# ---------------------------------------------------------------------------

# GMP's mpz_powm beat CPython's pow, ctypes call included, at every
# modulus measured (32 to 2 048 bits) from this exponent width on, and
# for e = 65537 from this modulus width on.
_GMP_MIN_EXP_BITS = 32
_GMP_MIN_MOD_BITS = 192
# mpz_probab_prime_p runs Baillie-PSW and then reps - 24 Miller-Rabin
# rounds with random bases: at 24 it runs none.
_GMP_PRIME_REPS = 24


class _Gmp(NamedTuple):
    """The libgmp functions `crypto` calls, each a function of ints."""

    powm: Callable[[int, int, int], int]  # takes 0 <= base < mod, exp >= 0, mod >= 2
    probab_prime: Callable[[int], bool]  # takes n >= 0, so GMP never tests |n|


@lru_cache(maxsize=1)
def _gmp() -> _Gmp | None:
    """mpz_powm and mpz_probab_prime_p of libgmp.so.10, loaded through
    ctypes at the first call; None where the library or a symbol is
    missing, or where its limbs are not 64-bit little-endian words.

    `_powmod` checks powm's operands first: GMP divides by zero on a zero
    modulus. probab_prime(n) is mpz_probab_prime_p(n, 24) != 0, the
    candidate test of key search; a negative n raises OverflowError in
    Python. Each call reads its operands through read-only views of their
    bytes (mpz_roinit_n) and writes into an mpz of its own, so calls share
    nothing and may run in any threads (ctypes releases the GIL).
    """
    import ctypes

    try:
        lib = ctypes.CDLL("libgmp.so.10")
        limb_bits = ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value
        init, clear, roinit, powm, probab_prime_p = (
            getattr(lib, f"__gmpz_{name}")
            for name in ("init", "clear", "roinit_n", "powm", "probab_prime_p")
        )
    except (OSError, AttributeError, ValueError):
        return None
    if limb_bits != 64 or sys.byteorder != "little":
        return None

    class Mpz(ctypes.Structure):
        _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("limbs", ctypes.c_void_p)]

    ref = ctypes.POINTER(Mpz)
    init.argtypes, init.restype = [ref], None
    clear.argtypes, clear.restype = [ref], None
    roinit.argtypes, roinit.restype = [ref, ctypes.c_char_p, ctypes.c_long], ref
    powm.argtypes, powm.restype = [ref, ref, ref, ref], None
    probab_prime_p.argtypes, probab_prime_p.restype = [ref, ctypes.c_int], ctypes.c_int
    string_at = ctypes.string_at

    def view(value: int) -> tuple[Mpz, bytes]:
        """A read-only mpz over `value`'s limbs, with the bytes it reads."""
        limbs = (value.bit_length() + 63) // 64 or 1
        raw = value.to_bytes(8 * limbs, "little")
        mpz = Mpz()
        roinit(mpz, raw, limbs)
        return mpz, raw

    def gmp_powm(base: int, exp: int, mod: int) -> int:
        # The *_raw names keep the bytes each view reads alive until powm returns.
        (b, b_raw), (e, e_raw), (m, m_raw) = view(base), view(exp), view(mod)
        result = Mpz()
        init(result)
        try:
            powm(result, b, e, m)
            return int.from_bytes(string_at(result.limbs, 8 * result.size), "little")
        finally:
            clear(result)

    def gmp_probab_prime(n: int) -> bool:
        z, raw = view(n)  # raw keeps the bytes alive for the call
        return probab_prime_p(z, _GMP_PRIME_REPS) != 0

    return _Gmp(gmp_powm, gmp_probab_prime)


def _powmod(base: int, exp: int, mod: int) -> int:
    """pow(base, exp, mod), through GMP where it loads and the exponent is
    at least _GMP_MIN_EXP_BITS or the modulus _GMP_MIN_MOD_BITS wide.
    Both compute the same integer, and whatever GMP cannot take (mod < 2,
    exp < 0) stays on pow, which returns or raises as it always does."""
    if (
        (exp.bit_length() < _GMP_MIN_EXP_BITS and mod.bit_length() < _GMP_MIN_MOD_BITS)
        or exp < 0 or mod < 2 or (gmp := _gmp()) is None
    ):
        return pow(base, exp, mod)
    return gmp.powm(base % mod, exp, mod)


# ---------------------------------------------------------------------------
# Deterministic RSA key generation
# ---------------------------------------------------------------------------

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
# From this size on a candidate is a prime of a 2048-bit blind key.
_WIDE_BITS = 1024
# Trial division stages: below 1 000 for every candidate; then, from
# _WIDE_BITS on, [1 000, 10 000) and [10 000, 2^15).
_STAGE_BOUNDS = (1000, 10000, 1 << 15)


def _sieve(limit: int) -> bytearray:
    """flags[n] is 1 iff n is prime, for n < limit: Eratosthenes' sieve."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return flags


_TRIAL_PRIMES = list(itertools.compress(range(_STAGE_BOUNDS[0]), _sieve(_STAGE_BOUNDS[0])))
_TRIAL_PRIMORIAL = math.prod(_TRIAL_PRIMES[1:])  # candidates are odd


@lru_cache(maxsize=1)
def _wide_primorials() -> tuple[int, ...]:
    """The product of the primes of each later stage, built when the first
    wide candidate arrives, so a process that makes only toy keys never
    pays for them."""
    flags = _sieve(_STAGE_BOUNDS[-1])
    return tuple(
        math.prod(itertools.compress(range(low, high), flags[low:high]))
        for low, high in itertools.pairwise(_STAGE_BOUNDS)
    )


def _survives_trial_division(n: int) -> bool:
    """True iff odd n > 997 has no prime factor below 1 000 and, from
    1 024 bits on, none below 2^15: one gcd per stage, cheapest first."""
    if math.gcd(n, _TRIAL_PRIMORIAL) != 1:
        return False
    return n.bit_length() < _WIDE_BITS or all(math.gcd(n, m) == 1 for m in _wide_primorials())


_RSA_EXPONENT = 65537


def _odd_part(m: int) -> tuple[int, int]:
    """(d, s) with m = d * 2^s and d odd, for m > 0."""
    s = (m & -m).bit_length() - 1
    return m >> s, s


def _strong_round(n: int, a: int, d: int, s: int) -> bool:
    """One Miller-Rabin round: is n a strong probable prime to base a,
    where n - 1 = d * 2^s?"""
    x = _powmod(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test with Selfridge's parameters (method A) for odd
    n with no factor below 50: D is the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D) / 4, and n + 1 = d * 2^s with d odd.
    n passes iff U_d = 0 or V_(d * 2^r) = 0 (mod n) for some r < s."""
    if math.isqrt(n) ** 2 == n:  # no D has (D/n) = -1
        return False
    D = 5
    while (symbol := _jacobi(D, n)) != -1:
        if symbol == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    half = (n + 1) // 2  # the inverse of 2 mod n
    d, s = _odd_part(n + 1)
    u, v, q_k = 1, 1, Q % n  # U_k, V_k and Q^k at k = 1
    for bit in bin(d)[3:]:
        u, v, q_k = u * v % n, (v * v - 2 * q_k) % n, q_k * q_k % n
        if bit == "1":
            u, v, q_k = (u + v) * half % n, (D * u + v) * half % n, q_k * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * q_k) % n
        if v == 0:
            return True
        q_k = q_k * q_k % n
    return False


def _is_probable_prime(n: int) -> bool:
    """The Baillie-PSW test, for every size: a pure function of n, with no
    state and no randomness beyond n itself.

    After the small primes, a strong base-2 test, then a strong Lucas test
    with Selfridge's parameters (Baillie and Wagstaff, Math. Comp. 35,
    1980; FIPS 186-4 Appendix C.3.3 lists the Lucas test beside
    Miller-Rabin). Each half passes composites the other refuses (8321 is
    a strong base-2 pseudoprime, 5459 a strong Lucas one), no composite is
    known to pass both, and none exists below 2^64. A key is the first
    pair of primes in its seed's candidate stream, so it can differ from
    the one 24 Miller-Rabin rounds pick only where the two tests disagree
    on a composite that the stream draws: none is known to pass
    Baillie-PSW, and one passes 24 rounds with chance below 4^-24.

    Where libgmp loads, key search asks mpz_probab_prime_p(n, 24) instead,
    and this function is the oracle the tests hold it to. GMP 6.2 runs the
    same two halves after its trial division, and its Lucas half takes
    Selfridge's method A too: the first D of 5, -7, 9, -11, ... with
    (D/n) = -1 (it skips 9, a square), P = 1, Q = (1 - D) / 4.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return _strong_round(n, 2, *_odd_part(n - 1)) and _is_strong_lucas_probable_prime(n)


def _sieved_probable_prime(n: int) -> bool:
    """Staged trial division, then `_is_probable_prime`: the candidate test
    where GMP does not load. A stage only drops a composite before the
    probable-prime test would, so it decides the cost and never the result."""
    return (n <= _TRIAL_PRIMES[-1] or _survives_trial_division(n)) and _is_probable_prime(n)


def _gen_prime(stream: SeededStream, bits: int) -> int:
    """The first prime of the candidate stream: the first candidate that
    GMP's mpz_probab_prime_p(n, 24) passes where libgmp loads, and else
    the first that `_sieved_probable_prime` passes. Both decide
    Baillie-PSW with Selfridge's parameters on the same candidates, so the
    prime is the same either way."""
    gmp = _gmp()
    is_prime = _sieved_probable_prime if gmp is None else gmp.probab_prime
    while True:
        candidate = stream.randint_bits(bits) | 1
        if is_prime(candidate):
            return candidate


@lru_cache(maxsize=4096)
def _rsa_keygen(seed: bytes, modulus_bits: int) -> KeyPair:
    stream = SeededStream(b"rsa-keygen:%d:" % modulus_bits + seed)
    half = modulus_bits // 2
    while True:
        p = _gen_prime(stream, half)
        q = _gen_prime(stream, half)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if math.gcd(_RSA_EXPONENT, phi) != 1:
            continue
        return KeyPair(
            public_key=_pack_ints(_TAG_RSA_PUB, (p * q, _RSA_EXPONENT)),
            private_key=_pack_ints(_TAG_RSA_PRV, (p, q)),
        )


def _fdh(message: bytes, n: int) -> int:
    """Hash a message into the RSA message space."""
    return int.from_bytes(digest(message), "big") % n


def _sig_width(n: int) -> int:
    return (n.bit_length() + 7) // 8


def _rsa_private_op(value: int, p: int, q: int, dp: int, dq: int, q_inv: int) -> int:
    """value^d mod pq for 0 <= value < pq, by Garner's recombination."""
    m_q = _powmod(value, dq, q)
    return m_q + (q_inv * (_powmod(value, dp, p) - m_q) % p) * q


def _rsa_sign(private_key: bytes, message: bytes) -> bytes:
    n, *crt = _decode_rsa_private(private_key)
    return _rsa_private_op(_fdh(message, n), *crt).to_bytes(_sig_width(n), "big")


@lru_cache(maxsize=1024)
def _load_ed25519_private(raw: bytes) -> Ed25519PrivateKey:
    """Loading costs more than half a signature; a loaded key signs alike.
    `cryptography` is imported on the first Ed25519 key use, here or in
    `_ed25519_verify`, so a toy-crypto command never loads it."""
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    return Ed25519PrivateKey.from_private_bytes(raw)


# Validity is a pure function of the triple, so False is cached as well
# as True. Callers dispatch on the key's tag first, so an entry of one
# algorithm never answers for a key the other would refuse.


@lru_cache(maxsize=1 << 14)
def _rsa_verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    n, e = _decode_rsa_public(public_key)
    if len(signature) != _sig_width(n):
        return False
    sigma = int.from_bytes(signature, "big")
    return sigma < n and _powmod(sigma, e, n) == _fdh(message, n)


@lru_cache(maxsize=1 << 14)
def _ed25519_verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """`public_key` is a tagged EPUB key whose length the caller checked."""
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

    try:
        Ed25519PublicKey.from_public_bytes(public_key[4:]).verify(signature, message)
        return True
    except InvalidSignature:
        return False
    except ValueError as exc:
        raise FormatError(f"bad Ed25519 public key: {exc}") from exc


def _decode_factor(factor: bytes, n: int) -> int:
    r = int.from_bytes(factor, "big")
    if not 1 < r < n or math.gcd(r, n) != 1:
        raise DomainError("blinding factor outside the scheme's domain")
    return r


# ---------------------------------------------------------------------------
# Scheme interface
# ---------------------------------------------------------------------------


class CryptoScheme(ABC):
    """Signature + blind-signature suite behind one interface.

    Keys are opaque tagged byte strings; ``sign``/``verify`` dispatch on
    the tag, so identity keys and blind-issuer keys go through the same
    entry points regardless of the active scheme.
    """

    name: str

    @abstractmethod
    def keygen(self, seed: bytes) -> KeyPair:
        """Deterministic identity key pair: identical seeds, identical keys."""

    @abstractmethod
    def blind_keygen(self, seed: bytes) -> KeyPair:
        """Deterministic key pair for the blind-signature suite."""

    @abstractmethod
    def sign(self, private_key: bytes, message: bytes) -> bytes:
        """Signature that verifies under the paired public key;
        deterministic for identical (key, message)."""

    @abstractmethod
    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        """True iff `signature` is valid for `message` under `public_key`.

        Returns False for wrong-but-well-formed material; raises
        FormatError if `public_key` cannot be decoded at all.
        """

    # -- blind-signature suite ---------------------------------------------

    def new_blinding_factor(self, stream: SeededStream, public_key: bytes) -> bytes:
        """Sample a fresh factor invertible modulo the issuer key."""
        n, _ = _decode_rsa_public(public_key)
        while True:
            r = stream.randbelow(n - 2) + 2
            if math.gcd(r, n) == 1:
                return r.to_bytes(_sig_width(n), "big")

    def blind(self, message: bytes, factor: bytes, public_key: bytes) -> bytes:
        n, e = _decode_rsa_public(public_key)
        r = _decode_factor(factor, n)
        blinded = (_fdh(message, n) * _powmod(r, e, n)) % n
        return blinded.to_bytes(_sig_width(n), "big")

    def blind_sign(self, private_key: bytes, blinded: bytes) -> bytes:
        n, *crt = _decode_rsa_private(private_key)
        value = int.from_bytes(blinded, "big")
        if value >= n:
            raise DomainError("blinded message outside the key's modulus")
        return _rsa_private_op(value, *crt).to_bytes(_sig_width(n), "big")

    def unblind(self, blinded_signature: bytes, factor: bytes, public_key: bytes) -> bytes:
        n, _ = _decode_rsa_public(public_key)
        r = _decode_factor(factor, n)
        sigma = (int.from_bytes(blinded_signature, "big") * pow(r, -1, n)) % n
        return sigma.to_bytes(_sig_width(n), "big")


class ToyScheme(CryptoScheme):
    """RSA-FDH at 256-bit modulus for everything. Test-only parameters."""

    name = "toy"
    modulus_bits = 256

    def keygen(self, seed: bytes) -> KeyPair:
        return _rsa_keygen(seed, self.modulus_bits)

    def blind_keygen(self, seed: bytes) -> KeyPair:
        return _rsa_keygen(seed, self.modulus_bits)

    def sign(self, private_key: bytes, message: bytes) -> bytes:
        return _rsa_sign(private_key, message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        return _rsa_verify(public_key, message, signature)


class RealScheme(CryptoScheme):
    """Ed25519 identity signatures plus RSA-FDH blind signatures at 2048 bits."""

    name = "real"
    blind_modulus_bits = 2048

    def keygen(self, seed: bytes) -> KeyPair:
        private_bytes = hashlib.sha256(b"ed25519-keygen:" + seed).digest()
        # Loaded outside the cache: a key is cached by the first signature.
        private = _load_ed25519_private.__wrapped__(private_bytes)
        public_raw = private.public_key().public_bytes_raw()
        return KeyPair(
            public_key=_TAG_ED_PUB + public_raw,
            private_key=_TAG_ED_PRV + private_bytes,
        )

    def blind_keygen(self, seed: bytes) -> KeyPair:
        return _rsa_keygen(seed, self.blind_modulus_bits)

    def sign(self, private_key: bytes, message: bytes) -> bytes:
        if private_key[:4] == _TAG_ED_PRV:
            if len(private_key) != 4 + 32:
                raise FormatError("bad Ed25519 private key length")
            return _load_ed25519_private(private_key[4:]).sign(message)
        if private_key[:4] == _TAG_RSA_PRV:
            return _rsa_sign(private_key, message)
        raise FormatError("unknown private key tag")

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        if public_key[:4] == _TAG_ED_PUB:
            if len(public_key) != 4 + 32:
                raise FormatError("bad Ed25519 public key length")
            return _ed25519_verify(public_key, message, signature)
        if public_key[:4] == _TAG_RSA_PUB:
            return _rsa_verify(public_key, message, signature)
        raise FormatError("unknown public key tag")


_SCHEMES: dict[str, CryptoScheme] = {"toy": ToyScheme(), "real": RealScheme()}


def get_scheme(name: str) -> CryptoScheme:
    """Return the shared instance of the named scheme ('toy' or 'real')."""
    scheme = _SCHEMES.get(name)
    if scheme is None:
        raise ConfigError(f"unknown crypto scheme {name!r}; expected 'toy' or 'real'")
    return scheme


def derive_wallet(scheme: CryptoScheme, seed: bytes | str) -> Wallet:
    """Key pair plus address from a seed, for scenario participants."""
    if isinstance(seed, str):
        seed = seed.encode("utf-8")
    keypair = scheme.keygen(seed)
    return Wallet(keypair=keypair, address=address_of(keypair.public_key))
