"""The libgmp binding, `crypto._gmp`, and what goes through it.

The modular exponentiation seam, `crypto._powmod`, returns the same
integer as `pow` on every operand, and GMP computes the wide powers where
libgmp loads. Key search's candidate test, mpz_probab_prime_p, answers as
the Python oracle `crypto._is_probable_prime` does, and every candidate
reaches it.

This module generates no key at import, so a binding that computes wrong
integers fails its tests here instead of hanging a key search.
"""

import ctypes
import json
import math
import operator
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ledgerlab import crypto
from ledgerlab.crypto import _RSA_EXPONENT, _TAG_RSA_PRV, _TAG_RSA_PUB, _fdh, _pack_ints
from ledgerlab.rng import SeededStream


def gmp_matches_the_binding():
    """Whether libgmp.so.10 loads here with the 64-bit little-endian limbs
    that `_gmp` reads, checked without it."""
    try:
        lib = ctypes.CDLL("libgmp.so.10")
        limb_bits = ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value
    except (OSError, ValueError):
        return False
    return limb_bits == 64 and sys.byteorder == "little"


needs_gmp = pytest.mark.skipif(
    not gmp_matches_the_binding(),
    reason="libgmp.so.10 does not load here, or its limbs are not 64-bit little-endian",
)

WIDE_EXP = (1 << 40) + 3  # an exponent past _GMP_MIN_EXP_BITS
EDGE_CASES = [
    (base, exp, mod)
    for exp in (0, 1, 2, WIDE_EXP, -1, -WIDE_EXP)
    for mod in (0, 1, 2, 3, -7, 65537, (1 << 127) - 1, -((1 << 127) - 1))
    for base in (0, 1, 5, -5, mod, mod + 1, 2 * abs(mod) + 9, -3 * abs(mod) - 4, 1 << 200)
]
# Each case's result, or the type and message of what it raises, through
# `pow` and through `_powmod`, computed in a child: GMP raises SIGFPE on a
# zero modulus, which would take pytest down with it.
EDGE_CHILD = (
    "import json, sys\n"
    "from ledgerlab.crypto import _powmod\n"
    "def outcome(fn, case):\n"
    "    try:\n"
    "        return str(fn(*case))\n"
    "    except Exception as exc:\n"
    "        return f'{type(exc).__name__}: {exc}'\n"
    "cases = json.loads(sys.stdin.read())\n"
    "print(json.dumps([[outcome(pow, c), outcome(_powmod, c)] for c in cases]))\n"
)


def child_env():
    """This environment, with the package under test first on PYTHONPATH."""
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(crypto.__file__).parents[1]), os.environ.get("PYTHONPATH")])
        ),
    }


def test_powmod_returns_or_raises_what_pow_does_on_edge_operands():
    done = subprocess.run(
        [sys.executable, "-c", EDGE_CHILD], input=json.dumps(EDGE_CASES),
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert done.returncode == 0, (done.returncode, done.stderr)
    outcomes = json.loads(done.stdout)
    assert len(outcomes) == len(EDGE_CASES)
    for case, (by_pow, by_seam) in zip(EDGE_CASES, outcomes):
        assert by_seam == by_pow, case
    assert any(by_pow.startswith("ValueError") for by_pow, _ in outcomes)


def of_width(max_bits, minimum=0):
    """Ints of every bit width up to `max_bits`, each width as likely."""
    return st.integers(0, max_bits).flatmap(
        lambda bits: st.integers(max(minimum, 1 << bits >> 1), max(minimum, (1 << bits) - 1))
    )


@given(
    base=of_width(2100), negative=st.booleans(), exp=of_width(2100), mod=of_width(2100, minimum=2)
)
@example(base=3, negative=False, exp=(1 << crypto._GMP_MIN_EXP_BITS - 1) - 1, mod=(1 << 64) + 13)
@example(base=3, negative=False, exp=1 << crypto._GMP_MIN_EXP_BITS - 1, mod=(1 << 64) + 13)
@example(base=(1 << 2100) - 1, negative=True, exp=(1 << 2100) - 1, mod=(1 << 2100) - 1)
def test_powmod_equals_pow(base, negative, exp, mod):
    base = -base if negative else base
    assert crypto._powmod(base, exp, mod) == pow(base, exp, mod)


@needs_gmp
def test_wide_exponents_go_through_gmp_and_narrow_ones_do_not(monkeypatch):
    """A power reaches mpz_powm when its exponent has at least
    _GMP_MIN_EXP_BITS bits or its modulus at least _GMP_MIN_MOD_BITS. So
    the strong base-2 round and both CRT halves of a signature reach it
    and sign as pow(m, d, n) does, and so does e = 65537 on the 216-bit
    modulus of that signature's key; a narrow exponent on a narrow
    modulus stays on pow."""
    gmp = crypto._gmp()
    assert gmp is not None
    widths = []

    def counting(base, exp, mod):
        widths.append((exp.bit_length(), mod.bit_length()))
        return gmp.powm(base, exp, mod)

    monkeypatch.setattr(crypto, "_gmp", lambda: gmp._replace(powm=counting))
    p, q = (1 << 127) - 1, (1 << 89) - 1  # Mersenne primes
    assert crypto._is_probable_prime(p) and crypto._is_probable_prime(q)
    assert len(widths) == 2
    signature = crypto.get_scheme("toy").sign(_pack_ints(_TAG_RSA_PRV, (p, q)), b"gmp-path")
    assert len(widths) == 4 and min(exp for exp, _ in widths) >= crypto._GMP_MIN_EXP_BITS
    narrow = (1 << crypto._GMP_MIN_EXP_BITS - 1) - 1
    below = (1 << crypto._GMP_MIN_MOD_BITS - 1) - 1
    for mod in (p, below):
        assert crypto._powmod(7, narrow, mod) == pow(7, narrow, mod)
    assert len(widths) == 4
    n, d = p * q, pow(_RSA_EXPONENT, -1, (p - 1) * (q - 1))
    assert n.bit_length() == 216 >= crypto._GMP_MIN_MOD_BITS
    public = _pack_ints(_TAG_RSA_PUB, (n, _RSA_EXPONENT))
    assert crypto._rsa_verify.__wrapped__(public, b"gmp-path", signature)
    assert widths[4:] == [(_RSA_EXPONENT.bit_length(), 216)]
    assert int.from_bytes(signature, "big") == pow(_fdh(b"gmp-path", n), d, n)


def test_powmod_from_eight_threads_at_once():
    """ctypes releases the GIL during each native call, so calls from many
    threads overlap; each must still return its own operands' result."""
    stream = SeededStream("powmod-threads")
    cases = [
        (stream.randint_bits(bits), stream.randint_bits(bits), stream.randint_bits(bits) | 1)
        for bits in (64, 128, 512, 1024) for _ in range(8)
    ]
    expected = [pow(*case) for case in cases]
    errors = []

    def worker(offset):
        try:
            for round_ in range(4):
                for at in range(len(cases)):
                    at = (at + offset + round_) % len(cases)
                    if crypto._powmod(*cases[at]) != expected[at]:
                        errors.append(cases[at])
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors


# ---------------------------------------------------------------------------
# Key search's candidate test
# ---------------------------------------------------------------------------

CARMICHAEL_NUMBERS = [561, 1105, 1729, 41041, 825265, 1050985, 1152271, 1193221, 321197185]
# Primes above 2^15, so that no trial division on either side finds them
# as factors of a product.
LARGE_PRIMES = [32771, 65537, 2147483647, (1 << 61) - 1]
MERSENNE_PRIMES = [(1 << 521) - 1, (1 << 1279) - 1]


def is_carmichael(n):
    """Korselt's criterion: n is composite and squarefree, and p - 1
    divides n - 1 for every prime p dividing it."""
    factors, rest = [], n
    for p in range(2, math.isqrt(n) + 1):
        while rest % p == 0:
            factors.append(p)
            rest //= p
    factors += [rest] if rest > 1 else []
    return len(set(factors)) == len(factors) > 1 and all((n - 1) % (p - 1) == 0 for p in factors)


def chernick_carmichael(k):
    """(6k + 1)(12k + 1)(18k + 1), a Carmichael number when all three are prime."""
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


def gmp_test_equals_the_oracle(n):
    assert crypto._gmp().probab_prime(n) == crypto._is_probable_prime(n), n


def next_probable_prime(n):
    """The first probable prime from n on, within 20 000 odd numbers (no
    prime gap that long is known at these sizes), so that a broken power
    fails the test instead of hanging it."""
    for candidate in range(n | 1, n + 40_000, 2):
        if crypto._is_probable_prime(candidate):
            return candidate
    raise AssertionError(f"no probable prime among 20 000 odd numbers from {n}")


# Random odd numbers are almost all composite with a small factor, so the
# property also draws primes and products of two primes.
PRIMES = of_width(512, minimum=3).map(next_probable_prime)
CANDIDATES = st.one_of(
    of_width(2100).map(lambda n: n | 1), PRIMES, st.builds(operator.mul, PRIMES, PRIMES)
)


@needs_gmp
@given(n=CANDIDATES)
@example(n=1093 ** 2)  # a strong base-2 pseudoprime above GMP's small-number path
@example(n=3511 ** 2)
@example(n=5459)  # strong Lucas pseudoprimes
@example(n=5777)
@example(n=3215031751)  # a strong pseudoprime to bases 2, 3, 5 and 7
@example(n=3825123056546413051)  # strong base-2 pseudoprimes with no factor below 2^15
@example(n=318665857834031151167461)
@example(n=chernick_carmichael(1_000_005))
@example(n=MERSENNE_PRIMES[0])
@example(n=MERSENNE_PRIMES[1])
@example(n=MERSENNE_PRIMES[0] * MERSENNE_PRIMES[1])
def test_the_gmp_candidate_test_equals_the_python_oracle(n):
    gmp_test_equals_the_oracle(n)


@needs_gmp
def test_the_gmp_candidate_test_equals_the_oracle_on_pseudoprimes():
    """Every strong base-2 pseudoprime below 2 * 10^6, found by brute
    force; Carmichael numbers; and p * q and p^2 for primes above 2^15,
    where each side's Lucas half has no small factor to stop at."""
    limit = 2 * 10**6
    composite = bytearray(limit)
    for i in range(3, math.isqrt(limit) + 1, 2):
        if not composite[i]:
            composite[i * i :: 2 * i] = b"\1" * len(range(i * i, limit, 2 * i))
    pseudoprimes = [
        n for n in range(9, limit, 2)
        if composite[n] and crypto._strong_round(n, 2, *crypto._odd_part(n - 1))
    ]
    assert pseudoprimes[:3] == [2047, 3277, 4033] and 1093 ** 2 in pseudoprimes
    assert any(n > 10**6 for n in pseudoprimes)
    chernick = [
        chernick_carmichael(k) for k in range(1, 2000)
        if all(crypto._is_probable_prime(m * k + 1) for m in (6, 12, 18))
    ]
    assert all(map(is_carmichael, CARMICHAEL_NUMBERS + chernick[:5]))
    products = [p * q for p in LARGE_PRIMES for q in LARGE_PRIMES]
    for n in pseudoprimes + CARMICHAEL_NUMBERS + chernick + products:
        assert not crypto._is_probable_prime(n), n
        gmp_test_equals_the_oracle(n)
    for n in LARGE_PRIMES:
        assert crypto._gmp().probab_prime(n) and crypto._is_probable_prime(n)


def gmp_exports_its_lucas_half():
    """Whether libgmp exports mpz_stronglucas, the strong Lucas half of its
    Baillie-PSW test (an internal function, exported as __gmpz_stronglucas)."""
    return gmp_matches_the_binding() and hasattr(ctypes.CDLL("libgmp.so.10"), "__gmpz_stronglucas")


# Prints, for each n read from stdin, whether GMP's own strong Lucas half
# passes it. Run in a child: the function is internal to GMP, and its
# scratch operands are sized here with room to spare.
LUCAS_CHILD = (
    "import ctypes, json, sys\n"
    "lib = ctypes.CDLL('libgmp.so.10')\n"
    "class Mpz(ctypes.Structure):\n"
    "    _fields_ = [('alloc', ctypes.c_int), ('size', ctypes.c_int), ('limbs', ctypes.c_void_p)]\n"
    "ref = ctypes.POINTER(Mpz)\n"
    "init2, set_str, clear, lucas = (lib.__gmpz_init2, lib.__gmpz_set_str,\n"
    "                                lib.__gmpz_clear, lib.__gmpz_stronglucas)\n"
    "init2.argtypes, init2.restype = [ref, ctypes.c_ulong], None\n"
    "set_str.argtypes, set_str.restype = [ref, ctypes.c_char_p, ctypes.c_int], ctypes.c_int\n"
    "clear.argtypes, clear.restype = [ref], None\n"
    "lucas.argtypes, lucas.restype = [ref, ref, ref], ctypes.c_int\n"
    "def passes(n):\n"
    "    mpzs = [Mpz() for _ in range(3)]\n"
    "    for z in mpzs:\n"
    "        init2(z, 256 * (n.bit_length() // 64 + 2))\n"
    "    assert set_str(mpzs[0], b'%x' % n, 16) == 0\n"
    "    try:\n"
    "        return lucas(*mpzs) != 0\n"
    "    finally:\n"
    "        for z in mpzs:\n"
    "            clear(z)\n"
    "print(json.dumps([passes(n) for n in json.loads(sys.stdin.read())]))\n"
)


@pytest.mark.skipif(
    not gmp_exports_its_lucas_half(), reason="libgmp.so.10 does not export __gmpz_stronglucas"
)
def test_gmp_takes_its_lucas_parameters_by_selfridges_method_a():
    """GMP's strong Lucas half passes exactly what the Python one does, on
    every odd n below 10^5 with no factor below 50 (among them the strong
    Lucas pseudoprimes of Selfridge's method A: other parameters have other
    pseudoprimes), on primes and on random odd numbers up to 2 048 bits. So
    both halves of mpz_probab_prime_p are the ones `_is_probable_prime`
    runs, and key search picks the same primes on either path."""
    small = [n for n in range(51, 10**5, 2) if all(n % p for p in range(3, 50, 2))]
    stream = SeededStream("gmp-lucas")
    wide = [stream.randint_bits(bits) | 1 for bits in (64, 65, 128, 1024, 2048) for _ in range(40)]
    wide = [n for n in wide if all(n % p for p in range(3, 50, 2))]
    numbers = small + wide + LARGE_PRIMES + MERSENNE_PRIMES
    done = subprocess.run(
        [sys.executable, "-c", LUCAS_CHILD], input=json.dumps(numbers),
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert done.returncode == 0, (done.returncode, done.stderr)
    by_gmp = json.loads(done.stdout)
    assert len(by_gmp) == len(numbers)
    for n, passed in zip(numbers, by_gmp):
        assert passed == crypto._is_strong_lucas_probable_prime(n), n
    pseudoprimes = [n for n, passed in zip(small, by_gmp) if passed and not crypto._is_probable_prime(n)]
    assert pseudoprimes[:5] == [5459, 5777, 10877, 16109, 18971]


EDGE_PRIME_CHILD = (
    "import json\n"
    "from ledgerlab import crypto\n"
    "def outcome(n):\n"
    "    try:\n"
    "        return crypto._gmp().probab_prime(n)\n"
    "    except Exception as exc:\n"
    "        return type(exc).__name__\n"
    "print(json.dumps({n: [outcome(n), crypto._is_probable_prime(n)] for n in range(-7, 5)}))\n"
)


@needs_gmp
def test_the_gmp_candidate_test_on_edge_operands():
    """0 to 4 answer as the oracle does, and a negative n raises before
    any native call, since GMP would test |n| (-7 would pass). Run in a
    child, as the powmod edge test is."""
    done = subprocess.run(
        [sys.executable, "-c", EDGE_PRIME_CHILD],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert done.returncode == 0, (done.returncode, done.stderr)
    outcomes = {int(n): pair for n, pair in json.loads(done.stdout).items()}
    for n in range(5):
        assert outcomes[n][0] == outcomes[n][1] == (n in (2, 3)), n
    for n in range(-7, 0):
        assert outcomes[n] == ["OverflowError", False], n


@needs_gmp
@pytest.mark.parametrize("bits", [16, 128, 1024])
def test_every_candidate_of_a_key_search_reaches_gmp(monkeypatch, bits):
    """While GMP loads, `_gen_prime` hands each candidate its stream draws
    to mpz_probab_prime_p, in order, with no Python test in front, and
    returns the first one GMP passes."""
    gmp = crypto._gmp()
    seen = []

    def counting(n):
        seen.append(n)
        assert len(seen) <= 10_000, "no prime among 10 000 candidates"  # not a hang
        return gmp.probab_prime(n)

    monkeypatch.setattr(crypto, "_gmp", lambda: gmp._replace(probab_prime=counting))
    label = b"every-candidate-%d" % bits
    prime = crypto._gen_prime(SeededStream(label), bits)
    stream = SeededStream(label)
    assert seen == [stream.randint_bits(bits) | 1 for _ in seen]
    assert seen[-1] == prime and crypto._is_probable_prime(prime)
    assert len(seen) > 1 and min(seen) >= 2
