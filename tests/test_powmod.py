"""The modular exponentiation seam, `crypto._powmod`: the same integer as
`pow` on every operand, GMP on the wide exponents where libgmp loads.

This module generates no key at import, so a binding that computes wrong
integers fails its tests here instead of hanging a key search.
"""

import ctypes
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ledgerlab import crypto
from ledgerlab.crypto import _RSA_EXPONENT, _TAG_RSA_PRV, _fdh, _pack_ints
from ledgerlab.rng import SeededStream


def gmp_matches_the_binding():
    """Whether libgmp.so.10 loads here with the 64-bit little-endian limbs
    that `_gmp_powm` reads, checked without it."""
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


def test_powmod_returns_or_raises_what_pow_does_on_edge_operands():
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(crypto.__file__).parents[1]), os.environ.get("PYTHONPATH")])
        ),
    }
    done = subprocess.run(
        [sys.executable, "-c", EDGE_CHILD], input=json.dumps(EDGE_CASES),
        capture_output=True, text=True, timeout=120, env=env,
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
    """The strong base-2 round of key search and both CRT halves of a
    signature reach mpz_powm, each with an exponent of at least
    _GMP_MIN_EXP_BITS bits, and sign as pow(m, d, n) does; a narrower
    exponent stays on pow."""
    powm = crypto._gmp_powm()
    assert powm is not None
    widths = []

    def counting(base, exp, mod):
        widths.append(exp.bit_length())
        return powm(base, exp, mod)

    monkeypatch.setattr(crypto, "_gmp_powm", lambda: counting)
    p, q = (1 << 127) - 1, (1 << 89) - 1  # Mersenne primes
    assert crypto._is_probable_prime(p) and crypto._is_probable_prime(q)
    assert len(widths) == 2
    signature = crypto.get_scheme("toy").sign(_pack_ints(_TAG_RSA_PRV, (p, q)), b"gmp-path")
    assert len(widths) == 4 and min(widths) >= crypto._GMP_MIN_EXP_BITS
    narrow = (1 << crypto._GMP_MIN_EXP_BITS - 1) - 1
    assert crypto._powmod(7, narrow, p) == pow(7, narrow, p)
    assert len(widths) == 4
    n, d = p * q, pow(_RSA_EXPONENT, -1, (p - 1) * (q - 1))
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
