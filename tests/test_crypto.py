"""Primitives: digests, deterministic keys, signatures, blinding."""

import contextlib
import functools
import hashlib
import io
import math
from importlib import resources

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from hypothesis import given
from hypothesis import strategies as st

from conftest import read_vector_file
from ledgerlab import cli, crypto
from ledgerlab.accounts import AccountState, account_from_snapshot, account_mint, make_account_tx
from ledgerlab.crypto import (
    _RSA_EXPONENT,
    _TAG_ED_PRV,
    _TAG_ED_PUB,
    _TAG_RSA_PRV,
    _TAG_RSA_PUB,
    _TRIAL_PRIMES,
    DIGEST_SIZE,
    MAX_AMOUNT,
    KeyPair,
    _decode_rsa_private,
    _decode_rsa_public,
    _fdh,
    _gen_prime,
    _is_probable_prime,
    _is_strong_lucas_probable_prime,
    _odd_part,
    _pack_ints,
    _rsa_keygen,
    _strong_round,
    _survives_trial_division,
    _unpack_ints,
    address_of,
    check_amount,
    derive_wallet,
    digest,
    get_scheme,
)
from ledgerlab.ecash import issuer_setup
from ledgerlab.encoding import canonical_json
from ledgerlab.errors import ConfigError, DomainError, FormatError
from ledgerlab.replica import run_round
from ledgerlab.rng import SeededStream
from ledgerlab.tokens import TokenRegistry, token_from_snapshot, token_issue
from ledgerlab.utxo import (
    Chainstate,
    TxOutput,
    UtxoId,
    UtxoTx,
    active_from_snapshot,
    coinbase_issue,
    encode_utxo_tx,
    lock_to_wallet,
    split_payment,
    txid_of,
)


def test_digest_golden_vectors():
    for message, expected in read_vector_file("hash_vectors.txt"):
        assert digest(message) == expected


def test_digest_shape_and_determinism():
    assert len(digest(b"x")) == DIGEST_SIZE == 32
    assert digest(b"x") == digest(b"x")
    corpus = [b"", b"a", b"b", b"ab", b"\x00", b"\x00\x00"]
    assert len({digest(m) for m in corpus}) == len(corpus)


def test_toy_signature_golden_vectors(toy):
    pair = toy.keygen(b"golden-signer")
    for message, expected in read_vector_file("toy_signature_vectors.txt"):
        assert toy.sign(pair.private_key, message) == expected
        assert toy.verify(pair.public_key, message, expected)


def test_gen_prime_matches_trial_division_by_each_prime():
    """The gcd test draws the same primes as dividing by every trial prime,
    on both sides of the largest one (997, a 10-bit number)."""

    def reference(stream, bits):
        while True:
            candidate = stream.randint_bits(bits) | 1
            if any(candidate % p == 0 and candidate != p for p in _TRIAL_PRIMES):
                continue
            if _is_probable_prime(candidate):
                return candidate

    for bits in (3, 8, 13, 14, 15, 16, 24, 128):
        for seed in range(4):
            label = b"gen-prime-%d-%d" % (bits, seed)
            assert _gen_prime(SeededStream(label), bits) == reference(SeededStream(label), bits)


@functools.lru_cache(maxsize=None)
def reference_is_probable_prime(n):
    """Miller-Rabin at 24 rounds for every size and with no pre-test, on
    the base stream _is_probable_prime draws from. Cached, so a blind key's
    primes are tested once however many tests ask."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    bases = SeededStream(b"miller-rabin:" + n.to_bytes((n.bit_length() + 7) // 8, "big"))
    for _ in range(24):
        x = pow(bases.randbelow(n - 3) + 2, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve(limit):
    """The primes below `limit`, by the sieve of Eratosthenes."""
    flags = [True] * limit
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(range(i * i, limit, i))
    return [n for n in range(2, limit) if flags[n]]


PRIMES_BELOW_2_15 = sieve(1 << 15)
ODD_PRIMES_BELOW_2_15 = PRIMES_BELOW_2_15[1:]
# Single-stage trial division: every prime below 10 000 at once.
REFERENCE_PRIMORIAL = math.prod(p for p in PRIMES_BELOW_2_15 if p < 10000)


def reference_keygen(seed, modulus_bits):
    """_rsa_keygen's candidate stream, filtered by one gcd with the primes
    below 10 000 (every candidate of a key is far above them) and tested
    by reference_is_probable_prime, the 24-round test."""
    stream = SeededStream(b"rsa-keygen:%d:" % modulus_bits + seed)

    def prime():
        while True:
            candidate = stream.randint_bits(modulus_bits // 2) | 1
            if math.gcd(candidate, REFERENCE_PRIMORIAL) == 1 and reference_is_probable_prime(candidate):
                return candidate

    while True:
        p, q = prime(), prime()
        if p != q and math.gcd(_RSA_EXPONENT, (p - 1) * (q - 1)) == 1:
            return KeyPair(
                public_key=_pack_ints(_TAG_RSA_PUB, (p * q, _RSA_EXPONENT)),
                private_key=_pack_ints(_TAG_RSA_PRV, (p, q)),
            )


# Composites with no factor below 50 that pass one half of Baillie-PSW:
# strong pseudoprimes to base 2 (only the Lucas step refuses them), and
# strong Lucas pseudoprimes with Selfridge's parameters (only the base-2
# step refuses them).
STRONG_BASE_2_PSEUDOPRIMES = [8321, 3215031751, 3825123056546413051, 318665857834031151167461]
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971]


@pytest.mark.parametrize("n", STRONG_BASE_2_PSEUDOPRIMES)
def test_the_lucas_step_refuses_strong_base_2_pseudoprimes(n):
    assert all(n % p for p in range(2, 50))
    assert _strong_round(n, 2, *_odd_part(n - 1))
    assert not _is_probable_prime(n)


@pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES)
def test_the_base_2_step_refuses_strong_lucas_pseudoprimes(n):
    assert all(n % p for p in range(2, 50))
    assert _is_strong_lucas_probable_prime(n)
    assert not _is_probable_prime(n)


def test_probable_prime_is_exact_on_small_numbers_and_squares():
    """Below 2^15 the test is exact. 1093^2 and 3511^2 are strong base-2
    pseudoprimes, and no Selfridge D exists for a square."""
    assert [n for n in range(1 << 15) if _is_probable_prime(n)] == PRIMES_BELOW_2_15
    for p in (1093, 3511):
        assert _strong_round(p * p, 2, *_odd_part(p * p - 1))
        assert not _is_probable_prime(p * p)


def test_staged_trial_division_equals_dividing_by_every_prime_below_2_15():
    """From 1 024 bits on the three stages refuse exactly the numbers with
    an odd prime factor below 2^15; below that, the first stage alone
    refuses those with one below 1 000. Each stage's first and last prime
    is tried as the only small factor of a number."""
    stream = SeededStream("staged-trial-division")

    def has_factor_below(n, bound):
        return any(n % p == 0 for p in ODD_PRIMES_BELOW_2_15 if p < bound)

    for bits, bound in ((1024, 1 << 15), (128, 1000)):
        cofactor = next(
            n for n in iter(lambda: stream.randint_bits(bits) | 1, None)
            if not has_factor_below(n, 1 << 15)
        )
        numbers = [stream.randint_bits(bits) | 1 for _ in range(1000)]
        numbers += [cofactor] + [p * cofactor for p in (3, 997, 1009, 9973, 10007, 32749)]
        for n in numbers:
            assert _survives_trial_division(n) == (not has_factor_below(n, bound)), (bits, n)


def primes_of(private_key):
    """The (p, q) a private key packs after its tag."""
    return _unpack_ints(private_key[4:], 2)


# Every 2048-bit blind key a bundled scenario or a test makes: the issuer
# keys of ecash_basic.json under --crypto real, and the key of the real
# blinding and CRT tests.
REAL_BLIND_SEEDS = [b"denomination:%d:issuer:15:bank" % d for d in (1, 5, 10)] + [b"blind-real"]


@pytest.mark.parametrize("seed", REAL_BLIND_SEEDS)
def test_real_blind_key_primes_pass_all_24_rounds(real, seed):
    """A 1024-bit candidate gets Baillie-PSW, which no prime fails. The key
    is the 24-round one unless it passes a composite that the 24 rounds
    reject, or rejects one that all 24 rounds pass. This key's p and q pass
    all 24 rounds, which rules out the first; the next test compares one
    whole key."""
    pair = real.blind_keygen(seed)
    p, q = primes_of(pair.private_key)
    n, _ = _decode_rsa_public(pair.public_key)
    assert p * q == n and p.bit_length() == q.bit_length() == 1024
    assert reference_is_probable_prime(p) and reference_is_probable_prime(q)


def test_real_blind_key_equals_the_24_round_keygen(real, monkeypatch):
    """With the loader forced to None, key search runs the 24 rounds in
    place of `_is_probable_prime`; while GMP loads it would decide every
    candidate itself and this patch would test nothing."""
    seed = REAL_BLIND_SEEDS[0]
    pair = real.blind_keygen(seed)
    monkeypatch.setattr(crypto, "_gmp", lambda: None)
    monkeypatch.setattr(crypto, "_is_probable_prime", reference_is_probable_prime)
    assert _rsa_keygen.__wrapped__(seed, 2048) == pair  # the private key is p and q


@pytest.mark.parametrize("seed", REAL_BLIND_SEEDS)
def test_real_blind_key_equals_the_reference_keygen(real, seed):
    assert real.blind_keygen(seed) == reference_keygen(seed, 2048)


def test_toy_keys_equal_the_reference_keygen(toy):
    seeds = [b"reference-keygen:%d" % i for i in range(100)]
    assert [toy.keygen(seed) for seed in seeds] == [reference_keygen(seed, 256) for seed in seeds]


def test_every_toy_key_of_the_bundled_scenarios_and_tables_equals_the_reference(monkeypatch):
    made = set()
    keygen = crypto._rsa_keygen

    def recording_keygen(seed, modulus_bits):
        made.add((seed, modulus_bits))
        return keygen(seed, modulus_bits)

    monkeypatch.setattr(crypto, "_rsa_keygen", recording_keygen)
    scenarios = resources.files("ledgerlab") / "scenarios"
    commands = [["run", str(path)] for path in sorted(map(str, scenarios.iterdir()))
                if path.endswith(".json")]
    for argv in commands + [["tables"]]:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert {bits for _, bits in made} == {256} and len(made) >= 30
    for seed, bits in sorted(made):
        assert keygen(seed, bits) == reference_keygen(seed, bits), seed


def test_address_is_hex_digest_of_public_key(toy):
    pair = toy.keygen(b"addr")
    assert address_of(pair.public_key) == hashlib.sha256(pair.public_key).hexdigest()
    assert len(address_of(pair.public_key)) == 64


def test_check_amount():
    assert check_amount(0) == 0
    assert check_amount(7) == 7
    for bad in (-1, 1.5, "3", True):
        with pytest.raises(FormatError):
            check_amount(bad)


def test_check_amount_names_its_lower_bound():
    # -10**5000 has too many digits to print, so the refusal names the bound.
    with pytest.raises(FormatError) as refusal:
        check_amount(-(10**5000), context="nonce")
    assert str(refusal.value) == "nonce must be non-negative"


def test_check_amount_stops_at_64_bits():
    assert check_amount(MAX_AMOUNT) == MAX_AMOUNT == (1 << 64) - 1
    # 10**5000 has too many digits to print, so the refusal names the bound.
    for value in (MAX_AMOUNT + 1, 10**5000):
        with pytest.raises(FormatError) as refusal:
            check_amount(value)
        assert str(refusal.value) == f"amount exceeds the 64-bit range (at most {MAX_AMOUNT})"


WIDE = 1 << 64
# Each kernel's amounts, and each snapshot decoder, go through check_amount.
WIDE_AMOUNTS = {
    "account-mint": lambda toy, w: account_mint(AccountState(), w.address, WIDE),
    "account-tx-amount": lambda toy, w: make_account_tx(toy, w, w.address, WIDE),
    "account-tx-nonce": lambda toy, w: make_account_tx(toy, w, w.address, 1, nonce=WIDE),
    "account-snapshot": lambda toy, w: account_from_snapshot(
        {"kernel": "account", "balances": {w.address: WIDE}}
    ),
    "token-issue": lambda toy, w: token_issue(TokenRegistry(), "t", WIDE, w.address),
    "token-snapshot": lambda toy, w: token_from_snapshot(
        {"kernel": "token", "objects": {"t": {"value": WIDE, "owner": w.address}}}
    ),
    "ecash-denomination": lambda toy, w: issuer_setup([WIDE], "wide", toy),
    "utxo-output": lambda toy, w: encode_utxo_tx(
        UtxoTx("coinbase", (), (TxOutput(WIDE, lock_to_wallet(w)),))
    ),
    "utxo-snapshot": lambda toy, w: active_from_snapshot(
        {"kernel": "utxo", "active": {"00" * 32 + ":0": {"value": WIDE, "locking": ""}}}
    ),
}


@pytest.mark.parametrize("where", sorted(WIDE_AMOUNTS))
def test_every_kernel_refuses_an_amount_of_2_to_the_64(toy, wallets, where):
    with pytest.raises(FormatError, match="exceeds the 64-bit range"):
        WIDE_AMOUNTS[where](toy, wallets[0])


@pytest.mark.parametrize("name", ["toy", "real"])
def test_keygen_deterministic_and_injective(name):
    scheme = get_scheme(name)
    assert scheme.keygen(b"s1") == scheme.keygen(b"s1")
    seen = {scheme.keygen(b"seed-%d" % i).public_key for i in range(20)}
    assert len(seen) == 20


def test_signature_properties_toy(toy):
    """Correctness, message binding, key binding over 1000 (seed, message)
    pairs: 200 fresh keys, five messages each."""
    stream = SeededStream("sig-props")
    previous = toy.keygen(b"sig-prop-warmup")
    for i in range(200):
        pair = toy.keygen(stream.fork(f"key-{i}").randbytes(16))
        msg_stream = stream.fork(f"msg-{i}")
        for _ in range(5):
            message = msg_stream.randbytes(msg_stream.randbelow(40) + 1)
            signature = toy.sign(pair.private_key, message)
            assert toy.verify(pair.public_key, message, signature)
            assert not toy.verify(pair.public_key, message + b"x", signature)
            assert not toy.verify(previous.public_key, message, signature)
        previous = pair


def test_signature_deterministic(toy, real):
    for scheme in (toy, real):
        pair = scheme.keygen(b"det")
        assert scheme.sign(pair.private_key, b"m") == scheme.sign(pair.private_key, b"m")


def test_real_scheme_sign_verify(real):
    pair = real.keygen(b"ed-seed")
    signature = real.sign(pair.private_key, b"hello")
    assert real.verify(pair.public_key, b"hello", signature)
    assert not real.verify(pair.public_key, b"hellp", signature)
    other = real.keygen(b"ed-other")
    assert not real.verify(other.public_key, b"hello", signature)


def test_an_ed25519_key_is_loaded_once_and_signs_like_a_fresh_one(real):
    pair = real.keygen(b"ed-load-once")
    raw = pair.private_key[len(_TAG_ED_PRV):]
    misses = crypto._load_ed25519_private.cache_info().misses
    signatures = [real.sign(pair.private_key, message) for message in (b"a", b"b", b"a")]
    assert crypto._load_ed25519_private.cache_info().misses == misses + 1
    fresh = Ed25519PrivateKey.from_private_bytes(raw)
    assert signatures == [fresh.sign(b"a"), fresh.sign(b"b"), fresh.sign(b"a")]


def test_real_scheme_rejects_undecodable_key(real):
    with pytest.raises(FormatError):
        real.verify(b"not a key", b"m", b"sig")


def test_verify_rejects_malformed_signature_material(toy):
    pair = toy.keygen(b"mal")
    signature = toy.sign(pair.private_key, b"m")
    assert not toy.verify(pair.public_key, b"m", signature[:-1])
    assert not toy.verify(pair.public_key, b"m", signature + b"\x00")
    assert not toy.verify(pair.public_key, b"m", b"\xff" * len(signature))


def test_blinding_roundtrip_identity(toy):
    """Unblinding the blind signature gives the plain signature, byte for
    byte, and it verifies."""
    issuer = toy.blind_keygen(b"blind-issuer")
    stream = SeededStream("blind-roundtrip")
    for i in range(50):
        message = stream.randbytes(32)
        factor = toy.new_blinding_factor(stream, issuer.public_key)
        blinded = toy.blind(message, factor, issuer.public_key)
        assert blinded != message
        signature = toy.unblind(
            toy.blind_sign(issuer.private_key, blinded), factor, issuer.public_key
        )
        assert signature == toy.sign(issuer.private_key, message)
        assert toy.verify(issuer.public_key, message, signature)


def test_blinding_roundtrip_real(real):
    issuer = real.blind_keygen(b"blind-real")
    stream = SeededStream("blind-real")
    message = stream.randbytes(32)
    factor = real.new_blinding_factor(stream, issuer.public_key)
    blinded = real.blind(message, factor, issuer.public_key)
    signature = real.unblind(
        real.blind_sign(issuer.private_key, blinded), factor, issuer.public_key
    )
    assert signature == real.sign(issuer.private_key, message)
    assert real.verify(issuer.public_key, message, signature)


def test_distinct_factors_distinct_blinds(toy):
    issuer = toy.blind_keygen(b"distinct")
    stream = SeededStream("factors")
    f1 = toy.new_blinding_factor(stream, issuer.public_key)
    f2 = toy.new_blinding_factor(stream, issuer.public_key)
    assert f1 != f2
    assert toy.blind(b"m", f1, issuer.public_key) != toy.blind(b"m", f2, issuer.public_key)


def test_blind_rejects_out_of_domain_factor(toy):
    issuer = toy.blind_keygen(b"domain")
    width = len(issuer.public_key)  # wider than any valid factor encoding
    for raw in (b"\x00", b"\x01", b"\xff" * width):
        with pytest.raises(DomainError):
            toy.blind(b"m", raw, issuer.public_key)


def test_blind_sign_rejects_oversized_value(toy):
    issuer = toy.blind_keygen(b"oversize")
    with pytest.raises(DomainError):
        toy.blind_sign(issuer.private_key, b"\xff" * 64)


def _plain_signatures(private_key, messages, blinded):
    """Signatures and blind signatures by the textbook pow(m, d, n)."""
    p, q = primes_of(private_key)
    n, d = p * q, pow(_RSA_EXPONENT, -1, (p - 1) * (q - 1))
    width = (n.bit_length() + 7) // 8
    return (
        [pow(_fdh(m, n), d, n).to_bytes(width, "big") for m in messages],
        [pow(int.from_bytes(b, "big"), d, n).to_bytes(width, "big") for b in blinded],
    )


def _signing_inputs(stream, private_key, count):
    n = _decode_rsa_private(private_key)[0]
    width = (n.bit_length() + 7) // 8
    messages = [stream.randbytes(stream.randbelow(200)) for _ in range(count)]
    # Both ends of the blinded domain, plus random values below n.
    blinded = [bytes(width), (n - 1).to_bytes(width, "big")] + [
        stream.randbelow(n).to_bytes(width, "big") for _ in range(count)
    ]
    return messages, blinded


@pytest.mark.parametrize("seed", [b"crt-0", b"crt-1", b"crt-2", b"golden-signer"])
def test_crt_signing_matches_plain_pow_on_toy_keys(toy, seed):
    pair = toy.keygen(seed)
    messages, blinded = _signing_inputs(SeededStream(b"crt:" + seed), pair.private_key, 200)
    signatures, blind_signatures = _plain_signatures(pair.private_key, messages, blinded)
    assert [toy.sign(pair.private_key, m) for m in messages] == signatures
    assert [toy.blind_sign(pair.private_key, b) for b in blinded] == blind_signatures
    assert all(toy.verify(pair.public_key, m, s) for m, s in zip(messages, signatures))


def test_crt_signing_matches_plain_pow_on_a_2048_bit_key(real):
    pair = real.blind_keygen(b"blind-real")  # the key test_blinding_roundtrip_real uses
    messages, blinded = _signing_inputs(SeededStream("crt-2048"), pair.private_key, 12)
    signatures, blind_signatures = _plain_signatures(pair.private_key, messages, blinded)
    assert [real.sign(pair.private_key, m) for m in messages] == signatures
    assert [real.blind_sign(pair.private_key, b) for b in blinded] == blind_signatures


def test_hand_packed_key_signs_by_plain_pow(toy):
    """Two primes packed by hand, not by _rsa_keygen, sign as the textbook
    pow(m, d, n) does."""
    stream = SeededStream("hand-packed-key")
    p, q = _gen_prime(stream, 128), _gen_prime(stream, 128)
    private = _pack_ints(_TAG_RSA_PRV, (p, q))
    public = _pack_ints(_TAG_RSA_PUB, (p * q, _RSA_EXPONENT))
    messages, blinded = _signing_inputs(stream, private, 50)
    signatures, blind_signatures = _plain_signatures(private, messages, blinded)
    assert [toy.sign(private, m) for m in messages] == signatures
    assert [toy.blind_sign(private, b) for b in blinded] == blind_signatures
    assert all(toy.verify(public, m, s) for m, s in zip(messages, signatures))


# A prime one above a multiple of e, 14 * 65537 + 1: e^-1 mod (p - 1)
# does not exist. A literal, so no search runs at collection.
P_E = 917_519


def test_p_e_is_a_prime_one_above_a_multiple_of_e():
    assert (P_E - 1) % _RSA_EXPONENT == 0 and _is_probable_prime(P_E)


MALFORMED_PRIVATE_KEYS = (
    "truncated", "trailing-bytes", "p-equals-q", "p-below-3", "e-divides-p-minus-1",
    "common-factor",
)


@pytest.fixture(scope="module")
def malformed_private_keys():
    """Each malformed key by name, built at first use, so a broken prime
    search holds up only the tests that use it, never collection."""
    stream = SeededStream("malformed-private-key")
    p, q = _gen_prime(stream, 128), _gen_prime(stream, 128)
    valid = _pack_ints(_TAG_RSA_PRV, (p, q))
    return {
        "truncated": valid[:-1],
        "trailing-bytes": valid + b"\x00",
        "p-equals-q": _pack_ints(_TAG_RSA_PRV, (p, p)),
        "p-below-3": _pack_ints(_TAG_RSA_PRV, (2, q)),
        "e-divides-p-minus-1": _pack_ints(_TAG_RSA_PRV, (P_E, q)),
        "common-factor": _pack_ints(_TAG_RSA_PRV, (3 * 7, 3 * 11)),
    }


@pytest.mark.parametrize("case", MALFORMED_PRIVATE_KEYS)
def test_a_malformed_private_key_raises_format_error(toy, real, malformed_private_keys, case):
    private = malformed_private_keys[case]
    for scheme in (toy, real):
        with pytest.raises(FormatError):
            scheme.sign(private, b"m")
        with pytest.raises(FormatError):
            scheme.blind_sign(private, b"\x01")


def test_get_scheme_cached_and_strict():
    assert get_scheme("toy") is get_scheme("toy")
    assert get_scheme("real") is get_scheme("real")
    with pytest.raises(ConfigError):
        get_scheme("quantum")


def test_derive_wallet(toy):
    wallet = derive_wallet(toy, "alice")
    again = derive_wallet(toy, "alice")
    assert wallet == again
    assert wallet.address == address_of(wallet.public_key)
    assert derive_wallet(toy, "bob").address != wallet.address


# ---------------------------------------------------------------------------
# The cache of valid signatures
# ---------------------------------------------------------------------------


def uncached_verify(public_key, message, signature):
    """The textbook check for each key type, with no cache in the way."""
    if public_key[:4] == _TAG_ED_PUB:
        try:
            Ed25519PublicKey.from_public_bytes(public_key[4:]).verify(signature, message)
            return True
        except InvalidSignature:
            return False
    n, e = _decode_rsa_public(public_key)
    sigma = int.from_bytes(signature, "big")
    width = (n.bit_length() + 7) // 8
    return len(signature) == width and sigma < n and pow(sigma, e, n) == _fdh(message, n)


VERIFY_CACHES = {"toy": crypto._rsa_verify, "real": crypto._ed25519_verify}


def clear_verify_caches():
    for cache in VERIFY_CACHES.values():
        cache.cache_clear()


def flip_bit(data, bit):
    bit %= 8 * len(data)
    return data[: bit // 8] + bytes([data[bit // 8] ^ (1 << bit % 8)]) + data[bit // 8 + 1 :]


@pytest.mark.parametrize("name", ["toy", "real"])
@given(
    message=st.binary(min_size=1, max_size=80),
    bit=st.integers(min_value=0, max_value=2**16),
    valid_first=st.booleans(),
)
def test_cached_verify_equals_the_uncached_check(name, message, bit, valid_first):
    scheme = get_scheme(name)
    pair, other = scheme.keygen(b"cache-signer"), scheme.keygen(b"cache-other")
    signature = scheme.sign(pair.private_key, message)
    valid = (pair.public_key, message, signature)
    tampered = [
        (pair.public_key, message, flip_bit(signature, bit)),
        (pair.public_key, flip_bit(message, bit), signature),
        (other.public_key, message, signature),
    ]
    clear_verify_caches()
    calls = [valid, *tampered] if valid_first else [*tampered, valid]
    for triple in calls + calls:  # the second pass meets a warm cache
        assert scheme.verify(*triple) == uncached_verify(*triple)
    assert scheme.verify(*valid) and not any(scheme.verify(*t) for t in tampered)


@pytest.mark.parametrize("name", ["toy", "real"])
def test_a_repeated_triple_is_checked_once_valid_or_not(name):
    scheme, cache = get_scheme(name), VERIFY_CACHES[name]
    pair = scheme.keygen(b"cache-once")
    signature = scheme.sign(pair.private_key, b"m")
    cache.cache_clear()
    for message, valid in ((b"m", True), (b"n", False)):
        before = cache.cache_info()
        for _ in range(3):
            assert scheme.verify(pair.public_key, message, signature) is valid
        after = cache.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)


def test_both_verify_caches_are_bounded():
    assert {cache.cache_info().maxsize for cache in VERIFY_CACHES.values()} == {1 << 14}


def test_a_malformed_key_raises_on_every_call(toy, real):
    clear_verify_caches()
    ed = real.keygen(b"cache-ed")
    signature = real.sign(ed.private_key, b"m")
    assert real.verify(ed.public_key, b"m", signature)  # now cached
    sizes = [cache.cache_info().currsize for cache in VERIFY_CACHES.values()]
    cases = [
        (toy, ed.public_key),  # valid under the other scheme's dispatch
        (toy, _TAG_RSA_PUB + b"\x00\x00"),
        (real, ed.public_key[:-1]),
        (real, b"XPUB" + ed.public_key[4:]),
    ]
    for scheme, key in cases:
        for _ in range(3):
            with pytest.raises(FormatError):
                scheme.verify(key, b"m", signature)
    assert [cache.cache_info().currsize for cache in VERIFY_CACHES.values()] == sizes


@pytest.mark.parametrize("name", ["toy", "real"])
def test_a_round_report_is_the_same_from_a_cold_and_a_warm_cache(name):
    scheme = get_scheme(name)
    issuer = scheme.keygen(b"cache-round-issuer")
    alice, bob, carol = (derive_wallet(scheme, f"cache-round-{who}") for who in "abc")
    state = coinbase_issue(
        Chainstate.genesis(issuer.public_key),
        [(10, lock_to_wallet(alice)), (4, lock_to_wallet(alice))],
        issuer,
        scheme,
    )
    first, second = (UtxoId(txid=txid_of(state.log[-1]), index=i) for i in (0, 1))
    txs = [
        split_payment(scheme, state, alice, first, 6, lock_to_wallet(bob)),
        split_payment(scheme, state, alice, first, 7, lock_to_wallet(carol)),
        split_payment(scheme, state, alice, second, 4, lock_to_wallet(carol)),
    ]
    clear_verify_caches()
    cold = canonical_json(run_round(state, txs, 4, 5, "arrival-order", scheme)[1].doc())
    assert VERIFY_CACHES[name].cache_info().currsize
    warm = canonical_json(run_round(state, txs, 4, 5, "arrival-order", scheme)[1].doc())
    assert cold == warm


# ---------------------------------------------------------------------------
# The pow fallback
# ---------------------------------------------------------------------------


def clear_crypto_caches():
    for value in vars(crypto).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def everything_the_commands_make(monkeypatch, out):
    """Every RSA key that the bundled scenarios, `ecash_basic.json --crypto
    real` and `tables` make, plus the REAL_BLIND_SEEDS keys, and every
    byte they print or write, all computed on cleared caches."""
    clear_crypto_caches()
    made = set()
    keygen = _rsa_keygen

    def recording_keygen(seed, modulus_bits):
        made.add((seed, modulus_bits))
        return keygen(seed, modulus_bits)

    monkeypatch.setattr(crypto, "_rsa_keygen", recording_keygen)
    scenarios = sorted(
        str(path) for path in (resources.files("ledgerlab") / "scenarios").iterdir()
        if str(path).endswith(".json")
    )
    commands = [["run", path] for path in scenarios]
    commands += [["run", scenarios[2], "--crypto", "real"], ["tables"]]
    assert scenarios[2].endswith("ecash_basic.json")
    printed = []
    for at, argv in enumerate(commands):
        target = out / str(at)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv + ["--out", str(target)]) == 0, argv
        written = {path.name: path.read_bytes() for path in sorted(target.iterdir())}
        printed.append((argv, stdout.getvalue().replace(str(target), "<out>"), written))
    monkeypatch.setattr(crypto, "_rsa_keygen", keygen)
    made.update((seed, 2048) for seed in REAL_BLIND_SEEDS)
    return {key: keygen(*key) for key in sorted(made)}, printed


def test_the_pow_fallback_makes_every_key_and_byte_that_gmp_does(monkeypatch, tmp_path):
    keys, printed = everything_the_commands_make(monkeypatch, tmp_path / "gmp")
    assert {bits for _, bits in keys} == {256, 2048} and len(keys) >= 34
    monkeypatch.setattr(crypto, "_gmp", lambda: None)
    try:
        assert everything_the_commands_make(monkeypatch, tmp_path / "pow") == (keys, printed)
    finally:
        clear_crypto_caches()
