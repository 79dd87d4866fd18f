"""Primitives: digests, deterministic keys, signatures, blinding."""

import hashlib

import pytest

from conftest import read_vector_file
from ledgerlab.crypto import (
    _TRIAL_PRIMES,
    DIGEST_SIZE,
    _gen_prime,
    _is_probable_prime,
    address_of,
    check_amount,
    derive_wallet,
    digest,
    get_scheme,
)
from ledgerlab.errors import ConfigError, DomainError, FormatError
from ledgerlab.rng import SeededStream


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
    on both sides of the largest one (9973, a 14-bit number)."""

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
