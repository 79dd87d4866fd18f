"""Object-registry kernel: issuance, ownership transfer, value pinning."""

import pytest

from oracles import choice, token_values
from ledgerlab.crypto import derive_wallet
from ledgerlab.encoding import canonical_json
from ledgerlab.errors import ConfigError, FormatError, NotFoundError, OwnershipError
from ledgerlab.rng import SeededStream
from ledgerlab.tokens import (
    TokenRegistry,
    token_from_snapshot,
    token_issue,
    token_snapshot,
    token_transfer,
)


@pytest.fixture
def registry(wallets):
    a = wallets[0].address
    state = token_issue(TokenRegistry(), "o1", 5, a)
    return token_issue(state, "o2", 3, a)


def test_transfer_moves_ownership_only(registry, wallets):
    a, b = wallets[0].address, wallets[1].address
    after = token_transfer(registry, a, b, "o1")
    assert after.owner_of("o1") == b
    assert after.objects["o1"].value == 5
    assert after.owner_of("o2") == a
    assert registry.owner_of("o1") == a  # input untouched


def test_non_owner_cannot_transfer(registry, wallets):
    b, c = wallets[1].address, wallets[2].address
    with pytest.raises(OwnershipError):
        token_transfer(registry, b, c, "o1")


def test_unknown_token(registry, wallets):
    a, b = wallets[0].address, wallets[1].address
    with pytest.raises(NotFoundError):
        token_transfer(registry, a, b, "missing")


def test_self_transfer_is_identity(registry, wallets):
    a = wallets[0].address
    assert token_transfer(registry, a, a, "o1").objects == registry.objects


def test_issue_validations(registry, wallets):
    a = wallets[0].address
    with pytest.raises(ConfigError):
        token_issue(registry, "o1", 9, a)  # id reuse
    with pytest.raises(FormatError):
        token_issue(registry, "o3", 0, a)  # worthless object
    with pytest.raises(FormatError):
        token_issue(registry, "o3", -2, a)


def test_value_multiset_invariant_under_random_transfers(toy, registry):
    """Transfers permute owners; the (id, value) multiset never moves."""
    stream = SeededStream("token-shuffle")
    owners = [derive_wallet(toy, f"holder-{i}").address for i in range(3)]
    state = registry
    for i in range(5):
        state = token_issue(state, f"t{i}", i + 1, owners[i % 3])
    frozen = token_values(state)
    ids = sorted(state.objects)
    for _ in range(200):
        token = choice(stream, ids)
        payee = choice(stream, owners)
        state = token_transfer(state, state.owner_of(token), payee, token)
        assert token_values(state) == frozen
    assert sorted(state.objects) == ids


def test_snapshot_roundtrip(registry):
    doc = token_snapshot(registry)
    restored = token_from_snapshot(doc)
    assert restored.objects == registry.objects
    assert canonical_json(doc) == canonical_json(token_snapshot(restored))


def test_authoritative_is_a_constant_no_caller_can_set(registry):
    """The registry is an observer's oracle, never an authoritative record."""
    assert TokenRegistry.authoritative is False
    assert token_snapshot(registry)["authoritative"] is False
    with pytest.raises(TypeError):
        TokenRegistry(objects={}, authoritative=True)


@pytest.mark.parametrize(
    "owner",
    ["nobody", "AB" * 32, "ab" * 31, "ab" * 33, " " + "ab" * 31 + "a", b"ab" * 32, None],
    ids=["not-hex", "uppercase", "short", "long", "space", "bytes", "none"],
)
def test_an_owner_is_an_address(registry, wallets, owner):
    """Objects change hands only between addresses, as accounts do."""
    a = wallets[0].address
    with pytest.raises(FormatError):
        token_issue(registry, "o3", 1, owner)
    with pytest.raises(FormatError):
        token_transfer(registry, a, owner, "o1")
    doc = token_snapshot(registry)
    doc["objects"]["o1"]["owner"] = owner
    with pytest.raises(FormatError):
        token_from_snapshot(doc)
