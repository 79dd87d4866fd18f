"""Balance-map kernel: transfers, overdrafts, replay modes."""

import dataclasses

import pytest

from oracles import choice
from ledgerlab.accounts import (
    AccountState,
    account_apply,
    account_from_snapshot,
    account_mint,
    account_snapshot,
    make_account_tx,
)
from ledgerlab.crypto import MAX_AMOUNT
from ledgerlab.encoding import canonical_json
from ledgerlab.errors import AuthError, FormatError, FundsError, ReplayError
from ledgerlab.rng import SeededStream
from ledgerlab.crypto import derive_wallet


@pytest.fixture
def funded(wallets):
    a, b = wallets[0], wallets[1]
    state = account_mint(AccountState(), a.address, 10)
    return account_mint(state, b.address, 5), a, b


def test_transfer_updates_both_sides(toy, funded):
    state, a, b = funded
    tx = make_account_tx(toy, a, b.address, 3)
    after = account_apply(state, tx, "naive", toy)
    assert after.balance(a.address) == 7
    assert after.balance(b.address) == 8
    assert sum(after.balances.values()) == sum(state.balances.values()) == 15
    # the input state is untouched
    assert state.balance(a.address) == 10


def test_zero_amount_moves_nothing_but_burns_a_nonce(toy, funded):
    state, a, b = funded
    tx = make_account_tx(toy, a, b.address, 0, nonce=0)
    after = account_apply(state, tx, "nonce-protected", toy)
    assert after.balances == state.balances
    assert after.nonce(a.address) == 1


def test_naive_replay_debits_twice(toy, funded):
    state, a, b = funded
    tx = make_account_tx(toy, a, b.address, 3)
    once = account_apply(state, tx, "naive", toy)
    twice = account_apply(once, tx, "naive", toy)
    assert twice.balance(a.address) == 4
    assert twice.balance(b.address) == 11


def test_nonce_mode_rejects_replay(toy, funded):
    state, a, b = funded
    tx = make_account_tx(toy, a, b.address, 3, nonce=0)
    once = account_apply(state, tx, "nonce-protected", toy)
    with pytest.raises(ReplayError):
        account_apply(once, tx, "nonce-protected", toy)
    follow_up = make_account_tx(toy, a, b.address, 1, nonce=1)
    after = account_apply(once, follow_up, "nonce-protected", toy)
    assert after.balance(a.address) == 6


def test_nonce_mode_rejects_missing_and_stale_nonces(toy, funded):
    state, a, b = funded
    with pytest.raises(ReplayError):
        account_apply(state, make_account_tx(toy, a, b.address, 1), "nonce-protected", toy)
    with pytest.raises(ReplayError):
        account_apply(
            state, make_account_tx(toy, a, b.address, 1, nonce=5), "nonce-protected", toy
        )


def test_overdraft_refused(toy, funded):
    state, a, b = funded
    with pytest.raises(FundsError):
        account_apply(state, make_account_tx(toy, a, b.address, 11), "naive", toy)
    # payees with no row yet can still receive
    c = derive_wallet(toy, "late-joiner")
    after = account_apply(state, make_account_tx(toy, a, c.address, 1), "naive", toy)
    assert after.balance(c.address) == 1


def test_tampered_signature_refused(toy, funded):
    state, a, b = funded
    tx = make_account_tx(toy, a, b.address, 3)
    forged = dataclasses.replace(tx, amount=9)
    with pytest.raises(AuthError):
        account_apply(state, forged, "naive", toy)
    flipped = dataclasses.replace(
        tx, payer_signature=bytes([tx.payer_signature[0] ^ 1]) + tx.payer_signature[1:]
    )
    with pytest.raises(AuthError):
        account_apply(state, flipped, "naive", toy)


def test_key_must_hash_to_payer(toy, funded):
    state, a, b = funded
    tx = make_account_tx(toy, b, b.address, 1)
    stolen = dataclasses.replace(tx, payer=a.address)
    with pytest.raises(AuthError):
        account_apply(state, stolen, "naive", toy)


def test_make_account_tx_is_deterministic(toy, wallets):
    a, b = wallets[0], wallets[1]
    assert make_account_tx(toy, a, b.address, 2) == make_account_tx(toy, a, b.address, 2)


def test_negative_amount_rejected(toy, funded):
    state, a, b = funded
    tx = make_account_tx(toy, a, b.address, 1)
    with pytest.raises(FormatError):
        account_apply(state, dataclasses.replace(tx, amount=-1), "naive", toy)


@pytest.mark.parametrize("mode", ["naive", "nonce-protected"])
def test_a_credit_past_the_bound_is_refused_and_leaves_the_state(toy, funded, mode):
    state, a, b = funded
    full = account_mint(state, b.address, MAX_AMOUNT - state.balance(b.address))
    assert full.balance(b.address) == MAX_AMOUNT
    balances, nonces = dict(full.balances), dict(full.nonces)
    with pytest.raises(FundsError, match="exceed the 64-bit range"):
        account_mint(full, b.address, 1)
    with pytest.raises(FundsError, match="exceed the 64-bit range"):
        account_apply(full, make_account_tx(toy, a, b.address, 1, nonce=0), mode, toy)
    assert (full.balances, full.nonces) == (balances, nonces)
    # A self-payment credits what it debits, so a full balance may make one.
    itself = make_account_tx(toy, b, b.address, MAX_AMOUNT, nonce=0)
    assert account_apply(full, itself, mode, toy).balances == balances


def test_a_nonce_is_an_integer_not_a_boolean(toy, wallets):
    a, b = wallets[0], wallets[1]
    with pytest.raises(FormatError, match="nonce must be an integer"):
        make_account_tx(toy, a, b.address, 1, nonce=True)


@pytest.mark.parametrize(
    "address",
    ["not-an-address", "AB" * 32, "ab" * 31, "ab" * 33, " " + "ab" * 31 + "a", b"ab" * 32],
    ids=["not-hex", "uppercase", "short", "long", "space", "bytes"],
)
def test_an_address_is_64_lowercase_hex_digits(toy, funded, address):
    """No transfer can name such an address, so no mint or snapshot may."""
    _, payer, _ = funded
    with pytest.raises(FormatError):
        account_mint(AccountState(), address, 5)
    with pytest.raises(FormatError):
        account_from_snapshot({"kernel": "account", "balances": {address: 5}})
    with pytest.raises(FormatError):
        account_from_snapshot(
            {"kernel": "account", "balances": {payer.address: 5}, "nonces": {address: 1}}
        )
    with pytest.raises(FormatError):
        make_account_tx(toy, payer, address, 1)


def test_conservation_over_random_transfers(toy):
    """Total supply is invariant under any sequence of valid transfers."""
    stream = SeededStream("account-conservation")
    parties = [derive_wallet(toy, f"conserve-{i}") for i in range(4)]
    state = AccountState()
    for wallet in parties:
        state = account_mint(state, wallet.address, 50)
    supply = sum(state.balances.values())
    applied = 0
    for _ in range(150):
        payer = choice(stream, parties)
        payee = choice(stream, parties)
        amount = stream.randbelow(state.balance(payer.address) + 1)
        tx = make_account_tx(toy, payer, payee.address, amount)
        state = account_apply(state, tx, "naive", toy)
        applied += 1
        assert sum(state.balances.values()) == supply
        assert all(v >= 0 for v in state.balances.values())
    assert applied == 150


def test_snapshot_roundtrip(toy, funded):
    state, a, b = funded
    tx = make_account_tx(toy, a, b.address, 2, nonce=0)
    state = account_apply(state, tx, "nonce-protected", toy)
    doc = account_snapshot(state)
    restored = account_from_snapshot(doc)
    assert restored.balances == state.balances
    assert restored.nonces == state.nonces
    # snapshots of equal states are byte-equal documents
    assert canonical_json(doc) == canonical_json(account_snapshot(restored))
