"""Account kernel: balances keyed by account holder, updated by debit/credit.

A transfer debits the payer and credits the payee by the same amount, so
the balance total is invariant under every transfer; only minting changes
supply. Overdrafts are forbidden: a payer must hold at least the amount
being sent.

Replay protection is a mode switch, not a fixed behavior:

* ``naive`` mode accepts any correctly signed, sufficiently funded
  transfer, however often it is resubmitted. Replaying a transfer k times
  debits the payer k times. This is the unprotected semantics the other
  kernels are contrasted against.
* ``nonce-protected`` mode requires each transfer to carry the payer's
  next sequence number; a replayed transfer carries a stale nonce and is
  rejected.

Transactions carry the payer's public key in full; the payer address must
equal the key's digest, and the signature must verify over the canonical
serialization with the signature field zeroed.

States are immutable snapshots: apply operations return new states and
never touch their inputs. Share them freely across threads; route writes
through a single owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .crypto import (
    MAX_AMOUNT,
    Address,
    Amount,
    CryptoScheme,
    Wallet,
    address_of,
    check_address,
    check_amount,
    digest,
)
from .encoding import u8, u64, varbytes
from .errors import AuthError, FormatError, FundsError, ReplayError

AccountMode = Literal["naive", "nonce-protected"]

_MAGIC = b"ATX1"


def _address_to_bytes(address: Address) -> bytes:
    return bytes.fromhex(check_address(address))


@dataclass(frozen=True)
class AccountTx:
    """A signed transfer order: payer pays payee a fixed amount.

    `nonce` is the payer's sequence number; None outside protected mode.
    `payer_signature` covers the canonical serialization with the
    signature field zeroed.
    """

    payer: Address
    payee: Address
    amount: Amount
    nonce: int | None
    payer_public_key: bytes
    payer_signature: bytes


@dataclass(frozen=True)
class AccountState:
    """Balances plus per-account nonces (nonces used only in protected mode)."""

    balances: dict[Address, Amount] = field(default_factory=dict)
    nonces: dict[Address, int] = field(default_factory=dict)

    def balance(self, address: Address) -> Amount:
        return self.balances.get(address, 0)

    def nonce(self, address: Address) -> int:
        return self.nonces.get(address, 0)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def encode_account_tx(tx: AccountTx, *, for_signing: bool = False) -> bytes:
    """Canonical bytes; with for_signing=True the signature field is zeroed."""
    signature = b"" if for_signing else tx.payer_signature
    return b"".join(
        [
            _MAGIC,
            _address_to_bytes(tx.payer),
            _address_to_bytes(tx.payee),
            u64(check_amount(tx.amount)),
            u8(0 if tx.nonce is None else 1),
            u64(0 if tx.nonce is None else check_amount(tx.nonce, context="nonce")),
            varbytes(tx.payer_public_key),
            varbytes(signature),
        ]
    )


def account_txid(tx: AccountTx) -> bytes:
    return digest(encode_account_tx(tx))


def account_signing_payload(tx: AccountTx) -> bytes:
    return encode_account_tx(tx, for_signing=True)


def make_account_tx(
    scheme: CryptoScheme,
    payer: Wallet,
    payee: Address,
    amount: Amount,
    *,
    nonce: int | None = None,
) -> AccountTx:
    """Build and sign a transfer from the payer's wallet."""
    unsigned = AccountTx(
        payer=payer.address,
        payee=payee,
        amount=amount,
        nonce=nonce,
        payer_public_key=payer.public_key,
        payer_signature=b"",
    )
    signature = scheme.sign(payer.private_key, account_signing_payload(unsigned))
    return AccountTx(
        payer=unsigned.payer,
        payee=unsigned.payee,
        amount=unsigned.amount,
        nonce=unsigned.nonce,
        payer_public_key=unsigned.payer_public_key,
        payer_signature=signature,
    )


# ---------------------------------------------------------------------------
# State transitions
# ---------------------------------------------------------------------------


def _check_credit(state: AccountState, payee: Address, amount: Amount) -> None:
    if state.balance(payee) + amount > MAX_AMOUNT:
        raise FundsError(f"crediting {amount} to {payee} would exceed the 64-bit range")


def account_apply(
    state: AccountState,
    tx: AccountTx,
    mode: AccountMode,
    scheme: CryptoScheme,
) -> AccountState:
    """Apply one transfer, returning the successor state.

    Raises AuthError for a bad key binding or signature, FundsError for
    an overdraft or a credit past MAX_AMOUNT, ReplayError for a missing
    or stale nonce in protected mode. The input state is never modified.
    """
    if address_of(tx.payer_public_key) != tx.payer:
        raise AuthError("public key does not hash to the payer address")
    if not scheme.verify(
        tx.payer_public_key, account_signing_payload(tx), tx.payer_signature
    ):
        raise AuthError("payer signature does not verify")
    if mode == "nonce-protected":
        expected = state.nonce(tx.payer)
        if tx.nonce is None:
            raise ReplayError(f"missing nonce; expected {expected}")
        if tx.nonce != expected:
            raise ReplayError(f"stale nonce {tx.nonce}; expected {expected}")
    if state.balance(tx.payer) < tx.amount:
        raise FundsError(
            f"payer holds {state.balance(tx.payer)}, cannot send {tx.amount}"
        )
    if tx.payee != tx.payer:  # a self-payment credits only what it debits
        _check_credit(state, tx.payee, tx.amount)

    balances = dict(state.balances)
    balances[tx.payer] = balances.get(tx.payer, 0) - tx.amount
    balances[tx.payee] = balances.get(tx.payee, 0) + tx.amount
    nonces = state.nonces
    if mode == "nonce-protected":
        nonces = dict(state.nonces)
        nonces[tx.payer] = nonces.get(tx.payer, 0) + 1
    return AccountState(balances=balances, nonces=nonces)


def account_mint(state: AccountState, payee: Address, amount: Amount) -> AccountState:
    """Credit new units to an account; the only way total supply changes."""
    check_address(payee)
    check_amount(amount)
    _check_credit(state, payee, amount)
    balances = dict(state.balances)
    balances[payee] = balances.get(payee, 0) + amount
    return AccountState(balances=balances, nonces=state.nonces)


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def account_snapshot(state: AccountState) -> dict:
    return {
        "kernel": "account",
        "balances": dict(sorted(state.balances.items())),
        "nonces": dict(sorted(state.nonces.items())),
    }


def account_from_snapshot(doc: dict) -> AccountState:
    if doc.get("kernel") != "account":
        raise FormatError("not an account snapshot")
    if extra := doc.keys() - {"kernel", "balances", "nonces"}:
        raise FormatError(f"account snapshot has unknown keys {sorted(extra)}")
    balances = doc.get("balances")
    nonces = doc.get("nonces", {})
    if not isinstance(balances, dict) or not isinstance(nonces, dict):
        raise FormatError("malformed account snapshot")
    for mapping, label in ((balances, "balance"), (nonces, "nonce")):
        for key, value in mapping.items():
            check_address(key)
            check_amount(value, context=f"{label} entry {key!r}")
    # A payer's nonce moves only with a debit, which writes its balance entry.
    for key in nonces:
        if key not in balances:
            raise FormatError(f"nonce entry {key!r} has no balance entry")
    return AccountState(balances=dict(balances), nonces=dict(nonces))
