"""Blind-signature e-cash: anonymous bearer coins against an online issuer.

The issuer publishes one key pair per denomination. A wallet withdraws a
coin by choosing a random serial number, blinding it, and having the
issuer sign the blinded message; stripping the blinding factor leaves an
ordinary signature on the serial under the denomination key. The issuer
signs without ever seeing the serial, so a later redemption cannot be
linked back to the withdrawal that produced it. The issuer's withdrawal
transcript records exactly what the issuer saw, and tests hold it to
byte-disjointness from every redeemed serial and signature.

A coin is a bearer instrument: paying is handing over the record, and the
payee must redeem immediately, because nothing but the issuer's spent
list prevents the payer from redeeming a copy first. Redemption accepts a
coin iff its signature verifies under the denomination key and its serial
has never been seen; the serial is then recorded forever.

The spent list is the one mutable structure in the protocol, and its
check-and-append is atomic under a lock: of any number of concurrent
redemptions of the same serial, exactly one can win.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .crypto import Amount, CryptoScheme, KeyPair, check_amount
from .errors import ConfigError, FormatError, NotFoundError
from .rng import SeededStream

SERIAL_BYTES = 32

REJECT_BAD_SIGNATURE = "bad-signature"
REJECT_ALREADY_SPENT = "already-spent"
REJECT_UNKNOWN_DENOMINATION = "unknown-denomination"


@dataclass(frozen=True)
class Coin:
    """A bearer coin: serial, denomination, issuer signature on the serial."""

    serial: bytes
    denomination: Amount
    signature: bytes


@dataclass(frozen=True)
class IssuerKeys:
    """One signing key pair per denomination, public halves exportable."""

    per_denomination: dict[Amount, KeyPair]

    def public_keys(self) -> dict[Amount, bytes]:
        return {d: kp.public_key for d, kp in self.per_denomination.items()}


@dataclass(frozen=True)
class TranscriptEntry:
    """What the issuer saw during one withdrawal: only blinded material."""

    denomination: Amount
    blinded_message: bytes
    blinded_signature: bytes


class WithdrawalTranscript:
    """Append-only issuer-side record of withdrawals. Thread-safe."""

    def __init__(self) -> None:
        self._entries: list[TranscriptEntry] = []
        self._lock = threading.Lock()

    def record(self, entry: TranscriptEntry) -> None:
        with self._lock:
            self._entries.append(entry)

    def entries(self) -> list[TranscriptEntry]:
        with self._lock:
            return list(self._entries)

    def all_bytes(self) -> set[bytes]:
        """Every byte string the issuer observed; for disjointness checks."""
        with self._lock:
            out = set()
            for e in self._entries:
                out.add(e.blinded_message)
                out.add(e.blinded_signature)
            return out


class SpentList:
    """Append-only set of used serials with atomic check-and-append.

    Linearizable: under concurrent redemption attempts of one serial, at
    most one check_and_add returns True.
    """

    def __init__(self) -> None:
        self._serials: set[bytes] = set()
        self._lock = threading.Lock()

    def check_and_add(self, serial: bytes) -> bool:
        """Record the serial; True iff it was fresh."""
        with self._lock:
            if serial in self._serials:
                return False
            self._serials.add(serial)
            return True

    def snapshot(self) -> list[str]:
        with self._lock:
            return sorted(s.hex() for s in self._serials)


@dataclass(frozen=True)
class RedeemResult:
    accepted: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def issuer_setup(
    denominations: list[Amount], seed: bytes | str, scheme: CryptoScheme
) -> IssuerKeys:
    """One blind-signature key pair per denomination, derived from the seed."""
    if isinstance(seed, str):
        seed = seed.encode("utf-8")
    seen: set[Amount] = set()
    keys: dict[Amount, KeyPair] = {}
    for denomination in denominations:
        check_amount(denomination, context="denomination")
        if denomination == 0:
            raise ConfigError("denominations must be positive")
        if denomination in seen:
            raise ConfigError(f"duplicate denomination {denomination}")
        seen.add(denomination)
        keys[denomination] = scheme.blind_keygen(
            b"denomination:%d:" % denomination + seed
        )
    return IssuerKeys(per_denomination=keys)


def withdraw(
    issuer: IssuerKeys,
    denomination: Amount,
    wallet_rng: SeededStream,
    scheme: CryptoScheme,
    *,
    transcript: WithdrawalTranscript | None = None,
) -> Coin:
    """Withdraw one coin of the given denomination.

    The wallet picks the serial and the blinding factor; the issuer signs
    only the blinded message. The returned coin verifies under the
    denomination's public key, and the transcript (when supplied) gains
    one entry containing no byte string from the coin itself.
    """
    if denomination not in issuer.per_denomination:
        raise NotFoundError(f"no key for denomination {denomination}")
    keypair = issuer.per_denomination[denomination]

    # Wallet side: fresh serial, fresh factor, blind.
    serial = wallet_rng.randbytes(SERIAL_BYTES)
    factor = scheme.new_blinding_factor(wallet_rng, keypair.public_key)
    blinded = scheme.blind(serial, factor, keypair.public_key)

    # Issuer side: sign what it cannot read.
    blinded_signature = scheme.blind_sign(keypair.private_key, blinded)
    if transcript is not None:
        transcript.record(
            TranscriptEntry(
                denomination=denomination,
                blinded_message=blinded,
                blinded_signature=blinded_signature,
            )
        )

    # Wallet side: strip the blinding factor.
    signature = scheme.unblind(blinded_signature, factor, keypair.public_key)
    return Coin(serial=serial, denomination=denomination, signature=signature)


def redeem(
    issuer_state: SpentList,
    coin: Coin,
    issuer: IssuerKeys,
    scheme: CryptoScheme,
) -> RedeemResult:
    """Accept the coin iff its signature verifies and its serial is fresh.

    Total: every failure is a reasoned rejection, never an exception. On
    acceptance the serial is permanently recorded; the check and the
    append are one atomic step.
    """
    if coin.denomination not in issuer.per_denomination:
        return RedeemResult(accepted=False, reason=REJECT_UNKNOWN_DENOMINATION)
    public_key = issuer.per_denomination[coin.denomination].public_key
    try:
        valid = scheme.verify(public_key, coin.serial, coin.signature)
    except FormatError:
        valid = False
    if not valid:
        return RedeemResult(accepted=False, reason=REJECT_BAD_SIGNATURE)
    if not issuer_state.check_and_add(coin.serial):
        return RedeemResult(accepted=False, reason=REJECT_ALREADY_SPENT)
    return RedeemResult(accepted=True, reason=None)


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------


def coin_record(coin: Coin) -> dict:
    return {
        "serial": coin.serial.hex(),
        "denomination": coin.denomination,
        "signature": coin.signature.hex(),
    }


def issuer_public_record(issuer: IssuerKeys) -> dict:
    return {
        str(denomination): public.hex()
        for denomination, public in sorted(issuer.public_keys().items())
    }
