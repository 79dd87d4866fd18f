"""UTXO kernel: discrete value units created by outputs, consumed by inputs.

State is a chainstate: the set of currently active (unspent) outputs,
paired with an append-only log of every accepted transaction. The active
set is always recomputable by replaying the log from genesis, and a
dedicated oracle test holds the kernel to that.

A normal transaction consumes one or more active outpoints and creates
one or more new outputs, conserving value exactly (no fees): the sum of
consumed values equals the sum of created values. Two payment shapes
matter enough to have named builders:

* splitting: one input, payee output at index 0, change output at
  index 1. The input's value is divided, never duplicated.
* merging: several inputs of the same owner collapse into one output.

Minting happens only through coinbase transactions: input-free, gated by
an issuer signature over the canonical serialization, and the root every
lineage chain terminates at.

Validation is total and pure: `utxo_validate` never raises and never
mutates, it returns a report listing every failed check by name, plus a
per-input account of outpoint presence and script execution. `utxo_apply`
accepts exactly the transactions validation calls valid and rejects the
rest atomically (the prior state object is returned unshared and
untouched).

Double-spend protection is structural: applying a transaction removes its
inputs from the active set, so a second transaction consuming any of the
same outpoints fails the presence check, and replaying the whole
transaction is rejected outright (its inputs are gone). There is nothing
probabilistic here; the guarantees hold for every interleaving because
application is strictly sequential per chainstate.

States are persistent values: apply returns a new chainstate and never
changes what its input reads. Behind them, a line of states descended
from one genesis shares one private ledger, mutated in place, so an
apply costs O(|tx|), not O(|state|). A state is its ledger's head iff
their log lengths are equal; the head is advanced in place, recording
one undo journal entry per transaction. Reading or applying to any
other state forks it onto a new ledger: one copy of the head's
containers, rewound through the journal to that state's length. Forks
therefore happen only where histories branch (replicas starting from
one state, a probe applying twice to one state). Since even a read may
fork, the states of one family must be used from one thread at a time.
A replay or audit from genesis, whose intermediate states never escape,
keeps no journal; the state a replay returns journals what follows it.

Transactions and outputs are frozen, and each memoizes bytes derived
from its fields in slots that are not dataclass fields, so equality,
hashing, replace(), asdict(), copies and pickles never see them:

* `txid_of` and `utxo_signing_payload` store a transaction's id and its
  signing payload on first use. A builder stores the payload it signed
  on the signed transaction: signing fills exactly the fields the
  payload blanks (the unlocking scripts and the issuer signature).
  `decode_utxo_tx` stores both from the bytes it has just checked, since
  `encode_utxo_tx(decode_utxo_tx(b)) == b` for every `b` it accepts.
* `_snapshot_entry` stores an output's rendered snapshot text.

replace() builds a new object with empty memos, so a memo never passes
from a transaction to an altered copy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Literal, Mapping, Sequence

from .crypto import Amount, CryptoScheme, KeyPair, Wallet, check_amount, digest
from .encoding import Reader, encode_script, u8, u32, u64, varbytes
from .errors import AuthError, FormatError, NotFoundError, TxRejected
from .scripts import (
    ExecutionContext,
    Script,
    classify,
    compile_p2pkh,
    execute,
    p2h_unlocking,
    p2pkh_unlocking,
    script_from_text,
    script_to_text,
)

_MAGIC = b"UTX1"
TXID_BYTES = 32
MAX_VALUE = (1 << 64) - 1

TxKind = Literal["normal", "coinbase"]

# Validation reason vocabulary. Reports carry these exact strings.
REASON_NO_INPUTS = "no-inputs"
REASON_NO_OUTPUTS = "no-outputs"
REASON_DUPLICATE_INPUT = "duplicate-input"
REASON_SPENT_INPUT = "spent-input"
REASON_UNKNOWN_INPUT = "unknown-input"
REASON_BAD_SCRIPT = "bad-script"
REASON_CONSERVATION = "conservation"
REASON_ZERO_VALUE_OUTPUT = "zero-value-output"
REASON_VALUE_RANGE = "value-range"
REASON_COINBASE_HAS_INPUTS = "coinbase-has-inputs"
REASON_MISSING_ISSUER_SIGNATURE = "missing-issuer-signature"
REASON_ISSUER_AUTH = "issuer-auth"
REASON_UNEXPECTED_ISSUER_SIGNATURE = "unexpected-issuer-signature"
REASON_P2H_DISABLED = "p2h-disabled"


@dataclass(frozen=True, order=True)
class UtxoId:
    """An outpoint: which transaction, which output position."""

    txid: bytes
    index: int

    def render(self) -> str:
        return f"{self.txid.hex()}:{self.index}"

    @staticmethod
    def parse(text: str) -> "UtxoId":
        txid_hex, _, index_str = text.partition(":")
        try:
            txid = bytes.fromhex(txid_hex)
            index = int(index_str)
        except ValueError as exc:
            raise FormatError(f"bad outpoint {text!r}") from exc
        if len(txid) != TXID_BYTES or index < 0:
            raise FormatError(f"bad outpoint {text!r}")
        return UtxoId(txid=txid, index=index)


@dataclass(frozen=True)
class TxInput:
    outpoint: UtxoId
    unlocking: Script


class _SnapshotMemo:
    """A slot for `_snapshot_entry`'s memo, outside the dataclass fields."""

    __slots__ = ("_snapshot",)


# Slotted: outputs are the most numerous objects of a ledger, and a slot
# costs less than an instance dict even with the memo filled in.
@dataclass(frozen=True, slots=True)
class TxOutput(_SnapshotMemo):
    value: Amount
    locking: Script


class _TxMemo:
    """Slots for the txid and signing-payload memos, outside the fields."""

    __slots__ = ("_txid", "_payload")


@dataclass(frozen=True, slots=True)
class UtxoTx(_TxMemo):
    kind: TxKind
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    issuer_signature: bytes = b""


# Journal marker: the outpoint was newly added to `spent`.
_SPENT = object()


@dataclass(eq=False, slots=True)
class _Ledger:
    """Mutable storage behind a family of chainstates; see the module doc.

    `journal[i]` undoes `log[base + i]`: one flat tuple of (outpoint, prior)
    pairs in the order they were written, where prior is the outpoint's
    previous active entry, None if it had none, or `_SPENT` if the pair
    added it to `spent`. A fork starts its journal at its own length, and
    no ledger refers to any chainstate, so a dead family is freed at once.
    The journal is None while only the head may be used (see
    `_unjournaled_genesis`).
    """

    active: dict[UtxoId, TxOutput]
    log: list[UtxoTx]
    # Every outpoint any logged tx names as an input, as dict keys, since a
    # copied set can take twice a dict's memory.
    spent: dict[UtxoId, None]
    base: int = 0
    journal: list[tuple] | None = field(default_factory=list)


@dataclass(frozen=True, eq=False, slots=True)
class Chainstate:
    """Active output set plus the append-only log it derives from."""

    issuer_public_key: bytes
    allow_p2h: bool
    _ledger: _Ledger = field(repr=False)
    _length: int

    @staticmethod
    def genesis(issuer_public_key: bytes, *, allow_p2h: bool = True) -> "Chainstate":
        return Chainstate(issuer_public_key, allow_p2h, _Ledger({}, [], {}), 0)

    @property
    def active(self) -> Mapping[UtxoId, TxOutput]:
        """Read-only view of the active set. It is live: copy it with
        dict() to keep it across an apply to this state."""
        return MappingProxyType(_own(self).active)

    @property
    def log(self) -> tuple[UtxoTx, ...]:
        return tuple(self._ledger.log[: self._length])

    def total_active_value(self) -> Amount:
        return sum(out.value for out in _own(self).active.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chainstate):
            return NotImplemented
        return (
            self.issuer_public_key == other.issuer_public_key
            and self.allow_p2h == other.allow_p2h
            and self._length == other._length
            and self._ledger.log[: self._length] == other._ledger.log[: other._length]
            and _own(self).active == _own(other).active
        )

    __hash__ = None  # type: ignore[assignment]


def _own(state: Chainstate) -> _Ledger:
    """The ledger with `state` at its head, forking it there if needed."""
    ledger, length = state._ledger, state._length
    if length == len(ledger.log):
        return ledger
    active = dict(ledger.active)
    spent = dict(ledger.spent)
    for undo in reversed(ledger.journal[length - ledger.base :]):
        for at in range(len(undo) - 2, -1, -2):
            outpoint, prior = undo[at], undo[at + 1]
            if prior is _SPENT:
                del spent[outpoint]
            elif prior is None:
                del active[outpoint]
            else:
                active[outpoint] = prior
    fork = _Ledger(active, ledger.log[:length], spent, base=length)
    object.__setattr__(state, "_ledger", fork)
    return fork


def _unjournaled_genesis(issuer_public_key: bytes, allow_p2h: bool) -> Chainstate:
    """A genesis whose ledger records no undo entries, for a caller that
    uses only the head and lets no earlier state escape: forking one of
    those would have nothing to rewind through."""
    return Chainstate(issuer_public_key, allow_p2h, _Ledger({}, [], {}, journal=None), 0)


def _advance(state: Chainstate, tx: UtxoTx, txid: bytes) -> Chainstate:
    """Append `tx` under `txid` without validating it, in O(|tx|).

    Inputs leave the active set (absent ones are skipped, so an audit can
    carry an invalid row) and join `spent`; outputs are created under
    `txid`. Returns the successor state, the ledger's new head.
    """
    ledger = _own(state)
    active, spent = ledger.active, ledger.spent
    undo: list[object] = []
    for tx_in in tx.inputs:
        outpoint = tx_in.outpoint
        prior = active.pop(outpoint, None)
        if prior is not None:
            undo += (outpoint, prior)
        if outpoint not in spent:
            spent[outpoint] = None
            undo += (outpoint, _SPENT)
    for index, tx_out in enumerate(tx.outputs):
        outpoint = UtxoId(txid=txid, index=index)
        undo += (outpoint, active.get(outpoint))
        active[outpoint] = tx_out
    ledger.log.append(tx)
    if ledger.journal is not None:
        ledger.journal.append(tuple(undo))
    return Chainstate(state.issuer_public_key, state.allow_p2h, ledger, state._length + 1)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def _check_value(value: int) -> int:
    check_amount(value, context="output value")
    if value > MAX_VALUE:
        raise FormatError(f"output value {value} exceeds the 64-bit range")
    return value


def encode_utxo_tx(tx: UtxoTx, *, for_signing: bool = False) -> bytes:
    """Canonical bytes; with for_signing=True every unlocking script and
    the issuer signature are replaced by empty fields."""
    if tx.kind not in ("normal", "coinbase"):
        raise FormatError(f"unknown tx kind {tx.kind!r}")
    parts = [_MAGIC, u8(1 if tx.kind == "coinbase" else 0), u32(len(tx.inputs))]
    for tx_in in tx.inputs:
        if len(tx_in.outpoint.txid) != TXID_BYTES:
            raise FormatError("outpoint txid must be 32 bytes")
        parts.append(tx_in.outpoint.txid)
        parts.append(u32(tx_in.outpoint.index))
        parts.append(encode_script(() if for_signing else tx_in.unlocking))
    parts.append(u32(len(tx.outputs)))
    for tx_out in tx.outputs:
        parts.append(u64(_check_value(tx_out.value)))
        parts.append(encode_script(tx_out.locking))
    parts.append(varbytes(b"" if for_signing else tx.issuer_signature))
    return b"".join(parts)


# An empty script or signature field: a zero u32 length.
_EMPTY_FIELD = bytes(4)


def decode_utxo_tx(data: bytes) -> UtxoTx:
    """Strictly decode canonical bytes. The decoded tx carries its txid
    and signing payload, both derived from `data` (see the module doc)."""
    reader = Reader(data)
    reader.expect(_MAGIC)
    kind_tag = reader.u8()
    if kind_tag not in (0, 1):
        raise FormatError(f"bad tx kind tag {kind_tag}")
    # The signing payload is `data` with an empty field spliced over every
    # unlocking script and over the issuer signature.
    payload = []
    kept = 0
    inputs = []
    for _ in range(reader.count()):
        outpoint = UtxoId(txid=reader.read(TXID_BYTES), index=reader.u32())
        payload += (data[kept : reader.offset], _EMPTY_FIELD)
        unlocking = reader.script()
        kept = reader.offset
        inputs.append(TxInput(outpoint=outpoint, unlocking=unlocking))
    outputs = [
        TxOutput(value=reader.u64(), locking=reader.script())
        for _ in range(reader.count())
    ]
    payload += (data[kept : reader.offset], _EMPTY_FIELD)
    issuer_signature = reader.varbytes()
    reader.finish()
    tx = UtxoTx(
        kind="coinbase" if kind_tag else "normal",
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        issuer_signature=issuer_signature,
    )
    object.__setattr__(tx, "_txid", digest(data))
    object.__setattr__(tx, "_payload", b"".join(payload))
    return tx


def txid_of(tx: UtxoTx) -> bytes:
    """The digest of the canonical bytes, memoized on the frozen tx."""
    try:
        return tx._txid  # type: ignore[attr-defined]
    except AttributeError:
        txid = digest(encode_utxo_tx(tx))
        object.__setattr__(tx, "_txid", txid)
        return txid


def utxo_signing_payload(tx: UtxoTx) -> bytes:
    """The canonical bytes with every unlocking script and the issuer
    signature emptied, memoized on the frozen tx."""
    try:
        return tx._payload  # type: ignore[attr-defined]
    except AttributeError:
        payload = encode_utxo_tx(tx, for_signing=True)
        object.__setattr__(tx, "_payload", payload)
        return payload


def _signed(tx: UtxoTx, payload: bytes) -> UtxoTx:
    """`tx`, built by signing `payload`, with that payload memoized."""
    object.__setattr__(tx, "_payload", payload)
    return tx


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputStatus:
    """Per-input findings: outpoint presence, script result, fault name."""

    outpoint: UtxoId
    present: bool
    script_ok: bool
    fault: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    reasons: tuple[str, ...]
    inputs: tuple[InputStatus, ...]
    total_in: Amount | None = None
    total_out: Amount | None = None

    def __bool__(self) -> bool:
        return self.valid


def _in_range(value: object) -> bool:
    """Whether an output value fits the u64 field the encoder writes."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= MAX_VALUE


def _on_wire(outpoint: UtxoId) -> bool:
    """Whether an outpoint fits the 32-byte txid and u32 index fields."""
    return len(outpoint.txid) == TXID_BYTES and 0 <= outpoint.index < 1 << 32


def utxo_validate(state: Chainstate, tx: UtxoTx, scheme: CryptoScheme) -> ValidationReport:
    """Check a transaction against the chainstate without mutating anything.

    Total: structural defects, missing or spent inputs, failing scripts,
    broken conservation, and issuer-authorization failures all land in
    the report's reasons rather than raising. A transaction with an
    out-of-range output value, or an input outpoint too wide for the wire
    (which names no output, so it is an unknown input), has no signing
    payload, so it gets no issuer check and runs no script: its inputs
    report presence only.
    """
    reasons: list[str] = []
    input_status: list[InputStatus] = []

    # Structural checks, independent of chainstate.
    if tx.kind == "coinbase":
        if tx.inputs:
            reasons.append(REASON_COINBASE_HAS_INPUTS)
    elif not tx.inputs:
        reasons.append(REASON_NO_INPUTS)
    if not tx.outputs:
        reasons.append(REASON_NO_OUTPUTS)
    in_range = True
    for tx_out in tx.outputs:
        if not _in_range(tx_out.value):
            in_range = False
            if REASON_VALUE_RANGE not in reasons:
                reasons.append(REASON_VALUE_RANGE)
        elif tx_out.value == 0:
            if REASON_ZERO_VALUE_OUTPUT not in reasons:
                reasons.append(REASON_ZERO_VALUE_OUTPUT)
        if not state.allow_p2h and classify(tx_out.locking) == "p2h":
            if REASON_P2H_DISABLED not in reasons:
                reasons.append(REASON_P2H_DISABLED)
    seen: set[UtxoId] = set()
    for tx_in in tx.inputs:
        if tx_in.outpoint in seen:
            if REASON_DUPLICATE_INPUT not in reasons:
                reasons.append(REASON_DUPLICATE_INPUT)
        seen.add(tx_in.outpoint)
    encodable = in_range and all(_on_wire(tx_in.outpoint) for tx_in in tx.inputs)

    # Issuer gate for minting; ordinary transfers must not carry the field.
    if tx.kind == "coinbase":
        if not tx.issuer_signature:
            reasons.append(REASON_MISSING_ISSUER_SIGNATURE)
        elif encodable:
            try:
                issuer_ok = scheme.verify(
                    state.issuer_public_key,
                    utxo_signing_payload(tx),
                    tx.issuer_signature,
                )
            except FormatError:
                issuer_ok = False
            if not issuer_ok:
                reasons.append(REASON_ISSUER_AUTH)
    elif tx.issuer_signature:
        reasons.append(REASON_UNEXPECTED_ISSUER_SIGNATURE)

    # Per-input presence and script checks against the active set.
    payload = utxo_signing_payload(tx) if tx.inputs and encodable else b""
    ctx = ExecutionContext(signing_payload=payload, scheme=scheme)
    ledger = _own(state)
    all_present = True
    for tx_in in tx.inputs:
        entry = ledger.active.get(tx_in.outpoint)
        if entry is None:
            all_present = False
            reason = (
                REASON_SPENT_INPUT
                if tx_in.outpoint in ledger.spent
                else REASON_UNKNOWN_INPUT
            )
            if reason not in reasons:
                reasons.append(reason)
            input_status.append(
                InputStatus(outpoint=tx_in.outpoint, present=False, script_ok=False)
            )
            continue
        if not encodable:
            input_status.append(InputStatus(tx_in.outpoint, present=True, script_ok=False))
            continue
        result = execute(tx_in.unlocking, entry.locking, ctx)
        if not result.ok:
            if REASON_BAD_SCRIPT not in reasons:
                reasons.append(REASON_BAD_SCRIPT)
        input_status.append(
            InputStatus(
                outpoint=tx_in.outpoint,
                present=True,
                script_ok=result.ok,
                fault=result.fault,
            )
        )

    # Conservation, only meaningful when every input value is known.
    total_in: Amount | None = None
    total_out: Amount | None = None
    if in_range:
        total_out = sum(o.value for o in tx.outputs)
    if tx.kind == "normal" and all_present and not any(
        r == REASON_DUPLICATE_INPUT for r in reasons
    ):
        total_in = sum(ledger.active[tx_in.outpoint].value for tx_in in tx.inputs)
        if total_out is not None and total_in != total_out:
            reasons.append(REASON_CONSERVATION)

    return ValidationReport(
        valid=not reasons,
        reasons=tuple(reasons),
        inputs=tuple(input_status),
        total_in=total_in,
        total_out=total_out,
    )


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def utxo_apply(state: Chainstate, tx: UtxoTx, scheme: CryptoScheme) -> Chainstate:
    """Apply a validated transaction, returning the successor chainstate.

    Raises TxRejected (carrying the ValidationReport) for anything
    validation disallows; the input state is returned to the caller's
    hands untouched either way.
    """
    report = utxo_validate(state, tx, scheme)
    if not report.valid:
        raise TxRejected(
            "transaction rejected: " + ", ".join(report.reasons), report=report
        )
    return _advance(state, tx, txid_of(tx))


def replay_log(
    txs: Sequence[UtxoTx],
    issuer_public_key: bytes,
    scheme: CryptoScheme,
    *,
    allow_p2h: bool = True,
) -> Chainstate:
    """Rebuild a chainstate by applying a log from genesis."""
    state = _unjournaled_genesis(issuer_public_key, allow_p2h)
    for tx in txs:
        state = utxo_apply(state, tx, scheme)
    # Only the head escapes: journal the applies made to it from here on.
    state._ledger.base, state._ledger.journal = state._length, []
    return state


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def p2pkh_lock(public_key: bytes) -> Script:
    return compile_p2pkh(digest(public_key))


def lock_to_wallet(wallet: Wallet) -> Script:
    return p2pkh_lock(wallet.public_key)


def make_coinbase(
    scheme: CryptoScheme,
    issuer: KeyPair,
    outputs: Sequence[tuple[Amount, Script]],
) -> UtxoTx:
    """Build and sign an input-free minting transaction."""
    unsigned = UtxoTx(
        kind="coinbase",
        inputs=(),
        outputs=tuple(TxOutput(value=v, locking=lock) for v, lock in outputs),
        issuer_signature=b"",
    )
    payload = utxo_signing_payload(unsigned)
    signature = scheme.sign(issuer.private_key, payload)
    return _signed(replace(unsigned, issuer_signature=signature), payload)


def coinbase_issue(
    state: Chainstate,
    outputs: Sequence[tuple[Amount, Script]],
    issuer: KeyPair,
    scheme: CryptoScheme,
) -> Chainstate:
    """Mint new outputs; the only way total active value increases."""
    tx = make_coinbase(scheme, issuer, outputs)
    try:
        return utxo_apply(state, tx, scheme)
    except TxRejected as exc:
        report = exc.report
        if report is not None and REASON_ISSUER_AUTH in report.reasons:
            raise AuthError("issuance not signed by the configured issuer key") from exc
        raise


def make_spend(
    scheme: CryptoScheme,
    state: Chainstate,
    outpoints: Sequence[UtxoId],
    outputs: Sequence[TxOutput],
    *,
    signer: Wallet | None = None,
    preimages: dict[UtxoId, bytes] | None = None,
) -> UtxoTx:
    """Build a normal transaction spending the given outpoints.

    Each input's unlocking script is derived from the locking script it
    must satisfy: pay-to-public-key-hash inputs are signed by `signer`
    over the canonical payload (unlocking fields zeroed, so one payload
    covers every input), pay-to-hash inputs take their preimage from
    `preimages`.
    """
    for outpoint in outpoints:
        if outpoint not in state.active:
            raise NotFoundError(f"outpoint {outpoint.render()} is not active")
    unsigned = UtxoTx(
        kind="normal",
        inputs=tuple(TxInput(outpoint=op, unlocking=()) for op in outpoints),
        outputs=tuple(outputs),
        issuer_signature=b"",
    )
    payload = utxo_signing_payload(unsigned)
    signature = scheme.sign(signer.private_key, payload) if signer is not None else None
    inputs = []
    for outpoint in outpoints:
        locking = state.active[outpoint].locking
        template = classify(locking)
        if template == "p2pkh":
            if signer is None:
                raise AuthError(
                    f"outpoint {outpoint.render()} needs a signing wallet"
                )
            unlocking = p2pkh_unlocking(signature, signer.public_key)
        elif template == "p2h":
            if preimages is None or outpoint not in preimages:
                raise NotFoundError(
                    f"outpoint {outpoint.render()} needs a hash preimage"
                )
            unlocking = p2h_unlocking(preimages[outpoint])
        else:
            raise FormatError(
                f"outpoint {outpoint.render()} has an unrecognized locking template"
            )
        inputs.append(TxInput(outpoint=outpoint, unlocking=unlocking))
    return _signed(replace(unsigned, inputs=tuple(inputs)), payload)


def split_payment(
    scheme: CryptoScheme,
    state: Chainstate,
    wallet: Wallet,
    outpoint: UtxoId,
    amount: Amount,
    payee_locking: Script,
    *,
    change_locking: Script | None = None,
) -> UtxoTx:
    """Pay a portion of one outpoint: payee output first, change second.

    An exact-value payment degenerates to a single payee output.
    """
    check_amount(amount)
    if outpoint not in state.active:
        raise NotFoundError(f"outpoint {outpoint.render()} is not active")
    held = state.active[outpoint].value
    if amount == 0 or amount > held:
        raise FormatError(f"cannot pay {amount} from an outpoint holding {held}")
    outputs = [TxOutput(value=amount, locking=payee_locking)]
    change = held - amount
    if change:
        outputs.append(
            TxOutput(
                value=change,
                locking=change_locking if change_locking is not None else lock_to_wallet(wallet),
            )
        )
    return make_spend(scheme, state, [outpoint], outputs, signer=wallet)


def merge_payment(
    scheme: CryptoScheme,
    state: Chainstate,
    wallet: Wallet,
    outpoints: Sequence[UtxoId],
    payee_locking: Script,
) -> UtxoTx:
    """Combine several outpoints into one output carrying their total."""
    if len(outpoints) < 2:
        raise FormatError("merging needs at least two outpoints")
    total = 0
    for outpoint in outpoints:
        if outpoint not in state.active:
            raise NotFoundError(f"outpoint {outpoint.render()} is not active")
        total += state.active[outpoint].value
    outputs = [TxOutput(value=total, locking=payee_locking)]
    return make_spend(scheme, state, outpoints, outputs, signer=wallet)


# ---------------------------------------------------------------------------
# Snapshots and log files
# ---------------------------------------------------------------------------


def chainstate_snapshot(state: Chainstate) -> dict:
    active = _own(state).active
    return {
        "kernel": "utxo",
        "issuer_public_key": state.issuer_public_key.hex(),
        "allow_p2h": state.allow_p2h,
        "log_length": state._length,
        "active": {
            outpoint.render(): {
                "value": entry.value,
                "locking": script_to_text(entry.locking),
            }
            for outpoint, entry in sorted(
                active.items(), key=lambda kv: (kv[0].txid, kv[0].index)
            )
        },
    }


def _snapshot_entry(entry: TxOutput) -> str:
    """`entry` as canonical_json renders it inside a snapshot's active set,
    memoized on the frozen output like txid_of's txid. The memo is no
    field, so equality, hashing, replace(), asdict() and copies never see
    it."""
    try:
        return entry._snapshot
    except AttributeError:
        # json.dumps adds nothing to either: script text holds only opcode
        # names, spaces, "PUSH:" and lowercase hex, and values are ints.
        text = (
            '{\n      "locking": "' + script_to_text(entry.locking)
            + '",\n      "value": ' + str(entry.value) + "\n    }"
        )
        object.__setattr__(entry, "_snapshot", text)
        return text


def snapshot_text(state: Chainstate) -> str:
    """Exactly canonical_json(chainstate_snapshot(state)), joined from each
    active output's memoized text. Forked states share their outputs, so
    replicas digesting one history render each output once."""
    rows = [
        f'    "{outpoint.render()}": {_snapshot_entry(entry)}'
        for outpoint, entry in _own(state).active.items()
    ]
    # Sorting whole rows sorts by rendered key, the order sort_keys gives
    # ("...:10" before "...:2"): keys are distinct, and the quote closing
    # each sorts below every character a rendered key can hold.
    rows.sort()
    tail = (
        ',\n  "allow_p2h": ' + json.dumps(state.allow_p2h)
        + ',\n  "issuer_public_key": ' + json.dumps(state.issuer_public_key.hex())
        + ',\n  "kernel": "utxo",\n  "log_length": ' + str(state._length) + "\n}\n"
    )
    if not rows:
        return '{\n  "active": {}' + tail
    # One join copies the text once: the head and tail ride on the end rows.
    rows[0] = '{\n  "active": {\n' + rows[0]
    rows[-1] += "\n  }" + tail
    return ",\n".join(rows)


def active_from_snapshot(doc: dict) -> dict[UtxoId, TxOutput]:
    """Strictly decode the active set of a chainstate snapshot.

    A snapshot carries no log, so it cannot rebuild a chainstate; every
    outpoint, value and locking script is still checked."""
    if doc.get("kernel") != "utxo":
        raise FormatError("not a utxo snapshot")
    raw = doc.get("active")
    if not isinstance(raw, dict):
        raise FormatError("malformed utxo snapshot")
    active = {}
    for text, entry in raw.items():
        if not isinstance(entry, dict) or not isinstance(entry.get("locking"), str):
            raise FormatError(f"malformed utxo entry {text!r}")
        active[UtxoId.parse(text)] = TxOutput(
            value=_check_value(entry.get("value")),
            locking=script_from_text(entry["locking"]),
        )
    return active


@dataclass(frozen=True)
class LogEntry:
    """One exported log row: the tx plus the id recorded at append time.

    The recorded id normally equals the recomputed one; after tampering
    with the raw bytes they differ, which is itself evidence."""

    recorded_txid: bytes
    tx: UtxoTx


def export_log(state: Chainstate) -> dict:
    """Log document from which the chainstate is reconstructible.

    Each row carries the transaction's id alongside its raw bytes so
    auditors can still follow spend references when a row's bytes have
    been tampered with (the id mismatch is then the finding)."""
    return {
        "kind": "utxo-log",
        "issuer_public_key": state.issuer_public_key.hex(),
        "allow_p2h": state.allow_p2h,
        "txs": [
            {"txid": txid_of(tx).hex(), "raw": encode_utxo_tx(tx).hex()}
            for tx in state.log
        ],
    }


def decode_log_entries(doc: dict) -> tuple[bytes, bool, list[LogEntry]]:
    """Decode a log document leniently: rows whose recorded id disagrees
    with their bytes are returned as-is for auditing, not rejected.

    Returns (issuer public key, p2h policy, entries)."""
    if doc.get("kind") != "utxo-log":
        raise FormatError("not a transaction log document")
    issuer_hex = doc.get("issuer_public_key")
    rows = doc.get("txs")
    if not isinstance(issuer_hex, str) or not isinstance(rows, list):
        raise FormatError("malformed transaction log document")
    try:
        issuer_public_key = bytes.fromhex(issuer_hex)
    except ValueError as exc:
        raise FormatError(f"malformed issuer key: {exc}") from exc
    entries = []
    for position, row in enumerate(rows):
        if not isinstance(row, dict):
            raise FormatError(f"malformed log row {position}")
        try:
            recorded = bytes.fromhex(row["txid"])
            raw = bytes.fromhex(row["raw"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed log row {position}: {exc}") from exc
        if len(recorded) != TXID_BYTES:
            raise FormatError(f"malformed log row {position}: bad txid length")
        entries.append(LogEntry(recorded_txid=recorded, tx=decode_utxo_tx(raw)))
    return issuer_public_key, bool(doc.get("allow_p2h", True)), entries


def import_log(doc: dict, scheme: CryptoScheme) -> Chainstate:
    """Rebuild a chainstate by replaying an exported log document.

    Strict: a row whose recorded id does not match its bytes is rejected."""
    issuer_public_key, allow_p2h, entries = decode_log_entries(doc)
    for position, entry in enumerate(entries):
        if txid_of(entry.tx) != entry.recorded_txid:
            raise FormatError(
                f"log row {position}: recorded txid does not match the bytes"
            )
    return replay_log(
        [entry.tx for entry in entries],
        issuer_public_key,
        scheme,
        allow_p2h=allow_p2h,
    )
