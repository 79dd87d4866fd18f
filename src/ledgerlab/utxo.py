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
mutates, it returns a report listing every failed check by name.
`utxo_apply` accepts exactly the transactions validation calls valid and
rejects the rest atomically (the prior state object is returned unshared
and untouched).

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
other state forks it onto a new ledger whose base is that state's
length. Forks therefore happen only where histories branch (replicas
starting from one state, a probe applying twice to one state). A fork
is an overlay: it holds only the outpoints it changed (marking an
output of the base it spent) and the outpoints it spent, and reads all
else through its fork base, the active and spent sets and the log at
its base, which nothing writes into. The first fork made at a length
builds that base by rewinding a copy of the head through the journal;
every later fork there shares it, so a fork point pays one O(|state|)
rewind and each fork made there O(1). `Chainstate.active` and the
spend builders need the whole set, so they merge an overlay into a
plain ledger once. What stays alive: every state keeps its ledger,
with all the transactions applied to that ledger's head after it, and
a ledger keeps the fork base it reads through or built, and the sorted
rows of that base (see `_sorted_rows`): one of each per fork point,
for as long as any ledger made there lives. Since even a read may
fork, the states of one family must be used from one thread at a time.
A replay or audit from genesis, whose intermediate states never escape,
keeps no journal; the state a replay returns journals what follows it.

An outpoint, `UtxoId`, is a named tuple `(txid, index)`, so the set and
dict work every phase does on outpoints hashes, compares and orders them
in C, with the hash and order a `(txid, index)` tuple has. Being a
tuple, it equals a plain tuple of the same two fields, and `json.dumps`
writes it as a list: reports name an outpoint by `render()`.

Transactions and outputs are frozen, and each memoizes what it derives
from its fields in slots that are not dataclass fields, so equality,
hashing, replace(), asdict(), copies and pickles never see them:

* `txid_of` and `utxo_signing_payload` store a transaction's id and its
  signing payload on first use. A builder stores the payload it signed
  on the signed transaction: signing fills exactly the fields the
  payload blanks (the unlocking scripts and the issuer signature).
  `decode_utxo_tx` stores both from the bytes it has just checked, since
  `encode_utxo_tx(decode_utxo_tx(b)) == b` for every `b` it accepts.
* `_verdict` stores the checks of a transaction that read no
  chainstate: its structural reasons, whether it is encodable and
  whether its values are in range. Only the p2h policy of a state can
  change them, so the memo keeps the policy it was found under. A clean
  verdict is one shared constant per policy.
* `utxo_validate` stores each input's script result, `ok`, with the
  locking script it ran against and the scheme that ran it: an input
  meets another locking script in another history (two forks can hold
  different outputs at one outpoint), and a toy result must not answer
  for a real-crypto check. A locking script matches by identity
  first, then by equality, as `_row`'s outpoint does. The issuer check,
  presence, the spent and duplicate-txid checks and conservation read
  the state and run on every call.
* `_row` stores an output's rendered snapshot row, as ASCII bytes, with
  the outpoint it was rendered at. `snapshot_bytes` joins the rows and
  `chainstate_snapshot` parses the result: one renderer serves both.

A replica round therefore checks a transaction's state-free half once,
however many replicas validate it.

A transaction's txid names one live object: while a transaction that
`decode_utxo_tx` built is held anywhere, decoding bytes of that txid
returns it, memos included, so an audit or a trace of a log that
replay has just checked reuses the rows replay decoded and validated.
The table is weak and keyed by the txid object the transaction stores:
an entry copies no bytes, lives only as long as its transaction, has no
size to tune and keeps nothing alive. Sharing is safe in any memo state:
only the strict decoder fills the table, so an interned object is
exactly what decoding its bytes would build; its txid and payload derive
from those bytes; and every other memo is keyed by all else it reads
(the p2h policy, the scheme, the locking script met, the outpoint a row
was rendered at), which replicas sharing one transaction already rely
on. A mutable buffer is copied to bytes first, so no decoded field
changes when the buffer does.

replace() builds a new object with empty memos, so a memo never passes
from a transaction to an altered copy.
"""

from __future__ import annotations

import json
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Literal, Mapping, NamedTuple, Sequence

from .crypto import (
    MAX_AMOUNT,
    Amount,
    CryptoScheme,
    KeyPair,
    Wallet,
    check_amount,
    digest,
    from_hex,
)
from .encoding import MAX_FIELD_BYTES, item_count, varbytes
from .errors import AuthError, FormatError, NotFoundError, TxRejected, UnfundedError
from .kernels import Kernel, StateMetrics
from .scripts import (
    ExecutionContext,
    Script,
    classify,
    compile_p2pkh,
    execute,
    p2h_unlocking,
    p2pkh_unlocking,
    read_script,
    script_from_text,
    script_to_text,
    write_script,
)

_MAGIC = b"UTX1"
TXID_BYTES = 32

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
REASON_DUPLICATE_TXID = "duplicate-txid"
REASON_UNKNOWN_KIND = "unknown-kind"


class UtxoId(NamedTuple):
    """An outpoint: which transaction, which output position."""

    txid: bytes
    index: int

    def render(self) -> str:
        return f"{self.txid.hex()}:{self.index}"

    @staticmethod
    def parse(text: str) -> "UtxoId":
        """Strict inverse of render(): 64 lowercase hex digits, a colon and
        an ASCII decimal index below 2^32 with no sign, separator or
        leading zero, so only an outpoint the wire can carry."""
        if not isinstance(text, str):
            raise FormatError(f"bad outpoint {text!r}")
        txid_hex, _, index_str = text.partition(":")
        try:
            outpoint = UtxoId(bytes.fromhex(txid_hex), int(index_str))
        except ValueError as exc:
            raise FormatError(f"bad outpoint {text!r}") from exc
        # int() and fromhex() read more than render() writes: "+1", " 1",
        # "01", "1_0", non-ASCII digits, uppercase and spaced hex.
        if not _on_wire(outpoint) or outpoint.render() != text:
            raise FormatError(f"bad outpoint {text!r}")
        return outpoint


@dataclass(frozen=True, slots=True)
class TxInput:
    outpoint: UtxoId
    unlocking: Script


class _SnapshotMemo:
    """A slot for `_row`'s memo, outside the dataclass fields."""

    __slots__ = ("_snapshot",)


# Slotted: outputs are the most numerous objects of a ledger, and a slot
# costs less than an instance dict even with the memo filled in.
@dataclass(frozen=True, slots=True)
class TxOutput(_SnapshotMemo):
    value: Amount
    locking: Script


class _TxMemo:
    """Slots for the txid, signing-payload, verdict and script-result
    memos, outside the fields."""

    __slots__ = ("_txid", "_payload", "_verdict", "_scripts", "__weakref__")


@dataclass(frozen=True, slots=True)
class UtxoTx(_TxMemo):
    kind: TxKind
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    issuer_signature: bytes = b""


# Journal marker: the outpoint was newly added to `spent`.
_SPENT = object()
# What a plain ledger reads through below its own dicts. Never written.
_NOTHING: dict = {}

# The active and spent sets at a ledger's base and the log before it.
_Base = tuple[dict[UtxoId, TxOutput], dict[UtxoId, None], tuple[UtxoTx, ...]]


@dataclass(eq=False, slots=True)
class _Ledger:
    """Mutable storage behind a family of chainstates; see the module doc.

    `log` holds the transactions after `base`, and `below` the state at
    `base` that the ledger reads through: its active and spent sets, and
    the log before it. A plain ledger's own `active` and `spent` hold
    everything, and `below` only its log. An overlay, a fork made at its
    base, holds in `active` only the outpoints it changed (None marks an
    output of the base it spent) and in `spent` only what it spent, and
    reads the rest from the base, which it shares with every fork made
    at that length and never writes into. Merging an overlay's sets
    (`_flatten`) makes it a plain ledger.

    `journal[i]` undoes `log[i]`: one flat tuple of (outpoint, prior)
    pairs in the order they were written, where prior is the outpoint's
    previous active entry, None if it had none, or `_SPENT` if the pair
    added it to `spent`. No ledger refers to any chainstate, so a dead
    family is freed at once. The journal is None while only the head may
    be used (see `_unjournaled_genesis`). `fork_base` is the state at
    `base` that forks made there read through, built by the first of
    them, and `rows` the sorted snapshot rows of its active set for
    `snapshot_bytes`. Forks made at `base` share both, and whatever
    rebases a ledger clears both.
    """

    active: dict[UtxoId, TxOutput | None]
    log: list[UtxoTx]
    # Every outpoint any logged tx names as an input, as dict keys, since a
    # copied set can take twice a dict's memory.
    spent: dict[UtxoId, None]
    base: int = 0
    below: _Base = (_NOTHING, _NOTHING, ())
    journal: list[tuple] | None = field(default_factory=list)
    rows: list[bytes] | None = None
    fork_base: _Base | None = None


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
        return MappingProxyType(_flatten(_own(self)).active)

    @property
    def log(self) -> tuple[UtxoTx, ...]:
        ledger = self._ledger
        return ledger.below[2] + tuple(ledger.log[: self._length - ledger.base])


def _own(state: Chainstate) -> _Ledger:
    """The ledger with `state` at its head, forking it there if needed: a
    fork reads through the state's fork base, which the first fork made
    at that length builds by rewinding a copy of the sets."""
    ledger, length = state._ledger, state._length
    if length == ledger.base + len(ledger.log):
        return ledger
    fork_base = ledger.fork_base if length == ledger.base else None
    if fork_base is None:
        active, spent = dict(_flatten(ledger).active), dict(ledger.spent)
        for undo in reversed(ledger.journal[length - ledger.base :]):
            for at in range(len(undo) - 2, -1, -2):
                outpoint, prior = undo[at], undo[at + 1]
                if prior is _SPENT:
                    del spent[outpoint]
                elif prior is None:
                    del active[outpoint]
                else:
                    active[outpoint] = prior
        # Compact copies: the rewind leaves holes, and dict.copy() clones a
        # table without holes in one memcpy.
        fork_base = (dict(active), dict(spent), state.log)
        if length == ledger.base:
            ledger.fork_base = fork_base
    rows = ledger.rows if length == ledger.base else None
    fork = _Ledger({}, [], {}, length, fork_base, rows=rows, fork_base=fork_base)
    object.__setattr__(state, "_ledger", fork)
    return fork


def _flatten(ledger: _Ledger) -> _Ledger:
    """`ledger`, made a plain ledger if it is an overlay. Its sets keep the
    order a copy of the base's, changed in place, would have: the base's
    outpoints first, then the new ones in the order they were added."""
    base_active, base_spent, log = ledger.below
    if base_active is not _NOTHING:
        active = base_active.copy()
        for outpoint, entry in ledger.active.items():
            if entry is None:
                del active[outpoint]
            else:
                active[outpoint] = entry
        ledger.active, ledger.spent = active, {**base_spent, **ledger.spent}
        ledger.below = (_NOTHING, _NOTHING, log)
    return ledger


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
    base_active, base_spent, _ = ledger.below
    undo: list[object] = []
    for tx_in in tx.inputs:
        outpoint = tx_in.outpoint
        prior = active.get(outpoint, base_active.get(outpoint))
        if prior is not None:
            undo += (outpoint, prior)
            if outpoint in base_active:
                active[outpoint] = None
            else:
                del active[outpoint]
        if outpoint not in spent and outpoint not in base_spent:
            spent[outpoint] = None
            undo += (outpoint, _SPENT)
    for index, tx_out in enumerate(tx.outputs):
        outpoint = UtxoId(txid, index)
        prior = active.get(outpoint, base_active.get(outpoint))
        if prior is None and outpoint in active:
            # A spent output of the base made again goes last, as in a copy.
            active, base_active = _flatten(ledger).active, _NOTHING
        undo += (outpoint, prior)
        active[outpoint] = tx_out
    ledger.log.append(tx)
    if ledger.journal is not None:
        ledger.journal.append(tuple(undo))
    return Chainstate(state.issuer_public_key, state.allow_p2h, ledger, state._length + 1)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


# An empty script or signature field: a zero u32 length.
_EMPTY_FIELD = bytes(4)
_KIND_TAG = {"normal": b"\x00", "coinbase": b"\x01"}
# The magic, the kind tag and the input count.
_HEAD = len(_MAGIC) + 5


def encode_utxo_tx(tx: UtxoTx, *, for_signing: bool = False) -> bytes:
    """Canonical bytes; with for_signing=True every unlocking script and
    the issuer signature are replaced by empty fields."""
    kind_tag = _KIND_TAG.get(tx.kind)
    if kind_tag is None:
        raise FormatError(f"unknown tx kind {tx.kind!r}")
    parts = [_MAGIC, kind_tag, len(tx.inputs).to_bytes(4, "big")]
    for tx_in in tx.inputs:
        txid, index = tx_in.outpoint
        if len(txid) != TXID_BYTES:
            raise FormatError("outpoint txid must be 32 bytes")
        if not 0 <= index < 1 << 32:
            raise FormatError(f"outpoint index {index} is outside the u32 range")
        parts += (txid, index.to_bytes(4, "big"))
        if for_signing:
            parts.append(_EMPTY_FIELD)
        else:
            write_script(parts, tx_in.unlocking)
    parts.append(len(tx.outputs).to_bytes(4, "big"))
    for tx_out in tx.outputs:
        parts.append(check_amount(tx_out.value, context="output value").to_bytes(8, "big"))
        write_script(parts, tx_out.locking)
    parts.append(_EMPTY_FIELD if for_signing else varbytes(tx.issuer_signature))
    return b"".join(parts)


# Txid -> the live transaction that decode_utxo_tx built from the bytes
# with that digest; see the module doc.
_live: weakref.WeakValueDictionary[bytes, UtxoTx] = weakref.WeakValueDictionary()


def decode_utxo_tx(data: bytes | bytearray | memoryview) -> UtxoTx:
    """Strictly decode canonical bytes in one pass (a field cut short
    leaves the offset past the end, which a later check refuses). The
    decoded tx carries its txid and signing payload, both derived from
    `data`, and while it is alive, decoding equal bytes returns it (see
    the module doc). A mutable buffer is copied first."""
    if type(data) is not bytes:
        try:
            data = bytes(memoryview(data))
        except TypeError:
            raise FormatError(f"cannot decode a {type(data).__name__}") from None
    if len(data) < _HEAD:
        raise FormatError(f"truncated input: {len(data)} bytes")
    if data[:4] != _MAGIC:
        raise FormatError(f"bad magic: expected {_MAGIC!r}, got {data[:4]!r}")
    if data[4] > 1:
        raise FormatError(f"bad tx kind tag {data[4]}")
    txid = digest(data)
    tx = _live.get(txid)
    if tx is not None:
        return tx
    # The signing payload is `data` with an empty field spliced over every
    # unlocking script and over the issuer signature.
    payload = []
    kept = 0
    inputs = []
    at = _HEAD
    for _ in range(item_count(data[_HEAD - 4 : _HEAD])):
        start, at = at, at + TXID_BYTES + 4
        outpoint = UtxoId(data[start : at - 4], int.from_bytes(data[at - 4 : at], "big"))
        payload += (data[kept:at], _EMPTY_FIELD)
        unlocking, at = read_script(data, at)
        kept = at
        inputs.append(TxInput(outpoint, unlocking))
    outputs = []
    at += 4
    for _ in range(item_count(data[at - 4 : at])):
        value = int.from_bytes(data[at : at + 8], "big")
        locking, at = read_script(data, at + 8)
        outputs.append(TxOutput(value, locking))
    payload += (data[kept:at], _EMPTY_FIELD)
    length = int.from_bytes(data[at : at + 4], "big")
    if length > MAX_FIELD_BYTES:
        raise FormatError(f"declared field length {length} exceeds encoding cap")
    at += 4
    if at + length != len(data):
        if at + length > len(data):
            raise FormatError(f"truncated input: the issuer signature at offset {at}")
        raise FormatError(f"{len(data) - at - length} trailing bytes after decode")
    tx = UtxoTx("coinbase" if data[4] else "normal", tuple(inputs), tuple(outputs), data[at:])
    object.__setattr__(tx, "_txid", txid)
    object.__setattr__(tx, "_payload", b"".join(payload))
    _live[txid] = tx
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


class ValidationReport(NamedTuple):
    valid: bool
    reasons: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.valid


def _in_range(value: object) -> bool:
    """Whether an output value passes check_amount, without raising."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= MAX_AMOUNT


def _on_wire(outpoint: UtxoId) -> bool:
    """Whether an outpoint fits the 32-byte txid and u32 index fields."""
    return len(outpoint.txid) == TXID_BYTES and 0 <= outpoint.index < 1 << 32


# A verdict is (p2h disabled, reasons, encodable, in range); see _verdict.
_CLEAN_VERDICTS = {disabled: (disabled, (), True, True) for disabled in (False, True)}


def _verdict(tx: UtxoTx, p2h_disabled: bool) -> tuple[bool, tuple[str, ...], bool, bool]:
    """The checks of `tx` that read no chainstate, memoized on the tx.

    Returns `p2h_disabled`, the reasons found in the order found, whether
    `tx` has a signing payload (a known kind, every output value in range
    and every outpoint on the wire) and whether every output value is in
    range. The reasons depend on the state only through its p2h policy,
    so the memo holds the verdict of the policy last asked for. A clean
    verdict is a shared constant.
    """
    verdict = getattr(tx, "_verdict", None)
    if verdict is not None and verdict[0] is p2h_disabled:
        return verdict
    # Insertion-ordered: each reason appears once, where it is first found.
    reasons: dict[str, None] = {}
    if tx.kind == "coinbase":
        if tx.inputs:
            reasons[REASON_COINBASE_HAS_INPUTS] = None
    elif not tx.inputs:
        reasons[REASON_NO_INPUTS] = None
    known_kind = tx.kind in ("normal", "coinbase")
    if not known_kind:
        reasons[REASON_UNKNOWN_KIND] = None
    if not tx.outputs:
        reasons[REASON_NO_OUTPUTS] = None
    in_range = True
    for tx_out in tx.outputs:
        if not _in_range(tx_out.value):
            in_range = False
            reasons[REASON_VALUE_RANGE] = None
        elif tx_out.value == 0:
            reasons[REASON_ZERO_VALUE_OUTPUT] = None
        if p2h_disabled and classify(tx_out.locking) == "p2h":
            reasons[REASON_P2H_DISABLED] = None
    if len({tx_in.outpoint for tx_in in tx.inputs}) < len(tx.inputs):
        reasons[REASON_DUPLICATE_INPUT] = None
    encodable = known_kind and in_range and all(_on_wire(tx_in.outpoint) for tx_in in tx.inputs)
    # Minting needs the issuer's signature; ordinary transfers must not
    # carry the field. Whether the signature verifies is the state's part.
    if tx.kind == "coinbase":
        if not tx.issuer_signature:
            reasons[REASON_MISSING_ISSUER_SIGNATURE] = None
    elif tx.issuer_signature:
        reasons[REASON_UNEXPECTED_ISSUER_SIGNATURE] = None
    if reasons or not encodable:
        verdict = (p2h_disabled, tuple(reasons), encodable, in_range)
    else:
        verdict = _CLEAN_VERDICTS[p2h_disabled]
    object.__setattr__(tx, "_verdict", verdict)
    return verdict


def utxo_validate(state: Chainstate, tx: UtxoTx, scheme: CryptoScheme) -> ValidationReport:
    """Check a transaction against the chainstate without mutating anything.

    Total: structural defects, missing or spent inputs, failing scripts,
    broken conservation, and issuer-authorization failures all land in
    the report's reasons rather than raising. A transaction with an
    out-of-range output value, an input outpoint too wide for the wire
    (which names no output, so it is an unknown input), or a kind other
    than normal or coinbase has no signing payload, so it gets no issuer
    check and runs no script: its inputs are checked for presence only.

    The checks that read no state run once per transaction (`_verdict`),
    and each input's script once per locking script it meets and scheme
    (see the module doc).
    """
    _, found, encodable, in_range = _verdict(tx, not state.allow_p2h)
    # The reasons that read the state, insertion-ordered: each appears
    # once, where it is first found, after every state-free reason.
    reasons: dict[str, None] = {}

    # The issuer key is the state's. A signature is present only where the
    # verdict found no issuer-field reason.
    if tx.kind == "coinbase" and tx.issuer_signature and encodable:
        try:
            issuer_ok = scheme.verify(
                state.issuer_public_key,
                utxo_signing_payload(tx),
                tx.issuer_signature,
            )
        except FormatError:
            issuer_ok = False
        if not issuer_ok:
            reasons[REASON_ISSUER_AUTH] = None

    # An input-free transaction has nothing a spend check could refuse, so
    # one already logged would re-create its outputs (BIP 30). Every logged
    # transaction created an output 0, active or spent since.
    ledger = _own(state)
    active, spent = ledger.active, ledger.spent
    base_active, base_spent, _ = ledger.below
    if not tx.inputs and encodable:
        first = UtxoId(txid_of(tx), 0)
        if first in active or first in spent or first in base_active or first in base_spent:
            reasons[REASON_DUPLICATE_TXID] = None

    # Presence and script checks against the active set; the input total
    # is known only while every input is present. Input i's script result
    # sits at ran[2 * i + 1 : 2 * i + 3] as (the locking script it met, ok)
    # after ran[0], the scheme that ran it.
    ran = getattr(tx, "_scripts", ())
    if ran and ran[0] is not scheme:
        ran = ()
    rerun: list | None = None
    ctx = None
    total_in: Amount | None = 0
    for at, tx_in in enumerate(tx.inputs):
        outpoint = tx_in.outpoint
        entry = active.get(outpoint, base_active.get(outpoint))
        if entry is None:
            total_in = None
            gone = outpoint in spent or outpoint in base_spent
            reasons[REASON_SPENT_INPUT if gone else REASON_UNKNOWN_INPUT] = None
            continue
        if total_in is not None:
            total_in += entry.value
        if not encodable:
            continue
        locking, key = entry.locking, 2 * at + 1
        if ran and (ran[key] is locking or ran[key] == locking):
            ok = ran[key + 1]
        else:
            if ctx is None:
                ctx = ExecutionContext(utxo_signing_payload(tx), scheme)
            ok = execute(tx_in.unlocking, locking, ctx).ok
            if rerun is None:
                rerun = list(ran or (scheme, *(None, False) * len(tx.inputs)))
            rerun[key : key + 2] = (locking, ok)
        if not ok:
            reasons[REASON_BAD_SCRIPT] = None
    if rerun is not None:
        object.__setattr__(tx, "_scripts", tuple(rerun))

    # Conservation: a normal transaction with distinct inputs, every output
    # value in range and every input present.
    if (
        tx.kind == "normal" and in_range and total_in is not None
        and REASON_DUPLICATE_INPUT not in found
        and total_in != sum(o.value for o in tx.outputs)
    ):
        reasons[REASON_CONSERVATION] = None

    return ValidationReport(not (found or reasons), found + tuple(reasons))


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def utxo_apply(state: Chainstate, tx: UtxoTx, scheme: CryptoScheme) -> Chainstate:
    """Apply a validated transaction, returning the successor chainstate.

    Raises TxRejected (carrying the ValidationReport) for anything
    validation disallows; the input state is returned to the caller's
    hands untouched either way.
    """
    after, report = _settle(state, tx, scheme)
    if not report.valid:
        raise TxRejected(
            "transaction rejected: " + ", ".join(report.reasons), report=report
        )
    return after


def _settle(
    state: Chainstate, tx: UtxoTx, scheme: CryptoScheme
) -> tuple[Chainstate, ValidationReport]:
    """The successor of `state` under `tx` if validation accepts it, else
    `state` itself, with the report: utxo_apply without the raise."""
    report = utxo_validate(state, tx, scheme)
    return (_advance(state, tx, txid_of(tx)) if report.valid else state), report


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
    ledger = state._ledger
    ledger.below = (_NOTHING, _NOTHING, tuple(ledger.log))
    ledger.log, ledger.base, ledger.journal = [], state._length, []
    ledger.rows = ledger.fork_base = None
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
    return _signed(UtxoTx("coinbase", (), unsigned.outputs, signature), payload)


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
        if REASON_ISSUER_AUTH in exc.report.reasons:
            raise AuthError("issuance not signed by the configured issuer key") from exc
        raise


def _spendable(state: Chainstate, outpoints: Sequence[UtxoId]) -> list[TxOutput]:
    """The active entry of each outpoint, read through an overlay as
    `utxo_validate` reads it, so a fork stays an overlay."""
    ledger = _own(state)
    active, base_active = ledger.active, ledger.below[0]
    entries = []
    for outpoint in outpoints:
        entry = active.get(outpoint, base_active.get(outpoint))
        if entry is None:
            raise NotFoundError(f"outpoint {outpoint.render()} is not active")
        entries.append(entry)
    return entries


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
    entries = _spendable(state, outpoints)
    unsigned = UtxoTx(
        "normal", tuple(TxInput(outpoint, ()) for outpoint in outpoints), tuple(outputs)
    )
    payload = utxo_signing_payload(unsigned)
    signature = scheme.sign(signer.private_key, payload) if signer is not None else None
    inputs = []
    for outpoint, entry in zip(outpoints, entries):
        template = classify(entry.locking)
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
        inputs.append(TxInput(outpoint, unlocking))
    return _signed(UtxoTx("normal", tuple(inputs), unsigned.outputs), payload)


def split_payment(
    scheme: CryptoScheme,
    state: Chainstate,
    wallet: Wallet,
    outpoint: UtxoId,
    amount: Amount,
    payee_locking: Script,
) -> UtxoTx:
    """Pay a portion of one outpoint: payee output first, change second.

    An exact-value payment degenerates to a single payee output.
    """
    check_amount(amount)
    [entry] = _spendable(state, [outpoint])
    held = entry.value
    if amount == 0 or amount > held:
        raise FormatError(f"cannot pay {amount} from an outpoint holding {held}")
    outputs = [TxOutput(value=amount, locking=payee_locking)]
    change = held - amount
    if change:
        outputs.append(TxOutput(value=change, locking=lock_to_wallet(wallet)))
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
    total = sum(entry.value for entry in _spendable(state, outpoints))
    outputs = [TxOutput(value=total, locking=payee_locking)]
    return make_spend(scheme, state, outpoints, outputs, signer=wallet)


# ---------------------------------------------------------------------------
# Snapshots and log files
# ---------------------------------------------------------------------------


def _row(outpoint: UtxoId, entry: TxOutput) -> bytes:
    """The line canonical_json renders for `entry` at `outpoint` inside a
    snapshot's active set, as ASCII bytes, memoized on the frozen output
    like txid_of's txid. The memo is no field, so equality, hashing,
    replace(), asdict() and copies never see it. It keeps the outpoint it
    was rendered at: a caller can place one output object at two
    outpoints, and an audit can carry a tampered row's outputs under
    another txid."""
    try:
        at, row = entry._snapshot
        if at is outpoint or at == outpoint:
            return row
    except AttributeError:
        pass
    # json.dumps adds nothing to either: script text holds only opcode
    # names, spaces, "PUSH:" and lowercase hex, and values are ints.
    row = (
        '    "' + outpoint.render() + '": {\n      "locking": "'
        + script_to_text(entry.locking) + '",\n      "value": ' + str(entry.value)
        + "\n    }"
    ).encode("ascii")
    object.__setattr__(entry, "_snapshot", (outpoint, row))
    return row


def _base_entries(ledger: _Ledger) -> dict[UtxoId, TxOutput | None]:
    """The entry at `base` (None if absent) of each outpoint whose active
    entry the journal changed: the first prior recorded for it."""
    first: dict[UtxoId, TxOutput | None] = {}
    for undo in ledger.journal:
        for at in range(0, len(undo), 2):
            if undo[at + 1] is not _SPENT and undo[at] not in first:
                first[undo[at]] = undo[at + 1]
    return first


def _sorted_rows(ledger: _Ledger) -> list[bytes]:
    """The active set's rows, sorted by rendered outpoint: the order
    sort_keys gives ("...:10" before "...:2"), since keys are distinct,
    ASCII byte order is code-point order, and the quote closing each key
    sorts below every character a rendered key can hold.

    A ledger that has applied fewer transactions since its base than it
    holds before it (every replica forked from one history) edits a copy
    of the base's sorted rows, which its family computes once; any other
    is flattened and sorts them all."""
    if ledger.journal is None or len(ledger.journal) >= ledger.base:
        rows = [_row(outpoint, entry) for outpoint, entry in _flatten(ledger).active.items()]
        rows.sort()
        return rows
    active, base_active = ledger.active, ledger.below[0]
    changed = _base_entries(ledger)
    if ledger.rows is None:
        at_base = {**base_active, **active, **changed}.items()
        ledger.rows = sorted(
            _row(outpoint, entry) for outpoint, entry in at_base if entry is not None
        )
    rows = ledger.rows.copy()
    for outpoint, entry in changed.items():
        if entry is not None:
            del rows[bisect_left(rows, _row(outpoint, entry))]
    for outpoint in changed:
        entry = active.get(outpoint, base_active.get(outpoint))
        if entry is not None:
            rows.append(_row(outpoint, entry))
    # Timsort finds the sorted base as one run and merges the new rows in.
    rows.sort()
    return rows


def snapshot_bytes(state: Chainstate) -> bytes:
    """The snapshot of `state` as canonical_json writes it, in ASCII
    bytes, joined from each active output's memoized row. Forked states
    share their outputs and their base's sorted rows, so replicas
    digesting one history render and sort its outputs once."""
    rows = _sorted_rows(_own(state))
    tail = (
        ',\n  "allow_p2h": ' + json.dumps(state.allow_p2h)
        + ',\n  "issuer_public_key": ' + json.dumps(state.issuer_public_key.hex())
        + ',\n  "kernel": "utxo",\n  "log_length": ' + str(state._length) + "\n}\n"
    ).encode("ascii")
    if not rows:
        return b'{\n  "active": {}' + tail
    # One join copies the text once: the head and tail ride on the end rows.
    rows[0] = b'{\n  "active": {\n' + rows[0]
    rows[-1] += b"\n  }" + tail
    return b",\n".join(rows)


def chainstate_snapshot(state: Chainstate) -> dict:
    """The snapshot document of `state`: snapshot_bytes(state) parsed."""
    return json.loads(snapshot_bytes(state))


def _issuer_and_policy(doc: dict) -> tuple[bytes, bool]:
    """The issuer key (empty if absent) and the p2h policy (True if
    absent) of a log or snapshot document, strictly read."""
    allow_p2h = doc.get("allow_p2h", True)
    if not isinstance(allow_p2h, bool):
        raise FormatError("allow_p2h must be a boolean")
    try:
        return from_hex(doc.get("issuer_public_key", "")), allow_p2h
    except FormatError as exc:
        raise FormatError(f"malformed issuer key: {exc}") from exc


def active_from_snapshot(doc: dict) -> dict[UtxoId, TxOutput]:
    """Strictly decode the active set of a chainstate snapshot.

    A snapshot carries no log, so it cannot rebuild a chainstate; every
    outpoint, value and locking script is still checked, and so are the
    other fields snapshot_bytes writes, where present."""
    if doc.get("kernel") != "utxo":
        raise FormatError("not a utxo snapshot")
    if extra := doc.keys() - {"kernel", "active", "allow_p2h", "issuer_public_key", "log_length"}:
        raise FormatError(f"utxo snapshot has unknown keys {sorted(extra)}")
    _issuer_and_policy(doc)
    log_length = doc.get("log_length", 0)
    if type(log_length) is not int or log_length < 0:
        raise FormatError("log_length must be a non-negative integer")
    raw = doc.get("active")
    if not isinstance(raw, dict):
        raise FormatError("malformed utxo snapshot")
    active = {}
    for text, entry in raw.items():
        if not isinstance(entry, dict) or not isinstance(entry.get("locking"), str):
            raise FormatError(f"malformed utxo entry {text!r}")
        active[UtxoId.parse(text)] = TxOutput(
            value=check_amount(entry.get("value"), context="output value"),
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
    rows = doc.get("txs")
    if not isinstance(doc.get("issuer_public_key"), str) or not isinstance(rows, list):
        raise FormatError("malformed transaction log document")
    issuer_public_key, allow_p2h = _issuer_and_policy(doc)
    entries = []
    for position, row in enumerate(rows):
        if not isinstance(row, dict):
            raise FormatError(f"malformed log row {position}")
        try:
            recorded = from_hex(row["txid"])
            raw = from_hex(row["raw"])
        except (KeyError, FormatError) as exc:
            raise FormatError(f"malformed log row {position}: {exc}") from exc
        if len(recorded) != TXID_BYTES:
            raise FormatError(f"malformed log row {position}: bad txid length")
        entries.append(LogEntry(recorded_txid=recorded, tx=decode_utxo_tx(raw)))
    return issuer_public_key, allow_p2h, entries


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


# ---------------------------------------------------------------------------
# The kernel table's entry (see ledgerlab.kernels)
# ---------------------------------------------------------------------------


class UtxoKernel(Kernel):
    state_type = Chainstate
    columns = ("outpoint", "value", "locking")

    def genesis(self, scheme, issuer_seed, allow_p2h=True):
        issuer = scheme.keygen(issuer_seed)
        return Chainstate.genesis(issuer.public_key, allow_p2h=allow_p2h), issuer

    def mint(self, state, to, amount, token, issuer, scheme):
        return coinbase_issue(state, [(amount, lock_to_wallet(to))], issuer, scheme)

    def holdings(self, state, wallet) -> list[tuple[UtxoId, int]]:
        """The wallet's active outpoints, deterministically ordered."""
        lock = lock_to_wallet(wallet)
        found = [
            (outpoint, entry.value)
            for outpoint, entry in state.active.items()
            if entry.locking == lock
        ]
        found.sort(key=lambda item: item[0].render())
        return found

    def spends(self, state, payer, targets, amount, scheme) -> list[UtxoTx]:
        """Greedy funding from the payer's holdings, then one spend of it
        per target: the amount to the target first, any change to the
        payer second. Raises UnfundedError if the holdings fall short."""
        funding, total = [], 0
        for outpoint, value in self.holdings(state, payer):
            funding.append(outpoint)
            total += value
            if total >= amount:
                break
        else:
            raise UnfundedError(f"{payer.address} holds {total}, cannot fund {amount}")
        change = []
        if total > amount:
            change.append(TxOutput(total - amount, lock_to_wallet(payer)))
        return [
            make_spend(
                scheme,
                state,
                funding,
                [TxOutput(amount, lock_to_wallet(target)), *change],
                signer=payer,
            )
            for target in targets
        ]

    def transfer(self, state, payer, payee, amount, mode, scheme, nonce=None):
        return self.spends(state, payer, [payee], amount, scheme)[0]

    def apply(self, state, entry, mode, scheme):
        return utxo_apply(state, entry, scheme)

    def double_spend(self, state, payer, targets, amount, mode, scheme):
        """As Kernel.double_spend, but every spend is built against the
        same state, from the same funding, before any is attempted."""
        attempts = []
        for tx in self.spends(state, payer, targets, amount, scheme):
            state, outcome = self.attempt(state, tx, mode, scheme)
            attempts.append((tx, outcome))
        return state, attempts

    def describe(self, entry) -> dict:
        return {"txid": txid_of(entry).hex()}

    def snapshot(self, state) -> dict:
        return chainstate_snapshot(state)

    def decode(self, doc: dict):
        """The active set alone: a snapshot carries no log."""
        return active_from_snapshot(doc)

    def rows(self, active) -> list[tuple[str, str, str]]:
        return sorted(
            (outpoint.render(), str(entry.value), script_to_text(entry.locking))
            for outpoint, entry in active.items()
        )

    def metrics(self, state) -> StateMetrics:
        return StateMetrics("utxo", len(state.active), len(state.log))


KERNEL = UtxoKernel()
