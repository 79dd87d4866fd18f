"""Analysis over ledger states: lineage, size metrics, fraud outcomes.

This module turns the qualitative differences between the kernels into
machine-checkable reports:

* every active UTXO traces back to a coinbase through an inheritance
  chain of spends, and an audit replay can re-verify each step of that
  chain from an exported log, flagging tampered rows;
* account balances do not trace: distinct payment histories produce
  byte-identical states, witnessed constructively by building two;
* state size is measured per kernel, and an address-policy experiment
  shows why throwaway payment addresses make account-style global state
  grow with payment count;
* the canonical fraud attempts (double spend by owner, replay by
  intermediary) are executed against each kernel and their outcomes
  reported, reproducibly from a seed.

The matrix report at the bottom assembles all of it into one document,
also renderable as a plain-text table.

Everything here is read-only over ledger snapshots and pure given its
seed; safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Sequence

from .crypto import CryptoScheme, derive_wallet
from .errors import ConfigError, FormatError, NotFoundError
from .kernels import KERNEL_TABLE, StateMetrics, render_rows
from .rng import SeededStream

# A kernel module loads when a report first uses it: through the kernel
# table, or, for the UTXO log and lineage tools, by a function-level import.
if TYPE_CHECKING:
    from .accounts import AccountState
    from .tokens import TokenRegistry
    from .utxo import Chainstate, LogEntry, UtxoId, UtxoTx, ValidationReport

# ---------------------------------------------------------------------------
# Lineage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineageStep:
    """One link: the tx that produced `produced` consumed `consumed`.

    consumed is None exactly at the terminal coinbase step."""

    txid: bytes
    consumed: UtxoId | None
    produced: UtxoId


@dataclass(frozen=True)
class LineageChain:
    """Inheritance chain from a target outpoint back to a coinbase.

    Ordered target-first; the last step is the coinbase. Adjacent steps
    link: steps[k].consumed == steps[k+1].produced."""

    target: UtxoId
    steps: tuple[LineageStep, ...]

    def doc(self) -> dict:
        return {
            "target": self.target.render(),
            "length": len(self.steps),
            "steps": [
                {
                    "txid": step.txid.hex(),
                    "produced": step.produced.render(),
                    "consumed": None if step.consumed is None else step.consumed.render(),
                }
                for step in self.steps
            ],
        }


def _index_by_txid(txs: Sequence[UtxoTx]) -> dict[bytes, tuple[int, UtxoTx]]:
    from .utxo import txid_of

    return {txid_of(tx): (position, tx) for position, tx in enumerate(txs)}


def _walk(
    index: dict[bytes, tuple[int, UtxoTx]], target: UtxoId
) -> list[tuple[int, UtxoId, UtxoId | None, UtxoTx]]:
    """The (log position, produced, consumed, producing tx) steps from the
    target back to its coinbase, following each spend's first input;
    consumed is None at the coinbase.

    Raises NotFoundError if the target or a link is missing from the
    index or a normal transaction has no input to follow, FormatError if
    the links form a cycle (possible only through recorded ids).
    """
    if target.txid not in index:
        raise NotFoundError(f"no transaction {target.txid.hex()} in the log")
    _, creator = index[target.txid]
    if target.index >= len(creator.outputs):
        raise NotFoundError(f"transaction has no output {target.index}")
    steps: list[tuple[int, UtxoId, UtxoId | None, UtxoTx]] = []
    current = target
    # An acyclic walk visits each indexed transaction at most once.
    for _ in range(len(index) + 1):
        position, tx = index[current.txid]
        if tx.kind == "coinbase":
            steps.append((position, current, None, tx))
            return steps
        if not tx.inputs:
            raise NotFoundError(
                f"broken chain: transaction at log position {position} has no inputs"
            )
        consumed = tx.inputs[0].outpoint
        steps.append((position, current, consumed, tx))
        if consumed.txid not in index:
            raise NotFoundError(
                f"broken chain: no transaction {consumed.txid.hex()} in the log"
            )
        current = consumed
    raise FormatError("lineage walk exceeded the log length; the log is cyclic")


def trace_lineage(txs: Sequence[UtxoTx], target: UtxoId) -> LineageChain:
    """Follow first inputs from the target back to its coinbase origin.

    Merges make full ancestry a DAG; the chain takes each step's first
    input. Raises NotFoundError if the target was never created in this
    log.
    """
    steps = tuple(
        LineageStep(txid=produced.txid, consumed=consumed, produced=produced)
        for _, produced, consumed, _ in _walk(_index_by_txid(txs), target)
    )
    return LineageChain(target=target, steps=steps)


# ---------------------------------------------------------------------------
# Audit replay over exported logs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepAudit:
    position: int
    recorded_txid: bytes
    txid_matches: bool
    report: ValidationReport

    @property
    def ok(self) -> bool:
        return self.txid_matches and self.report.valid


def audit_replay(
    entries: Sequence[LogEntry],
    issuer_public_key: bytes,
    scheme: CryptoScheme,
    *,
    allow_p2h: bool = True,
) -> list[StepAudit]:
    """Re-validate every log row in sequence, trusting recorded ids for
    linkage only.

    Each row is validated against the state the honest prefix implies,
    then applied under its recorded id even if invalid, so later rows
    remain auditable and exactly the tampered or invalid rows are the
    ones flagged. A row recorded under an id an earlier row recorded is
    flagged `duplicate-txid`, whichever of the two rows was tampered with.
    """
    from .utxo import (
        REASON_DUPLICATE_TXID, _advance, _unjournaled_genesis, txid_of, utxo_validate,
    )

    audits: list[StepAudit] = []
    shadow = _unjournaled_genesis(issuer_public_key, allow_p2h)
    seen: set[bytes] = set()
    for position, entry in enumerate(entries):
        report = utxo_validate(shadow, entry.tx, scheme)
        if entry.recorded_txid in seen and REASON_DUPLICATE_TXID not in report.reasons:
            report = report._replace(valid=False, reasons=(*report.reasons, REASON_DUPLICATE_TXID))
        seen.add(entry.recorded_txid)
        audits.append(
            StepAudit(
                position=position,
                recorded_txid=entry.recorded_txid,
                txid_matches=txid_of(entry.tx) == entry.recorded_txid,
                report=report,
            )
        )
        shadow = _advance(shadow, entry.tx, entry.recorded_txid)
    return audits


@dataclass(frozen=True)
class TraceStep:
    position: int
    txid: bytes
    produced: UtxoId
    consumed: UtxoId | None
    kind: str
    verified: bool
    problems: tuple[str, ...]


@dataclass(frozen=True)
class TraceAudit:
    """A lineage chain with per-step re-verification results."""

    target: UtxoId
    steps: tuple[TraceStep, ...]

    @property
    def ok(self) -> bool:
        return all(step.verified for step in self.steps)

    @property
    def first_failure(self) -> int | None:
        for index, step in enumerate(self.steps):
            if not step.verified:
                return index
        return None

    def doc(self) -> dict:
        return {
            "target": self.target.render(),
            "verified": self.ok,
            "steps": [
                {
                    "position": step.position,
                    "txid": step.txid.hex(),
                    "produced": step.produced.render(),
                    "consumed": None if step.consumed is None else step.consumed.render(),
                    "kind": step.kind,
                    "verified": step.verified,
                    "problems": list(step.problems),
                }
                for step in self.steps
            ],
        }


def audit_trace(
    entries: Sequence[LogEntry],
    issuer_public_key: bytes,
    scheme: CryptoScheme,
    target: UtxoId,
    *,
    allow_p2h: bool = True,
) -> TraceAudit:
    """Trace the target's inheritance chain through an exported log and
    re-verify every step.

    Linkage follows recorded ids, so a row whose bytes were tampered with
    still occupies its place in the chain; the tampering surfaces as that
    step failing verification (id mismatch, dead signature, or both).
    """
    walk = _walk(
        {
            entry.recorded_txid: (position, entry.tx)
            for position, entry in enumerate(entries)
        },
        target,
    )
    audits = audit_replay(entries, issuer_public_key, scheme, allow_p2h=allow_p2h)
    steps = []
    for position, produced, consumed, tx in walk:
        audit = audits[position]
        problems = [] if audit.txid_matches else ["recorded-txid-mismatch"]
        problems.extend(audit.report.reasons)
        steps.append(
            TraceStep(
                position=position,
                txid=produced.txid,
                produced=produced,
                consumed=consumed,
                kind=tx.kind,
                verified=audit.ok,
                problems=tuple(problems),
            )
        )
    return TraceAudit(target=target, steps=tuple(steps))


# ---------------------------------------------------------------------------
# State metrics
# ---------------------------------------------------------------------------


def measure_state(state: AccountState | TokenRegistry | Chainstate) -> StateMetrics:
    """Exact size of a ledger state.

    Accounts count holders; token registries count objects ever issued;
    chainstates report both the active set and the log length, because
    "the state" is genuinely two different sizes there. The kernel
    entry whose state type matches does the counting.
    """
    for kernel in KERNEL_TABLE.values():
        if isinstance(state, kernel.state_type):
            return kernel.metrics(state)
    raise ConfigError(f"no metrics for {type(state).__name__}")


# ---------------------------------------------------------------------------
# Pseudonym growth
# ---------------------------------------------------------------------------

AddressPolicy = Literal["reuse-address", "fresh-address-per-payment"]


def pseudonym_growth_experiment(
    n_payments: int,
    policy: AddressPolicy,
    kernel: Literal["account", "utxo"],
    scheme: CryptoScheme,
    *,
    participants: int = 2,
    seed: int = 0,
) -> list[StateMetrics]:
    """Simulate n payments under an address policy; record size after each.

    Reusing addresses keeps account-state size at the participant count;
    a throwaway address per payment grows it linearly. On the UTXO kernel
    split payments grow the active set by exactly one either way; the
    address policy moves no state there, which is the point.
    """
    if n_payments < 1:
        raise ConfigError("need at least one payment")
    if participants < 2:
        raise ConfigError("need at least two participants")
    if policy not in ("reuse-address", "fresh-address-per-payment"):
        raise ConfigError(f"unknown address policy {policy!r}")
    if kernel not in ("account", "utxo"):
        raise ConfigError(f"no growth experiment for kernel {kernel!r}")
    stream = SeededStream(seed).fork("pseudonym-growth")
    payer = derive_wallet(scheme, stream.fork("payer").randbytes(16))
    recipients = [
        derive_wallet(scheme, stream.fork(f"recipient-{i}").randbytes(16))
        for i in range(participants - 1)
    ]
    table = KERNEL_TABLE[kernel]
    fresh_stream = stream.fork("fresh-addresses")
    state, issuer = table.genesis(scheme, stream.fork("issuer").randbytes(16))
    state = table.mint(state, payer, n_payments + 1, None, issuer, scheme)
    if kernel == "account":
        for recipient in recipients:
            state = table.mint(state, recipient, 1, None, issuer, scheme)

    curve: list[StateMetrics] = []
    for i in range(n_payments):
        if policy == "reuse-address":
            payee = recipients[i % len(recipients)]
        else:
            payee = derive_wallet(scheme, fresh_stream.randbytes(16))
        tx = table.transfer(state, payer, payee, 1, "naive", scheme)
        state = table.apply(state, tx, "naive", scheme)
        curve.append(measure_state(state))
    return curve


def growth_report(
    n_payments: int,
    kernel: Literal["account", "utxo"],
    scheme: CryptoScheme,
    *,
    participants: int = 2,
    seed: int = 0,
) -> dict:
    """Both policies side by side, as a report document."""
    curves = {
        policy: pseudonym_growth_experiment(
            n_payments, policy, kernel, scheme, participants=participants, seed=seed
        )
        for policy in ("reuse-address", "fresh-address-per-payment")
    }
    return {
        "report": "pseudonym-growth",
        "kernel": kernel,
        "participants": participants,
        "payments": n_payments,
        "curves": {
            policy: [metrics.doc() for metrics in curve]
            for policy, curve in curves.items()
        },
        "final_entry_count": {
            policy: curve[-1].entry_count for policy, curve in curves.items()
        },
    }


# ---------------------------------------------------------------------------
# Fraud scenarios
# ---------------------------------------------------------------------------

FraudScenario = Literal["double-spend", "replay"]
FraudKernel = Literal["utxo", "token", "account-naive", "account-nonce-protected"]

OUTCOME_PREVENTED = "prevented"
OUTCOME_SUCCEEDED = "succeeded"
OUTCOME_PREVENTED_BY_BALANCE = "prevented-by-balance"


@dataclass(frozen=True)
class FraudReport:
    scenario: FraudScenario
    kernel: FraudKernel
    outcome: str
    evidence: dict
    seed: int

    def doc(self) -> dict:
        return {
            "scenario": self.scenario,
            "kernel": self.kernel,
            "outcome": self.outcome,
            "seed": self.seed,
            "evidence": self.evidence,
        }


# What each kernel's probes move: the double spend's stake, the replay's.
_FRAUD_STAKES = {"account": (8, 3), "token": ("token-0", "token-0"), "utxo": (10, 10)}
# How often the replay probe resubmits an accepted account transfer.
_REPLAYS = 2


def run_fraud_scenario(
    scenario: FraudScenario,
    kernel: FraudKernel,
    seed: int,
    scheme: CryptoScheme,
) -> FraudReport:
    """Stage the canonical attack against a kernel and report the outcome.

    The attack runs through the kernel table's double-spend or replay
    step (a replay resubmits `_REPLAYS` times on the account kernels, once
    elsewhere); the evidence is read from the step's attempts.

    Deterministic in (scenario, kernel, seed): identical inputs yield
    identical reports.
    """
    if scenario not in ("double-spend", "replay"):
        raise ConfigError(f"unknown fraud scenario {scenario!r}")
    if kernel not in ("utxo", "token", "account-naive", "account-nonce-protected"):
        raise ConfigError(f"no {scenario!r} scenario for kernel {kernel!r}")
    name, _, mode = kernel.partition("-")
    ops = KERNEL_TABLE[name]
    stream = SeededStream(seed)
    payer, payee, other = (
        derive_wallet(scheme, stream.fork("fraud").fork(role).randbytes(16))
        for role in ("payer", "payee", "other")
    )
    state, issuer = ops.genesis(scheme, stream.fork("fraud-issuer").randbytes(16))
    state = ops.mint(state, payer, 10, "token-0", issuer, scheme)
    double_stake, replay_stake = _FRAUD_STAKES[name]

    if scenario == "double-spend":
        state, ((first, _), (second, refused)) = ops.double_spend(
            state, payer, [payee, other], double_stake, mode, scheme
        )
        if refused["accepted"]:
            outcome, evidence = OUTCOME_SUCCEEDED, {"second_spend": "accepted"}
        elif name == "utxo":
            outcome, evidence = OUTCOME_PREVENTED, {
                "accepted_txid": ops.describe(first)["txid"],
                "rejected_txid": ops.describe(second)["txid"],
                "rejection_reasons": refused.get("reasons", []),
            }
        elif name == "token":
            outcome, evidence = OUTCOME_PREVENTED, {
                "failure": refused["error"],
                "owner": state.owner_of(double_stake),
            }
        else:
            # Each transfer fits the balance alone but not both: the
            # second fails the funds check, whatever the mode.
            outcome, evidence = OUTCOME_PREVENTED_BY_BALANCE, {
                "failure": refused["error"],
                "final_balances": {
                    "payer": state.balance(payer.address),
                    "payee": state.balance(payee.address),
                    "other": state.balance(other.address),
                },
            }
        return FraudReport(scenario, kernel, outcome, evidence, seed)

    # Replay: the intermediary resubmits one accepted transfer verbatim.
    tx = ops.transfer(state, payer, payee, replay_stake, mode, scheme)
    once = ops.apply(state, tx, mode, scheme)
    after, outcomes = ops.replay(once, tx, _REPLAYS if name == "account" else 1, mode, scheme)
    refusals = [attempt for attempt in outcomes if not attempt["accepted"]]
    applied = 1 + len(outcomes) - len(refusals)
    outcome = OUTCOME_SUCCEEDED if applied > 1 else OUTCOME_PREVENTED
    if name == "account":
        evidence = {
            "amount": replay_stake,
            "initial_balance": 10,
            "balance_after_first": once.balance(payer.address),
            "final_payer_balance": after.balance(payer.address),
            "final_payee_balance": after.balance(payee.address),
            "times_applied": applied,
            "replays_attempted": _REPLAYS,
        }
        if refusals:
            evidence["rejection"] = refusals[0]["error"]
    elif applied > 1:
        evidence = {"replay": "accepted"}
    else:
        evidence = {
            "state_identical_to_single_application": (
                ops.snapshot_text(after) == ops.snapshot_text(once)
            )
        }
        if name == "utxo":
            evidence["replayed_txid"] = ops.describe(tx)["txid"]
            evidence["rejection_reasons"] = refusals[0].get("reasons", [])
        else:
            evidence["failure"] = refusals[0]["error"]
    return FraudReport(scenario, kernel, outcome, evidence, seed)


# ---------------------------------------------------------------------------
# Traceability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceabilityReport:
    kernel: str
    traceable: Literal["yes", "no"]
    justification: str
    evidence: dict

    def doc(self) -> dict:
        return {
            "kernel": self.kernel,
            "traceable": self.traceable,
            "justification": self.justification,
            "evidence": self.evidence,
        }


def traceability_report(
    kernel: Literal["utxo", "account", "token"],
    seed: int,
    scheme: CryptoScheme,
) -> TraceabilityReport:
    """Can third parties recover payment history from the ledger alone?

    UTXO: yes, witnessed by an actual recovered chain. Account: no,
    witnessed by two histories ending in byte-identical snapshots.
    Token: no; the registry is not an authoritative record.

    Every state is built through the kernel table (account mode naive);
    only the evidence read from it is per kernel.
    """
    if kernel not in KERNEL_TABLE:
        raise ConfigError(f"no traceability report for kernel {kernel!r}")
    ops = KERNEL_TABLE[kernel]
    stream = SeededStream(seed).fork("traceability")
    genesis, issuer = ops.genesis(scheme, stream.fork("issuer").randbytes(16))
    if kernel == "token":
        return TraceabilityReport(
            kernel="token",
            traceable="no",
            justification=(
                "the registry is an observer's oracle, not a record any party "
                "maintains; its transfer history exists nowhere authoritative"
            ),
            evidence={"authoritative": genesis.authoritative},
        )
    a, b, c = (derive_wallet(scheme, stream.fork(role).randbytes(16)) for role in "abc")

    def pay(state, payer, payee, amount):
        tx = ops.transfer(state, payer, payee, amount, "naive", scheme)
        return ops.apply(state, tx, "naive", scheme)

    if kernel == "utxo":
        from .utxo import UtxoId, txid_of

        state = ops.mint(genesis, a, 10, None, issuer, scheme)
        state = pay(pay(state, a, b, 4), b, c, 1)
        leaf = UtxoId(txid=txid_of(state.log[-1]), index=0)
        return TraceabilityReport(
            kernel="utxo",
            traceable="yes",
            justification=(
                "every active output links input-to-output back to a coinbase; "
                "the sample chain below was recovered from the log alone"
            ),
            evidence={
                "chain": trace_lineage(state.log, leaf).doc(),
                "log_length": len(state.log),
            },
        )
    funded = ops.mint(genesis, a, 10, None, issuer, scheme)
    funded = ops.mint(funded, b, 5, None, issuer, scheme)
    one = pay(funded, a, b, 3)
    two = funded
    for _ in range(3):
        two = pay(two, a, b, 1)
    return TraceabilityReport(
        kernel="account",
        traceable="no",
        justification=(
            "a balance does not determine its history: the two histories "
            "below end in byte-identical states"
        ),
        evidence={
            "history_one": ["transfer 3"],
            "history_two": ["transfer 1", "transfer 1", "transfer 1"],
            "snapshots_byte_equal": ops.snapshot_text(one) == ops.snapshot_text(two),
            "snapshot": ops.snapshot(one),
        },
    )

# ---------------------------------------------------------------------------
# The property matrix
# ---------------------------------------------------------------------------

# The matrix's fraud rows: each column's label and the fraud kernel it runs.
_FRAUD_ROWS: dict[FraudScenario, list[tuple[str, FraudKernel]]] = {
    "double-spend": [("utxo", "utxo"), ("account", "account-naive"), ("token", "token")],
    "replay": [
        ("utxo", "utxo"),
        ("account-naive", "account-naive"),
        ("account-nonce-protected", "account-nonce-protected"),
        ("token", "token"),
    ],
}


def matrix_report(seed: int, scheme: CryptoScheme) -> dict:
    """Run every fraud scenario and traceability probe; assemble the matrix.

    The document's `rows` are the machine-checkable claims; `evidence`
    holds the full per-scenario reports they were reduced from.
    """
    fraud = {
        scenario: {
            label: run_fraud_scenario(scenario, kernel, seed, scheme)
            for label, kernel in columns
        }
        for scenario, columns in _FRAUD_ROWS.items()
    }
    traceability = {name: traceability_report(name, seed, scheme) for name in KERNEL_TABLE}
    replay = fraud["replay"]
    return {
        "report": "property-matrix",
        "crypto": scheme.name,
        "seed": seed,
        "rows": {
            **{
                row: {k: r.outcome for k, r in reports.items()}
                for row, reports in fraud.items()
            },
            "traceability": {k: r.traceable for k, r in traceability.items()},
        },
        "detail": {
            "replay-utxo-state-identical": replay["utxo"].evidence.get(
                "state_identical_to_single_application", False
            ),
            "replay-naive-times-applied": replay["account-naive"].evidence.get(
                "times_applied", 0
            ),
            "traceability-utxo-chain-length": traceability["utxo"].evidence.get(
                "chain", {}
            ).get("length", 0),
            "traceability-account-snapshots-byte-equal": traceability[
                "account"
            ].evidence.get("snapshots_byte_equal", False),
        },
        "evidence": {
            row: {k: r.doc() for k, r in reports.items()}
            for row, reports in {**fraud, "traceability": traceability}.items()
        },
        "narrative": {
            "intermediary": (
                "account and utxo kernels are intermediated: a record keeper "
                "(here, the replica harness) must order transactions; the "
                "bearer coins of the e-cash protocol need the issuer online "
                "only at redemption"
            ),
            "ecash-classification": (
                "the e-cash protocol is account-issued but bearer-settled: "
                "coins behave like tokens in flight while the spent list is "
                "an account-style record at the issuer; both readings are "
                "recorded rather than adjudicated"
            ),
        },
    }


def render_tables_text(doc: dict) -> str:
    """Plain-text table over the matrix document's rows, one column per
    kernel; the two account replay modes share one cell."""
    replay = doc["rows"]["replay"]
    account_replay = (
        f"{replay['account-naive']} (naive) / "
        f"{replay['account-nonce-protected']} (nonce-protected)"
    )
    rows = {**doc["rows"], "replay": {**replay, "account": account_replay}}
    return render_rows(
        ("property", *KERNEL_TABLE),
        [(name, *(cells[k] for k in KERNEL_TABLE)) for name, cells in rows.items()],
    )
