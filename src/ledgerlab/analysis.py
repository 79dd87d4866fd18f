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
from typing import Literal, Sequence

from .accounts import (
    AccountState,
    account_apply,
    account_mint,
    account_snapshot,
    make_account_tx,
)
from .crypto import CryptoScheme, derive_wallet
from .encoding import canonical_json
from .errors import ConfigError, FormatError, NotFoundError
from .kernels import KERNEL_TABLE, render_rows
from .rng import SeededStream
from .tokens import TokenRegistry
from .utxo import (
    Chainstate,
    LogEntry,
    UtxoId,
    UtxoTx,
    ValidationReport,
    _advance,
    _unjournaled_genesis,
    coinbase_issue,
    lock_to_wallet,
    split_payment,
    txid_of,
    utxo_apply,
    utxo_validate,
)

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

    @property
    def terminal_txid(self) -> bytes:
        return self.steps[-1].txid

    def __len__(self) -> int:
        return len(self.steps)

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
    input (lineage_dag exports the rest). Raises NotFoundError if the
    target was never created in this log.
    """
    steps = tuple(
        LineageStep(txid=produced.txid, consumed=consumed, produced=produced)
        for _, produced, consumed, _ in _walk(_index_by_txid(txs), target)
    )
    return LineageChain(target=target, steps=steps)


def lineage_dag(txs: Sequence[UtxoTx], target: UtxoId) -> dict:
    """Full ancestry of the target across all inputs, as nodes and edges."""
    index = _index_by_txid(txs)
    if target.txid not in index:
        raise NotFoundError(f"no transaction {target.txid.hex()} in the log")
    seen: set[UtxoId] = set()
    edges: list[dict] = []
    frontier = [target]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        _, tx = index[current.txid]
        consumed = [tx_in.outpoint for tx_in in tx.inputs]
        edges.append(
            {
                "txid": current.txid.hex(),
                "produced": current.render(),
                "consumed": [outpoint.render() for outpoint in consumed],
                "kind": tx.kind,
            }
        )
        frontier.extend(consumed)
    edges.sort(key=lambda e: e["produced"])
    return {
        "target": target.render(),
        "nodes": sorted(outpoint.render() for outpoint in seen),
        "edges": edges,
    }


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
    ones flagged.
    """
    audits: list[StepAudit] = []
    shadow = _unjournaled_genesis(issuer_public_key, allow_p2h)
    for position, entry in enumerate(entries):
        report = utxo_validate(shadow, entry.tx, scheme)
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


@dataclass(frozen=True)
class StateMetrics:
    kernel: Literal["account", "token", "utxo"]
    entry_count: int
    log_length: int | None = None

    def doc(self) -> dict:
        out = {"kernel": self.kernel, "entry_count": self.entry_count}
        if self.log_length is not None:
            out["log_length"] = self.log_length
        return out


def measure_state(state: AccountState | TokenRegistry | Chainstate) -> StateMetrics:
    """Exact size of a ledger state.

    Accounts count holders; token registries count objects ever issued;
    chainstates report both the active set and the log length, because
    "the state" is genuinely two different sizes there.
    """
    for name, kernel in KERNEL_TABLE.items():
        if isinstance(state, kernel.state_type):
            entry_count, log_length = kernel.size(state)
            return StateMetrics(kernel=name, entry_count=entry_count, log_length=log_length)
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
    stream = SeededStream(seed).fork("pseudonym-growth")
    payer = derive_wallet(scheme, stream.fork("payer").randbytes(16))
    recipients = [
        derive_wallet(scheme, stream.fork(f"recipient-{i}").randbytes(16))
        for i in range(participants - 1)
    ]
    fresh_stream = stream.fork("fresh-addresses")
    if kernel == "account":
        state = account_mint(AccountState.empty(), payer.address, n_payments)
        for recipient in recipients:
            state = account_mint(state, recipient.address, 1)
    elif kernel == "utxo":
        issuer = scheme.keygen(stream.fork("issuer").randbytes(16))
        state = Chainstate.genesis(issuer.public_key)
        state = coinbase_issue(
            state, [(n_payments + 1, lock_to_wallet(payer))], issuer, scheme
        )
        change = UtxoId(txid=txid_of(state.log[-1]), index=0)
    else:
        raise ConfigError(f"no growth experiment for kernel {kernel!r}")

    curve: list[StateMetrics] = []
    for i in range(n_payments):
        if policy == "reuse-address":
            payee = recipients[i % len(recipients)]
        else:
            payee = derive_wallet(scheme, fresh_stream.randbytes(16))
        if kernel == "account":
            tx = make_account_tx(scheme, payer, payee.address, 1)
            state = account_apply(state, tx, "naive", scheme)
        else:
            tx = split_payment(scheme, state, payer, change, 1, lock_to_wallet(payee))
            state = utxo_apply(state, tx, scheme)
            change = UtxoId(txid=txid_of(tx), index=1)
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


def run_fraud_scenario(
    scenario: FraudScenario,
    kernel: FraudKernel,
    seed: int,
    scheme: CryptoScheme,
    *,
    replays: int = 2,
) -> FraudReport:
    """Stage the canonical attack against a kernel and report the outcome.

    The attack runs through the kernel table's double-spend or replay
    step (a replay resubmits `replays` times on the account kernels, once
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
                "accepted_txid": txid_of(first).hex(),
                "rejected_txid": txid_of(second).hex(),
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
    after, outcomes = ops.replay(once, tx, replays if name == "account" else 1, mode, scheme)
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
            "replays_attempted": replays,
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
            evidence["replayed_txid"] = txid_of(tx).hex()
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


def _utxo_traceability(seed: int, scheme: CryptoScheme) -> TraceabilityReport:
    stream = SeededStream(seed).fork("traceability")
    a = derive_wallet(scheme, stream.fork("a").randbytes(16))
    b = derive_wallet(scheme, stream.fork("b").randbytes(16))
    c = derive_wallet(scheme, stream.fork("c").randbytes(16))
    issuer = scheme.keygen(stream.fork("issuer").randbytes(16))

    state = Chainstate.genesis(issuer.public_key)
    state = coinbase_issue(state, [(10, lock_to_wallet(a))], issuer, scheme)
    coinbase_out = UtxoId(txid=txid_of(state.log[-1]), index=0)
    first = split_payment(scheme, state, a, coinbase_out, 4, lock_to_wallet(b))
    state = utxo_apply(state, first, scheme)
    b_out = UtxoId(txid=txid_of(first), index=0)
    second = split_payment(scheme, state, b, b_out, 1, lock_to_wallet(c))
    state = utxo_apply(state, second, scheme)
    leaf = UtxoId(txid=txid_of(second), index=0)

    chain = trace_lineage(state.log, leaf)
    return TraceabilityReport(
        kernel="utxo",
        traceable="yes",
        justification=(
            "every active output links input-to-output back to a coinbase; "
            "the sample chain below was recovered from the log alone"
        ),
        evidence={"chain": chain.doc(), "log_length": len(state.log)},
    )


def _account_traceability(seed: int, scheme: CryptoScheme) -> TraceabilityReport:
    stream = SeededStream(seed).fork("traceability")
    a = derive_wallet(scheme, stream.fork("a").randbytes(16))
    b = derive_wallet(scheme, stream.fork("b").randbytes(16))

    def fresh() -> AccountState:
        state = AccountState.empty()
        state = account_mint(state, a.address, 10)
        return account_mint(state, b.address, 5)

    # History one: a single transfer of 3.
    one = fresh()
    one = account_apply(one, make_account_tx(scheme, a, b.address, 3), "naive", scheme)

    # History two: three transfers of 1.
    two = fresh()
    for _ in range(3):
        two = account_apply(two, make_account_tx(scheme, a, b.address, 1), "naive", scheme)

    snapshot_one = canonical_json(account_snapshot(one))
    snapshot_two = canonical_json(account_snapshot(two))
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
            "snapshots_byte_equal": snapshot_one == snapshot_two,
            "snapshot": account_snapshot(one),
        },
    )


def _token_traceability(seed: int, scheme: CryptoScheme) -> TraceabilityReport:
    registry = TokenRegistry.empty()
    return TraceabilityReport(
        kernel="token",
        traceable="no",
        justification=(
            "the registry is an observer's oracle, not a record any party "
            "maintains; its transfer history exists nowhere authoritative"
        ),
        evidence={"authoritative": registry.authoritative},
    )


def traceability_report(
    kernel: Literal["utxo", "account", "token"],
    seed: int,
    scheme: CryptoScheme,
) -> TraceabilityReport:
    """Can third parties recover payment history from the ledger alone?

    UTXO: yes, witnessed by an actual recovered chain. Account: no,
    witnessed by two histories ending in byte-identical snapshots.
    Token: no; the registry is not an authoritative record.
    """
    reports = {
        "utxo": _utxo_traceability,
        "account": _account_traceability,
        "token": _token_traceability,
    }
    if kernel not in reports:
        raise ConfigError(f"no traceability report for kernel {kernel!r}")
    return reports[kernel](seed, scheme)


# ---------------------------------------------------------------------------
# The property matrix
# ---------------------------------------------------------------------------


def matrix_report(seed: int, scheme: CryptoScheme, *, replays: int = 2) -> dict:
    """Run every fraud scenario and traceability probe; assemble the matrix.

    The document's `rows` are the machine-checkable claims; `evidence`
    holds the full per-scenario reports they were reduced from.
    """
    double_spend = {
        "utxo": run_fraud_scenario("double-spend", "utxo", seed, scheme),
        "account": run_fraud_scenario("double-spend", "account-naive", seed, scheme),
        "token": run_fraud_scenario("double-spend", "token", seed, scheme),
    }
    replay = {
        "utxo": run_fraud_scenario("replay", "utxo", seed, scheme),
        "account-naive": run_fraud_scenario(
            "replay", "account-naive", seed, scheme, replays=replays
        ),
        "account-nonce-protected": run_fraud_scenario(
            "replay", "account-nonce-protected", seed, scheme, replays=replays
        ),
        "token": run_fraud_scenario("replay", "token", seed, scheme),
    }
    traceability = {
        "utxo": traceability_report("utxo", seed, scheme),
        "account": traceability_report("account", seed, scheme),
        "token": traceability_report("token", seed, scheme),
    }
    return {
        "report": "property-matrix",
        "crypto": scheme.name,
        "seed": seed,
        "rows": {
            "double-spend": {k: r.outcome for k, r in double_spend.items()},
            "replay": {k: r.outcome for k, r in replay.items()},
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
            "double-spend": {k: r.doc() for k, r in double_spend.items()},
            "replay": {k: r.doc() for k, r in replay.items()},
            "traceability": {k: r.doc() for k, r in traceability.items()},
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
    """Plain-text table over the matrix document's rows."""
    rows = doc["rows"]
    replay = rows["replay"]
    account_replay = (
        f"{replay['account-naive']} (naive) / "
        f"{replay['account-nonce-protected']} (nonce-protected)"
    )
    return render_rows(
        ("property", "account", "token", "utxo"),
        [
            (
                "double-spend",
                rows["double-spend"]["account"],
                rows["double-spend"]["token"],
                rows["double-spend"]["utxo"],
            ),
            ("replay", account_replay, replay["token"], replay["utxo"]),
            (
                "traceability",
                rows["traceability"]["account"],
                rows["traceability"]["token"],
                rows["traceability"]["utxo"],
            ),
        ],
    )
