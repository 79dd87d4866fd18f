"""Scenario files: declarative, replayable experiment scripts.

A scenario is a JSON document naming a kernel, a crypto mode, the
participants, an ordered action list, and which reports to emit. The
executor runs the actions against fresh kernel instances and is fully
deterministic given (file, seed): wallets, serial numbers, and delivery
schedules are all derived from the seed, and every emitted document is
canonical JSON.

Actions split into two classes with different failure semantics:

* construction actions (issue, pay, split, merge, withdraw) must
  succeed; a failure aborts execution with the failing action's index.
* probe actions (replay, double-spend, a repeated redeem,
  broadcast-round) deliberately attempt something the kernel may refuse;
  the refusal is the measurement and is recorded in the event log, never
  raised.

Validation is strict and runs before anything executes: unknown keys,
unknown action names, missing fields, and kernel/action mismatches are
all rejected with a list of messages.

The broadcast-round probe is observational: it copies the current
chainstate into a set of replicas, runs one delivery-and-settlement
round with a conflicting transaction pair, and records the outcome; the
scenario's own chainstate is not advanced.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .analysis import growth_report, matrix_report, measure_state, render_tables_text
from .crypto import CryptoScheme, Wallet, derive_wallet, get_scheme
from .ecash import (
    Coin,
    IssuerKeys,
    SpentList,
    WithdrawalTranscript,
    coin_record,
    issuer_public_record,
    issuer_setup,
    redeem,
    withdraw,
)
from .errors import LedgerError, ScenarioError, UnfundedError
from .kernels import KERNEL_TABLE
from .replica import RoundReport, run_round
from .rng import SeededStream
from .utxo import (
    UtxoId,
    export_log,
    lock_to_wallet,
    merge_payment,
    split_payment,
    txid_of,
)

SCHEMA_VERSION = 1

KERNELS = ("account", "token", "utxo", "ecash", "matrix")
CRYPTO_MODES = ("toy", "real")
ACCOUNT_MODES = ("naive", "nonce-protected")
ORDERING = ("arrival-order", "canonical-txid-order")

_TOP_LEVEL_KEYS = {
    "schema_version",
    "name",
    "kernel",
    "crypto",
    "seed",
    "account_mode",
    "allow_p2h",
    "issuer",
    "participants",
    "actions",
    "reports",
    "growth",
}

_KERNEL_ACTIONS = {
    "account": {"issue", "pay", "replay", "double-spend"},
    "token": {"issue", "pay", "replay", "double-spend"},
    "utxo": {"issue", "pay", "split", "merge", "replay", "double-spend", "broadcast-round"},
    "ecash": {"withdraw", "redeem", "double-spend"},
    "matrix": set(),
}

_KERNEL_REPORTS = {
    "account": {"state", "metrics", "growth", "events"},
    "token": {"state", "metrics", "events"},
    "utxo": {"state", "metrics", "log", "growth", "rounds", "events"},
    "ecash": {"coins", "events"},
    "matrix": {"matrix", "tables", "events"},
}

_DEFAULT_REPORTS = {
    "account": ["state", "metrics"],
    "token": ["state", "metrics"],
    "utxo": ["state", "metrics", "log"],
    "ecash": ["coins"],
    "matrix": ["matrix", "tables"],
}

REPORT_FILENAMES = {
    "state": "state.json",
    "metrics": "metrics.json",
    "log": "log.json",
    "growth": "growth.json",
    "rounds": "rounds.json",
    "coins": "coins.json",
    "matrix": "matrix.json",
    "tables": "tables.txt",
    "events": "events.json",
}

# Per-action field schema: name -> {field: (required, checker description)}.
_is_name = lambda v: isinstance(v, str) and bool(v)
_is_amount = lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0
_is_positive = lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1
_is_index = lambda v: isinstance(v, int) and not isinstance(v, bool)
_is_name_pair = lambda v: (
    isinstance(v, list) and len(v) == 2 and all(_is_name(n) for n in v)
)
_is_outpoint = lambda v: isinstance(v, str)
_is_outpoint_list = lambda v: isinstance(v, list) and all(isinstance(o, str) for o in v)
_is_rule = lambda v: v in ORDERING

_ACTION_FIELDS: dict[str, dict[str, tuple[bool, object, str]]] = {
    "issue": {
        "to": (True, _is_name, "participant name"),
        "amount": (True, _is_positive, "positive integer"),
        "token": (False, _is_name, "token id"),
    },
    "pay": {
        "from": (True, _is_name, "participant name"),
        "to": (True, _is_name, "participant name"),
        "amount": (False, _is_amount, "non-negative integer"),
        "token": (False, _is_name, "token id"),
        "nonce": (False, _is_amount, "non-negative integer"),
    },
    "split": {
        "from": (True, _is_name, "participant name"),
        "to": (True, _is_name, "participant name"),
        "amount": (True, _is_positive, "positive integer"),
        "outpoint": (False, _is_outpoint, "txid:index"),
    },
    "merge": {
        "from": (True, _is_name, "participant name"),
        "to": (False, _is_name, "participant name"),
        "outpoints": (False, _is_outpoint_list, "list of txid:index"),
    },
    "replay": {
        "index": (False, _is_index, "submission index"),
        "times": (False, _is_positive, "positive integer"),
    },
    "double-spend": {
        "from": (False, _is_name, "participant name"),
        "to": (False, _is_name_pair, "two participant names"),
        "amount": (False, _is_positive, "positive integer"),
        "token": (False, _is_name, "token id"),
        "wallet": (False, _is_name, "participant name"),
        "coin": (False, _is_index, "coin index"),
    },
    "broadcast-round": {
        "from": (True, _is_name, "participant name"),
        "to": (True, _is_name_pair, "two participant names"),
        "amount": (True, _is_positive, "positive integer"),
        "replicas": (False, _is_positive, "positive integer"),
        "rule": (False, _is_rule, "ordering rule"),
        "round_seed": (False, _is_index, "integer"),
    },
    "withdraw": {
        "wallet": (True, _is_name, "participant name"),
        "denomination": (True, _is_positive, "positive integer"),
        "count": (False, _is_positive, "positive integer"),
    },
    "redeem": {
        "wallet": (True, _is_name, "participant name"),
        "coin": (False, _is_index, "coin index"),
        "times": (False, _is_positive, "positive integer"),
    },
}


def validate_scenario(doc: object) -> list[str]:
    """Check a scenario document against the schema; return all problems."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["scenario must be a JSON object"]
    for key in doc:
        if key not in _TOP_LEVEL_KEYS:
            problems.append(f"unknown top-level key {key!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}"
        )
    kernel = doc.get("kernel")
    if kernel not in KERNELS:
        problems.append(f"kernel must be one of {KERNELS}, got {kernel!r}")
        return problems
    if "crypto" in doc and doc["crypto"] not in CRYPTO_MODES:
        problems.append(f"crypto must be one of {CRYPTO_MODES}, got {doc['crypto']!r}")
    if "seed" in doc and not _is_amount(doc["seed"]):
        problems.append("seed must be a non-negative integer")
    if "name" in doc and not _is_name(doc["name"]):
        problems.append("name must be a non-empty string")
    if "account_mode" in doc:
        if kernel != "account":
            problems.append("account_mode is only valid for the account kernel")
        elif doc["account_mode"] not in ACCOUNT_MODES:
            problems.append(f"account_mode must be one of {ACCOUNT_MODES}")
    if "allow_p2h" in doc:
        if kernel != "utxo":
            problems.append("allow_p2h is only valid for the utxo kernel")
        elif not isinstance(doc["allow_p2h"], bool):
            problems.append("allow_p2h must be a boolean")

    issuer = doc.get("issuer")
    if issuer is not None:
        if kernel not in ("utxo", "ecash"):
            problems.append("issuer config is only valid for utxo and ecash kernels")
        elif not isinstance(issuer, dict):
            problems.append("issuer must be an object")
        else:
            for key in issuer:
                if key not in ("seed", "denominations"):
                    problems.append(f"unknown issuer key {key!r}")
            if "seed" in issuer and not _is_name(issuer["seed"]):
                problems.append("issuer.seed must be a non-empty string")
            if kernel == "ecash":
                denoms = issuer.get("denominations")
                if (
                    not isinstance(denoms, list)
                    or not denoms
                    or not all(_is_positive(d) for d in denoms)
                ):
                    problems.append(
                        "issuer.denominations must be a non-empty list of positive integers"
                    )
            elif "denominations" in issuer:
                problems.append("issuer.denominations is only valid for the ecash kernel")
    elif kernel == "ecash":
        problems.append("ecash kernel requires an issuer config with denominations")

    participants = doc.get("participants", [])
    names: set[str] = set()
    if not isinstance(participants, list):
        problems.append("participants must be a list")
    else:
        for i, entry in enumerate(participants):
            if not isinstance(entry, dict) or not _is_name(entry.get("name")):
                problems.append(f"participant {i} must be an object with a name")
                continue
            for key in entry:
                if key not in ("name", "seed"):
                    problems.append(f"participant {i}: unknown key {key!r}")
            if "seed" in entry and not _is_name(entry["seed"]):
                problems.append(f"participant {i}: seed must be a non-empty string")
            if entry["name"] in names:
                problems.append(f"duplicate participant name {entry['name']!r}")
            names.add(entry["name"])
    if kernel != "matrix" and not names:
        problems.append(f"{kernel} kernel requires at least one participant")

    actions = doc.get("actions", [])
    allowed = _KERNEL_ACTIONS[kernel]
    if not isinstance(actions, list):
        problems.append("actions must be a list")
        actions = []
    for i, action in enumerate(actions):
        where = f"action {i}"
        if not isinstance(action, dict):
            problems.append(f"{where}: must be an object")
            continue
        name = action.get("action")
        if not isinstance(name, str) or name not in _ACTION_FIELDS:
            problems.append(f"{where}: unknown action {name!r}")
            continue
        if name not in allowed:
            problems.append(f"{where}: {name!r} is not valid for the {kernel} kernel")
            continue
        schema = _ACTION_FIELDS[name]
        for key in action:
            if key != "action" and key not in schema:
                problems.append(f"{where}: unknown field {key!r} for {name!r}")
        for field_name, (required, checker, description) in schema.items():
            if field_name not in action:
                if required:
                    problems.append(f"{where}: {name!r} requires {field_name!r}")
                continue
            if not checker(action[field_name]):  # type: ignore[operator]
                problems.append(
                    f"{where}: field {field_name!r} must be a {description}"
                )
        for field_name in ("from", "to", "wallet"):
            value = action.get(field_name)
            candidates = value if isinstance(value, list) else [value]
            for candidate in candidates:
                if isinstance(candidate, str) and _is_name(candidate) and candidate not in names:
                    problems.append(f"{where}: unknown participant {candidate!r}")
    if kernel == "matrix" and actions:
        problems.append("matrix scenarios take no actions")

    reports = doc.get("reports")
    if reports is not None:
        if not isinstance(reports, list) or not all(isinstance(r, str) for r in reports):
            problems.append("reports must be a list of strings")
        else:
            for report in reports:
                if report not in _KERNEL_REPORTS[kernel]:
                    problems.append(
                        f"report {report!r} is not available for the {kernel} kernel"
                    )

    growth = doc.get("growth")
    if growth is not None:
        if kernel not in ("account", "utxo"):
            problems.append("growth config is only valid for account and utxo kernels")
        elif not isinstance(growth, dict):
            problems.append("growth must be an object")
        else:
            for key in growth:
                if key not in ("payments", "participants"):
                    problems.append(f"unknown growth key {key!r}")
            if "payments" in growth and not _is_positive(growth["payments"]):
                problems.append("growth.payments must be a positive integer")
            if "participants" in growth and (
                not _is_positive(growth["participants"]) or growth["participants"] < 2
            ):
                problems.append("growth.participants must be an integer >= 2")
    return problems


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    name: str
    kernel: str
    crypto: str
    seed: int
    events: list[dict]
    reports: dict[str, object] = dataclass_field(default_factory=dict)


class _Runner:
    def __init__(self, doc: dict, seed: int, scheme: CryptoScheme):
        self.doc = doc
        self.seed = seed
        self.scheme = scheme
        self.kernel: str = doc["kernel"]
        self.name: str = doc.get("name", "scenario")
        self.stream = SeededStream(b"scenario:%d" % seed)
        self.events: list[dict] = []

        self.wallets: dict[str, Wallet] = {}
        for entry in doc.get("participants", []):
            wallet_seed = entry.get("seed", entry["name"])
            self.wallets[entry["name"]] = derive_wallet(
                scheme, b"participant:%d:" % seed + wallet_seed.encode("utf-8")
            )

        self.account_mode = doc.get("account_mode", "naive")
        # The kernel's table entry and state, and each entry kept for a
        # replay to name (see ledgerlab.kernels).
        self.ops = KERNEL_TABLE.get(self.kernel)
        self.state = None
        self.submitted: list = []
        self.rounds: list[RoundReport] = []

        issuer_cfg = doc.get("issuer") or {}
        issuer_seed = b"issuer:%d:" % seed + issuer_cfg.get("seed", "issuer").encode("utf-8")
        if self.ops is not None:
            self.state, self.issuer = self.ops.genesis(
                scheme, issuer_seed, doc.get("allow_p2h", True)
            )
        elif self.kernel == "ecash":
            self.bank: IssuerKeys = issuer_setup(
                list(issuer_cfg["denominations"]), issuer_seed, scheme
            )
            self.spent = SpentList()
            self.transcript = WithdrawalTranscript()
            self.coins: dict[str, list[Coin]] = {n: [] for n in self.wallets}
            # One serial stream per wallet for the whole run, so a second
            # withdraw continues it instead of repeating earlier serials.
            self.serial_streams = {
                n: self.stream.fork(f"wallet-rng-{n}") for n in self.wallets
            }

    # -- helpers -----------------------------------------------------------

    def wallet(self, name: str, index: int) -> Wallet:
        if name not in self.wallets:
            raise ScenarioError(f"unknown participant {name!r}", action_index=index)
        return self.wallets[name]

    def _token(self, index: int, action: dict) -> str:
        token = action.get("token")
        if token is None:
            raise ScenarioError(
                f"action {index}: token {action['action']} requires a token id",
                action_index=index,
            )
        return token

    def _stake(self, index: int, action: dict) -> str | int:
        """What a transfer moves: a token id on the token kernel, else an amount."""
        if self.kernel == "token":
            return self._token(index, action)
        if action.get("amount") is None:
            raise ScenarioError(
                f"action {index}: {action['action']} requires an amount",
                action_index=index,
            )
        return action["amount"]

    def _submit(self, entry) -> None:
        """Apply one entry to the kernel state and keep it for a replay."""
        self.state = self.ops.apply(self.state, entry, self.account_mode, self.scheme)
        self.submitted.append(entry)

    def _event(self, index: int, action: dict, **details: object) -> None:
        self.events.append({"index": index, "action": action["action"], **details})

    # -- action handlers ---------------------------------------------------

    def run_action(self, index: int, action: dict) -> None:
        handler = getattr(self, "_do_" + action["action"].replace("-", "_"))
        try:
            handler(index, action)
        except ScenarioError:
            raise
        except UnfundedError as exc:
            raise ScenarioError(str(exc), action_index=index) from exc
        except LedgerError as exc:
            raise ScenarioError(
                f"action {index} ({action['action']}) failed: {exc}",
                action_index=index,
            ) from exc

    def _do_issue(self, index: int, action: dict) -> None:
        to = self.wallet(action["to"], index)
        amount = action["amount"]
        token = self._token(index, action) if self.kernel == "token" else None
        self.state = self.ops.mint(self.state, to, amount, token, self.issuer, self.scheme)
        if token is not None:
            self._event(index, action, token=token, to=to.address, value=amount)
            return
        details = {"to": to.address, "amount": amount}
        if self.kernel == "utxo":
            # A coinbase is a submission a replay can name.
            self.submitted.append(self.state.log[-1])
            details.update(self.ops.describe(self.state.log[-1]))
        self._event(index, action, **details)

    def _do_pay(self, index: int, action: dict) -> None:
        payer = self.wallet(action["from"], index)
        payee = self.wallet(action["to"], index)
        entry = self.ops.transfer(
            self.state, payer, payee, self._stake(index, action),
            self.account_mode, self.scheme, action.get("nonce"),
        )
        self._submit(entry)
        details = self.ops.describe(entry)
        if self.kernel == "utxo":
            details["inputs"] = [tx_in.outpoint.render() for tx_in in entry.inputs]
            details["change"] = sum(out.value for out in entry.outputs[1:])
        self._event(index, action, **details)

    def _do_split(self, index: int, action: dict) -> None:
        payer = self.wallet(action["from"], index)
        payee = self.wallet(action["to"], index)
        amount = action["amount"]
        if "outpoint" in action:
            outpoint = UtxoId.parse(action["outpoint"])
        else:
            holdings = [
                (op, value)
                for op, value in self.ops.holdings(self.state, payer)
                if value >= amount
            ]
            if not holdings:
                raise ScenarioError(
                    f"action {index}: no single outpoint covers {amount}",
                    action_index=index,
                )
            outpoint = holdings[0][0]
        tx = split_payment(
            self.scheme, self.state, payer, outpoint, amount, lock_to_wallet(payee)
        )
        self._submit(tx)
        self._event(
            index, action, txid=txid_of(tx).hex(), outpoint=outpoint.render(),
            outputs=len(tx.outputs),
        )

    def _do_merge(self, index: int, action: dict) -> None:
        payer = self.wallet(action["from"], index)
        payee = self.wallet(action["to"], index) if "to" in action else payer
        if "outpoints" in action:
            outpoints = [UtxoId.parse(text) for text in action["outpoints"]]
        else:
            outpoints = [op for op, _ in self.ops.holdings(self.state, payer)]
        if len(outpoints) < 2:
            raise ScenarioError(
                f"action {index}: merge needs at least two outpoints",
                action_index=index,
            )
        tx = merge_payment(
            self.scheme, self.state, payer, outpoints, lock_to_wallet(payee)
        )
        self._submit(tx)
        self._event(
            index, action, txid=txid_of(tx).hex(),
            merged=[op.render() for op in outpoints],
        )

    def _do_replay(self, index: int, action: dict) -> None:
        if not self.submitted:
            raise ScenarioError(
                f"action {index}: nothing submitted yet", action_index=index
            )
        position = action.get("index", -1)
        if not -len(self.submitted) <= position < len(self.submitted):
            raise ScenarioError(
                f"action {index}: no submission at index {position}; "
                f"{len(self.submitted)} submitted",
                action_index=index,
            )
        entry = self.submitted[position]
        self.state, attempts = self.ops.replay(
            self.state, entry, action.get("times", 1), self.account_mode, self.scheme
        )
        details = self.ops.describe(entry)
        if self.kernel == "account":
            details["payer_balance"] = self.state.balance(entry.payer)
        self._event(index, action, **details, attempts=attempts)

    def _do_double_spend(self, index: int, action: dict) -> None:
        if self.kernel == "ecash":
            if action.get("wallet") is None:
                raise ScenarioError(
                    f"action {index}: ecash double-spend requires a wallet",
                    action_index=index,
                )
            self._redeem(index, action, times=2)
            return
        payer_name = action.get("from")
        pair = action.get("to")
        if payer_name is None or pair is None:
            raise ScenarioError(
                f"action {index}: double-spend requires from and to",
                action_index=index,
            )
        payer = self.wallet(payer_name, index)
        targets = [self.wallet(name, index) for name in pair]
        stake = self._stake(index, action)
        self.state, tried = self.ops.double_spend(
            self.state, payer, targets, stake, self.account_mode, self.scheme
        )
        attempts, details = [], {}
        for target, (entry, outcome) in zip(targets, tried):
            # An accepted spend can be replayed later; a token transfer
            # made here is not kept for that.
            if outcome["accepted"] and self.kernel != "token":
                self.submitted.append(entry)
            if self.kernel == "utxo":
                attempts.append({**self.ops.describe(entry), **outcome})
            else:
                attempts.append({"to": target.address, **outcome})
        if self.kernel == "token":
            details["token"] = stake
        elif self.kernel == "account":
            details["payer_balance"] = self.state.balance(payer.address)
        self._event(index, action, **details, attempts=attempts)

    def _do_broadcast_round(self, index: int, action: dict) -> None:
        payer = self.wallet(action["from"], index)
        targets = [self.wallet(name, index) for name in action["to"]]
        txs = self.ops.spends(self.state, payer, targets, action["amount"], self.scheme)
        rule = action.get("rule", "canonical-txid-order")
        round_seed = action.get("round_seed", self.seed)
        # Observational: replicas get a copy of the chainstate; the
        # scenario's own chain does not advance.
        _, report = run_round(
            self.state, txs, action.get("replicas", 3), round_seed, rule, self.scheme
        )
        self.rounds.append(report)
        self._event(
            index,
            action,
            rule=rule,
            replicas=action.get("replicas", 3),
            divergent=report.divergent,
            txids=[txid_of(tx).hex() for tx in txs],
        )

    def _do_withdraw(self, index: int, action: dict) -> None:
        wallet_name = action["wallet"]
        self.wallet(wallet_name, index)
        denomination = action["denomination"]
        count = action.get("count", 1)
        rng = self.serial_streams[wallet_name]
        serials = []
        for _ in range(count):
            coin = withdraw(
                self.bank, denomination, rng, self.scheme, transcript=self.transcript
            )
            self.coins[wallet_name].append(coin)
            serials.append(coin.serial.hex())
        self._event(index, action, denomination=denomination, serials=serials)

    def _do_redeem(self, index: int, action: dict) -> None:
        self._redeem(index, action, action.get("times", 1))

    def _redeem(self, index: int, action: dict, times: int) -> None:
        """Redeem one of a wallet's coins `times` times, logging each outcome;
        a single redemption that is refused fails the action."""
        wallet_name = action["wallet"]
        self.wallet(wallet_name, index)
        stash = self.coins.get(wallet_name, [])
        if not stash:
            raise ScenarioError(
                f"action {index}: {wallet_name!r} holds no coins", action_index=index
            )
        position = action.get("coin", -1)
        if not -len(stash) <= position < len(stash):
            raise ScenarioError(
                f"action {index}: {wallet_name!r} holds no coin at index {position}; "
                f"it holds {len(stash)}",
                action_index=index,
            )
        coin = stash[position]
        attempts = []
        for _ in range(times):
            result = redeem(self.spent, coin, self.bank, self.scheme)
            attempts.append({"accepted": result.accepted, "reason": result.reason})
        if times == 1 and not attempts[0]["accepted"]:
            raise ScenarioError(
                f"action {index}: redemption rejected: {attempts[0]['reason']}",
                action_index=index,
            )
        self._event(index, action, serial=coin.serial.hex(), attempts=attempts)

    # -- reports -----------------------------------------------------------

    def build_reports(self, wanted: list[str]) -> dict[str, object]:
        reports: dict[str, object] = {}
        matrix: dict | None = None
        for report in wanted:
            if report == "state":
                reports[report] = self.ops.snapshot(self.state)
            elif report == "metrics":
                reports[report] = measure_state(self.state).doc()
            elif report == "log":
                reports[report] = export_log(self.state)
            elif report == "growth":
                growth = self.doc.get("growth", {})
                reports[report] = growth_report(
                    growth.get("payments", 30),
                    self.kernel,  # type: ignore[arg-type]
                    self.scheme,
                    participants=growth.get("participants", 2),
                    seed=self.seed,
                )
            elif report == "rounds":
                reports[report] = {
                    "report": "replica-rounds",
                    "rounds": [r.doc() for r in self.rounds],
                }
            elif report == "coins":
                reports[report] = {
                    "report": "coins",
                    "issuer_public_keys": issuer_public_record(self.bank),
                    "wallets": {
                        name: [coin_record(c) for c in coins]
                        for name, coins in sorted(self.coins.items())
                    },
                    "spent_serials": self.spent.snapshot(),
                    "transcript": [
                        {
                            "denomination": entry.denomination,
                            "blinded_message": entry.blinded_message.hex(),
                            "blinded_signature": entry.blinded_signature.hex(),
                        }
                        for entry in self.transcript.entries()
                    ],
                    "transcript_disjoint_from_coins": self._transcript_disjoint(),
                }
            elif report in ("matrix", "tables"):
                if matrix is None:
                    matrix = matrix_report(self.seed, self.scheme)
                reports[report] = matrix if report == "matrix" else render_tables_text(matrix)
            elif report == "events":
                pass  # always emitted below
            else:  # pragma: no cover - validation precludes this
                raise ScenarioError(f"unknown report {report!r}")
        reports["events"] = {
            "report": "events",
            "scenario": self.name,
            "kernel": self.kernel,
            "crypto": self.scheme.name,
            "seed": self.seed,
            "events": self.events,
        }
        return reports

    def _transcript_disjoint(self) -> bool:
        seen = self.transcript.all_bytes()
        for coins in self.coins.values():
            for coin in coins:
                if coin.serial in seen or coin.signature in seen:
                    return False
        return True


def execute_scenario(
    doc: dict,
    *,
    seed_override: int | None = None,
    crypto_override: str | None = None,
) -> ScenarioResult:
    """Validate and run a scenario document; deterministic in (doc, seed).

    Raises ScenarioError with no action index for validation failures,
    and with the failing action's index for execution failures.
    """
    problems = validate_scenario(doc)
    if problems:
        raise ScenarioError("invalid scenario: " + "; ".join(problems))
    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    crypto = crypto_override or doc.get("crypto", "toy")
    scheme = get_scheme(crypto)
    runner = _Runner(doc, seed, scheme)
    for index, action in enumerate(doc.get("actions", [])):
        runner.run_action(index, action)
    wanted = doc.get("reports", _DEFAULT_REPORTS[runner.kernel])
    return ScenarioResult(
        name=runner.name,
        kernel=runner.kernel,
        crypto=crypto,
        seed=seed,
        events=runner.events,
        reports=runner.build_reports(list(wanted)),
    )
