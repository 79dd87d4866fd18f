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

Validation is strict and runs before anything executes. One table per
kernel names the settings, actions and reports it takes, and one walker
checks each object's fields: a key that is present is checked whatever
its value, null included. Every problem is returned in one list.

The broadcast-round probe is observational: it copies the current
chainstate into a set of replicas, runs one delivery-and-settlement
round with a conflicting transaction pair, and records the outcome; the
scenario's own chainstate is not advanced.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, NamedTuple

from .crypto import CryptoScheme, Wallet, derive_wallet, get_scheme
from .errors import LedgerError, ScenarioError, UnfundedError
from .kernels import KERNEL_TABLE
from .rng import SeededStream

# A run imports what its document needs when it needs it: its kernel's
# module through the kernel table, `utxo` for the UTXO-only actions and
# the `log` report, `ecash` for an e-cash kernel, `replica` for a
# broadcast-round action, and `analysis` for the `matrix`, `tables` and
# `growth` reports.
if TYPE_CHECKING:
    from .ecash import Coin, IssuerKeys
    from .replica import RoundReport

SCHEMA_VERSION = 1
# The largest count a document may set (`times`, `count`, `replicas`,
# `growth.payments`, `growth.participants`): a count sets how much work a
# run does, and at this cap the slowest single count (100 real-crypto
# e-cash withdrawals) runs in about 2.5 s on a 2-vCPU Xeon VM.
MAX_COUNT = 100

CRYPTO_MODES = ("toy", "real")
ACCOUNT_MODES = ("naive", "nonce-protected")

_is_name = lambda v: isinstance(v, str) and bool(v)
_is_amount = lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0
_is_positive = lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1
_is_index = lambda v: isinstance(v, int) and not isinstance(v, bool)
_is_name_pair = lambda v: (
    isinstance(v, list) and len(v) == 2 and all(_is_name(n) for n in v)
)
_is_strings = lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)
_is_denominations = lambda v: isinstance(v, list) and bool(v) and all(map(_is_positive, v))

# A field is (required, check, message): `check` accepts a value and
# `message` says what the value must be. A field whose check is a dict of
# fields holds an object, which the walker checks in turn.
_object = lambda fields: (False, fields, "must be an object")
_NAME = (False, _is_name, "must be a non-empty string")
_LIST = (False, lambda v: isinstance(v, list), "must be a list")
_WHO = (True, _is_name, "must be a participant name")
_MAYBE_WHO = (False, _is_name, "must be a participant name")
_PAIR = (True, _is_name_pair, "must be two participant names")
_MAYBE_PAIR = (False, _is_name_pair, "must be two participant names")
_AMOUNT = (True, _is_positive, "must be a positive integer")
_POSITIVE = (False, _is_positive, "must be a positive integer")
_count = lambda low: (
    False, lambda v: _is_index(v) and low <= v <= MAX_COUNT,
    f"must be an integer from {low} to {MAX_COUNT}",
)
_COUNT = _count(1)
_NON_NEGATIVE = (False, _is_amount, "must be a non-negative integer")
_INDEX = (False, _is_index, "must be an integer")
_TOKEN = (False, _is_name, "must be a token id")
_ACCOUNT_MODE = (False, lambda v: v in ACCOUNT_MODES, f"must be one of {ACCOUNT_MODES}")
_BOOLEAN = (False, lambda v: isinstance(v, bool), "must be a boolean")
_GROWTH = _object({
    "payments": _COUNT,
    "participants": _count(2),
})
_DENOMINATIONS = (True, _is_denominations, "must be a non-empty list of positive integers")


class _Kernel(NamedTuple):
    """What a scenario for one kernel may hold beyond the common fields."""

    settings: dict[str, tuple]  # its own top-level fields
    actions: set[str]
    reports: set[str]  # every report it can emit
    default_reports: list[str]  # what it emits when the document names none


_KERNELS = {
    "account": _Kernel(
        {"account_mode": _ACCOUNT_MODE, "growth": _GROWTH},
        {"issue", "pay", "replay", "double-spend"},
        {"state", "metrics", "growth", "events"},
        ["state", "metrics"],
    ),
    "token": _Kernel(
        {},
        {"issue", "pay", "replay", "double-spend"},
        {"state", "metrics", "events"},
        ["state", "metrics"],
    ),
    "utxo": _Kernel(
        {"allow_p2h": _BOOLEAN, "issuer": _object({"seed": _NAME}), "growth": _GROWTH},
        {"issue", "pay", "split", "merge", "replay", "double-spend", "broadcast-round"},
        {"state", "metrics", "log", "growth", "rounds", "events"},
        ["state", "metrics", "log"],
    ),
    "ecash": _Kernel(
        {"issuer": _object({"seed": _NAME, "denominations": _DENOMINATIONS})},
        {"withdraw", "redeem", "double-spend"},
        {"coins", "events"},
        ["coins"],
    ),
    "matrix": _Kernel({}, set(), {"matrix", "tables", "events"}, ["matrix", "tables"]),
}
KERNELS = tuple(_KERNELS)

_COMMON = {
    "schema_version": (True, lambda v: v == SCHEMA_VERSION, f"must be {SCHEMA_VERSION}"),
    "kernel": (True, lambda v: v in KERNELS, f"must be one of {KERNELS}"),
    "name": _NAME,
    "crypto": (False, lambda v: v in CRYPTO_MODES, f"must be one of {CRYPTO_MODES}"),
    "seed": _NON_NEGATIVE,
    "participants": _LIST,
    "actions": _LIST,
    "reports": (False, _is_strings, "must be a list of strings"),
}


def _only_valid_for(setting: str) -> tuple:
    """The field a setting is on a kernel that does not take it: no value is valid."""
    users = [kernel for kernel, entry in _KERNELS.items() if setting in entry.settings]
    where = f"the {users[0]} kernel" if len(users) == 1 else f"{' and '.join(users)} kernels"
    return (False, lambda v: False, f"is only valid for {where}")


# Every kernel's settings as fields of the others; a kernel's own
# settings replace these entries.
_ELSEWHERE = {s: _only_valid_for(s) for entry in _KERNELS.values() for s in entry.settings}


def _ordering_rules() -> tuple[str, ...]:
    """The replica harness's rules, loaded when a document names one."""
    from .replica import ORDERING_RULES

    return ORDERING_RULES


_ACTION_FIELDS: dict[str, dict[str, tuple]] = {
    "issue": {"to": _WHO, "amount": _AMOUNT, "token": _TOKEN},
    "pay": {
        "from": _WHO, "to": _WHO, "amount": _NON_NEGATIVE, "token": _TOKEN,
        "nonce": _NON_NEGATIVE,
    },
    "split": {
        "from": _WHO, "to": _WHO, "amount": _AMOUNT,
        "outpoint": (False, lambda v: isinstance(v, str), "must be a txid:index"),
    },
    "merge": {
        "from": _WHO, "to": _MAYBE_WHO,
        "outpoints": (False, _is_strings, "must be a list of txid:index"),
    },
    "replay": {"index": _INDEX, "times": _COUNT},
    "double-spend": {
        "from": _MAYBE_WHO, "to": _MAYBE_PAIR, "amount": _POSITIVE, "token": _TOKEN,
        "wallet": _MAYBE_WHO, "coin": _INDEX,
    },
    "broadcast-round": {
        "from": _WHO, "to": _PAIR, "amount": _AMOUNT, "replicas": _COUNT,
        "rule": (False, lambda v: v in _ordering_rules(), "must be an ordering rule"),
        "round_seed": _INDEX,
    },
    "withdraw": {"wallet": _WHO, "denomination": _AMOUNT, "count": _COUNT},
    "redeem": {"wallet": _WHO, "coin": _INDEX, "times": _COUNT},
}


def _check_fields(where: str, obj: dict, fields: dict, problems: list[str]) -> None:
    """Check one object's keys and values against its fields.

    `where` names the object in each message, and is "" for the document
    itself. A key that is present is checked whatever its value, null
    included, because the runner reads every present key as given.
    """
    at = f"{where}: " if where else ""
    for key in obj:
        if key not in fields:
            problems.append(
                f"{at}unknown field {key!r}" if where else f"unknown top-level key {key!r}"
            )
    for key, (required, check, message) in fields.items():
        name = f"{where}.{key}" if where else key
        if key not in obj:
            if required:
                problems.append(f"{at}requires {key!r}")
        elif isinstance(check, dict) and isinstance(obj[key], dict):
            _check_fields(name, obj[key], check, problems)
        elif isinstance(check, dict) or not check(obj[key]):
            problems.append(f"{name} {message}")


def validate_scenario(doc: object) -> list[str]:
    """Check a scenario document against the schema; return all problems."""
    if not isinstance(doc, dict):
        return ["scenario must be a JSON object"]
    kernel = doc.get("kernel")
    if kernel not in KERNELS:  # what else is valid depends on the kernel
        return [f"kernel must be one of {KERNELS}, got {kernel!r}"]
    schema = _KERNELS[kernel]
    problems: list[str] = []
    _check_fields("", doc, {**_COMMON, **_ELSEWHERE, **schema.settings}, problems)
    if kernel == "ecash" and "issuer" not in doc:
        problems.append("ecash kernel requires an issuer config with denominations")

    participants = doc.get("participants", [])
    names: set[str] = set()
    for i, entry in enumerate(participants if isinstance(participants, list) else []):
        where = f"participants[{i}]"
        if not isinstance(entry, dict) or not _is_name(entry.get("name")):
            problems.append(f"{where} must be an object with a name")
            continue
        _check_fields(where, entry, {"name": _NAME, "seed": _NAME}, problems)
        if entry["name"] in names:
            problems.append(f"duplicate participant name {entry['name']!r}")
        names.add(entry["name"])
    if schema.actions and not names:  # a kernel that takes actions needs an actor
        problems.append(f"{kernel} kernel requires at least one participant")

    actions = doc.get("actions", [])
    actions = actions if isinstance(actions, list) else []
    for i, action in enumerate(actions):
        where = f"actions[{i}]"
        if not isinstance(action, dict):
            problems.append(f"{where} must be an object")
            continue
        name = action.get("action")
        if not isinstance(name, str) or name not in _ACTION_FIELDS:
            problems.append(f"{where}: unknown action {name!r}")
            continue
        if name not in schema.actions:
            problems.append(f"{where}: {name!r} is not valid for the {kernel} kernel")
            continue
        _check_fields(where, action, {"action": _NAME, **_ACTION_FIELDS[name]}, problems)
        for key in ("from", "to", "wallet"):
            value = action.get(key)
            for candidate in value if isinstance(value, list) else [value]:
                if _is_name(candidate) and candidate not in names:
                    problems.append(f"{where}: unknown participant {candidate!r}")
    if actions and not schema.actions:
        problems.append(f"{kernel} scenarios take no actions")

    reports = doc.get("reports", [])
    for report in reports if _is_strings(reports) else []:
        if report not in schema.reports:
            problems.append(f"report {report!r} is not available for the {kernel} kernel")
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
            from .ecash import SpentList, WithdrawalTranscript, issuer_setup

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
        to = self.wallets[action["to"]]
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
        payer = self.wallets[action["from"]]
        payee = self.wallets[action["to"]]
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
        from .utxo import UtxoId, lock_to_wallet, split_payment, txid_of

        payer = self.wallets[action["from"]]
        payee = self.wallets[action["to"]]
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
        from .utxo import UtxoId, lock_to_wallet, merge_payment, txid_of

        payer = self.wallets[action["from"]]
        payee = self.wallets[action["to"]] if "to" in action else payer
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
        payer = self.wallets[payer_name]
        targets = [self.wallets[name] for name in pair]
        stake = self._stake(index, action)
        self.state, tried = self.ops.double_spend(
            self.state, payer, targets, stake, self.account_mode, self.scheme
        )
        attempts, details = [], {}
        for target, (entry, outcome) in zip(targets, tried):
            if outcome["accepted"]:  # kept for a later replay
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
        from .replica import run_round
        from .utxo import txid_of

        payer = self.wallets[action["from"]]
        targets = [self.wallets[name] for name in action["to"]]
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
        from .ecash import withdraw

        wallet_name = action["wallet"]
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
        from .ecash import redeem

        wallet_name = action["wallet"]
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
                reports[report] = self.ops.metrics(self.state).doc()
            elif report == "log":
                from .utxo import export_log

                reports[report] = export_log(self.state)
            elif report == "growth":
                from .analysis import growth_report

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
                from .ecash import coin_record, issuer_public_record

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
                from .analysis import matrix_report, render_tables_text

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
    doc: object,
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
    wanted = doc.get("reports", _KERNELS[runner.kernel].default_reports)
    return ScenarioResult(
        name=runner.name,
        kernel=runner.kernel,
        crypto=crypto,
        seed=seed,
        events=runner.events,
        reports=runner.build_reports(list(wanted)),
    )
