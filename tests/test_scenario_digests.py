"""Byte-identity gate for the scenario runner.

Each coverage document below runs under two seeds. Together they reach
every (kernel, action) pair and every report the schema allows, plus
the runner's own ScenarioError paths. The sha256 of each outcome is
pinned in fixtures/scenario_digests.txt: for a run that completes, the
canonical JSON bundle that ``ledgerlab run`` prints; for a run that
fails, canonical JSON of the error message and its action index. A
change to the runner that alters any report byte or error string fails
here.

The same file pins, under ``fraud <scenario> <kernel>``, the report of
every fraud probe the property matrix does not run (the matrix case
already pins the rest), so no probe's evidence can drift unseen.

To regenerate the fixture after a deliberate output change:

    PYTHONPATH=src python tests/test_scenario_digests.py > tests/fixtures/scenario_digests.txt
"""

import hashlib
import pathlib

import pytest

from ledgerlab.analysis import matrix_report, run_fraud_scenario
from ledgerlab.crypto import get_scheme
from ledgerlab.encoding import canonical_json
from ledgerlab.errors import ScenarioError
from ledgerlab.scenario import execute_scenario

DIGESTS = pathlib.Path(__file__).parent / "fixtures" / "scenario_digests.txt"
SEEDS = (3, 8)
PEOPLE = ("alice", "bob", "carol")
ZERO_OUTPOINT = "00" * 32 + ":0"


def scenario(kernel, actions, reports=None, **top):
    doc = {
        "schema_version": 1,
        "name": "coverage",
        "kernel": kernel,
        "crypto": "toy",
        "participants": [{"name": name} for name in PEOPLE],
        "actions": actions,
        **top,
    }
    if reports is not None:
        doc["reports"] = reports
    return doc


def act(name, payer=None, to=None, **fields):
    """One action; payer and to fill the "from" and "to" fields when given."""
    if payer is not None:
        fields["from"] = payer
    if to is not None:
        fields["to"] = to
    return {"action": name, **fields}


def account_probes(mode):
    return scenario(
        "account",
        [
            act("issue", to="alice", amount=10),
            act("issue", to="bob", amount=5),
            act("pay", "alice", "bob", amount=3),
            act("replay", times=2),
            act("replay", index=0),
            act("double-spend", "alice", ["bob", "carol"], amount=4),
            act("replay", index=-1, times=3),
            act("pay", "bob", "carol", amount=0),
        ],
        ["state", "metrics", "growth", "events"],
        account_mode=mode,
        growth={"payments": 3, "participants": 2},
    )


def token_probes():
    return scenario(
        "token",
        [
            act("issue", to="alice", amount=5, token="note-a"),
            act("issue", to="alice", amount=7, token="note-b"),
            act("pay", "alice", "bob", token="note-a"),
            act("replay"),
            act("replay", index=0, times=2),
            act("double-spend", "alice", ["bob", "carol"], token="note-b"),
            act("replay"),
            act("pay", "bob", "bob", token="note-b"),
            act("replay", times=2),
            act("double-spend", "carol", ["alice", "bob"], token="note-a"),
        ],
        ["state", "metrics", "events"],
    )


def utxo_history(**top):
    return scenario(
        "utxo",
        [
            act("issue", to="alice", amount=50),
            act("issue", to="alice", amount=12),
            act("split", "alice", "bob", amount=20),
            act("merge", "alice"),
            act("pay", "bob", "carol", amount=5),
            act("replay"),
            act("replay", index=0, times=2),
            act("double-spend", "carol", ["alice", "bob"], amount=5),
            act("pay", "bob", "carol", amount=15),
            act("merge", "alice", "bob"),
            act("double-spend", "bob", ["alice", "carol"], amount=3),
            act("replay", index=-2),
        ],
        ["state", "metrics", "log", "growth", "rounds", "events"],
        growth={"payments": 3, "participants": 2},
        **top,
    )


def utxo_rounds():
    return scenario(
        "utxo",
        [
            act("issue", to="alice", amount=10),
            act(
                "broadcast-round", "alice", ["bob", "carol"], amount=4,
                replicas=2, rule="canonical-txid-order",
            ),
            act(
                "broadcast-round", "alice", ["bob", "carol"], amount=10,
                rule="arrival-order", round_seed=0,
            ),
            act("broadcast-round", "alice", ["bob", "carol"], amount=10),
            act("pay", "alice", "bob", amount=10),
        ],
        ["rounds", "state", "metrics"],
        issuer={"seed": "mint"},
    )


def ecash_probes():
    return scenario(
        "ecash",
        [
            act("withdraw", wallet="alice", denomination=5, count=2),
            act("withdraw", wallet="bob", denomination=10),
            act("withdraw", wallet="alice", denomination=1),
            act("redeem", wallet="alice", coin=0),
            act("redeem", wallet="bob"),
            act("double-spend", wallet="alice", coin=1),
            act("double-spend", wallet="alice"),
            act("redeem", wallet="alice", coin=0, times=3),
            act("redeem", wallet="alice", coin=-2, times=2),
        ],
        ["coins", "events"],
        issuer={"seed": "bank", "denominations": [1, 5, 10]},
    )


ISSUE_A = act("issue", to="alice", amount=10)
ISSUE_TOKEN = act("issue", to="alice", amount=5, token="note-a")
WITHDRAW = act("withdraw", wallet="alice", denomination=5)
ECASH = {"issuer": {"denominations": [5]}}

CASES = {
    "account-naive": account_probes("naive"),
    "account-nonce": account_probes("nonce-protected"),
    "account-default-reports": scenario("account", [ISSUE_A]),
    "token-probes": token_probes(),
    "token-default-reports": scenario("token", [ISSUE_TOKEN]),
    "utxo-history": utxo_history(),
    "utxo-no-p2h": utxo_history(allow_p2h=False, issuer={"seed": "mint"}),
    "utxo-rounds": utxo_rounds(),
    "utxo-default-reports": scenario("utxo", [ISSUE_A]),
    "ecash-probes": ecash_probes(),
    "ecash-default-reports": scenario("ecash", [WITHDRAW], **ECASH),
    "matrix": scenario("matrix", [], ["matrix", "tables", "events"]),
    "matrix-real": scenario("matrix", [], ["matrix", "tables", "events"], crypto="real"),
    # Runner failures: each run stops at one action with a ScenarioError.
    "fail-account-pay-no-amount": scenario(
        "account", [ISSUE_A, act("pay", "alice", "bob")]
    ),
    "fail-account-overdraft": scenario(
        "account", [ISSUE_A, act("pay", "alice", "bob", amount=11)]
    ),
    "fail-account-stale-nonce": scenario(
        "account",
        [ISSUE_A, act("pay", "alice", "bob", amount=1, nonce=4)],
        account_mode="nonce-protected",
    ),
    "fail-account-replay-empty": scenario("account", [ISSUE_A, act("replay")]),
    "fail-account-double-spend-no-to": scenario(
        "account", [ISSUE_A, act("double-spend", "alice", amount=1)]
    ),
    "fail-account-double-spend-no-amount": scenario(
        "account", [ISSUE_A, act("double-spend", "alice", ["bob", "carol"])]
    ),
    "fail-token-issue-no-id": scenario("token", [act("issue", to="alice", amount=5)]),
    "fail-token-issue-duplicate": scenario("token", [ISSUE_TOKEN, ISSUE_TOKEN]),
    "fail-token-pay-no-id": scenario(
        "token", [ISSUE_TOKEN, act("pay", "alice", "bob")]
    ),
    "fail-token-pay-not-owner": scenario(
        "token", [ISSUE_TOKEN, act("pay", "bob", "carol", token="note-a")]
    ),
    "fail-token-replay-empty": scenario("token", [ISSUE_TOKEN, act("replay")]),
    "fail-token-double-spend-no-from": scenario(
        "token", [ISSUE_TOKEN, act("double-spend", to=["bob", "carol"], token="note-a")]
    ),
    "fail-token-double-spend-no-id": scenario(
        "token", [ISSUE_TOKEN, act("double-spend", "alice", ["bob", "carol"])]
    ),
    "fail-utxo-pay-no-amount": scenario(
        "utxo", [ISSUE_A, act("pay", "alice", "bob")]
    ),
    "fail-utxo-pay-zero": scenario(
        "utxo", [ISSUE_A, act("pay", "alice", "bob", amount=0)]
    ),
    "fail-utxo-pay-unfunded": scenario(
        "utxo", [ISSUE_A, act("pay", "alice", "bob", amount=11)]
    ),
    "fail-utxo-split-uncovered": scenario(
        "utxo",
        [ISSUE_A, act("issue", to="alice", amount=9), act("split", "alice", "bob", amount=15)],
    ),
    "fail-utxo-split-unknown-outpoint": scenario(
        "utxo",
        [ISSUE_A, act("split", "alice", "bob", amount=1, outpoint=ZERO_OUTPOINT)],
    ),
    "fail-utxo-split-malformed-outpoint": scenario(
        "utxo",
        [ISSUE_A, act("split", "alice", "bob", amount=1, outpoint="x:y")],
    ),
    "fail-utxo-merge-one-holding": scenario(
        "utxo", [ISSUE_A, act("merge", "alice")]
    ),
    "fail-utxo-replay-empty": scenario("utxo", [act("replay")]),
    "fail-utxo-double-spend-unfunded": scenario(
        "utxo",
        [ISSUE_A, act("double-spend", "bob", ["alice", "carol"], amount=1)],
    ),
    "fail-utxo-double-spend-no-amount": scenario(
        "utxo", [ISSUE_A, act("double-spend", "alice", ["bob", "carol"])]
    ),
    "fail-utxo-round-unfunded": scenario(
        "utxo",
        [ISSUE_A, act("broadcast-round", "alice", ["bob", "carol"], amount=11)],
    ),
    "fail-ecash-double-spend-no-wallet": scenario(
        "ecash", [WITHDRAW, act("double-spend")], **ECASH
    ),
    "fail-ecash-double-spend-no-coins": scenario(
        "ecash", [WITHDRAW, act("double-spend", wallet="bob")], **ECASH
    ),
    "fail-ecash-redeem-no-coins": scenario(
        "ecash", [WITHDRAW, act("redeem", wallet="carol")], **ECASH
    ),
    "fail-ecash-redeem-spent": scenario(
        "ecash", [WITHDRAW, act("redeem", wallet="alice"), act("redeem", wallet="alice")],
        **ECASH,
    ),
}


# Every (scenario, kernel) fraud pair matrix_report leaves out.
FRAUD_PAIRS = (("double-spend", "account-nonce-protected"),)
FRAUD_SCENARIOS = ("double-spend", "replay")
FRAUD_KERNELS = ("utxo", "token", "account-naive", "account-nonce-protected")


def fraud_case(scenario, kernel):
    return f"fraud {scenario} {kernel}"


def fraud_outcome(scenario, kernel, seed):
    report = run_fraud_scenario(scenario, kernel, seed, get_scheme("toy"))
    return canonical_json(report.doc())


def outcome(name, seed):
    """Canonical bytes of one case's outcome under one seed."""
    try:
        result = execute_scenario(CASES[name], seed_override=seed)
    except ScenarioError as exc:
        assert exc.action_index is not None, str(exc)
        return canonical_json({"action_index": exc.action_index, "error": str(exc)})
    return canonical_json(
        {
            "scenario": result.name,
            "kernel": result.kernel,
            "crypto": result.crypto,
            "seed": result.seed,
            "reports": result.reports,
        }
    )


def digest(name, seed):
    return hashlib.sha256(outcome(name, seed).encode("utf-8")).hexdigest()


def fraud_digest(scenario, kernel, seed):
    return hashlib.sha256(fraud_outcome(scenario, kernel, seed).encode("utf-8")).hexdigest()


def pinned():
    table = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            *name, seed, value = line.split()
            table[" ".join(name), int(seed)] = value
    return table


def test_every_case_is_pinned():
    names = [*CASES, *(fraud_case(*pair) for pair in FRAUD_PAIRS)]
    assert set(pinned()) == {(name, seed) for name in names for seed in SEEDS}


def test_fraud_pins_cover_the_pairs_the_matrix_skips():
    evidence = matrix_report(SEEDS[0], get_scheme("toy"))["evidence"]
    run = {
        (scenario, report["kernel"])
        for scenario in FRAUD_SCENARIOS
        for report in evidence[scenario].values()
    }
    every = {(s, k) for s in FRAUD_SCENARIOS for k in FRAUD_KERNELS}
    assert set(FRAUD_PAIRS) == every - run


@pytest.mark.parametrize("scenario,kernel", FRAUD_PAIRS)
def test_fraud_report_is_byte_identical(scenario, kernel):
    table = pinned()
    for seed in SEEDS:
        assert fraud_digest(scenario, kernel, seed) == table[
            fraud_case(scenario, kernel), seed
        ], fraud_outcome(scenario, kernel, seed)


@pytest.mark.parametrize("name", sorted(CASES))
def test_scenario_outcome_is_byte_identical(name):
    table = pinned()
    for seed in SEEDS:
        assert digest(name, seed) == table[name, seed], outcome(name, seed)[:400]


if __name__ == "__main__":
    print("# case seed sha256(canonical outcome); see tests/test_scenario_digests.py")
    for case in sorted(CASES):
        for run_seed in SEEDS:
            print(case, run_seed, digest(case, run_seed))
    for pair in FRAUD_PAIRS:
        for run_seed in SEEDS:
            print(fraud_case(*pair), run_seed, fraud_digest(*pair, run_seed))
