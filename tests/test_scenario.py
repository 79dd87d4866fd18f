"""Scenario schema validation and the deterministic executor."""

import copy
import json
from importlib import resources

import pytest
from conftest import json_slots
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ledgerlab.encoding import canonical_json
from ledgerlab.errors import LedgerError, ScenarioError
from ledgerlab.scenario import MAX_COUNT, execute_scenario, validate_scenario

BUNDLED = [
    "account_naive_replay.json",
    "account_nonce.json",
    "ecash_basic.json",
    "replica_round.json",
    "tables.json",
    "token_basic.json",
    "utxo_basic.json",
]


def bundled(name):
    text = (resources.files("ledgerlab") / "scenarios" / name).read_text("utf-8")
    return json.loads(text)


def account_doc():
    """Minimal valid account scenario used as the mutation base."""
    return {
        "schema_version": 1,
        "name": "unit-account",
        "kernel": "account",
        "crypto": "toy",
        "seed": 5,
        "participants": [{"name": "alice"}, {"name": "bob"}],
        "actions": [
            {"action": "issue", "to": "alice", "amount": 10},
            {"action": "pay", "from": "alice", "to": "bob", "amount": 4},
        ],
        "reports": ["state"],
    }


def problems_of(mutate):
    doc = account_doc()
    mutate(doc)
    return validate_scenario(doc)


def test_base_document_is_clean():
    assert validate_scenario(account_doc()) == []


def test_non_object_documents():
    assert validate_scenario([1, 2]) == ["scenario must be a JSON object"]
    assert validate_scenario("kernel: account") == ["scenario must be a JSON object"]


def test_top_level_schema_problems():
    assert any(
        "unknown top-level key 'flavor'" in p
        for p in problems_of(lambda d: d.update(flavor="mint"))
    )
    assert any(
        "schema_version" in p for p in problems_of(lambda d: d.update(schema_version=2))
    )
    assert any("seed" in p for p in problems_of(lambda d: d.update(seed="many")))
    assert any("name" in p for p in problems_of(lambda d: d.update(name="")))
    assert any(
        "crypto" in p for p in problems_of(lambda d: d.update(crypto="quantum"))
    )


def test_unknown_kernel_short_circuits():
    problems = validate_scenario({"schema_version": 1, "kernel": "abacus"})
    assert len(problems) == 1
    assert "kernel" in problems[0]


def test_action_validation():
    assert any(
        "unknown action 'fly'" in p
        for p in problems_of(lambda d: d["actions"].append({"action": "fly"}))
    )
    # split exists, but only for the utxo kernel
    assert any(
        "not valid for the account kernel" in p
        for p in problems_of(
            lambda d: d["actions"].append(
                {"action": "split", "from": "alice", "to": "bob", "amount": 1}
            )
        )
    )
    assert any(
        "requires 'to'" in p
        for p in problems_of(lambda d: d["actions"][1].pop("to"))
    )
    assert any(
        "unknown field 'color'" in p
        for p in problems_of(lambda d: d["actions"][0].update(color="red"))
    )
    assert any(
        "positive integer" in p
        for p in problems_of(lambda d: d["actions"][0].update(amount=-1))
    )
    # booleans are ints in Python; the schema must still refuse them
    assert any(
        "positive integer" in p
        for p in problems_of(lambda d: d["actions"][0].update(amount=True))
    )


def test_unknown_participant_references():
    assert any(
        "unknown participant 'mallory'" in p
        for p in problems_of(lambda d: d["actions"][1].update(to="mallory"))
    )
    doc = bundled("replica_round.json")
    doc["actions"][1]["to"] = ["bob", "mallory"]
    assert any("unknown participant 'mallory'" in p for p in validate_scenario(doc))


def test_duplicate_and_malformed_participants():
    assert any(
        "duplicate participant name 'alice'" in p
        for p in problems_of(lambda d: d["participants"].append({"name": "alice"}))
    )
    assert any(
        "must be an object with a name" in p
        for p in problems_of(lambda d: d["participants"].append("carol"))
    )
    assert "participants must be a list" in problems_of(
        lambda d: d.update(participants="alice")
    )


def test_kernel_scoped_settings():
    assert any(
        "only valid for the account kernel" in p
        for p in problems_of(lambda d: d.update(kernel="token", account_mode="naive"))
    )
    assert any(
        "only valid for the utxo kernel" in p
        for p in problems_of(lambda d: d.update(allow_p2h=False))
    )
    assert any(
        "only valid for utxo and ecash" in p
        for p in problems_of(lambda d: d.update(issuer={"seed": "mint"}))
    )
    assert any(
        "only valid for account and utxo" in p
        for p in problems_of(
            lambda d: d.update(kernel="token", growth={"payments": 5})
        )
    )
    assert any(
        "growth.participants" in p
        for p in problems_of(lambda d: d.update(growth={"participants": 1}))
    )


def test_list_valued_kernel_and_action_names_are_problems():
    problems = validate_scenario({"schema_version": 1, "kernel": ["account"]})
    assert len(problems) == 1
    assert "kernel" in problems[0]
    assert any(
        "unknown action [1]" in p
        for p in problems_of(lambda d: d["actions"].append({"action": [1]}))
    )


def test_matrix_takes_no_actions():
    doc = bundled("tables.json")
    doc["actions"] = [{"action": "issue", "to": "x", "amount": 1}]
    problems = validate_scenario(doc)
    assert any("matrix scenarios take no actions" in p for p in problems)


def test_ecash_requires_denominations():
    doc = bundled("ecash_basic.json")
    del doc["issuer"]["denominations"]
    assert any("denominations" in p for p in validate_scenario(doc))
    doc["issuer"]["denominations"] = [5, 0]
    assert any("denominations" in p for p in validate_scenario(doc))
    base = bundled("ecash_basic.json")
    del base["issuer"]
    assert any("requires an issuer" in p for p in validate_scenario(base))


def test_report_availability_is_per_kernel():
    assert any(
        "report 'log' is not available" in p
        for p in problems_of(lambda d: d.update(reports=["state", "log"]))
    )
    assert any(
        "ordering rule" in p
        for p in validate_scenario(
            {
                **bundled("replica_round.json"),
                "actions": [
                    {"action": "issue", "to": "alice", "amount": 10},
                    {
                        "action": "broadcast-round",
                        "from": "alice",
                        "to": ["bob", "carol"],
                        "amount": 10,
                        "rule": "random",
                    },
                ],
            }
        )
    )


def test_execute_rejects_invalid_documents():
    with pytest.raises(ScenarioError) as info:
        execute_scenario({"kernel": "account"})
    assert info.value.action_index is None
    assert str(info.value).startswith("invalid scenario")


def test_execution_failure_carries_action_index():
    doc = account_doc()
    doc["actions"][1]["amount"] = 99  # alice only holds 10
    with pytest.raises(ScenarioError) as info:
        execute_scenario(doc)
    assert info.value.action_index == 1


@pytest.mark.parametrize("filename", BUNDLED)
def test_bundled_scenarios_validate(filename):
    assert validate_scenario(bundled(filename)) == []


# Each field that sets how much work a run does: (document, setter, path, least value).
COUNTS = [
    ("account_naive_replay.json", lambda d, v: d["actions"][3].update(times=v),
     "actions[3].times", 1),
    ("account_naive_replay.json", lambda d, v: d.update(growth={"payments": v}),
     "growth.payments", 1),
    ("account_naive_replay.json", lambda d, v: d.update(growth={"participants": v}),
     "growth.participants", 2),
    ("ecash_basic.json", lambda d, v: d["actions"][0].update(count=v), "actions[0].count", 1),
    ("ecash_basic.json", lambda d, v: d["actions"][2].update(times=v), "actions[2].times", 1),
    ("replica_round.json", lambda d, v: d["actions"][1].update(replicas=v),
     "actions[1].replicas", 1),
]


@pytest.mark.parametrize("filename, set_count, where, least", COUNTS)
def test_counts_are_capped(filename, set_count, where, least):
    def problems_at(value):
        doc = bundled(filename)
        set_count(doc, value)
        return validate_scenario(doc)

    assert problems_at(least) == problems_at(MAX_COUNT) == []
    for value in (least - 1, MAX_COUNT + 1, 10**12, True):
        assert problems_at(value) == [
            f"{where} must be an integer from {least} to {MAX_COUNT}"
        ]


@pytest.mark.parametrize("filename", BUNDLED)
def test_bundled_scenarios_run_deterministically(filename):
    doc = bundled(filename)
    first = execute_scenario(copy.deepcopy(doc))
    second = execute_scenario(copy.deepcopy(doc))
    assert first.kernel == doc["kernel"]
    assert set(first.reports) == set(doc["reports"]) | {"events"}
    assert canonical_json(
        {k: v for k, v in sorted(first.reports.items())}
    ) == canonical_json({k: v for k, v in sorted(second.reports.items())})


def test_replay_refusals_keep_their_reasons():
    """A rejected replay must surface the kernel's reason strings; an
    empty reasons list here means the failure report was dropped."""
    result = execute_scenario(bundled("utxo_basic.json"))
    replays = [e for e in result.events if e["action"] == "replay"]
    assert replays
    for event in replays:
        for attempt in event["attempts"]:
            assert attempt["accepted"] is False
            assert attempt["reasons"], "refusal lost its reasons"
            assert "spent-input" in attempt["reasons"]


def test_replica_round_reports_both_rules():
    result = execute_scenario(bundled("replica_round.json"))
    rounds = result.reports["rounds"]["rounds"]
    assert len(rounds) == 2
    by_rule = {entry["rule"]: entry for entry in rounds}
    assert by_rule["canonical-txid-order"]["divergent"] is False
    assert by_rule["arrival-order"]["divergent"] is True


def test_ecash_scenario_classifies_double_deposit():
    result = execute_scenario(bundled("ecash_basic.json"))
    coins = result.reports["coins"]
    assert coins["transcript_disjoint_from_coins"] is True
    assert len(coins["spent_serials"]) == 3  # two redeems plus the probe coin
    probe = [e for e in result.events if e["action"] == "double-spend"][0]
    assert probe["attempts"][0] == {"accepted": True, "reason": None}
    assert probe["attempts"][1] == {"accepted": False, "reason": "already-spent"}


@given(
    withdrawals=st.lists(
        st.tuples(
            st.sampled_from(["alice", "bob"]), st.sampled_from([1, 5]), st.integers(1, 3)
        ),
        min_size=1,
        max_size=5,
    ),
    seed=st.integers(0, 2**32),
)
def test_every_serial_withdrawn_in_a_run_is_distinct(withdrawals, seed):
    doc = {
        "schema_version": 1,
        "name": "serials",
        "kernel": "ecash",
        "crypto": "toy",
        "seed": seed,
        "participants": [{"name": "alice"}, {"name": "bob"}],
        "issuer": {"denominations": [1, 5]},
        "actions": [
            {"action": "withdraw", "wallet": wallet, "denomination": value, "count": count}
            for wallet, value, count in withdrawals
        ],
    }
    serials = [s for event in execute_scenario(doc).events for s in event["serials"]]
    assert len(serials) == sum(count for _, _, count in withdrawals)
    assert len(set(serials)) == len(serials)


def test_seed_override_changes_the_run():
    doc = bundled("utxo_basic.json")
    default = execute_scenario(copy.deepcopy(doc))
    overridden = execute_scenario(copy.deepcopy(doc), seed_override=999)
    assert overridden.seed == 999
    assert overridden.reports["events"]["seed"] == 999
    assert canonical_json(default.reports["state"]) != canonical_json(
        overridden.reports["state"]
    )


def test_crypto_override_switches_schemes():
    doc = bundled("account_naive_replay.json")
    result = execute_scenario(doc, crypto_override="real")
    assert result.crypto == "real"
    assert result.reports["events"]["crypto"] == "real"


def test_events_report_is_always_present():
    doc = bundled("token_basic.json")
    assert "events" not in doc["reports"]
    result = execute_scenario(doc)
    events = result.reports["events"]
    assert events["kernel"] == "token"
    assert [e["index"] for e in result.events] == list(range(len(doc["actions"])))


# The toy, non-matrix bundled scenarios: `run`'s document path past parsing.
FUZZED = [name for name in BUNDLED if bundled(name)["kernel"] != "matrix"]
# Small integers only: a count such as `times` or `growth.payments` sets
# how much work a run does, not whether its document is valid. "real" is
# left out of the strings, since a real-crypto run is slow to set up.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.text(max_size=4)
    | st.sampled_from(
        ["alice", "bob", "carol", "toy", "naive", "nonce-protected", "state", "log",
         "growth", "rounds", "coins", "events", "pay", "split", "arrival-order",
         "00" * 32 + ":0"]
    ),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=4,
)


@settings(max_examples=200)
@given(data=st.data())
def test_validation_is_total_and_an_accepted_document_runs(data):
    """Replace one to three values anywhere in a bundled scenario, null
    included: validation never raises, and a document it accepts runs or
    fails only with a LedgerError (exit 3 at the CLI), never a traceback."""
    doc = bundled(data.draw(st.sampled_from(FUZZED)))
    for _ in range(data.draw(st.integers(1, 3))):
        slots = json_slots(doc, [])
        pick = st.integers(0, len(slots) - 1)
        container, key = slots[data.draw(pick)]
        # Half the time the new value is one the document already holds
        # elsewhere, which keeps more mutants valid enough to run.
        if data.draw(st.booleans()):
            source, name = slots[data.draw(pick)]
            container[key] = copy.deepcopy(source[name])
        else:
            container[key] = data.draw(JSON_VALUES)
    problems = validate_scenario(doc)
    event("accepted" if not problems else "refused")
    if not problems:
        try:
            execute_scenario(doc)
        except LedgerError:
            event("failed at an action")
