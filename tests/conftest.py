"""Shared fixtures plus the acceptance-criteria summary section.

The acceptance tests are named test_criterion_<n>_*; after the run a
summary section prints one PASS/FAIL line per criterion so the verdict
is readable without digging through the pytest report.
"""

import pathlib
import re

import pytest
from hypothesis import settings

from ledgerlab.crypto import derive_wallet, get_scheme

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# Property tests draw the same examples on every run, within a fixed
# budget, so the suite stays deterministic and its wall time bounded.
settings.register_profile(
    "ledgerlab", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("ledgerlab")

CRITERIA = {
    1: "claim matrix reproduced exactly",
    2: "conservation over 1000 randomized txs per kernel",
    3: "log replay reproduces the active set (100 ledgers)",
    4: "script engine sound on 1000+1000 instances, 10000 fuzz scripts",
    5: "blind e-cash roundtrip and double-deposit rejection",
    6: "replica convergence and arrival-order divergence",
    7: "pseudonym growth curves exact",
    8: "bundled scenarios byte-identical per seed",
}


@pytest.fixture(scope="session")
def toy():
    return get_scheme("toy")


@pytest.fixture(scope="session")
def real():
    return get_scheme("real")


@pytest.fixture(scope="session")
def wallets(toy):
    return tuple(derive_wallet(toy, f"fixture-wallet-{i}") for i in range(4))


def read_vector_file(name):
    """Parse 'input-hex output-hex' lines; a lone field means empty input."""
    pairs = []
    for line in (FIXTURES / name).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 1:
            pairs.append((b"", bytes.fromhex(parts[0])))
        else:
            pairs.append((bytes.fromhex(parts[0]), bytes.fromhex(parts[1])))
    return pairs


def json_slots(node, found):
    """Every (container, key) pair under a JSON document, depth first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, value in items:
        found.append((node, key))
        json_slots(value, found)
    return found


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            match = re.search(r"test_criterion_(\d+)", getattr(report, "nodeid", ""))
            if match is None:
                continue
            number = int(match.group(1))
            verdicts[number] = verdicts.get(number, True) and outcome == "passed"
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(verdicts):
        label = CRITERIA.get(number, "unnamed criterion")
        status = "PASS" if verdicts[number] else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} ({label})")
