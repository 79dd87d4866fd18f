"""Span tracing of ledgerlab's public functions, installed from outside.

The tracer replaces selected functions with timing wrappers in every
``ledgerlab.*`` module namespace that bound them (``replica`` and
``analysis`` both import ``utxo_apply`` by name, so patching only
``ledgerlab.utxo`` would miss their calls) and on the crypto scheme
classes, whose methods callers reach through a shared instance.
``uninstall`` puts every original back.

Each span records its name, start, end and parent span in flat arrays,
so a traced iteration of thousands of transactions stays a few
megabytes. Self time is a span's duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path


def _count_if(key, predicate):
    def observe(tracer, result):
        if predicate(result):
            tracer.counts[key] += 1
    return observe


def _add_len(key):
    def observe(tracer, result):
        tracer.counts[key] += len(result)
    return observe


def _settle_counts(tracer, report):
    for outcome in report.outcomes:
        tracer.counts["replica.accepted"] += len(outcome.accepted)
        tracer.counts["replica.attempts"] += len(outcome.accepted) + len(outcome.rejected)
    tracer.counts["replica.divergent_rounds"] += int(report.divergent)


def _flagged_rows(tracer, audits):
    tracer.counts["analysis.flagged_rows"] += sum(1 for audit in audits if not audit.ok)


# (span name, module, attribute path, observer of the return value).
# A name listed twice covers one operation implemented by two classes.
TARGETS = (
    ("crypto.keygen", "ledgerlab.crypto", "ToyScheme.keygen", None),
    ("crypto.keygen", "ledgerlab.crypto", "RealScheme.keygen", None),
    ("crypto.blind_keygen", "ledgerlab.crypto", "ToyScheme.blind_keygen", None),
    ("crypto.blind_keygen", "ledgerlab.crypto", "RealScheme.blind_keygen", None),
    ("crypto.blind_sign", "ledgerlab.crypto", "CryptoScheme.blind_sign", None),
    ("crypto.sign", "ledgerlab.crypto", "ToyScheme.sign", None),
    ("crypto.sign", "ledgerlab.crypto", "RealScheme.sign", None),
    ("crypto.verify", "ledgerlab.crypto", "ToyScheme.verify", None),
    ("crypto.verify", "ledgerlab.crypto", "RealScheme.verify", None),
    ("crypto.derive_wallet", "ledgerlab.crypto", "derive_wallet", None),
    ("scripts.execute", "ledgerlab.scripts", "execute",
     _count_if("scripts.execute.faults", lambda r: r.fault is not None)),
    ("utxo.utxo_validate", "ledgerlab.utxo", "utxo_validate",
     _count_if("utxo.utxo_validate.rejected", lambda r: not r.valid)),
    ("utxo.utxo_apply", "ledgerlab.utxo", "utxo_apply",
     _count_if("utxo.utxo_apply.accepted", lambda r: True)),
    ("utxo.txid_of", "ledgerlab.utxo", "txid_of", None),
    ("utxo.encode_utxo_tx", "ledgerlab.utxo", "encode_utxo_tx",
     _add_len("utxo.encode_utxo_tx.bytes")),
    ("utxo.decode_utxo_tx", "ledgerlab.utxo", "decode_utxo_tx", None),
    ("utxo.make_spend", "ledgerlab.utxo", "make_spend", None),
    ("utxo.split_payment", "ledgerlab.utxo", "split_payment", None),
    ("utxo.chainstate_snapshot", "ledgerlab.utxo", "chainstate_snapshot", None),
    ("utxo.export_log", "ledgerlab.utxo", "export_log", None),
    ("utxo.decode_log_entries", "ledgerlab.utxo", "decode_log_entries", None),
    ("utxo.import_log", "ledgerlab.utxo", "import_log", None),
    ("encoding.canonical_json", "ledgerlab.encoding", "canonical_json",
     _add_len("encoding.canonical_json.bytes")),
    ("replica.run_round", "ledgerlab.replica", "run_round", None),
    ("replica.settle_round", "ledgerlab.replica", "settle_round", _settle_counts),
    ("replica.state_digest", "ledgerlab.replica", "state_digest", None),
    ("analysis.audit_replay", "ledgerlab.analysis", "audit_replay", _flagged_rows),
    ("analysis.audit_trace", "ledgerlab.analysis", "audit_trace", None),
    ("analysis.matrix_report", "ledgerlab.analysis", "matrix_report", None),
    ("analysis.run_fraud_scenario", "ledgerlab.analysis", "run_fraud_scenario", None),
    ("accounts.account_apply", "ledgerlab.accounts", "account_apply", None),
    ("tokens.token_transfer", "ledgerlab.tokens", "token_transfer", None),
    ("ecash.withdraw", "ledgerlab.ecash", "withdraw", None),
    ("ecash.redeem", "ledgerlab.ecash", "redeem",
     _count_if("ecash.redeem.rejected", lambda r: not r)),
    ("scenario.execute_scenario", "ledgerlab.scenario", "execute_scenario", None),
    ("cli.main", "ledgerlab.cli", "main", None),
)

# Functions whose raised exception is a rejection the caller expects.
RAISE_COUNTS = {
    "accounts.account_apply": "accounts.account_apply.rejected",
    "tokens.token_transfer": "tokens.token_transfer.rejected",
}

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in TARGETS))


class Tracer:
    """Records spans while installed; aggregates and writes them on demand."""

    def __init__(self) -> None:
        self._name_ids = {name: index for index, name in enumerate(SPAN_NAMES)}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")

    def truncate(self, length: int) -> None:
        """Forget every span recorded after the first `length`."""
        for column in (self.names, self.starts, self.ends, self.parents):
            del column[length:]

    def __len__(self) -> int:
        return len(self.names)

    def _wrap(self, name, original, observe):
        name_id = self._name_ids[name]
        raise_key = RAISE_COUNTS.get(name)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            except Exception:
                if raise_key is not None:
                    self.counts[raise_key] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for _, module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        namespaces = [
            module
            for module_name, module in list(sys.modules.items())
            if module_name == "ledgerlab" or module_name.startswith("ledgerlab.")
        ]
        for name, module_name, path, observe in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, observe)
            if owner_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for namespace in namespaces:
                for bound_name, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, bound_name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self, start: int = 0) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds) over the spans from `start` on,
        none of which may be a child of an earlier span."""
        durations = [end - begin for begin, end in zip(self.starts[start:], self.ends[start:])]
        own = list(durations)
        for offset, parent in enumerate(self.parents[start:]):
            if parent >= 0:
                own[parent - start] -= durations[offset]
        totals = {name: [0, 0.0] for name in SPAN_NAMES}
        for name_id, seconds in zip(self.names[start:], own):
            entry = totals[SPAN_NAMES[name_id]]
            entry[0] += 1
            entry[1] += seconds
        return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}

    def write(self, path: Path) -> None:
        """Write the recorded spans as one JSON document of parallel columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": list(SPAN_NAMES),
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [name_id, round(start, 9), round(end, 9), parent]
                        for name_id, start, end, parent in zip(
                            self.names, self.starts, self.ends, self.parents
                        )
                    ],
                },
                handle,
                separators=(",", ":"),
            )
