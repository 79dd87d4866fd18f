"""Measure one workload in this process and print the result as JSON.

Started by run.py as a fresh child per workload, so that the child's
peak resident set size belongs to that workload alone. Takes one JSON
argument: {"workload", "seed", "seconds", "trace", "scale", "out_dir",
"spans_file"}; `out_dir` is scratch space the caller deletes afterwards.

Untraced (trace 0): set-up is repeated and its median reported, then
iterations run until `seconds` have passed. Traced (trace 1): each
iteration runs twice, untraced then traced, so the tracing overhead is
measured on identical inputs and the two output digests must match.
Every timing is reported at a fixed reference processor speed (see
REFERENCE_LOOP_S); the worker and its CLI processes share one processor.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import cryptography

import workloads
from tracer import Tracer

now = time.perf_counter

# Timings are reported at a fixed reference speed. On a shared 2-vCPU
# 2.1 GHz Xeon VM the reference loop below took anywhere from 10 to 17 ms
# within minutes, and the workloads slowed with it, so raw wall-clock
# medians of identical runs differed by a quarter. The loop is therefore
# timed whenever the workload pauses between timed sections, and each
# iteration is multiplied by REFERENCE_LOOP_S / (the loop's median time
# over that iteration and the one before it); each set-up by the same
# ratio over the probes just before and after it, and per-layer self times
# by the ratio over the whole run, which is reported as `speed_factor`.
# REFERENCE_LOOP_S is the loop's typical time on that VM with Python 3.11.
REFERENCE_LOOP_S = 0.0125


def reference_loop() -> int:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


PROBE_REPEATS = 3


class SpeedProbe:
    """Times the reference loop whenever the workload pauses."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __call__(self) -> None:
        for _ in range(PROBE_REPEATS):
            t = now()
            reference_loop()
            self.samples.append(now() - t)

    def factor(self) -> float:
        """Multiply a measured time by this to get time at reference speed."""
        return REFERENCE_LOOP_S / statistics.median(self.samples)


def per_layer_metrics(tracer: Tracer, setup_spans: dict, iteration_spans: list[dict],
                      counts_setup: dict, traced_iterations: int) -> dict:
    """Per-layer numbers for one traced set-up plus one average iteration."""
    per_layer = {}
    for name, (calls, self_s) in setup_spans.items():
        iter_calls = sum(spans[name][0] for spans in iteration_spans) / traced_iterations
        iter_self = sum(spans[name][1] for spans in iteration_spans) / traced_iterations
        per_layer[f"{name}.calls"] = {"value": calls + iter_calls, "unit": "count"}
        per_layer[f"{name}.self_s"] = {"value": self_s + iter_self, "unit": "s"}
    counts = dict(tracer.counts)
    for key, value in counts.items():
        in_setup = counts_setup.get(key, 0)
        counts[key] = in_setup + (value - in_setup) / traced_iterations
    for key in (
        "scripts.execute.faults", "utxo.utxo_apply.accepted", "utxo.utxo_validate.rejected",
        "utxo.encode_utxo_tx.bytes", "encoding.canonical_json.bytes", "analysis.flagged_rows",
        "replica.divergent_rounds", "accounts.account_apply.rejected",
        "tokens.token_transfer.rejected", "ecash.redeem.rejected",
    ):
        unit = "bytes" if key.endswith(".bytes") else "count"
        per_layer[key] = {"value": counts.get(key, 0), "unit": unit}
    accepted = counts.get("utxo.utxo_apply.accepted", 0)
    per_layer["utxo.txid_per_accept"] = {
        "value": per_layer["utxo.txid_of.calls"]["value"] / accepted if accepted else 0.0,
        "unit": "ratio",
    }
    attempts = counts.get("replica.attempts", 0)
    per_layer["replica.accept_ratio"] = {
        "value": counts.get("replica.accepted", 0) / attempts if attempts else 0.0,
        "unit": "ratio",
    }
    return per_layer


def timed_setups(workload, repeats: int) -> tuple[list[float], list[float]]:
    """Run the set-up `repeats` times; return the raw times and the times at
    reference speed, each rescaled by the probes just before and after it."""
    probe = SpeedProbe()
    setups = []
    for _ in range(repeats):
        probe()
        t = now()
        workload.setup()
        setups.append(now() - t)
    probe()
    n = PROBE_REPEATS
    at_reference = [
        seconds * REFERENCE_LOOP_S / statistics.median(probe.samples[n * k : n * k + 2 * n])
        for k, seconds in enumerate(setups)
    ]
    return setups, at_reference


def measure(spec: dict) -> dict:
    env = {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
    # One processor for the worker and the CLI processes it starts, so the
    # speed probe measures the processor the timed work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scale = workloads.SCALES[spec["scale"]]
    out_dir = Path(spec["out_dir"])
    workload = workloads.make_workload(spec["workload"], spec["seed"], scale, out_dir / "cli")
    trace = bool(spec["trace"])
    setups, setups_at_reference = timed_setups(workload, scale["setup_repeats"])
    probe = SpeedProbe()

    tracer = Tracer()
    if trace:
        tracer.install()
        try:
            workload.setup()
        finally:
            tracer.uninstall()
        setup_spans = tracer.self_times()
        counts_setup = dict(tracer.counts)

    results, traced, iteration_spans, overheads = [], [], [], []
    problems = []
    starts = []  # index of the first probe sample taken during each iteration
    deadline = now() + spec["seconds"]
    index = 0
    while index < workload.min_iterations or now() < deadline:
        starts.append(len(probe.samples))
        result = workload.run(index, probe, in_process=trace)
        probe()
        # Rescale by the speed seen during this iteration and the previous one.
        window = probe.samples[starts[max(0, index - 1)]:]
        results.append(result.scaled(REFERENCE_LOOP_S / statistics.median(window)))
        if trace:
            mark = len(tracer)
            tracer.install()
            try:
                traced_result = workload.run(index, probe, in_process=True)
            finally:
                tracer.uninstall()
            probe()
            traced.append(traced_result)
            iteration_spans.append(tracer.self_times(mark))
            # Keep the spans of the set-up and the first traced iteration only.
            if index > 0:
                tracer.truncate(mark)
            if traced_result.digest != result.digest:
                problems.append(f"iteration {index}: traced output digest differs")
            overheads.append(traced_result.seconds / result.seconds)
        index += 1

    digests = {}
    for result in results + traced:
        problems.extend(result.problems)
        if digests.setdefault(result.key, result.digest) != result.digest:
            problems.append(f"input {result.key}: output digest changed between iterations")
    output_digest = hashlib.sha256(
        json.dumps(sorted(digests.items())).encode("utf-8")
    ).hexdigest()

    factor = probe.factor()
    iteration_s = statistics.median(r.seconds for r in results)
    report = {
        "workload": workload.name,
        "seed": spec["seed"],
        "scale": spec["scale"],
        "trace": int(trace),
        "crypto": workload.crypto_mode,
        "loop": "closed loop, one client, no threads",
        "inputs": workload.input_properties(),
        "iterations": len(results),
        "attempted": sum(r.ops for r in results + traced),
        "failed": len(problems),
        "problems": problems[:20],
        "output_digest": output_digest,
        "env": env,
        "reference_loop_s": statistics.median(probe.samples),
        "speed_factor": factor,
        "setup_s": {
            "value": statistics.median(setups_at_reference),
            "unit": "s",
            "samples": len(setups),
        },
        # Every iteration of a workload does the same number of operations.
        "ops_per_s": results[0].ops / iteration_s,
        "iteration_s_p50": iteration_s,
        "detail": workload.summarize(results),
        "samples": {
            "reference_loop_s": probe.samples,
            "setup_s": setups,
            "iteration_s_at_reference": [r.seconds for r in results],
            "phases": [
                {k: v for k, v in r.phases.items() if k != "step_s"} for r in results
            ],
        },
    }
    if trace:
        per_layer = per_layer_metrics(
            tracer, setup_spans, iteration_spans, counts_setup, len(traced)
        )
        per_layer["trace.overhead_pct"] = {
            "value": 100.0 * (statistics.median(overheads) - 1.0), "unit": "%",
        }
        per_layer["trace.spans"] = {
            "value": sum(sum(c for c, _ in spans.values()) for spans in iteration_spans)
            / len(traced),
            "unit": "count",
        }
        cli_probe = workloads.CliCommands(spec["seed"], scale, out_dir / "cli")
        per_layer["cli.import_s"] = {
            "value": statistics.median(cli_probe.import_seconds() for _ in range(3)),
            "unit": "s",
        }
        report["per_layer"] = {
            name: dict(m, value=m["value"] * factor) if m["unit"] == "s" else m
            for name, m in per_layer.items()
        }
        tracer.write(Path(spec["spans_file"]))
        report["spans_file"] = spec["spans_file"]
    return report


if __name__ == "__main__":
    print(json.dumps(measure(json.loads(sys.argv[1]))))
