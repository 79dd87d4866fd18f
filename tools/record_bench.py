"""Record a base-versus-change benchmark comparison as BENCH_<label>.json.

Run from anywhere inside the repository, standard library only:

    python3 tools/record_bench.py --base HEAD~1 --label example --seeds 301 302 303

Both revisions (`--change` defaults to HEAD) are exported with
`git archive` into a temporary directory, so the working tree is never
used and nothing under `bench/` is touched. The workloads, the run length
and the metric directions come from the change's BENCHMARK.json. For every
workload and seed, bench/run.py runs once in each export with `--trace 0`;
the side that runs first alternates from one pair to the next, so drift on
a shared machine does not favour either side. One `--trace 1` run per side
and workload follows, at the first seed, for the per-layer counters. Last
comes the `tier1_s` leg: each side's tier-1 suite runs five times, the
sides again alternating, and its wall time and the CPU time (user plus
system) of the child process are each summarized like a metric. CPU time
is less exposed than wall time to other load on a shared machine.

The `layers` leg comes after the workloads: ten alternating pairs of
runs of this script with `--measure-layers` in each export, with that
export's `src/` on PYTHONPATH, so one measuring code times both sides'
public functions on the same fixed inputs (see `measure_layers`). Each
run prints the per-call microseconds of every layer, and each layer is
summarized like a metric.

The file written at the repository root holds the commits (with the tree
ids of their `src/`, and the newline count of their `src/**/*.py` as
`wc -l` gives it), the change's net `src/` line delta, the environment
(with the ENV_VARIABLES it was recorded under, and as `gmp` the version
of the libgmp.so.10 that loads here, null where none does: `crypto`
computes its wide modular powers through it when it loads),
every run's end-to-end metrics, output digest and `detail` metrics (the
workload's own, such as `utxo-ledger`'s `export_s`, with their
directions), and per workload and metric each side's median, quartiles
and n (`summary` for the end-to-end metrics, `detail_summary` for the
rest), plus the number of pairs the change won (ties count for neither)
and `resolved`, the test a claimed gain must pass: true only when the
change won at least nine tenths of the pairs and the two medians differ
by more than the base's interquartile range. A pair counts as
digest-identical only when both runs printed a digest and the two agree.
`all_runs_ok` is false, and the exit status 1, when any run exited
non-zero, printed no summary, failed a correctness check or failed an
operation, or when a tier-1 run exited non-zero. Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
SIDES = ("base", "change")
TIER1_RUNS = 5
LAYER_RUNS = 10
# Transactions in the layers leg's split chain, and passes over each input
# (the fastest pass counts, as timeit advises).
LAYER_TXS = 400
LAYER_PASSES = 5
# Fresh toy keys and fresh 2048-bit blind keys generated per pass: each is
# a miss of the keygen LRU.
LAYER_KEYGENS = 40
LAYER_BLIND_KEYGENS = 2
# Fresh blinded values signed per pass under one 2048-bit blind key.
LAYER_BLIND_SIGNS = 20
# Forks of one state digested per pass, one per replica of a round.
LAYER_FORKS = 8
# Double-spend pairs in the batch a replica round settles, and rounds per
# ordering rule per pass.
LAYER_PAIRS = 40
LAYER_ROUNDS = 4
# Log rows whose signature `utxo.log_first_pass` flips in its audited copy.
LAYER_TAMPERED = (1, LAYER_TXS // 2, LAYER_TXS)
# Calls of the `control.stdlib` work per pass.
LAYER_CONTROLS = 20
# Variables of the recording environment that change what a run measures
# (null where unset): compiling at every import, and hashing order.
ENV_VARIABLES = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED", "PYTHONHASHSEED")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, into: Path) -> dict:
    """Write the tree of `rev` to `into`; return the revision's identity."""
    into.mkdir()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return {
        "rev": rev,
        "commit": git("rev-parse", f"{rev}^{{commit}}"),
        "src_tree": git("rev-parse", f"{rev}:src"),
        "src_lines": sum(path.read_bytes().count(b"\n") for path in into.glob("src/**/*.py")),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def gmp_version() -> str | None:
    """`__gmp_version` of the libgmp.so.10 that loads here, or None."""
    try:
        return ctypes.c_char_p.in_dll(ctypes.CDLL("libgmp.so.10"), "__gmp_version").value.decode()
    except (OSError, ValueError):
        return None


def run_bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One bench/run.py run; its last stdout line is a JSON summary."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    run = {"seed": seed, "exit": proc.returncode}
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["error"] = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return run
    run["detail"], run["detail_better"] = {}, {}
    for line in lines:
        words = line.split()
        if line.startswith("output_digest "):
            run["output_digest"] = words[1]
        elif line.startswith("env "):
            run["env"] = dict(field.split("=", 1) for field in words[1:5])
        elif words[:1] == [workload] and words[2:3] == ["="]:
            # "<workload> <name> = <value> <unit> (<better> is better, n=<k>)"
            run["detail"][words[1]] = float(words[3])
            run["detail_better"][words[1]] = words[5].lstrip("(")
    run.update(
        correct=summary["correct"],
        attempted=summary["attempted"],
        failed=summary["failed"],
        metrics={name: m["value"] for name, m in summary["metrics"].items()},
    )
    return run


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_tier1(checkout: Path) -> dict:
    """One tier-1 run of `checkout`'s own tests against its own src/."""
    path = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    start, cpu_start = time.perf_counter(), children_cpu_s()
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return {
        "exit": proc.returncode,
        "metrics": {
            "tier1_s": time.perf_counter() - start,
            "tier1_cpu_s": children_cpu_s() - cpu_start,
        },
        "result": (proc.stdout.strip().splitlines() or ["no output"])[-1],
    }


def measure_layers() -> dict[str, float]:
    """Per-call microseconds of each layer on fixed inputs, timed in this
    process on the ledgerlab that PYTHONPATH names, through public
    functions only.

    A toy split chain of LAYER_TXS payments is built from one coinbase;
    each step times `split_payment`, then `utxo_validate` of the new
    transaction (its signature not yet verified, so the verify cache is
    cold), the same validate again (`utxo_validate_warm`, the signature
    now cached), a validate of a fresh `decode_utxo_tx` copy
    (`utxo_validate_decoded`) and `utxo_apply` (warm as well). Where a
    transaction memoizes its validation, `utxo_validate_warm` and
    `utxo_apply` are memo hits; the decoded copy carries no such memo, so
    `utxo_validate_decoded` keeps measuring the work of a validate whose
    signature is already cached. Every pass pays other amounts, so each
    pass signs and verifies anew. `scripts.execute` then
    reruns each spend's p2pkh input against the output it spends (verify
    cache warm). The chain's log times `encode_utxo_tx`, `decode_utxo_tx`
    of its bytes, `decode_utxo_tx_live`, decoding those bytes again while
    the pass holds what the first decode returned, and `txid_of` on fresh
    copies that carry no memo. `decode_utxo_tx` and the copy that
    `utxo_validate_decoded` validates are first decodes: no transaction
    decoded from those bytes is alive, as none outlives the step or row
    that made it. `log_first_pass` is the per-row cost of what a log
    auditor runs on a log exported from this pass's chain, which nothing
    holds decoded: `import_log`, then `decode_log_entries` and
    `analysis.audit_replay` of a copy whose LAYER_TAMPERED rows carry a
    flipped signature bit, then `decode_log_entries` and
    `analysis.audit_trace` of the final change output, as `utxo-ledger`
    runs them. The final state times `canonical_json` of its snapshot and
    `replica.state_digest`, which sorts every row of a head ledger.
    `replica.state_digest_fork` digests LAYER_FORKS forks of the replayed
    final state, each one spend ahead, after the state's own digest, as
    the replicas of a round digest theirs: each edits the sorted base
    rows the forks share. `utxo.fork_apply` applies a spend to the replayed
    final state once it is no longer its ledger's head, so each apply
    forks it at its fork point; the spends, LAYER_PAIRS - 1 of them, were
    validated before, so their signatures and scripts are memo hits.
    `replica.run_round_canonical` and
    `replica.run_round_arrival` are the per-round cost of `run_round` over
    LAYER_FORKS replicas of the replayed final state, LAYER_ROUNDS rounds
    per rule, each settling LAYER_PAIRS double-spend pairs of the chain's
    payee outputs, one spend of each pair to the payer and one back to
    the payee. Every round gets fresh `dataclasses.replace` copies of the
    batch, which carry no memo, so no round reuses the txids, payloads,
    verdicts or script results of the one before it; a canonical round
    that diverges fails the run. Toy keygen runs on LAYER_KEYGENS seeds
    no pass has used, and real blind keygen (`crypto.real.blind_keygen`, a
    2048-bit RSA key) on LAYER_BLIND_KEYGENS; the seeds differ from pass
    to pass and are the same on both sides. `crypto.real.blind_sign` signs
    LAYER_BLIND_SIGNS values under one 2048-bit blind key, each a message
    no pass has used, blinded by a fresh factor. Sign and verify run in both
    crypto modes on messages no pass has signed: each signature is
    verified once with a cold cache, then once warm.

    `control.stdlib` opens each pass with LAYER_CONTROLS calls of fixed
    work that uses no ledgerlab code (a SHA-256 of 16 KiB and a sort of
    10 000 shuffled ints), so it is the same program on both sides: where
    it differs between the two runs of a pair, one of them ran slow for a
    reason outside `src/`.
    """
    from ledgerlab import analysis, crypto, encoding, replica, rng, scripts, utxo

    now = time.perf_counter
    best: dict[str, float] = {}

    def record(name: str, seconds: float, calls: int) -> None:
        best[name] = min(best.get(name, float("inf")), 1e6 * seconds / calls)

    def timed(name: str, fn, items) -> list:
        start = now()
        results = [fn(item) for item in items]
        record(name, now() - start, len(items))
        return results

    def flip(tx):
        """`tx` with one bit of its first input's signature flipped."""
        tx_in = tx.inputs[0]
        signature = bytearray(tx_in.unlocking[0].operand)
        signature[0] ^= 1
        unlocking = (scripts.push(bytes(signature)),) + tx_in.unlocking[1:]
        return dataclasses.replace(tx, inputs=(dataclasses.replace(tx_in, unlocking=unlocking),))

    def first_pass(built, doc: dict, forged: dict, target) -> None:
        """Time replaying `doc`, auditing `forged` and tracing `target`
        through `doc`, as `utxo-ledger` does, and check the results. The
        replayed state and the decoded rows die on return, so no later
        pass finds their transactions alive."""
        start = now()
        replayed = utxo.import_log(doc, toy)
        key, allow_p2h, entries = utxo.decode_log_entries(forged)
        audits = analysis.audit_replay(entries, key, toy, allow_p2h=allow_p2h)
        _, _, honest = utxo.decode_log_entries(doc)
        trace = analysis.audit_trace(honest, key, toy, target, allow_p2h=allow_p2h)
        record("utxo.log_first_pass", now() - start, len(entries))
        flagged = [audit.position for audit in audits if not audit.ok]
        if (
            flagged != list(LAYER_TAMPERED) or not trace.ok
            or replica.state_digest(replayed) != replica.state_digest(built)
        ):
            raise RuntimeError("a layers-leg log replay, audit or trace went wrong")

    control_bytes = bytes(range(256)) * 64
    control_ints = random.Random(LAYER_TXS).sample(range(1 << 20), 10_000)

    def control(_) -> list[int]:
        hashlib.sha256(control_bytes).digest()
        return sorted(control_ints)

    toy = crypto.get_scheme("toy")
    real = crypto.get_scheme("real")
    blind_signer = real.blind_keygen(b"layers-blind-signer")
    issuer = toy.keygen(b"layers-issuer")
    payer = crypto.derive_wallet(toy, "layers-payer")
    payee_wallet = crypto.derive_wallet(toy, "layers-payee")
    payee = utxo.lock_to_wallet(payee_wallet)
    lock = utxo.lock_to_wallet(payer)
    coinbase = utxo.make_coinbase(toy, issuer, [(1 << 40, lock)])
    for run in range(LAYER_PASSES):
        timed("control.stdlib", control, range(LAYER_CONTROLS))
        state = utxo.replay_log([coinbase], issuer.public_key, toy)
        outpoint = utxo.UtxoId(utxo.txid_of(coinbase), 0)
        spent = dict.fromkeys(
            ["utxo.split_payment", "utxo.utxo_validate", "utxo.utxo_validate_warm",
             "utxo.utxo_validate_decoded", "utxo.utxo_apply"], 0.0,
        )
        for step in range(LAYER_TXS):
            t0 = now()
            tx = utxo.split_payment(toy, state, payer, outpoint, 1 + (step + run) % 97, payee)
            t1 = now()
            cold = utxo.utxo_validate(state, tx, toy)
            t2 = now()
            warm = utxo.utxo_validate(state, tx, toy)
            t3 = now()
            decoded_tx = utxo.decode_utxo_tx(utxo.encode_utxo_tx(tx))
            t4 = now()
            decoded = utxo.utxo_validate(state, decoded_tx, toy)
            t5 = now()
            if not (cold.valid and warm.valid and decoded.valid):
                raise RuntimeError("a layers-leg split payment failed validation")
            state = utxo.utxo_apply(state, tx, toy)
            spent["utxo.split_payment"] += t1 - t0
            spent["utxo.utxo_validate"] += t2 - t1
            spent["utxo.utxo_validate_warm"] += t3 - t2
            spent["utxo.utxo_validate_decoded"] += t5 - t4
            spent["utxo.utxo_apply"] += now() - t5
            outpoint = utxo.UtxoId(utxo.txid_of(tx), 1)
        del decoded_tx
        for name, seconds in spent.items():
            record(name, seconds, LAYER_TXS)
        log = state.log
        spends = [
            (tx.inputs[0].unlocking, scripts.ExecutionContext(utxo.utxo_signing_payload(tx), toy))
            for tx in log[1:]
        ]
        results = timed("scripts.execute", lambda s: scripts.execute(s[0], lock, s[1]), spends)
        if not all(result.ok for result in results):
            raise RuntimeError("a layers-leg p2pkh input failed its script")
        seeds = [b"layers-keygen:%d:%d" % (run, i) for i in range(LAYER_KEYGENS)]
        timed("crypto.toy.keygen", toy.keygen, seeds)
        blind_seeds = [b"layers-blind-keygen:%d:%d" % (run, i) for i in range(LAYER_BLIND_KEYGENS)]
        timed("crypto.real.blind_keygen", real.blind_keygen, blind_seeds)
        stream = rng.SeededStream(b"layers-blind-factors:%d" % run)
        blinded = [
            real.blind(
                b"layers-coin:%d:%d" % (run, i),
                real.new_blinding_factor(stream, blind_signer.public_key),
                blind_signer.public_key,
            )
            for i in range(LAYER_BLIND_SIGNS)
        ]
        timed(
            "crypto.real.blind_sign", lambda b: real.blind_sign(blind_signer.private_key, b),
            blinded,
        )
        raws = timed("utxo.encode_utxo_tx", utxo.encode_utxo_tx, log)
        held = timed("utxo.decode_utxo_tx", utxo.decode_utxo_tx, raws)
        timed("utxo.decode_utxo_tx_live", utxo.decode_utxo_tx, raws)
        del held
        doc = utxo.export_log(state)
        forged = dict(doc, txs=list(doc["txs"]))
        for row in LAYER_TAMPERED:
            raw = utxo.encode_utxo_tx(flip(log[row])).hex()
            forged["txs"][row] = dict(doc["txs"][row], raw=raw)
        first_pass(state, doc, forged, outpoint)
        fresh = [utxo.UtxoTx(tx.kind, tx.inputs, tx.outputs, tx.issuer_signature) for tx in log]
        timed("utxo.txid_of", utxo.txid_of, fresh)
        snapshot = utxo.chainstate_snapshot(state)
        timed("encoding.canonical_json", encoding.canonical_json, [snapshot] * 3)
        timed("replica.state_digest", replica.state_digest, [state] * 3)
        root = utxo.replay_log(log, issuer.public_key, toy)
        replica.state_digest(root)
        forks = [
            utxo.utxo_apply(
                root, utxo.split_payment(toy, root, payer, outpoint, 1 + fork, payee), toy
            )
            for fork in range(LAYER_FORKS)
        ]
        timed("replica.state_digest_fork", replica.state_digest, forks)
        spends = [
            utxo.split_payment(toy, root, payer, outpoint, 1 + LAYER_FORKS + k, payee)
            for k in range(LAYER_PAIRS)
        ]
        if not all(utxo.utxo_validate(root, tx, toy).valid for tx in spends):
            raise RuntimeError("a layers-leg fork spend failed validation")
        utxo.utxo_apply(root, spends[0], toy)
        timed("utxo.fork_apply", lambda tx: utxo.utxo_apply(root, tx, toy), spends[1:])
        batch = []
        for tx in log[1 : LAYER_PAIRS + 1]:
            held = utxo.UtxoId(utxo.txid_of(tx), 0)
            value = root.active[held].value
            batch += (
                utxo.make_spend(
                    toy, root, [held], [utxo.TxOutput(value, to)], signer=payee_wallet
                )
                for to in (lock, payee)
            )
        for rule in replica.ORDERING_RULES:
            seconds = 0.0
            for seed in range(LAYER_ROUNDS):
                copies = [dataclasses.replace(tx) for tx in batch]
                start = now()
                _, report = replica.run_round(root, copies, LAYER_FORKS, seed, rule, toy)
                seconds += now() - start
                if rule == "canonical-txid-order" and report.divergent:
                    raise RuntimeError("a layers-leg canonical round diverged")
            record(f"replica.run_round_{rule.split('-')[0]}", seconds, LAYER_ROUNDS)
        for mode in ("toy", "real"):
            scheme = crypto.get_scheme(mode)
            pair = scheme.keygen(b"layers-signer:" + mode.encode())
            messages = [b"layers:%d:%d" % (run, i) for i in range(LAYER_TXS)]
            signed = timed(f"crypto.{mode}.sign", lambda m: scheme.sign(pair.private_key, m), messages)
            checks = list(zip(messages, signed))
            for cache in ("cold", "warm"):
                valid = timed(
                    f"crypto.{mode}.verify_{cache}",
                    lambda check: scheme.verify(pair.public_key, *check), checks,
                )
                if not all(valid):
                    raise RuntimeError(f"a layers-leg {mode} signature did not verify")
    return best


def run_layers(checkout: Path) -> dict:
    """One `measure_layers` run against `checkout`'s own src/."""
    path = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure-layers"],
        cwd=checkout, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    run = {"exit": proc.returncode}
    try:
        run["metrics"] = json.loads(proc.stdout)
    except json.JSONDecodeError:
        run["error"] = (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return run


def alternate(label: str, count: int, run, start=lambda i: {}) -> list[dict]:
    """`count` pairs of runs, `run(side, i)` on each side of pair i: base
    first when i is even, change first when odd. `start(i)` gives the keys
    a pair holds besides its two runs."""
    pairs = []
    for i in range(count):
        pair = start(i)
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            pair[side] = done = run(side, i)
            shown = done.get("error") or done.get("result") or done.get("metrics")
            print(f"{label} pair {i} {side}: {shown}", file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def run_ok(run: dict) -> bool:
    return (
        run["exit"] == 0 and "error" not in run
        and run["correct"] is True and run["failed"] == 0
    )


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0] if values else None
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": statistics.median(values) if values else None,
        "q1": q1,
        "q3": q3,
        "iqr": None if q1 is None else q3 - q1,
        "n": len(values),
    }


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    """Per metric: each side's spread over the pairs whose runs both
    measured it, and the change's wins."""
    summary = {}
    for name, better in directions.items():
        scored = [
            (pair["base"]["metrics"][name], pair["change"]["metrics"][name])
            for pair in pairs
            if all(name in pair[side].get("metrics", {}) for side in SIDES)
        ]
        wins = sum(
            (change > base) if better == "higher" else (change < base)
            for base, change in scored
        )
        base_spread = spread([base for base, _ in scored])
        change_spread = spread([change for _, change in scored])
        summary[name] = {
            "better": better,
            "base": base_spread,
            "change": change_spread,
            "change_wins": wins,
            "pairs": len(scored),
            "resolved": bool(scored) and 10 * wins >= 9 * len(scored)
            and abs(change_spread["median"] - base_spread["median"]) > base_spread["iqr"],
        }
    return summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--change", default="HEAD", help="revision under test")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if argv is None and sys.argv[1:] == ["--measure-layers"]:
        print(json.dumps(measure_layers(), sort_keys=True))
        return 0
    args = parse_args(argv)
    doc = {
        "label": args.label,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with tempfile.TemporaryDirectory(prefix="record-bench-") as tmp:
        sides = {side: Path(tmp) / side for side in SIDES}
        for side, checkout in sides.items():
            doc[side] = export(getattr(args, side), checkout)
        doc["src_lines_delta"] = doc["change"]["src_lines"] - doc["base"]["src_lines"]
        print(f"src lines {doc['base']['src_lines']} -> {doc['change']['src_lines']} "
              f"({doc['src_lines_delta']:+d})", file=sys.stderr, flush=True)
        benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
        seconds = benchmark["run_seconds"]
        directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
        doc["settings"] = {
            "seconds": seconds,
            "seeds": args.seeds,
            "trace": 0,
            "order": "pair i runs base first when i is even, change first when odd",
        }
        doc["workloads"] = {}
        for workload in (w["name"] for w in benchmark["workloads"]):
            pairs = alternate(
                workload, len(args.seeds),
                lambda side, i: run_bench(sides[side], workload, args.seeds[i], seconds, 0),
                lambda i: {"seed": args.seeds[i], "first": SIDES[i % 2]},
            )
            detail = {
                name: better for pair in pairs for side in SIDES
                for name, better in pair[side].get("detail_better", {}).items()
            }
            detail_pairs = [
                {side: {"metrics": pair[side].get("detail", {})} for side in SIDES}
                for pair in pairs
            ]
            doc["workloads"][workload] = {
                "pairs": pairs,
                "summary": summarize(pairs, directions),
                "detail_summary": summarize(detail_pairs, detail),
                "digests_identical": all(
                    p["base"].get("output_digest") is not None
                    and p["base"].get("output_digest") == p["change"].get("output_digest")
                    for p in pairs
                ),
                "traced": {
                    side: run_bench(sides[side], workload, args.seeds[0], seconds, 1)
                    for side in SIDES
                },
            }
        layers = alternate("layers", LAYER_RUNS, lambda side, i: run_layers(sides[side]))
        names = sorted({name for pair in layers for run in pair.values()
                        for name in run.get("metrics", {})})
        doc["layers"] = {
            "unit": "us per call",
            "runs": layers,
            "summary": summarize(layers, dict.fromkeys(names, "lower")),
        }
        tier1 = alternate("tier1", TIER1_RUNS, lambda side, i: run_tier1(sides[side]))
        doc["tier1_s"] = {
            "command": " ".join(["PYTHONPATH=src python", *TIER1]),
            "runs": tier1,
            "summary": summarize(tier1, {"tier1_s": "lower"})["tier1_s"],
            "cpu_summary": summarize(tier1, {"tier1_cpu_s": "lower"})["tier1_cpu_s"],
        }
        runs = [
            run for w in doc["workloads"].values()
            for run in [*(p[side] for p in w["pairs"] for side in SIDES),
                        *w["traced"].values()]
        ]
        envs = [run["env"] for run in runs if "env" in run]
        doc["env"] = dict(
            envs[0] if envs else {}, platform=platform.platform(), cpu=cpu_model(),
            gmp=gmp_version(),
            **{name: os.environ.get(name) for name in ENV_VARIABLES},
        )
    doc["all_runs_ok"] = all(run_ok(run) for run in runs) and all(
        pair[side]["exit"] == 0 and "error" not in pair[side]
        for pair in tier1 + layers for side in pair
    )
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    if not doc["all_runs_ok"]:
        print("some runs failed; see exit, error, correct and failed per run", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
