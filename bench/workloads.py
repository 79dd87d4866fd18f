"""The three benchmark workloads, each driven through ledgerlab's public API.

Every workload is a closed loop with one client: one process, no threads,
the next operation starts only when the previous one has returned. Each
has a set-up (timed separately, repeated, median reported) and an
iteration that is repeated until the run's time is spent. Iterations
cycle over a fixed set of seed-derived inputs, so every iteration of the
same input must produce the same output digest; that doubles as the
determinism check and as the traced-versus-untraced check.

Functions are always looked up through their module at call time
(``utxo.utxo_apply``, never a name imported into this file), so the
tracer's wrappers see the benchmark's own calls.

* ``utxo-ledger``: the honest-history path. A chain of split payments is
  built, exported, replayed, audited against a tampered copy and traced
  back to its coinbase. Toy crypto, so signature cost does not hide
  kernel cost; state grows with the chain.
* ``replica-conflict``: the same UTXO kernel under conflict. Rounds of
  eight replicas settle batches of double-spend pairs plus a few
  conflict-free spends over a fixed history, under both ordering rules.
  Real (Ed25519) crypto; about half the attempts are rejected.
* ``cli-commands``: what a lab user waits on. Sequential ``python -m
  ledgerlab.cli`` subprocesses over the bundled scenarios; tiny ledgers,
  so startup and key generation dominate. Traced runs call
  ``ledgerlab.cli.main`` in-process instead, so the wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ledgerlab.analysis as analysis
import ledgerlab.cli as cli
import ledgerlab.crypto as crypto
import ledgerlab.encoding as encoding
import ledgerlab.replica as replica
import ledgerlab.scripts as scripts
import ledgerlab.utxo as utxo

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO_DIR = SRC / "ledgerlab" / "scenarios"

# Input sizes. "full" is what the benchmark measures; "tiny" only exists
# so the smoke tests can exercise every check in a few seconds.
SCALES = {
    "full": {
        "setup_repeats": 5,
        "chain_txs": 3000,
        "tampered_rows": 3,
        "payees": 16,
        "history_txs": 2000,
        "holders": 16,
        "conflict_pairs": 40,
        "free_spends": 8,
        "replicas": 8,
        "batches": 3,
        "startup_samples": 3,
        "toy_scenarios": None,
        "real_ecash": True,
    },
    "tiny": {
        "setup_repeats": 2,
        "chain_txs": 40,
        "tampered_rows": 2,
        "payees": 3,
        "history_txs": 30,
        "holders": 4,
        "conflict_pairs": 3,
        "free_spends": 2,
        "replicas": 3,
        "batches": 2,
        "startup_samples": 1,
        "toy_scenarios": ["utxo_basic.json", "token_basic.json"],
        "real_ecash": False,
    },
}

# What `ledgerlab tables` must print (the matrix shown in README.md).
README_MATRIX = """\
property      account                                          token      utxo
------------  -----------------------------------------------  ---------  ---------
double-spend  prevented-by-balance                             prevented  prevented
replay        succeeded (naive) / prevented (nonce-protected)  prevented  prevented
traceability  no                                               no         yes
"""

now = time.perf_counter


@dataclasses.dataclass
class Iteration:
    """One timed iteration: its input key, output digest and measurements.

    `phases` holds only durations in seconds (single values or lists), so
    that `scaled` can rescale the whole iteration; `counts` holds the rest.
    """

    key: str
    digest: str
    seconds: float
    ops: int
    phases: dict
    problems: list
    counts: dict = dataclasses.field(default_factory=dict)

    def scaled(self, factor: float) -> "Iteration":
        return dataclasses.replace(
            self,
            seconds=self.seconds * factor,
            phases={
                name: [v * factor for v in value] if isinstance(value, list) else value * factor
                for name, value in self.phases.items()
            },
        )


def sha256_hex(*parts: bytes | str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


median = statistics.median


def metric(value, unit, better, samples):
    return {"value": value, "unit": unit, "better": better, "samples": samples}


# ---------------------------------------------------------------------------
# utxo-ledger
# ---------------------------------------------------------------------------


class UtxoLedger:
    name = "utxo-ledger"
    crypto_mode = "toy"

    def __init__(self, seed: int, scale: dict):
        self.seed = seed
        self.scale = scale
        self.min_iterations = 1

    def input_properties(self) -> dict:
        s = self.scale
        return {
            "chain_txs": s["chain_txs"],
            "log_rows": s["chain_txs"] + 1,
            "tampered_rows": s["tampered_rows"],
            "conflicting_share": 0.0,
            "replicas": 0,
        }

    def setup(self) -> None:
        s = self.scale
        scheme = crypto.get_scheme(self.crypto_mode)
        rng = random.Random(f"utxo-ledger:{self.seed}")
        issuer = scheme.keygen(b"bench-issuer:%d" % self.seed)
        self.payer = crypto.derive_wallet(scheme, f"bench-payer:{self.seed}")
        payees = [
            crypto.derive_wallet(scheme, f"bench-payee:{self.seed}:{i}")
            for i in range(s["payees"])
        ]
        locks = [utxo.lock_to_wallet(wallet) for wallet in payees]
        n = s["chain_txs"]
        self.payments = [
            (rng.randint(1, 99), locks[rng.randrange(len(locks))]) for _ in range(n)
        ]
        minted = sum(amount for amount, _ in self.payments) + rng.randint(1, 999)
        coinbase = utxo.make_coinbase(
            scheme, issuer, [(minted, utxo.lock_to_wallet(self.payer))]
        )
        genesis = utxo.Chainstate.genesis(issuer.public_key)
        self.start = utxo.utxo_apply(genesis, coinbase, scheme)
        self.coinbase_out = utxo.UtxoId(txid=utxo.txid_of(coinbase), index=0)
        # Log row 0 is the coinbase; tamper only with rows that carry a signature.
        self.tampered = sorted(rng.sample(range(1, n + 1), s["tampered_rows"]))
        self.flip_at = [rng.randrange(64) for _ in self.tampered]
        self.scheme = scheme

    def _tampered_copy(self, doc: dict) -> dict:
        """Flip one byte inside the unlocking signature of the chosen rows,
        keeping each row's recorded txid."""
        rows = list(doc["txs"])
        for position, flip in zip(self.tampered, self.flip_at):
            tx = utxo.decode_utxo_tx(bytes.fromhex(rows[position]["raw"]))
            tx_in = tx.inputs[0]
            signature = bytearray(tx_in.unlocking[0].operand)
            signature[flip % len(signature)] ^= 0x01
            unlocking = (scripts.push(bytes(signature)),) + tx_in.unlocking[1:]
            forged = dataclasses.replace(
                tx, inputs=(dataclasses.replace(tx_in, unlocking=unlocking),)
            )
            rows[position] = {
                "txid": rows[position]["txid"],
                "raw": utxo.encode_utxo_tx(forged).hex(),
            }
        return dict(doc, txs=rows)

    def run(self, index: int, pause, in_process: bool = False) -> Iteration:
        scheme, n = self.scheme, self.scale["chain_txs"]
        problems = []

        state, outpoint = self.start, self.coinbase_out
        steps = []
        for amount, lock in self.payments:
            t = now()
            tx = utxo.split_payment(scheme, state, self.payer, outpoint, amount, lock)
            state = utxo.utxo_apply(state, tx, scheme)
            steps.append(now() - t)
            outpoint = utxo.UtxoId(txid=utxo.txid_of(tx), index=1)
        build_s = sum(steps)
        pause()

        t = now()
        doc = utxo.export_log(state)
        text = encoding.canonical_json(doc)
        snapshot = utxo.chainstate_snapshot(state)
        built_digest = replica.state_digest(state)
        export_s = now() - t
        if len(snapshot["active"]) != n + 1:
            problems.append(f"active set holds {len(snapshot['active'])}, expected {n + 1}")
        pause()

        parsed = json.loads(text)
        t = now()
        replayed = utxo.import_log(parsed, scheme)
        replay_s = now() - t
        if replica.state_digest(replayed) != built_digest:
            problems.append("import_log state digest differs from the built state")
        pause()

        tampered_doc = self._tampered_copy(parsed)
        t = now()
        issuer_key, allow_p2h, entries = utxo.decode_log_entries(tampered_doc)
        audits = analysis.audit_replay(entries, issuer_key, scheme, allow_p2h=allow_p2h)
        audit_s = now() - t
        flagged = [audit.position for audit in audits if not audit.ok]
        if flagged != self.tampered:
            problems.append(f"audit flagged rows {flagged}, tampered {self.tampered}")
        pause()

        _, _, honest = utxo.decode_log_entries(parsed)
        t = now()
        trace = analysis.audit_trace(honest, issuer_key, scheme, outpoint, allow_p2h=allow_p2h)
        trace_s = now() - t
        if not (
            len(trace.steps) == n + 1
            and trace.steps[-1].kind == "coinbase"
            and trace.steps[-1].produced == self.coinbase_out
            and trace.ok
        ):
            problems.append(f"trace of {len(trace.steps)} steps does not end at the coinbase")

        digest = sha256_hex(
            built_digest,
            hashlib.sha256(text.encode("utf-8")).hexdigest(),
            json.dumps(flagged),
            json.dumps(trace.doc(), sort_keys=True),
        )
        return Iteration(
            key="chain",
            digest=digest,
            seconds=build_s + export_s + replay_s + audit_s + trace_s,
            # Transactions built, then log rows replayed, audited and traced.
            ops=n + 3 * (n + 1),
            phases={
                "build_s": build_s,
                "step_s": steps,
                "export_s": export_s,
                "replay_s": replay_s,
                "audit_s": audit_s,
                "trace_s": trace_s,
            },
            problems=problems,
        )

    def summarize(self, results: list[Iteration]) -> dict:
        rows = self.scale["chain_txs"] + 1
        k = len(results)
        phase = lambda name: [r.phases[name] for r in results]
        steps = sorted(s for r in results for s in r.phases["step_s"])
        tenth = max(1, self.scale["chain_txs"] // 10)
        growth = [sum(r.phases["step_s"][-tenth:]) / sum(r.phases["step_s"][:tenth]) for r in results]
        build_tx_per_s = self.scale["chain_txs"] / median(phase("build_s"))
        detail = {
            "build_tx_per_s": metric(build_tx_per_s, "1/s", "higher", k),
            "build_growth_ratio": metric(median(growth), "ratio", "lower", k),
            "build_step_us_p50": metric(1e6 * median(steps), "us", "lower", len(steps)),
            "build_step_us_p99": metric(
                1e6 * steps[int(0.99 * (len(steps) - 1))], "us", "lower", len(steps)
            ),
            "replay_tx_per_s": metric(rows / median(phase("replay_s")), "1/s", "higher", k),
            "audit_tx_per_s": metric(rows / median(phase("audit_s")), "1/s", "higher", k),
            "trace_s": metric(median(phase("trace_s")), "s", "lower", k),
            "export_s": metric(median(phase("export_s")), "s", "lower", k),
        }
        return detail


# ---------------------------------------------------------------------------
# replica-conflict
# ---------------------------------------------------------------------------


RULES = ("canonical-txid-order", "arrival-order")


class ReplicaConflict:
    name = "replica-conflict"
    crypto_mode = "real"

    def __init__(self, seed: int, scale: dict):
        self.seed = seed
        self.scale = scale
        # Every batch settles once under each rule.
        self.min_iterations = 2 * scale["batches"]

    def input_properties(self) -> dict:
        s = self.scale
        batch = 2 * s["conflict_pairs"] + s["free_spends"]
        return {
            "history_txs": s["history_txs"],
            "batch_txs": batch,
            "conflicting_share": 2 * s["conflict_pairs"] / batch,
            "replicas": s["replicas"],
            "batches": s["batches"],
        }

    def setup(self) -> None:
        s = self.scale
        scheme = crypto.get_scheme(self.crypto_mode)
        rng = random.Random(f"replica-conflict:{self.seed}")
        issuer = scheme.keygen(b"bench-issuer:%d" % self.seed)
        payer = crypto.derive_wallet(scheme, f"bench-payer:{self.seed}")
        holders = [
            crypto.derive_wallet(scheme, f"bench-holder:{self.seed}:{i}")
            for i in range(s["holders"])
        ]
        locks = [utxo.lock_to_wallet(wallet) for wallet in holders]
        payments = [
            (rng.randint(1, 99), rng.randrange(len(holders)))
            for _ in range(s["history_txs"])
        ]
        minted = sum(amount for amount, _ in payments) + rng.randint(1, 999)
        coinbase = utxo.make_coinbase(scheme, issuer, [(minted, utxo.lock_to_wallet(payer))])
        state = utxo.utxo_apply(utxo.Chainstate.genesis(issuer.public_key), coinbase, scheme)
        outpoint = utxo.UtxoId(txid=utxo.txid_of(coinbase), index=0)
        holdings = []  # (outpoint, holder index, value)
        for amount, holder in payments:
            tx = utxo.split_payment(scheme, state, payer, outpoint, amount, locks[holder])
            state = utxo.utxo_apply(state, tx, scheme)
            txid = utxo.txid_of(tx)
            holdings.append((utxo.UtxoId(txid=txid, index=0), holder, amount))
            outpoint = utxo.UtxoId(txid=txid, index=1)

        def spend(holding, to):
            op, holder, value = holding
            return utxo.make_spend(
                scheme, state, [op], [utxo.TxOutput(value=value, locking=locks[to])],
                signer=holders[holder],
            )

        self.batches = []
        for _ in range(s["batches"]):
            chosen = rng.sample(holdings, s["conflict_pairs"] + s["free_spends"])
            pairs, txs = [], []
            for holding in chosen[: s["conflict_pairs"]]:
                first, second = rng.sample(
                    [i for i in range(len(holders)) if i != holding[1]], 2
                )
                pair = (spend(holding, first), spend(holding, second))
                pairs.append(tuple(utxo.txid_of(tx).hex() for tx in pair))
                txs.extend(pair)
            free = [spend(holding, rng.randrange(len(holders))) for holding in chosen[s["conflict_pairs"]:]]
            txs.extend(free)
            rng.shuffle(txs)
            self.batches.append(
                {
                    "txs": txs,
                    "pairs": pairs,
                    "free": {utxo.txid_of(tx).hex() for tx in free},
                    "round_seed": rng.randrange(1 << 32),
                }
            )
        self.history = state
        self.scheme = scheme

    def run(self, index: int, pause, in_process: bool = False) -> Iteration:
        s = self.scale
        batch_index = (index // 2) % s["batches"]
        rule = RULES[index % 2]
        batch = self.batches[batch_index]
        t = now()
        _, report = replica.run_round(
            self.history, batch["txs"], s["replicas"], batch["round_seed"], rule, self.scheme
        )
        seconds = now() - t

        problems = []
        if rule == "canonical-txid-order" and report.divergent:
            problems.append(f"batch {batch_index}: canonical order diverged")
        rejected = 0
        for outcome in report.outcomes:
            accepted = set(outcome.accepted)
            rejected += len(outcome.rejected)
            wins = [sum(txid in accepted for txid in pair) for pair in batch["pairs"]]
            if any(w != 1 for w in wins) or not batch["free"] <= accepted:
                problems.append(
                    f"batch {batch_index} {rule}: replica {outcome.replica_id} accepted "
                    f"{wins.count(1)}/{len(wins)} pairs once, "
                    f"{len(batch['free'] & accepted)}/{len(batch['free'])} free spends"
                )
        attempts = s["replicas"] * len(batch["txs"])
        return Iteration(
            key=f"{batch_index}:{rule}",
            digest=sha256_hex(json.dumps(report.doc(), sort_keys=True)),
            seconds=seconds,
            ops=attempts,
            phases={},
            problems=problems,
            counts={"rejected": rejected, "divergent": int(report.divergent)},
        )

    def summarize(self, results: list[Iteration]) -> dict:
        attempts = sum(r.ops for r in results)
        settle_tx_per_s = results[0].ops / median([r.seconds for r in results])
        arrival = [r for r in results if r.key.endswith("arrival-order")]
        detail = {
            "settle_tx_per_s": metric(settle_tx_per_s, "1/s", "higher", len(results)),
            "round_ms_p50": metric(
                1e3 * median([r.seconds for r in results]), "ms", "lower", len(results)
            ),
            "rejected_share": metric(
                sum(r.counts["rejected"] for r in results) / attempts, "ratio", "lower",
                len(results),
            ),
            "arrival_divergent_share": metric(
                sum(r.counts["divergent"] for r in arrival) / len(arrival), "ratio", "lower",
                len(arrival),
            ),
        }
        return detail


# ---------------------------------------------------------------------------
# cli-commands
# ---------------------------------------------------------------------------


class CliCommands:
    name = "cli-commands"
    crypto_mode = "toy + real"

    def __init__(self, seed: int, scale: dict, out_dir: Path):
        self.seed = seed
        self.scale = scale
        self.out_dir = out_dir
        # Two sweeps at least: their reports must be byte-identical.
        self.min_iterations = 2
        self.env = {k: v for k, v in os.environ.items() if k != "LEDGERLAB_SEED"}
        self.env["PYTHONPATH"] = str(SRC)

    def input_properties(self) -> dict:
        return {
            "toy_scenarios": len(self._toy_scenarios()),
            "real_ecash": self.scale["real_ecash"],
            "conflicting_share": 0.0,
            "replicas": 3,
        }

    def _toy_scenarios(self) -> list[str]:
        names = self.scale["toy_scenarios"]
        return names or sorted(p.name for p in SCENARIO_DIR.glob("*.json"))

    def _python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], env=self.env, cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )

    def import_seconds(self) -> float:
        """Time of `import ledgerlab.cli` inside a fresh interpreter."""
        done = self._python(
            "-c",
            "import time; t = time.perf_counter(); import ledgerlab.cli; "
            "print(time.perf_counter() - t)",
        )
        return float(done.stdout.strip())

    def setup(self) -> None:
        # What a user pays before the first command: the interpreter and
        # package import, including writing bytecode caches when cold.
        self.out_dir.mkdir(parents=True, exist_ok=True)
        done = self._python("-c", "import ledgerlab.cli")
        if done.returncode != 0:
            raise RuntimeError(f"cannot import ledgerlab.cli: {done.stderr}")
        self.cli_seed = random.Random(f"cli-commands:{self.seed}").randrange(1, 1 << 31)

    def _commands(self, sweep_dir: Path) -> list[tuple[str, list[str]]]:
        seed = str(self.cli_seed)
        commands = [
            ("scenario", ["run", str(SCENARIO_DIR / name), "--seed", seed,
                          "--out", str(sweep_dir / Path(name).stem)])
            for name in self._toy_scenarios()
        ]
        if self.scale["real_ecash"]:
            # Pinned to the scenario file's own seed: 2048-bit blind keygen
            # cost swings 2x between seeds (prime search), which would bury
            # every other change to this workload.
            commands.append(("ecash_real", [
                "run", str(SCENARIO_DIR / "ecash_basic.json"), "--crypto", "real",
                "--out", str(sweep_dir / "ecash_real"),
            ]))
        commands.append(("tables", ["tables", "--seed", seed]))
        utxo_dir = sweep_dir / "utxo_basic"
        commands.append(("inspect", ["inspect", str(utxo_dir / "state.json")]))
        # The trace target, the first output of the last logged transaction,
        # is read from the log once the utxo_basic run has written it.
        commands.append(("trace", ["trace", str(utxo_dir / "log.json")]))
        return commands

    def _invoke(self, argv: list[str], in_process: bool) -> tuple[int, str]:
        if not in_process:
            done = self._python("-m", "ledgerlab.cli", *argv)
            return done.returncode, done.stdout
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def run(self, index: int, pause, in_process: bool = False) -> Iteration:
        sweep_dir = self.out_dir / f"sweep-{index}"
        shutil.rmtree(sweep_dir, ignore_errors=True)
        problems, timings, outputs = [], {}, []
        if not in_process:
            startups = []
            for _ in range(self.scale["startup_samples"]):
                t = now()
                done = self._python("-c", "import ledgerlab.cli")
                startups.append(now() - t)
                pause()
                if done.returncode != 0:
                    problems.append(f"import ledgerlab.cli exited {done.returncode}")
            timings["startup_s"] = startups
        for kind, argv in self._commands(sweep_dir):
            if kind == "trace":
                rows = json.loads(Path(argv[-1]).read_text(encoding="utf-8"))["txs"]
                argv = argv + [rows[-1]["txid"] + ":0"]
            t = now()
            code, stdout = self._invoke(argv, in_process)
            timings.setdefault(kind, []).append(now() - t)
            pause()
            if code != 0:
                problems.append(f"{' '.join(argv[:2])} exited {code}")
            if kind == "tables" and stdout != README_MATRIX:
                problems.append("tables does not print the README matrix")
            if kind != "scenario":
                outputs.append(f"{kind}\n{stdout}")

        for path in sorted(p for p in sweep_dir.rglob("*") if p.is_file()):
            outputs.append(f"{path.relative_to(sweep_dir)}\n")
            outputs.append(path.read_bytes())
        digest = sha256_hex(*outputs)
        shutil.rmtree(sweep_dir, ignore_errors=True)
        return Iteration(
            key="sweep",
            digest=digest,
            seconds=sum(sum(v) for v in timings.values()),
            ops=sum(len(v) for v in timings.values()),
            phases=timings,
            problems=problems,
        )

    def summarize(self, results: list[Iteration]) -> dict:
        k = len(results)
        per_sweep = lambda kind: [sum(r.phases[kind]) for r in results if kind in r.phases]
        commands_per_s = results[0].ops / median([r.seconds for r in results])
        startups = [s for r in results for s in r.phases.get("startup_s", [])]
        detail = {
            "cli_commands_per_s": metric(commands_per_s, "1/s", "higher", k),
            "cli_scenarios_ms": metric(1e3 * median(per_sweep("scenario")), "ms", "lower", k),
            "cli_tables_ms": metric(1e3 * median(per_sweep("tables")), "ms", "lower", k),
            "cli_inspect_ms": metric(1e3 * median(per_sweep("inspect")), "ms", "lower", k),
            "cli_trace_ms": metric(1e3 * median(per_sweep("trace")), "ms", "lower", k),
        }
        if startups:
            detail["cli_startup_ms"] = metric(1e3 * median(startups), "ms", "lower", len(startups))
        if self.scale["real_ecash"]:
            detail["cli_ecash_real_ms"] = metric(
                1e3 * median(per_sweep("ecash_real")), "ms", "lower", k
            )
        return detail


def make_workload(name: str, seed: int, scale: dict, out_dir: Path):
    if name == UtxoLedger.name:
        return UtxoLedger(seed, scale)
    if name == ReplicaConflict.name:
        return ReplicaConflict(seed, scale)
    if name == CliCommands.name:
        return CliCommands(seed, scale, out_dir)
    raise ValueError(f"unknown workload {name!r}")
