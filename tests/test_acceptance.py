"""End-to-end acceptance checks, one test per numbered criterion.

The conftest terminal-summary hook turns each test_criterion_<n> verdict
into a PASS/FAIL line after the run. Everything here uses the toy crypto
mode; the final criterion asserts the whole set stayed under its time
budget.
"""

import copy
import itertools
import json
import threading
import time
from collections import Counter
from importlib import resources

from oracles import (
    choice,
    deliver_explicit,
    reference_active_set,
    reference_snapshot,
    token_values,
)

from ledgerlab.accounts import AccountState, account_apply, account_mint, make_account_tx
from ledgerlab.analysis import pseudonym_growth_experiment
from ledgerlab.cli import main
from ledgerlab.crypto import derive_wallet, digest
from ledgerlab.ecash import SpentList, issuer_setup, redeem, withdraw
from ledgerlab.encoding import canonical_json
from ledgerlab.errors import TxRejected
from ledgerlab.replica import make_replicas, run_round, settle_round
from ledgerlab.rng import SeededStream
from ledgerlab.scenario import execute_scenario
from ledgerlab.scripts import (
    ExecResult,
    ExecutionContext,
    Op,
    Opcode,
    compile_p2h,
    compile_p2pkh,
    execute,
    push,
)
from ledgerlab.tokens import TokenRegistry, token_issue, token_transfer
from ledgerlab.utxo import (
    Chainstate,
    TxOutput,
    UtxoId,
    coinbase_issue,
    lock_to_wallet,
    make_spend,
    merge_payment,
    replay_log,
    split_payment,
    txid_of,
    utxo_apply,
)

_T0 = time.monotonic()
_TIME_BUDGET_SECONDS = 60.0

BUNDLED = [
    "account_naive_replay.json",
    "account_nonce.json",
    "ecash_basic.json",
    "replica_round.json",
    "tables.json",
    "token_basic.json",
    "utxo_basic.json",
]


def _bundled(name):
    text = (resources.files("ledgerlab") / "scenarios" / name).read_text("utf-8")
    return json.loads(text)


# ---------------------------------------------------------------------------
# 1. The claim matrix, reproduced exactly through the CLI
# ---------------------------------------------------------------------------


def test_criterion_1_claim_matrix(capsys):
    assert main(["tables", "--seed", "0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)

    assert doc["rows"]["double-spend"] == {
        "utxo": "prevented",
        "account": "prevented-by-balance",
        "token": "prevented",
    }
    assert doc["rows"]["replay"] == {
        "utxo": "prevented",
        "account-naive": "succeeded",
        "account-nonce-protected": "prevented",
        "token": "prevented",
    }
    assert doc["rows"]["traceability"] == {
        "utxo": "yes",
        "account": "no",
        "token": "no",
    }
    # the boolean evidence behind the row labels, all exact
    assert doc["detail"]["replay-utxo-state-identical"] is True
    assert doc["detail"]["replay-naive-times-applied"] == 3
    assert doc["detail"]["traceability-account-snapshots-byte-equal"] is True
    assert doc["detail"]["traceability-utxo-chain-length"] == 3


# ---------------------------------------------------------------------------
# 2. Conservation across 1000 randomized valid txs per kernel
# ---------------------------------------------------------------------------


def test_criterion_2_conservation(toy):
    # account kernel: total balance is invariant under every transfer
    stream = SeededStream("criterion-2-account")
    wallets = [derive_wallet(toy, f"c2-acct-{i}") for i in range(6)]
    state = AccountState()
    for wallet in wallets:
        state = account_mint(state, wallet.address, 50)
    total = sum(state.balances.values())
    for _ in range(1000):
        payer = choice(stream, wallets)
        payee = choice(stream, wallets)
        amount = stream.randbelow(state.balance(payer.address) + 1)
        tx = make_account_tx(toy, payer, payee.address, amount, nonce=None)
        state = account_apply(state, tx, "naive", toy)
        assert sum(state.balances.values()) == total

    # token kernel: the (id, value) multiset never changes hands' shape
    stream = SeededStream("criterion-2-token")
    addresses = [derive_wallet(toy, f"c2-token-{i}").address for i in range(5)]
    registry = TokenRegistry()
    for i in range(12):
        registry = token_issue(registry, f"tok-{i}", i + 1, choice(stream, addresses))
    multiset = token_values(registry)
    for _ in range(1000):
        token = f"tok-{stream.randbelow(12)}"
        payee = choice(stream, addresses)
        registry = token_transfer(registry, registry.owner_of(token), payee, token)
        assert token_values(registry) == multiset

    # utxo kernel: per-tx value in equals value out; split and merge shapes
    stream = SeededStream("criterion-2-utxo")
    issuer = toy.keygen(b"c2-utxo-issuer")
    parties = [derive_wallet(toy, f"c2-utxo-{i}") for i in range(4)]
    chain = Chainstate.genesis(issuer.public_key)
    owners = {}
    for wallet in parties:
        chain = coinbase_issue(
            chain, [(stream.randbelow(60) + 20, lock_to_wallet(wallet))], issuer, toy
        )
        owners[UtxoId(txid=txid_of(chain.log[-1]), index=0)] = wallet
    splits = merges = 0
    while splits + merges < 1000:
        outpoint = choice(stream, sorted(owners, key=lambda o: (o.txid, o.index)))
        wallet = owners.pop(outpoint)
        payee = choice(stream, parties)
        held = chain.active[outpoint].value
        mergeable = [o for o, w in owners.items() if w is wallet]
        if held == 1 or (mergeable and stream.randbelow(3) == 0):
            if not mergeable:
                owners[outpoint] = wallet
                continue
            partner = mergeable[0]
            owners.pop(partner)
            consumed = held + chain.active[partner].value
            tx = merge_payment(
                toy, chain, wallet, [outpoint, partner], lock_to_wallet(payee)
            )
            assert len(tx.outputs) == 1
            merges += 1
        else:
            amount = stream.randbelow(held - 1) + 1
            consumed = held
            tx = split_payment(
                toy, chain, wallet, outpoint, amount, lock_to_wallet(payee)
            )
            assert len(tx.outputs) == 2
            splits += 1
        assert sum(out.value for out in tx.outputs) == consumed
        chain = utxo_apply(chain, tx, toy)
        txid = txid_of(tx)
        for index in range(len(tx.outputs)):
            owners[UtxoId(txid=txid, index=index)] = payee if index == 0 else wallet
    assert splits + merges == 1000
    assert splits > 0 and merges > 0


# ---------------------------------------------------------------------------
# 3. Replaying the log reproduces the active set, 100 random ledgers
# ---------------------------------------------------------------------------


def test_criterion_3_log_replay(toy):
    from test_utxo import random_ledger

    stream = SeededStream("criterion-3")
    issuer = toy.keygen(b"c3-issuer")
    parties = [derive_wallet(toy, f"c3-party-{i}") for i in range(3)]
    for ledger in range(100):
        steps = stream.randbelow(188) + 10  # 10..197 steps, 3 coinbases on top
        state = random_ledger(toy, f"c3-ledger-{ledger}", steps, issuer, parties)
        assert len(state.log) <= 200
        raw_log = list(state.log)
        replayed = replay_log(raw_log, issuer.public_key, toy)
        assert replayed.active == state.active
        flattened = {
            outpoint: (out.value, out.locking)
            for outpoint, out in state.active.items()
        }
        assert reference_active_set(raw_log) == flattened


# ---------------------------------------------------------------------------
# 4. Script engine soundness
# ---------------------------------------------------------------------------


def test_criterion_4_script_soundness(toy):
    stream = SeededStream("criterion-4")
    keys = [derive_wallet(toy, f"c4-key-{i}") for i in range(64)]

    # P2PKH: execution truth must equal (signature verifies AND key hashes
    # to the committed value), with zero disagreements.
    discrepancies = 0
    for i in range(1000):
        fork = stream.fork(f"p2pkh-{i}")
        owner = keys[fork.randbelow(len(keys))]
        imposter = keys[fork.randbelow(len(keys))]
        payload = fork.randbytes(24)
        locking = compile_p2pkh(digest(owner.public_key))
        case = fork.randbelow(4)
        if case == 0:
            pk, sig = owner.public_key, toy.sign(owner.keypair.private_key, payload)
        elif case == 1:
            pk = owner.public_key
            sig = toy.sign(owner.keypair.private_key, fork.randbytes(24))
        elif case == 2:
            pk = imposter.public_key
            sig = toy.sign(imposter.keypair.private_key, payload)
        else:
            pk, sig = owner.public_key, fork.randbytes(32)
        ctx = ExecutionContext(signing_payload=payload, scheme=toy)
        expected = toy.verify(pk, payload, sig) and digest(pk) == digest(
            owner.public_key
        )
        result = execute((push(sig), push(pk)), locking, ctx)
        if result.ok != expected:
            discrepancies += 1
    assert discrepancies == 0

    # P2H: execution truth must equal preimage match.
    for i in range(1000):
        fork = stream.fork(f"p2h-{i}")
        secret = fork.randbytes(16)
        candidate = secret if fork.randbelow(2) == 0 else fork.randbytes(16)
        ctx = ExecutionContext(signing_payload=b"", scheme=toy)
        result = execute((push(candidate),), compile_p2h(digest(secret)), ctx)
        assert result.ok == (digest(candidate) == digest(secret))

    # fuzz: 10000 arbitrary scripts terminate with a well-formed verdict
    opcodes = list(Opcode)
    started = time.monotonic()
    for i in range(10000):
        fork = stream.fork(f"fuzz-{i}")

        def random_script(max_len):
            ops = []
            for _ in range(fork.randbelow(max_len + 1)):
                opcode = opcodes[fork.randbelow(len(opcodes))]
                if opcode is Opcode.PUSH:
                    ops.append(push(fork.randbytes(fork.randbelow(65))))
                else:
                    ops.append(Op(opcode))
            return tuple(ops)

        ctx = ExecutionContext(signing_payload=fork.randbytes(8), scheme=toy)
        unlocking, locking = random_script(6), random_script(8)
        if fork.randbelow(2):
            result = execute(unlocking, locking, ctx)
        else:  # the same ops on one stack, with no push-only gate
            result = execute((), unlocking + locking, ctx)
        assert isinstance(result, ExecResult)
        assert isinstance(result.ok, bool)
        assert result.ok is False or result.fault is None
    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# 5. Blind-signature e-cash
# ---------------------------------------------------------------------------


def test_criterion_5_ecash(toy):
    stream = SeededStream("criterion-5")
    bank = issuer_setup([1, 5, 20], "acceptance-bank", toy)

    # 1000 blinding roundtrips: unblinded signature equals the direct
    # signature byte for byte and verifies.
    keypair = bank.per_denomination[5]
    rng = stream.fork("roundtrip")
    for _ in range(1000):
        serial = rng.randbytes(32)
        factor = toy.new_blinding_factor(rng, keypair.public_key)
        blinded = toy.blind(serial, factor, keypair.public_key)
        blinded_signature = toy.blind_sign(keypair.private_key, blinded)
        signature = toy.unblind(blinded_signature, factor, keypair.public_key)
        assert signature == toy.sign(keypair.private_key, serial)
        assert toy.verify(keypair.public_key, serial, signature)

    # a stash of genuine coins, withdrawals recorded in the transcript
    from ledgerlab.ecash import WithdrawalTranscript

    transcript = WithdrawalTranscript()
    wallet_rng = stream.fork("withdrawals")
    coins = [
        withdraw(bank, denomination, wallet_rng, toy, transcript=transcript)
        for denomination in (1, 5, 20)
        for _ in range(15)
    ]

    # 450 sequential adversarial orderings: every coin in every shuffled
    # double-deposit sequence is accepted exactly once.
    for trial in range(450):
        fork = stream.fork(f"ordering-{trial}")
        chosen = [coins[fork.randbelow(len(coins))] for _ in range(fork.randbelow(5) + 2)]
        sequence = fork.shuffled(list(chosen) + list(chosen))
        spent = SpentList()
        accepted = Counter()
        for coin in sequence:
            result = redeem(spent, coin, bank, toy)
            if result.accepted:
                accepted[coin.serial] += 1
            else:
                assert result.reason == "already-spent"
        assert set(accepted) == {coin.serial for coin in sequence}
        assert all(count == 1 for count in accepted.values())

    # 50 concurrent orderings: racing depositors, exactly one winner each
    for trial in range(50):
        coin = coins[trial % len(coins)]
        spent = SpentList()
        barrier = threading.Barrier(8)
        results = []

        def worker():
            barrier.wait()
            results.append(redeem(spent, coin, bank, toy))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(1 for r in results if r.accepted) == 1
        assert all(r.reason == "already-spent" for r in results if not r.accepted)

    # the issuer's transcript shares no byte strings with the coins:
    # serials and signatures never appear, not even as substrings
    blobs = [
        blob
        for entry in transcript.entries()
        for blob in (entry.blinded_message, entry.blinded_signature)
    ]
    assert len(blobs) == 2 * len(coins)
    for coin in coins:
        for blob in blobs:
            assert coin.serial not in blob
            assert coin.signature not in blob


# ---------------------------------------------------------------------------
# 6. Replica convergence and arrival-order divergence
# ---------------------------------------------------------------------------


def _conflict_setup(toy, label):
    """A funded chainstate plus two transactions spending the same output."""
    stream = SeededStream(label)
    issuer = toy.keygen(stream.fork("issuer").randbytes(16))
    payer = derive_wallet(toy, stream.fork("payer").randbytes(16))
    left = derive_wallet(toy, stream.fork("left").randbytes(16))
    right = derive_wallet(toy, stream.fork("right").randbytes(16))
    chain = Chainstate.genesis(issuer.public_key)
    amount = stream.randbelow(30) + 5
    chain = coinbase_issue(chain, [(amount, lock_to_wallet(payer))], issuer, toy)
    outpoint = UtxoId(txid=txid_of(chain.log[-1]), index=0)
    conflict = [
        make_spend(
            toy,
            chain,
            [outpoint],
            [TxOutput(value=amount, locking=lock_to_wallet(target))],
            signer=payer,
        )
        for target in (left, right)
    ]
    return stream, chain, conflict, left, right, issuer


def test_criterion_6_replica_harness(toy):
    # 200 random (tx set, seed) pairs under the canonical rule: replicas
    # end bit-identical and accept exactly one side of the conflict.
    for trial in range(200):
        stream, chain, conflict, left, right, issuer = _conflict_setup(
            toy, f"c6-{trial}"
        )
        txs = list(conflict)
        if trial % 2:
            chain = coinbase_issue(chain, [(7, lock_to_wallet(left))], issuer, toy)
            side = UtxoId(txid=txid_of(chain.log[-1]), index=0)
            txs.append(
                make_spend(
                    toy,
                    chain,
                    [side],
                    [TxOutput(value=7, locking=lock_to_wallet(right))],
                    signer=left,
                )
            )
        txs = stream.shuffled(txs)
        replicas, report = run_round(
            chain, txs, 3, trial, "canonical-txid-order", toy
        )
        assert report.divergent is False
        snapshots = {
            canonical_json(reference_snapshot(replica.chainstate))
            for replica in replicas
        }
        assert len(snapshots) == 1
        conflict_ids = {txid_of(tx).hex() for tx in conflict}
        accepted_sets = [set(outcome.accepted) for outcome in report.outcomes]
        for accepted in accepted_sets:
            assert len(accepted & conflict_ids) == 1
        assert all(accepted == accepted_sets[0] for accepted in accepted_sets)

    # exhaustive delivery schedules for 2 conflicting txs on 3 replicas:
    # arrival order must be able to diverge, and no schedule ever double
    # spends. 8 schedules total; the 6 with a minority first-arrival split.
    _, chain, conflict, _, _, _ = _conflict_setup(toy, "c6-brute-force")
    a, b = conflict
    conflict_ids = {txid_of(a).hex(), txid_of(b).hex()}
    divergent_schedules = 0
    for orders in itertools.product([(a, b), (b, a)], repeat=3):
        replicas = make_replicas(3, chain)
        deliver_explicit(replicas, orders)
        report = settle_round(replicas, "arrival-order", toy)
        for outcome in report.outcomes:
            assert len(outcome.accepted) == 1
            assert outcome.accepted[0] in conflict_ids
        divergent_schedules += int(report.divergent)
    assert divergent_schedules >= 1
    assert divergent_schedules == 6


# ---------------------------------------------------------------------------
# 7. Pseudonym growth
# ---------------------------------------------------------------------------


def test_criterion_7_pseudonym_growth(toy):
    fresh = pseudonym_growth_experiment(
        120, "fresh-address-per-payment", "account", toy, participants=2, seed=3
    )
    assert len(fresh) == 120
    assert fresh[-1].entry_count >= 120
    assert all(
        later.entry_count >= earlier.entry_count
        for earlier, later in zip(fresh, fresh[1:])
    )

    reuse = pseudonym_growth_experiment(
        120, "reuse-address", "account", toy, participants=2, seed=3
    )
    assert all(point.entry_count == 2 for point in reuse)

    crowd = pseudonym_growth_experiment(
        60, "reuse-address", "account", toy, participants=5, seed=3
    )
    assert all(point.entry_count == 5 for point in crowd)


# ---------------------------------------------------------------------------
# 8. Bundled scenarios are byte-deterministic; total runtime fits budget
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path, capsys):
    for filename in BUNDLED:
        doc = _bundled(filename)
        first = execute_scenario(copy.deepcopy(doc))
        second = execute_scenario(copy.deepcopy(doc))
        for name in first.reports:
            assert canonical_json(first.reports[name]) == canonical_json(
                second.reports[name]
            ), f"{filename}: report {name} not byte-stable"

    # the same holds for report files written by the CLI
    scenario = str(resources.files("ledgerlab") / "scenarios" / "utxo_basic.json")
    dirs = [tmp_path / "first", tmp_path / "second"]
    for out in dirs:
        assert main(["run", scenario, "--out", str(out)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    assert time.monotonic() - _T0 < _TIME_BUDGET_SECONDS
