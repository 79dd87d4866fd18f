"""Blind-signature cash: withdrawal, redemption, double-deposit races."""

import dataclasses
import threading
from collections import Counter

import pytest

from oracles import choice
from ledgerlab.ecash import (
    REJECT_ALREADY_SPENT,
    REJECT_BAD_SIGNATURE,
    REJECT_UNKNOWN_DENOMINATION,
    SERIAL_BYTES,
    SpentList,
    WithdrawalTranscript,
    coin_record,
    issuer_public_record,
    issuer_setup,
    redeem,
    withdraw,
)
from ledgerlab.errors import ConfigError, NotFoundError
from ledgerlab.rng import SeededStream


@pytest.fixture(scope="module")
def bank(toy):
    return issuer_setup([1, 5, 10], "bank-fixture", toy)


def test_setup_one_key_per_denomination(bank):
    keys = {bank.per_denomination[d].public_key for d in (1, 5, 10)}
    assert len(keys) == 3


def test_setup_rejects_bad_denominations(toy):
    with pytest.raises(ConfigError):
        issuer_setup([5, 5], "dup", toy)
    with pytest.raises(ConfigError):
        issuer_setup([0, 1], "zero", toy)


def test_withdraw_yields_verifying_coin(toy, bank):
    coin = withdraw(bank, 5, SeededStream("w1"), toy)
    assert len(coin.serial) == SERIAL_BYTES
    assert coin.denomination == 5
    assert toy.verify(bank.per_denomination[5].public_key, coin.serial, coin.signature)


def test_cross_denomination_keys_do_not_verify(toy, bank):
    coin = withdraw(bank, 5, SeededStream("w2"), toy)
    assert not toy.verify(bank.per_denomination[10].public_key, coin.serial, coin.signature)


def test_withdraw_unknown_denomination(toy, bank):
    with pytest.raises(NotFoundError):
        withdraw(bank, 7, SeededStream("w3"), toy)


def test_distinct_withdrawals_distinct_serials(toy, bank):
    stream = SeededStream("w4")
    serials = {withdraw(bank, 1, stream, toy).serial for _ in range(20)}
    assert len(serials) == 20


def test_transcript_never_sees_coin_bytes(toy, bank):
    transcript = WithdrawalTranscript()
    coins = [
        withdraw(bank, 5, SeededStream(f"w5-{i}"), toy, transcript=transcript)
        for i in range(10)
    ]
    seen = transcript.all_bytes()
    for coin in coins:
        assert coin.serial not in seen
        assert coin.signature not in seen
    assert Counter(e.denomination for e in transcript.entries()) == {5: 10}


def test_redeem_accepts_then_rejects(toy, bank):
    spent = SpentList()
    coin = withdraw(bank, 10, SeededStream("w6"), toy)
    first = redeem(spent, coin, bank, toy)
    assert first
    assert first.reason is None
    assert coin.serial.hex() in spent.snapshot()
    second = redeem(spent, coin, bank, toy)
    assert not second
    assert second.reason == REJECT_ALREADY_SPENT


def test_redeem_rejects_tampering(toy, bank):
    spent = SpentList()
    coin = withdraw(bank, 10, SeededStream("w7"), toy)
    tampered = dataclasses.replace(coin, serial=bytes(32))
    assert redeem(spent, tampered, bank, toy).reason == REJECT_BAD_SIGNATURE
    forged = dataclasses.replace(coin, signature=b"\x00" * len(coin.signature))
    assert redeem(spent, forged, bank, toy).reason == REJECT_BAD_SIGNATURE
    moved = dataclasses.replace(coin, denomination=7)
    assert redeem(spent, moved, bank, toy).reason == REJECT_UNKNOWN_DENOMINATION
    assert spent.snapshot() == []  # nothing landed on the list


def test_spent_list_is_append_only(toy, bank):
    spent = SpentList()
    stream = SeededStream("w8")
    snapshots = [spent.snapshot()]
    for _ in range(5):
        redeem(spent, withdraw(bank, 1, stream, toy), bank, toy)
        snapshots.append(spent.snapshot())
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert set(earlier) <= set(later)
    assert len(snapshots[-1]) == 5


def test_check_and_add_is_atomic_under_threads():
    """Many threads race one serial; exactly one wins, every time."""
    for trial in range(20):
        spent = SpentList()
        serial = b"contended-serial-%03d" % trial
        outcomes = []
        barrier = threading.Barrier(8)

        def attempt():
            barrier.wait()
            outcomes.append(spent.check_and_add(serial))

        threads = [threading.Thread(target=attempt) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count(True) == 1
        assert outcomes.count(False) == 7


def test_value_accounting(toy, bank):
    """Accepted value per denomination never exceeds withdrawn value."""
    stream = SeededStream("accounting")
    transcript = WithdrawalTranscript()
    spent = SpentList()
    coins = []
    for _ in range(30):
        denomination = choice(stream, [1, 5, 10])
        coins.append(withdraw(bank, denomination, stream, toy, transcript=transcript))
    attempts = list(coins) + [choice(stream, coins) for _ in range(15)]
    accepted = {1: 0, 5: 0, 10: 0}
    for coin in stream.shuffled(attempts):
        if redeem(spent, coin, bank, toy):
            accepted[coin.denomination] += 1
    withdrawn = Counter(e.denomination for e in transcript.entries())
    for denomination in (1, 5, 10):
        assert accepted[denomination] <= withdrawn[denomination]
    assert sum(accepted.values()) == 30  # every distinct coin landed once


def test_coin_record_roundtrip(toy, bank):
    coin = withdraw(bank, 5, SeededStream("w9"), toy)
    assert coin_record(coin) == {
        "serial": coin.serial.hex(),
        "denomination": 5,
        "signature": coin.signature.hex(),
    }
    record = issuer_public_record(bank)
    assert set(record) == {"1", "5", "10"}
    assert record["5"] == bank.per_denomination[5].public_key.hex()
