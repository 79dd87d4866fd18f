"""The kernel table: one entry per ledger kernel, shared by the property
matrix, the scenario runner and the CLI.

An entry holds what those callers would otherwise branch on the kernel
for: a fresh state, mint, build a transfer, apply, snapshot, the strict
snapshot decoder, and one step per attack the paper compares kernels by
(a double spend and a replay). A step returns the successor state and
its attempts. An attempt applies an entry and describes a refusal
instead of raising it: ``{"accepted": True}``, ``{"accepted": False,
"reasons": [...]}`` with a UTXO rejection's reason codes, or
``{"accepted": False, "error": "..."}`` for any other refusal.

An entry is an AccountTx, a (payer, payee, token id) transfer, or a
UtxoTx. A transfer's stake is a token id on the token kernel and an
amount elsewhere. A kernel ignores the arguments it has no use for: the
account mode, the token id, the issuer.

``render_rows`` lays out an entry's ``columns`` over its ``rows`` as the
plain-text table ``inspect`` prints; the property matrix reuses it.

Kernel functions are called through their modules at call time, so a
wrapper installed over a module's name (as bench/tracer.py does) sees
every call made through the table.
"""

from __future__ import annotations

from typing import Sequence

from . import accounts, tokens, utxo
from .encoding import canonical_json
from .errors import LedgerError, TxRejected, UnfundedError
from .scripts import script_to_text


class Kernel:
    """The operations every kernel shares; subclasses supply their own."""

    state_type: type
    columns: tuple[str, str, str]  # the header of the table `inspect` renders

    def genesis(self, scheme, issuer_seed: bytes, allow_p2h: bool = True):
        """A fresh state, and the issuer key that may mint into it."""
        return self.state_type(), None

    def attempt(self, state, entry, mode, scheme) -> tuple[object, dict]:
        """Apply `entry`: the successor state, or `state` itself if refused,
        and the outcome."""
        try:
            return self.apply(state, entry, mode, scheme), {"accepted": True}
        except TxRejected as exc:
            return state, {"accepted": False, "reasons": list(exc.report.reasons)}
        except LedgerError as exc:
            return state, {"accepted": False, "error": str(exc)}

    def double_spend(self, state, payer, targets, stake, mode, scheme):
        """Pay `stake` from the payer to each target in turn; the final
        state and an (entry, outcome) pair per target. Each transfer is
        built after the previous attempt, so a nonce-protected account
        spend carries the nonce the payer's account expects next."""
        attempts = []
        for target in targets:
            entry = self.transfer(state, payer, target, stake, mode, scheme)
            state, outcome = self.attempt(state, entry, mode, scheme)
            attempts.append((entry, outcome))
        return state, attempts

    def replay(self, state, entry, times: int, mode, scheme):
        """Resubmit `entry` verbatim `times` times; the final state and
        every attempt's outcome."""
        outcomes = []
        for _ in range(times):
            state, outcome = self.attempt(state, entry, mode, scheme)
            outcomes.append(outcome)
        return state, outcomes

    def snapshot_text(self, state) -> str:
        return canonical_json(self.snapshot(state))


class AccountKernel(Kernel):
    state_type = accounts.AccountState
    columns = ("address", "balance", "nonce")

    def mint(self, state, to, amount, token, issuer, scheme):
        return accounts.account_mint(state, to.address, amount)

    def transfer(self, state, payer, payee, amount, mode, scheme, nonce=None):
        """Under nonce protection the nonce defaults to the one the
        payer's account expects next."""
        if nonce is None and mode == "nonce-protected":
            nonce = state.nonce(payer.address)
        return accounts.make_account_tx(scheme, payer, payee.address, amount, nonce=nonce)

    def apply(self, state, entry, mode, scheme):
        return accounts.account_apply(state, entry, mode, scheme)

    def describe(self, entry) -> dict:
        return {"txid": accounts.account_txid(entry).hex()}

    def snapshot(self, state) -> dict:
        return accounts.account_snapshot(state)

    def decode(self, doc: dict):
        return accounts.account_from_snapshot(doc)

    def rows(self, state) -> list[tuple[str, str, str]]:
        return [
            (address, str(balance), str(state.nonce(address)))
            for address, balance in sorted(state.balances.items())
        ]

    def size(self, state) -> tuple[int, int | None]:
        return len(state.balances), None


class TokenKernel(Kernel):
    state_type = tokens.TokenRegistry
    columns = ("token", "value", "owner")

    def mint(self, state, to, amount, token, issuer, scheme):
        return tokens.token_issue(state, token, amount, to.address)

    def transfer(self, state, payer, payee, token, mode, scheme, nonce=None):
        return (payer.address, payee.address, token)

    def apply(self, state, entry, mode, scheme):
        return tokens.token_transfer(state, *entry)

    def describe(self, entry) -> dict:
        return {"token": entry[2]}

    def snapshot(self, state) -> dict:
        return tokens.token_snapshot(state)

    def decode(self, doc: dict):
        return tokens.token_from_snapshot(doc)

    def rows(self, registry) -> list[tuple[str, str, str]]:
        return [
            (token, str(entry.value), entry.owner)
            for token, entry in sorted(registry.objects.items())
        ]

    def size(self, state) -> tuple[int, int | None]:
        return len(state.objects), None


class UtxoKernel(Kernel):
    state_type = utxo.Chainstate
    columns = ("outpoint", "value", "locking")

    def genesis(self, scheme, issuer_seed, allow_p2h=True):
        issuer = scheme.keygen(issuer_seed)
        return utxo.Chainstate.genesis(issuer.public_key, allow_p2h=allow_p2h), issuer

    def mint(self, state, to, amount, token, issuer, scheme):
        return utxo.coinbase_issue(state, [(amount, utxo.lock_to_wallet(to))], issuer, scheme)

    def holdings(self, state, wallet) -> list[tuple[utxo.UtxoId, int]]:
        """The wallet's active outpoints, deterministically ordered."""
        lock = utxo.lock_to_wallet(wallet)
        found = [
            (outpoint, entry.value)
            for outpoint, entry in state.active.items()
            if entry.locking == lock
        ]
        found.sort(key=lambda item: item[0].render())
        return found

    def spends(self, state, payer, targets, amount, scheme) -> list[utxo.UtxoTx]:
        """Greedy funding from the payer's holdings, then one spend of it
        per target: the amount to the target first, any change to the
        payer second. Raises UnfundedError if the holdings fall short."""
        funding, total = [], 0
        for outpoint, value in self.holdings(state, payer):
            funding.append(outpoint)
            total += value
            if total >= amount:
                break
        else:
            raise UnfundedError(f"{payer.address} holds {total}, cannot fund {amount}")
        change = []
        if total > amount:
            change.append(utxo.TxOutput(total - amount, utxo.lock_to_wallet(payer)))
        return [
            utxo.make_spend(
                scheme,
                state,
                funding,
                [utxo.TxOutput(amount, utxo.lock_to_wallet(target)), *change],
                signer=payer,
            )
            for target in targets
        ]

    def transfer(self, state, payer, payee, amount, mode, scheme, nonce=None):
        return self.spends(state, payer, [payee], amount, scheme)[0]

    def apply(self, state, entry, mode, scheme):
        return utxo.utxo_apply(state, entry, scheme)

    def double_spend(self, state, payer, targets, amount, mode, scheme):
        """As Kernel.double_spend, but every spend is built against the
        same state, from the same funding, before any is attempted."""
        attempts = []
        for tx in self.spends(state, payer, targets, amount, scheme):
            state, outcome = self.attempt(state, tx, mode, scheme)
            attempts.append((tx, outcome))
        return state, attempts

    def describe(self, entry) -> dict:
        return {"txid": utxo.txid_of(entry).hex()}

    def snapshot(self, state) -> dict:
        return utxo.chainstate_snapshot(state)

    def decode(self, doc: dict):
        """The active set alone: a snapshot carries no log."""
        return utxo.active_from_snapshot(doc)

    def rows(self, active) -> list[tuple[str, str, str]]:
        return sorted(
            (outpoint.render(), str(entry.value), script_to_text(entry.locking))
            for outpoint, entry in active.items()
        )

    def size(self, state) -> tuple[int, int | None]:
        return len(state.active), len(state.log)


KERNEL_TABLE: dict[str, Kernel] = {
    "account": AccountKernel(),
    "token": TokenKernel(),
    "utxo": UtxoKernel(),
}


def render_rows(header: tuple[str, ...], rows: Sequence[tuple[str, ...]]) -> str:
    """Left-aligned columns two spaces apart, with a rule under the header."""
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(header, widths)).rstrip(),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        )
    return "\n".join(lines) + "\n"
