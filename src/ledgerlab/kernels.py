"""The kernel table: one entry per ledger kernel, shared by the property
matrix, the scenario runner and the CLI.

An entry holds what those callers would otherwise branch on the kernel
for: a fresh state, mint, build a transfer, apply, snapshot, the strict
snapshot decoder, its size metrics, and one step per attack the paper
compares kernels by (a double spend and a replay). A step returns the
successor state and its attempts. An attempt applies an entry and
describes a refusal instead of raising it: ``{"accepted": True}``,
``{"accepted": False, "reasons": [...]}`` with a UTXO rejection's reason
codes, or ``{"accepted": False, "error": "..."}`` for any other refusal.

An entry is an AccountTx, a (payer, payee, token id) transfer, or a
UtxoTx. A transfer's stake is a token id on the token kernel and an
amount elsewhere. A kernel ignores the arguments it has no use for: the
account mode, the token id, the issuer.

This module holds the base class; each entry lives in its kernel's own
module as ``KERNEL`` (``accounts.AccountKernel``, ``tokens.TokenKernel``,
``utxo.UtxoKernel``). ``KERNEL_TABLE`` maps kernel names to entries
read-only: iterating its names or testing one loads nothing, and looking
an entry up imports that kernel's module, so a command loads only the
kernels it uses.

``render_rows`` lays out an entry's ``columns`` over its ``rows`` as the
plain-text table ``inspect`` prints; the property matrix reuses it.

An entry calls its kernel's functions through its own module's globals
at call time, so a wrapper installed over a module's name (as
bench/tracer.py does) sees every call made through the table.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from importlib import import_module
from typing import Iterator, Literal, Sequence

from .encoding import canonical_json
from .errors import LedgerError, TxRejected


@dataclass(frozen=True)
class StateMetrics:
    kernel: Literal["account", "token", "utxo"]
    entry_count: int
    log_length: int | None = None

    def doc(self) -> dict:
        out = {"kernel": self.kernel, "entry_count": self.entry_count}
        if self.log_length is not None:
            out["log_length"] = self.log_length
        return out


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


# Kernel name -> the module whose `KERNEL` is its entry, in matrix order.
_MODULES = {"account": ".accounts", "token": ".tokens", "utxo": ".utxo"}


class _KernelTable(Mapping):
    """Kernel names to entries; a lookup imports the entry's module."""

    def __getitem__(self, name: str) -> Kernel:
        return import_module(_MODULES[name], __package__).KERNEL

    def __contains__(self, name: object) -> bool:
        return name in _MODULES

    def __iter__(self) -> Iterator[str]:
        return iter(_MODULES)

    def __len__(self) -> int:
        return len(_MODULES)


KERNEL_TABLE: Mapping[str, Kernel] = _KernelTable()


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
