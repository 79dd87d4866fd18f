"""Exception hierarchy shared by all ledgerlab kernels."""

from __future__ import annotations


class LedgerError(Exception):
    """Base class for all ledgerlab errors."""


class AuthError(LedgerError):
    """A signature did not verify, or the signing key is not authorized."""


class FundsError(LedgerError):
    """A debit would take a balance below zero."""


class UnfundedError(FundsError):
    """A wallet's holdings cannot fund a payment it is asked to build."""


class ReplayError(LedgerError):
    """A nonce-protected transaction was submitted with a stale nonce."""


class OwnershipError(LedgerError):
    """A transfer was attempted by someone other than the current owner."""


class NotFoundError(LedgerError):
    """A referenced object (token, denomination, output) does not exist."""


class DomainError(LedgerError):
    """A value lies outside the domain its scheme requires (e.g. a blinding
    factor not invertible modulo the key)."""


class FormatError(LedgerError):
    """Malformed bytes: wrong digest length, corrupt serialization, bad key
    encoding."""


class ConfigError(LedgerError):
    """Invalid configuration: duplicate denominations, unsupported
    scenario/kernel combination."""


class TxRejected(LedgerError):
    """A transaction failed validation and was not applied.

    Carries the validation report so callers can inspect why. The state
    passed to the rejected apply is left untouched.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ScenarioError(LedgerError):
    """A scenario failed: schema violations before execution, or a
    non-probe action failing during it.

    action_index is the zero-based index of the failing action when the
    failure happened mid-execution, None for validation failures.
    """

    def __init__(self, message: str, action_index: int | None = None):
        super().__init__(message)
        self.action_index = action_index
