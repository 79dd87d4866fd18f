"""ledgerlab: account, token, and UTXO record kernels under one roof.

A laboratory for payment-ledger semantics: three kernels with a common
apply/validate style, a minimal locking-script engine, a blind-signature
e-cash protocol, a deterministic replica simulation, and analysis tools
that turn the kernels' qualitative differences (double-spend handling,
replay handling, traceability, state growth) into machine-checkable
reports.

The exported names are resolved on first use (PEP 562): importing the
package loads no submodule, so a command imports only what it runs. A
resolved name is not stored on the package; each lookup reads the
submodule's current binding.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "accounts": (
        "AccountState", "AccountTx", "account_apply", "account_mint",
        "account_snapshot", "account_txid", "make_account_tx",
    ),
    "analysis": (
        "FraudReport", "LineageChain", "StateMetrics", "TraceabilityReport",
        "audit_trace", "matrix_report", "measure_state",
        "pseudonym_growth_experiment", "render_tables_text", "run_fraud_scenario",
        "trace_lineage", "traceability_report",
    ),
    "crypto": (
        "CryptoScheme", "KeyPair", "Wallet", "address_of", "derive_wallet",
        "digest", "get_scheme",
    ),
    "ecash": (
        "Coin", "IssuerKeys", "RedeemResult", "SpentList", "WithdrawalTranscript",
        "issuer_setup", "redeem", "withdraw",
    ),
    "errors": (
        "AuthError", "ConfigError", "DomainError", "FormatError", "FundsError",
        "LedgerError", "NotFoundError", "OwnershipError", "ReplayError",
        "ScenarioError", "TxRejected",
    ),
    "replica": (
        "OrderingRule", "Replica", "RoundReport", "broadcast", "make_replicas",
        "run_round", "settle_round", "state_digest",
    ),
    "rng": ("SeededStream",),
    "scenario": ("ScenarioResult", "execute_scenario", "validate_scenario"),
    "scripts": (
        "ExecutionContext", "Op", "Opcode", "Script", "compile_p2h",
        "compile_p2pkh", "execute", "script_from_text", "script_to_text",
    ),
    "tokens": ("TokenRegistry", "token_issue", "token_snapshot", "token_transfer"),
    "utxo": (
        "Chainstate", "TxInput", "TxOutput", "UtxoId", "UtxoTx", "ValidationReport",
        "coinbase_issue", "export_log", "import_log", "lock_to_wallet",
        "make_coinbase", "make_spend", "merge_payment", "split_payment", "txid_of",
        "utxo_apply", "utxo_validate",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SOURCE.keys())
