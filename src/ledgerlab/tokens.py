"""Token kernel: payment objects with owners, updated by ownership transfer.

Each object is issued once with a fixed value and then only ever changes
hands; the multiset of (id, value) pairs is invariant under any sequence
of transfers. Physical cash works this way, which is why no deployed
system maintains such a registry centrally; the structure exists here as
an observer's oracle so that semantics stated about it are testable. The
`authoritative` flag is permanently False to mark that status.

States are immutable snapshots; operations return new registries and
never touch their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from .crypto import Address, Amount, check_address, check_amount
from .errors import ConfigError, FormatError, NotFoundError, OwnershipError
from .kernels import Kernel, StateMetrics

TokenId = str


@dataclass(frozen=True)
class TokenObject:
    value: Amount
    owner: Address


@dataclass(frozen=True)
class TokenRegistry:
    """All payment objects ever issued, keyed by token id.

    authoritative is always False: this registry records what an
    omniscient observer would know, not what any party maintains.
    """

    objects: dict[TokenId, TokenObject] = field(default_factory=dict)
    authoritative: ClassVar[bool] = False

    def owner_of(self, token: TokenId) -> Address:
        if token not in self.objects:
            raise NotFoundError(f"unknown token {token!r}")
        return self.objects[token].owner


def token_issue(
    state: TokenRegistry, token: TokenId, value: Amount, owner: Address
) -> TokenRegistry:
    """Create a new object; ids are never reused. The owner is an address
    as `address_of` derives it."""
    check_address(owner)
    check_amount(value, context="token value")
    if value == 0:
        raise FormatError("token value must be positive")
    if token in state.objects:
        raise ConfigError(f"token id {token!r} already issued")
    objects = dict(state.objects)
    objects[token] = TokenObject(value=value, owner=owner)
    return TokenRegistry(objects=objects)


def token_transfer(
    state: TokenRegistry, payer: Address, payee: Address, token: TokenId
) -> TokenRegistry:
    """Move one object from payer to payee; value stays constant."""
    check_address(payee)
    if token not in state.objects:
        raise NotFoundError(f"unknown token {token!r}")
    obj = state.objects[token]
    if obj.owner != payer:
        raise OwnershipError(
            f"token {token!r} is owned by {obj.owner}, not {payer}"
        )
    if payee == payer:
        return state
    objects = dict(state.objects)
    objects[token] = TokenObject(value=obj.value, owner=payee)
    return TokenRegistry(objects=objects)


def token_snapshot(state: TokenRegistry) -> dict:
    return {
        "kernel": "token",
        "authoritative": state.authoritative,
        "objects": {
            tid: {"value": obj.value, "owner": obj.owner}
            for tid, obj in sorted(state.objects.items())
        },
    }


def token_from_snapshot(doc: dict) -> TokenRegistry:
    if doc.get("kernel") != "token":
        raise FormatError("not a token snapshot")
    if extra := doc.keys() - {"kernel", "authoritative", "objects"}:
        raise FormatError(f"token snapshot has unknown keys {sorted(extra)}")
    raw = doc.get("objects")
    authoritative = doc.get("authoritative", False)
    if not isinstance(raw, dict):
        raise FormatError("malformed token snapshot")
    if not isinstance(authoritative, bool):
        raise FormatError("authoritative must be a boolean")
    if authoritative:
        raise FormatError("a token registry is never authoritative")
    objects = {}
    for tid, entry in raw.items():
        if not isinstance(entry, dict):
            raise FormatError(f"malformed token entry {tid!r}")
        value = check_amount(entry.get("value"), context=f"token {tid!r} value")
        if value == 0:
            raise FormatError(f"token {tid!r} value must be positive")
        objects[tid] = TokenObject(value=value, owner=check_address(entry.get("owner")))
    return TokenRegistry(objects=objects)


# The kernel table's entry (see ledgerlab.kernels).


class TokenKernel(Kernel):
    state_type = TokenRegistry
    columns = ("token", "value", "owner")

    def mint(self, state, to, amount, token, issuer, scheme):
        return token_issue(state, token, amount, to.address)

    def transfer(self, state, payer, payee, token, mode, scheme, nonce=None):
        return (payer.address, payee.address, token)

    def apply(self, state, entry, mode, scheme):
        return token_transfer(state, *entry)

    def describe(self, entry) -> dict:
        return {"token": entry[2]}

    def snapshot(self, state) -> dict:
        return token_snapshot(state)

    def decode(self, doc: dict):
        return token_from_snapshot(doc)

    def rows(self, registry) -> list[tuple[str, str, str]]:
        return [
            (token, str(entry.value), entry.owner)
            for token, entry in sorted(registry.objects.items())
        ]

    def metrics(self, state) -> StateMetrics:
        return StateMetrics("token", len(state.objects))


KERNEL = TokenKernel()
