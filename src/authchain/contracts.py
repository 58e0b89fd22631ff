"""The decision engine's two smart contracts and the priority-rule store.

The contracts run over an access request that block validation has just
accepted into the tip block, so they check only what it did not.  Its
signature, its nonce and its time, within the genesis freshness window of
the block's, are already established, and re-checking them against the
same chain would give the same answer.  Authentication checks that the
requesting key is registered in chain memory, which block validation does
not ask; on success it encodes the registered user metadata into a bit
vector and hands an in-process verified payload to authorization.  The
payload never goes on chain: it is derived from the signed access request
and the metadata registered on chain, so a copy on chain would add
nothing but a record a validator could forge.

Authorization runs the learned model over (user bits, resource bits),
thresholds the four scores into a grant mask, then filters the mask
through the ordered priority rules: the first matching rule wins, DENY
clears the operations it names, ALLOW sets them, and no match leaves the
model's mask untouched.  Banning a user inserts a DENY-all rule at the
front of the order, so every later decision for that user fails closed.

All functions here are pure over their inputs, which are the mined request
and chain state, and read no clock; rule-store mutation is serialized by
the caller through the single ledger writer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping

from .ledger import AccReqTx, resource_key, subject_id, user_key
from .model import (
    DecisionModel,
    N_OPERATIONS,
    OPERATIONS,
    encode_attrs,
    infer,
    operation_index,
    threshold_decide,
)


class DenialReason(Enum):
    UNAUTHENTICATED = "unauthenticated"
    MODEL_DENIED = "model-denied"
    POLICY_DENIED = "policy-denied"
    STALE = "stale"
    WRONG_RESOURCE = "wrong-resource"
    REPLAY = "replay"


#: Denial reasons that count toward the repeated-misuse ban threshold.
BAN_COUNTED_REASONS = frozenset(
    {DenialReason.WRONG_RESOURCE, DenialReason.MODEL_DENIED, DenialReason.POLICY_DENIED}
)


@dataclass(frozen=True)
class Denial:
    reason: DenialReason
    detail: str = ""
    mask: tuple[bool, ...] | None = None  # final mask when authorization computed one


@dataclass(frozen=True)
class VerifiedPayload:
    """Successful authentication result, input to authorization."""

    user_bits: tuple[int, ...]
    user_pk: bytes
    resource_id: int
    operation: str


@dataclass(frozen=True)
class AccessList:
    """Final grant mask with its provenance."""

    grants: tuple[bool, ...]
    rule: "PriorityRule | None"
    requested: str


ALLOW = "ALLOW"
DENY = "DENY"
WILDCARD = "*"


@dataclass(frozen=True)
class PriorityRule:
    """Organizational override applied after model inference.

    ``subject`` is a user public-key hash (hex) or ``*``; ``resource`` is a
    decimal resource id or ``*``.  Rules are evaluated in ordinal order and
    the first match wins.
    """

    ordinal: int
    subject: str
    resource: str
    operations: tuple[bool, ...]
    effect: str

    def __post_init__(self) -> None:
        if self.effect not in (ALLOW, DENY):
            raise ValueError(f"effect must be ALLOW or DENY, got {self.effect!r}")
        if len(self.operations) != N_OPERATIONS:
            raise ValueError(f"operations mask must have {N_OPERATIONS} entries")

    def matches(self, subject_hash: str, resource_id: int) -> bool:
        if self.subject != WILDCARD and self.subject != subject_hash:
            return False
        if self.resource != WILDCARD and self.resource != str(int(resource_id)):
            return False
        return True

    def to_dict(self) -> dict:
        return {
            "ordinal": self.ordinal,
            "subject": self.subject,
            "resource": self.resource,
            "operations": [bool(o) for o in self.operations],
            "effect": self.effect,
        }


class RuleStore:
    """Ordered priority rules plus the set of banned user key hashes."""

    def __init__(self, rules: tuple[PriorityRule, ...] = ()) -> None:
        self._rules: list[PriorityRule] = []
        self.banned: set[str] = set()
        for rule in rules:
            self.add(rule)

    @property
    def rules(self) -> tuple[PriorityRule, ...]:
        return tuple(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def add(self, rule: PriorityRule) -> None:
        if any(r.ordinal == rule.ordinal for r in self._rules):
            raise ValueError(f"duplicate rule ordinal {rule.ordinal}")
        self._rules.append(rule)
        self._rules.sort(key=lambda r: r.ordinal)

    def next_ordinal(self) -> int:
        return max((r.ordinal for r in self._rules), default=-1) + 1

    def first_match(self, subject_hash: str, resource_id: int) -> PriorityRule | None:
        for rule in self._rules:
            if rule.matches(subject_hash, resource_id):
                return rule
        return None

    # -- persistence --------------------------------------------------------

    def to_state(self) -> dict:
        return {
            "rules": [r.to_dict() for r in self._rules],
            "banned": sorted(self.banned),
        }


# ---------------------------------------------------------------------------
# Contract functions
# ---------------------------------------------------------------------------

def authenticate(tx: AccReqTx, memory: Mapping[str, Any]) -> VerifiedPayload | Denial:
    """Authentication contract: refuse a key not registered in chain
    memory, else return the in-process hand-off to :func:`authorize`.

    ``tx`` is a request block validation has accepted, so its signature
    and freshness are not checked again.  The user bits encode the
    metadata registered for the key at setup time, not the key itself.
    """
    user = memory.get(user_key(tx.user_pk))
    if user is None:
        return Denial(DenialReason.UNAUTHENTICATED, "key not registered")
    return VerifiedPayload(
        user_bits=encode_attrs(user["metadata"]),
        user_pk=tx.user_pk,
        resource_id=tx.resource_id,
        operation=tx.operation,
    )


# every grant mask, each held once, so the links and log records that keep
# a mask share one of these tuples
_MASKS = {mask: mask for mask in itertools.product((False, True), repeat=N_OPERATIONS)}


def apply_rule(mask: tuple[bool, ...], rule: PriorityRule | None) -> tuple[bool, ...]:
    """``mask`` filtered by the first matching rule: DENY clears the
    operations it names, ALLOW sets them; no match leaves the mask as is.
    The result is one of the shared mask tuples."""
    if rule is not None:
        if rule.effect == DENY:
            mask = tuple(m and not r for m, r in zip(mask, rule.operations))
        else:
            mask = tuple(m or r for m, r in zip(mask, rule.operations))
    return _MASKS[tuple(mask)]


def authorize(
    payload: VerifiedPayload,
    memory: Mapping[str, Any],
    model: DecisionModel,
    rules: RuleStore,
    threshold: float = 0.5,
) -> AccessList | Denial:
    """Authorization contract: model inference, threshold, rule filter.  An
    uncatalogued resource or unknown operation is ``wrong-resource``."""
    resource = memory.get(resource_key(payload.resource_id))
    if resource is None:
        return Denial(
            DenialReason.WRONG_RESOURCE, f"no such resource {payload.resource_id}"
        )
    if payload.operation not in OPERATIONS:
        return Denial(DenialReason.WRONG_RESOURCE, f"no such operation {payload.operation!r}")
    resource_bits = encode_attrs(resource["metadata"])
    scores = infer(model, payload.user_bits + resource_bits)
    mask = threshold_decide(scores, threshold)
    subject_hash = subject_id(payload.user_pk)
    rule = rules.first_match(subject_hash, payload.resource_id)
    final = apply_rule(mask, rule)
    op = operation_index(payload.operation)
    if final[op]:
        return AccessList(grants=final, rule=rule, requested=payload.operation)
    if rule is not None and rule.effect == DENY and rule.operations[op]:
        reason = DenialReason.POLICY_DENIED
    else:
        reason = DenialReason.MODEL_DENIED
    return Denial(reason, f"operation {payload.operation!r} not granted", mask=final)


def register_ban(rules: RuleStore, subject_hash: str) -> None:
    """Insert a front-of-order DENY-all rule for the subject; idempotent."""
    if subject_hash in rules.banned:
        return
    front = min((r.ordinal for r in rules.rules), default=0) - 1
    rules.add(
        PriorityRule(
            ordinal=front,
            subject=subject_hash,
            resource=WILDCARD,
            operations=(True,) * N_OPERATIONS,
            effect=DENY,
        )
    )
    rules.banned.add(subject_hash)
