"""Seeded request streams and the verdict oracle that checks them.

The oracle predicts every verdict from public functions only: the
registered population, the resource catalog, the model's own inference
on the dataset attributes, a private copy of the priority rules the
benchmark installed, and its own replay of the ban rule.  Nothing is
read back from the pipeline's decision state, so a pipeline that decides
differently shows up as a failed request.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass

from authchain.contracts import BAN_COUNTED_REASONS, DENY, PriorityRule, RuleStore
from authchain.model import OPERATIONS, encode_pair, infer, threshold_decide

GRANT = "allowed"
REUSE = "reuse"  # a reused link, driven through tamper(world, "reuse-link")
ABSENT_RESOURCE_SPAN = 1000  # absent resource ids start right after the catalog
OUTSIDER_POOL = 256
POLICY_RULES = 20
HOSTILE_USER_SHARE = 0.4
MAX_DRAWS = 100_000

# Requests at the head of each stream that the end-to-end metrics cover;
# about 70% of a 25 s run on a 2-CPU 2.1 GHz Xeon.
WINDOW = {"serve": 4500, "hostile": 4800}

_COUNTED = {f"denied:{r.value}" for r in BAN_COUNTED_REASONS}

# Share of each request kind in a workload's stream, in draw order.
MIXES = {
    # grants dominate; the log stays small
    "serve": (
        ("grant", 0.84),
        ("model", 0.08),
        ("policy", 0.04),
        ("absent", 0.015),
        ("outsider", 0.015),
        ("reuse", 0.01),
    ),
    # denials dominate and the log grows; a small share of grants remains
    "hostile": (
        ("grant", 0.15),
        ("outsider", 0.30),
        ("absent", 0.25),
        ("model", 0.25),
        ("reuse", 0.05),
    ),
}


def subject_of(public_key: bytes) -> str:
    return hashlib.sha256(public_key).hexdigest()


@dataclass(frozen=True)
class Request:
    kind: str  # drawn kind from MIXES
    user: int
    resource: int
    operation: str


class Oracle:
    """Predicts verdicts and replays the ban rule from observed denials."""

    def __init__(self, world, policy_rules: tuple[PriorityRule, ...]) -> None:
        cfg = world.config
        self.model = world.model
        self.threshold = cfg.threshold
        self.ban_threshold = cfg.ban_threshold
        self.ban_window = cfg.ban_window
        self.n_users = len(world.users)
        self.user_attrs = [attrs for _, attrs in world.dataset.users]
        self.resources = dict(world.dataset.resources)
        self.subjects = [subject_of(kp.public_key) for kp in world.users]
        self.rules = RuleStore(policy_rules)
        self.banned: set[str] = set()
        self._hits: dict[str, deque[int]] = {}
        self._masks: dict[tuple[int, int], tuple[bool, ...]] = {}

    def mask(self, user: int, resource: int) -> tuple[bool, ...]:
        key = (user, resource)
        if key not in self._masks:
            scores = infer(self.model, encode_pair(self.user_attrs[user], self.resources[resource]))
            self._masks[key] = threshold_decide(scores, self.threshold)
        return self._masks[key]

    def predict(self, req: Request) -> str:
        if req.kind == REUSE:
            return REUSE
        if not 0 <= req.user < self.n_users:
            return "denied:unauthenticated"
        if req.resource not in self.resources:
            return "denied:wrong-resource"
        subject = self.subjects[req.user]
        op = OPERATIONS.index(req.operation)
        if subject in self.banned:
            return "denied:policy-denied"
        rule = self.rules.first_match(subject, req.resource)
        if rule is not None and rule.operations[op]:
            if rule.effect == DENY:
                return "denied:policy-denied"
            return GRANT
        return GRANT if self.mask(req.user, req.resource)[op] else "denied:model-denied"

    def observe(self, req: Request, verdict: str, now: int) -> None:
        """Replay the ban rule after a request the pipeline has finished."""
        if verdict not in _COUNTED or not 0 <= req.user < self.n_users:
            return
        subject = self.subjects[req.user]
        hits = self._hits.setdefault(subject, deque())
        hits.append(now)
        while hits and hits[0] < now - self.ban_window:
            hits.popleft()
        if len(hits) >= self.ban_threshold:
            self.banned.add(subject)


def policy_rules(world, seed: int) -> tuple[PriorityRule, ...]:
    """DENY-all rules on a seeded set of (user, resource) pairs."""
    rng = random.Random(f"policy/{seed}")
    n_users = len(world.users)
    resources = [rid for rid, _ in world.dataset.resources]
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < POLICY_RULES:
        pairs.add((rng.randrange(n_users), rng.choice(resources)))
    return tuple(
        PriorityRule(
            ordinal=i,
            subject=subject_of(world.users[u].public_key),
            resource=str(rid),
            operations=(True,) * len(OPERATIONS),
            effect=DENY,
        )
        for i, (u, rid) in enumerate(sorted(pairs))
    )


class Stream:
    """Endless seeded request stream for one workload."""

    def __init__(self, workload: str, seed: int, oracle: Oracle, rules) -> None:
        self.rng = random.Random(f"{workload}/{seed}")
        self.mix = MIXES[workload]
        self.oracle = oracle
        users = list(range(oracle.n_users))
        if workload == "hostile":
            hostile = set(self.rng.sample(users, int(len(users) * HOSTILE_USER_SHARE)))
        else:
            hostile = set()
        self.honest = [u for u in users if u not in hostile]
        self.denial_users = sorted(hostile) or users
        self.policy_pairs = [
            (oracle.subjects.index(r.subject), int(r.resource)) for r in rules
        ]
        self.resources = sorted(oracle.resources)

    def _triple(self, users, want_grant: bool) -> tuple[int, int, str]:
        """Random (user, resource, op) whose model verdict is ``want_grant``,
        on a pair no policy rule touches."""
        o = self.oracle
        for _ in range(MAX_DRAWS):
            user = self.rng.choice(users)
            if want_grant and o.subjects[user] in o.banned:
                continue
            resource = self.rng.choice(self.resources)
            if o.rules.first_match(o.subjects[user], resource) is not None:
                continue
            op = self.rng.randrange(len(OPERATIONS))
            if o.mask(user, resource)[op] == want_grant:
                return user, resource, OPERATIONS[op]
        raise RuntimeError(f"no {'granting' if want_grant else 'denying'} request found")

    def next(self) -> Request:
        draw = self.rng.random()
        kind = self.mix[-1][0]
        for name, share in self.mix:
            if draw < share:
                kind = name
                break
            draw -= share
        rng = self.rng
        if kind == "grant":
            return Request(kind, *self._triple(self.honest, True))
        if kind == "model":
            return Request(kind, *self._triple(self.denial_users, False))
        if kind == "policy":
            user, resource = rng.choice(self.policy_pairs)
            return Request(kind, user, resource, rng.choice(OPERATIONS))
        if kind == "absent":
            resource = self.resources[-1] + 1 + rng.randrange(ABSENT_RESOURCE_SPAN)
            return Request(kind, rng.choice(self.denial_users), resource, rng.choice(OPERATIONS))
        if kind == "outsider":
            user = self.oracle.n_users + rng.randrange(OUTSIDER_POOL)
            return Request(kind, user, rng.choice(self.resources), rng.choice(OPERATIONS))
        return Request(REUSE, -1, -1, "")
