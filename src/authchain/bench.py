"""Reference RBAC and ABAC checkers plus the latency comparison harness.

The interesting property is how per-request cost scales with policy size.
Both baseline checkers scan their policy lists linearly, so their latency
grows with the policy scale factor; the learned engine's inference cost
is independent of any policy list by construction.  Absolute times are
hardware-dependent and are never asserted, only ratios and orderings.

RBAC roles carry 3 interval conditions per user attribute (an attribute
passes when any of its intervals contains the value; a role accepts when
every attribute passes).  ABAC rules carry 6 interval conditions per
resource attribute plus two user-side conditions, all conjoined, and the
first rule whose conditions hold decides the request.
"""

from __future__ import annotations

import gc
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import median

from .model import (
    DecisionModel,
    N_ATTRIBUTES,
    N_OPERATIONS,
    OPERATIONS,
    encode_pair,
    infer,
    threshold_decide,
    _init_layers,
)

ENGINES = ("dlbac", "rbac", "abac")

RBAC_CONDITIONS_PER_ATTRIBUTE = 3
ABAC_CONDITIONS_PER_ATTRIBUTE = 6
ROLES_PER_SCALE = 10
RULES_PER_SCALE = 10
MIN_SAMPLES = 30

REPORT_COLUMNS = "engine,threads,scale,n,mean_ns,median_ns,p95_ns,throughput"


# ---------------------------------------------------------------------------
# RBAC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Role:
    # guard[attr] is a tuple of (lo, hi) inclusive intervals, 3 per attribute
    guard: tuple[tuple[tuple[int, int], ...], ...]
    # grants[resource_class] is a 4-operation mask
    grants: tuple[tuple[bool, ...], ...]


@dataclass(frozen=True)
class RbacPolicy:
    roles: tuple[Role, ...]
    n_classes: int = 4


def rbac_check(policy: RbacPolicy, user_attrs, resource_id: int, operation: str) -> bool:
    """True iff some role whose guard accepts the user grants the operation
    on the resource's class."""
    op = OPERATIONS.index(operation)
    cls = int(resource_id) % policy.n_classes
    for role in policy.roles:
        accepted = True
        for attr_index, conditions in enumerate(role.guard):
            value = user_attrs[attr_index]
            if not any(lo <= value <= hi for lo, hi in conditions):
                accepted = False
                break
        if accepted and role.grants[cls][op]:
            return True
    return False


def generate_rbac_policy(scale: int, seed: int, n_classes: int = 4) -> RbacPolicy:
    rng = random.Random(f"rbac/{seed}")
    roles = []
    for _ in range(ROLES_PER_SCALE * scale):
        guard = []
        for _ in range(N_ATTRIBUTES):
            conditions = []
            for _ in range(RBAC_CONDITIONS_PER_ATTRIBUTE):
                lo = rng.randint(0, 10)
                hi = min(15, lo + rng.randint(1, 5))
                conditions.append((lo, hi))
            guard.append(tuple(conditions))
        grants = tuple(
            tuple(rng.random() < 0.5 for _ in range(N_OPERATIONS))
            for _ in range(n_classes)
        )
        roles.append(Role(guard=tuple(guard), grants=grants))
    return RbacPolicy(roles=tuple(roles), n_classes=n_classes)


# ---------------------------------------------------------------------------
# ABAC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbacCondition:
    side: int  # 0 = user attribute, 1 = resource attribute
    attr: int
    lo: int
    hi: int

    def holds(self, user_attrs, resource_attrs) -> bool:
        value = user_attrs[self.attr] if self.side == 0 else resource_attrs[self.attr]
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class AbacRule:
    conditions: tuple[AbacCondition, ...]
    ops: tuple[bool, ...]


@dataclass(frozen=True)
class AbacPolicy:
    rules: tuple[AbacRule, ...]


def abac_check(policy: AbacPolicy, user_attrs, resource_attrs, operation: str) -> bool:
    """First rule whose conjunction holds decides; no match denies."""
    op = OPERATIONS.index(operation)
    for rule in policy.rules:
        if all(c.holds(user_attrs, resource_attrs) for c in rule.conditions):
            return rule.ops[op]
    return False


def generate_abac_policy(scale: int, seed: int) -> AbacPolicy:
    rng = random.Random(f"abac/{seed}")
    rules = []
    for _ in range(RULES_PER_SCALE * scale):
        conditions = []
        for attr in range(N_ATTRIBUTES):
            for _ in range(ABAC_CONDITIONS_PER_ATTRIBUTE):
                lo = rng.randint(0, 2)
                hi = rng.randint(12, 15)
                conditions.append(AbacCondition(side=1, attr=attr, lo=lo, hi=hi))
        for _ in range(2):
            attr = rng.randint(0, N_ATTRIBUTES - 1)
            conditions.append(AbacCondition(side=0, attr=attr, lo=0, hi=rng.randint(11, 15)))
        ops = tuple(rng.random() < 0.7 for _ in range(N_OPERATIONS))
        rules.append(AbacRule(conditions=tuple(conditions), ops=ops))
    return AbacPolicy(rules=tuple(rules))


# ---------------------------------------------------------------------------
# Timing harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimingStats:
    engine: str
    n_requests: int
    n_threads: int
    policy_scale: int
    mean_ns: float
    median_ns: float
    p95_ns: float
    throughput_rps: float
    decisions: tuple[bool, ...]  # per request, for cross-thread equality checks

    def csv_row(self) -> str:
        return (
            f"{self.engine},{self.n_threads},{self.policy_scale},{self.n_requests},"
            f"{self.mean_ns:.1f},{self.median_ns:.1f},{self.p95_ns:.1f},"
            f"{self.throughput_rps:.1f}"
        )


def _bench_model(seed: int) -> DecisionModel:
    # weights are considered preloaded; a seeded init keeps decisions stable
    return DecisionModel(tuple(_init_layers((64, 32, 16, 4), seed)))


def generate_requests(n: int, seed: int, n_resources: int = 64, n_users: int = 256):
    """Deterministic request stream shared by every engine."""
    rng = random.Random(f"requests/{seed}")
    users = [
        tuple(rng.randint(0, 15) for _ in range(N_ATTRIBUTES)) for _ in range(n_users)
    ]
    resources = [
        tuple(rng.randint(0, 15) for _ in range(N_ATTRIBUTES)) for _ in range(n_resources)
    ]
    requests = []
    for _ in range(n):
        u = rng.randrange(n_users)
        r = rng.randrange(n_resources)
        op = OPERATIONS[rng.randrange(N_OPERATIONS)]
        requests.append((users[u], r, resources[r], op))
    return requests


def _make_checker(engine: str, policy_scale: int, seed: int, model: DecisionModel | None):
    if engine == "dlbac":
        net = model or _bench_model(seed)

        def check(user_attrs, resource_id, resource_attrs, op) -> bool:
            scores = infer(net, encode_pair(user_attrs, resource_attrs))
            return threshold_decide(scores)[OPERATIONS.index(op)]

        return check
    if engine == "rbac":
        policy = generate_rbac_policy(policy_scale, seed)

        def check(user_attrs, resource_id, resource_attrs, op) -> bool:
            return rbac_check(policy, user_attrs, resource_id, op)

        return check
    if engine == "abac":
        policy = generate_abac_policy(policy_scale, seed)

        def check(user_attrs, resource_id, resource_attrs, op) -> bool:
            return abac_check(policy, user_attrs, resource_attrs, op)

        return check
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def measure(
    engine: str,
    n_requests: int,
    n_threads: int,
    policy_scale: int,
    seed: int,
    model: DecisionModel | None = None,
) -> TimingStats:
    """Run the request stream through one engine and sample per-request
    latency.  Decisions are position-stable, so runs with different thread
    counts can be compared for exact agreement."""
    if n_requests < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} requests per cell")
    if n_threads < 1 or policy_scale < 1:
        raise ValueError("n_threads and policy_scale must be >= 1")
    check = _make_checker(engine, policy_scale, seed, model)
    requests = generate_requests(n_requests, seed)

    for req in requests[: min(50, n_requests)]:  # warmup, excluded from samples
        check(*req)

    samples = [0] * n_requests
    decisions = [False] * n_requests

    def worker(span: range) -> None:
        clock = time.perf_counter_ns
        for i in span:
            user_attrs, resource_id, resource_attrs, op = requests[i]
            t0 = clock()
            decision = check(user_attrs, resource_id, resource_attrs, op)
            samples[i] = clock() - t0
            decisions[i] = decision

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        wall0 = time.perf_counter_ns()
        if n_threads == 1:
            worker(range(n_requests))
        else:
            chunk = (n_requests + n_threads - 1) // n_threads
            spans = [
                range(start, min(start + chunk, n_requests))
                for start in range(0, n_requests, chunk)
            ]
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                list(pool.map(worker, spans))
        wall_ns = time.perf_counter_ns() - wall0
    finally:
        if gc_was_enabled:
            gc.enable()

    ordered = sorted(samples)
    return TimingStats(
        engine=engine,
        n_requests=n_requests,
        n_threads=n_threads,
        policy_scale=policy_scale,
        mean_ns=sum(samples) / n_requests,
        median_ns=float(median(samples)),
        p95_ns=float(ordered[int(0.95 * (n_requests - 1))]),
        throughput_rps=n_requests / (wall_ns / 1e9),
        decisions=tuple(decisions),
    )


def emit_report(stats: list[TimingStats], path=None) -> str:
    """Fixed-column CSV of the measured cells; optionally written to a file."""
    lines = [REPORT_COLUMNS] + [s.csv_row() for s in stats]
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


def decisions_csv(stats: list[TimingStats], path=None) -> str:
    """Timing-free decision dump used for determinism comparisons."""
    lines = ["engine,threads,scale,index,decision"]
    for s in stats:
        for i, d in enumerate(s.decisions):
            lines.append(f"{s.engine},{s.n_threads},{s.policy_scale},{i},{int(d)}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


def format_summary(stats: list[TimingStats]) -> str:
    """Human-oriented summary of a measurement set."""
    if not stats:
        return "no measurements\n"
    width = max(len(s.engine) for s in stats)
    lines = []
    for s in stats:
        lines.append(
            f"{s.engine:<{width}}  threads={s.n_threads}  scale={s.policy_scale:<3d} "
            f"n={s.n_requests:<6d} mean={s.mean_ns / 1000:8.2f}us "
            f"p95={s.p95_ns / 1000:8.2f}us  {s.throughput_rps:10.0f} req/s"
        )
    return "\n".join(lines) + "\n"
