"""Baseline checker correctness against brute-force oracles, plus timing."""

from __future__ import annotations

import random

import pytest

from authchain import bench as B
from authchain.model import OPERATIONS


# Brute-force evaluators, written as independent plain loops.

def brute_force_rbac(policy: B.RbacPolicy, user_attrs, resource_id, operation) -> bool:
    op = OPERATIONS.index(operation)
    cls = resource_id % policy.n_classes
    granting = []
    for role in policy.roles:
        passes = []
        for attr_index in range(len(role.guard)):
            value = user_attrs[attr_index]
            hit = False
            for lo, hi in role.guard[attr_index]:
                if lo <= value and value <= hi:
                    hit = True
            passes.append(hit)
        if all(passes) and role.grants[cls][op]:
            granting.append(role)
    return len(granting) > 0


def brute_force_abac(policy: B.AbacPolicy, user_attrs, resource_attrs, operation) -> bool:
    op = OPERATIONS.index(operation)
    for rule in policy.rules:
        matched = True
        for cond in rule.conditions:
            value = user_attrs[cond.attr] if cond.side == 0 else resource_attrs[cond.attr]
            if value < cond.lo or value > cond.hi:
                matched = False
                break
        if matched:
            return rule.ops[op]
    return False


def random_query(rng):
    user = tuple(rng.randint(0, 15) for _ in range(8))
    resource_attrs = tuple(rng.randint(0, 15) for _ in range(8))
    resource_id = rng.randint(0, 63)
    op = OPERATIONS[rng.randrange(4)]
    return user, resource_id, resource_attrs, op


class TestRbacCheck:
    def test_empty_policy_denies_everything(self):
        policy = B.RbacPolicy(roles=())
        rng = random.Random(0)
        for _ in range(20):
            user, rid, _, op = random_query(rng)
            assert not B.rbac_check(policy, user, rid, op)

    def test_single_matching_role(self):
        guard = tuple(((0, 15),) for _ in range(8))  # accepts everyone
        role = B.Role(guard=guard, grants=tuple((True, False, False, False) for _ in range(4)))
        policy = B.RbacPolicy(roles=(role,))
        assert B.rbac_check(policy, (1,) * 8, 3, "read")
        assert not B.rbac_check(policy, (1,) * 8, 3, "write")

    def test_agrees_with_brute_force_on_1000_queries(self):
        policy = B.generate_rbac_policy(scale=1, seed=5)
        rng = random.Random(123)
        for _ in range(1000):
            user, rid, _, op = random_query(rng)
            assert B.rbac_check(policy, user, rid, op) == brute_force_rbac(
                policy, user, rid, op
            )


class TestAbacCheck:
    def test_empty_policy_denies(self):
        policy = B.AbacPolicy(rules=())
        assert not B.abac_check(policy, (0,) * 8, (0,) * 8, "read")

    def test_always_true_rule_grants_all(self):
        rule = B.AbacRule(
            conditions=tuple(
                B.AbacCondition(side, attr, 0, 15)
                for side in (0, 1)
                for attr in range(8)
            ),
            ops=(True, True, True, True),
        )
        policy = B.AbacPolicy(rules=(rule,))
        for op in OPERATIONS:
            assert B.abac_check(policy, (5,) * 8, (9,) * 8, op)

    def test_first_match_decides(self):
        wide = tuple(B.AbacCondition(1, a, 0, 15) for a in range(8))
        deny_rule = B.AbacRule(conditions=wide, ops=(False,) * 4)
        grant_rule = B.AbacRule(conditions=wide, ops=(True,) * 4)
        policy = B.AbacPolicy(rules=(deny_rule, grant_rule))
        assert not B.abac_check(policy, (0,) * 8, (0,) * 8, "read")

    def test_agrees_with_brute_force_on_1000_queries(self):
        policy = B.generate_abac_policy(scale=1, seed=5)
        rng = random.Random(321)
        for _ in range(1000):
            user, _, resource_attrs, op = random_query(rng)
            assert B.abac_check(policy, user, resource_attrs, op) == brute_force_abac(
                policy, user, resource_attrs, op
            )

    def test_condition_counts_match_paper_faithful_configuration(self):
        policy = B.generate_abac_policy(scale=1, seed=1)
        for rule in policy.rules:
            per_attr = {}
            for cond in rule.conditions:
                if cond.side == 1:
                    per_attr[cond.attr] = per_attr.get(cond.attr, 0) + 1
            assert all(per_attr[a] == 6 for a in range(8))
        rbac = B.generate_rbac_policy(scale=1, seed=1)
        for role in rbac.roles:
            assert all(len(conds) == 3 for conds in role.guard)


class TestMeasure:
    def test_decisions_identical_across_thread_counts(self):
        one = B.measure("abac", n_requests=200, n_threads=1, policy_scale=1, seed=4)
        four = B.measure("abac", n_requests=200, n_threads=4, policy_scale=1, seed=4)
        assert one.decisions == four.decisions

    def test_dlbac_decisions_thread_stable(self):
        one = B.measure("dlbac", n_requests=64, n_threads=1, policy_scale=1, seed=4)
        four = B.measure("dlbac", n_requests=64, n_threads=4, policy_scale=1, seed=4)
        assert one.decisions == four.decisions

    def test_same_seed_same_decisions(self):
        a = B.measure("rbac", n_requests=60, n_threads=1, policy_scale=2, seed=8)
        b = B.measure("rbac", n_requests=60, n_threads=1, policy_scale=2, seed=8)
        assert a.decisions == b.decisions

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            B.measure("crystal-ball", 40, 1, 1, 0)

    def test_minimum_sample_count_enforced(self):
        with pytest.raises(ValueError):
            B.measure("rbac", n_requests=10, n_threads=1, policy_scale=1, seed=0)


class TestReports:
    def test_empty_list_header_only(self):
        assert B.emit_report([]) == B.REPORT_COLUMNS + "\n"

    def test_column_order_fixed(self):
        assert B.REPORT_COLUMNS == (
            "engine,threads,scale,n,mean_ns,median_ns,p95_ns,throughput"
        )

    def test_row_round_trips_parse(self):
        stats = B.measure("rbac", n_requests=40, n_threads=2, policy_scale=3, seed=1)
        text = B.emit_report([stats])
        header, row = text.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["engine"] == "rbac"
        assert int(cells["threads"]) == 2
        assert int(cells["scale"]) == 3
        assert int(cells["n"]) == 40
        assert float(cells["mean_ns"]) > 0

    def test_emit_report_writes_file(self, tmp_path):
        stats = B.measure("rbac", n_requests=40, n_threads=1, policy_scale=1, seed=1)
        path = tmp_path / "stats.csv"
        text = B.emit_report([stats], path)
        assert path.read_text() == text

    def test_decisions_csv_shape(self, tmp_path):
        stats = B.measure("abac", n_requests=30, n_threads=1, policy_scale=1, seed=1)
        text = B.decisions_csv([stats])
        lines = text.strip().split("\n")
        assert lines[0] == "engine,threads,scale,index,decision"
        assert len(lines) == 1 + 30

    def test_summary_mentions_engine(self):
        stats = B.measure("rbac", n_requests=30, n_threads=1, policy_scale=1, seed=1)
        assert "rbac" in B.format_summary([stats])
        assert B.format_summary([]) == "no measurements\n"
