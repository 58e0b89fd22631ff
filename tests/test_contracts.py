"""Contract semantics: verification, authentication, authorization, rules."""

from __future__ import annotations

import hashlib
import itertools
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from authchain import contracts as C
from authchain import crypto, ledger
from authchain import model as M


def kp(tag: str) -> crypto.KeyPair:
    return crypto.keygen(hashlib.sha256(tag.encode()).digest())


USER = kp("contract-user")
OTHER = kp("contract-other")
NOW = 1_700_000_000
USER_ATTRS = (3, 1, 4, 1, 5, 9, 2, 6)
RESOURCE_ATTRS = (2, 7, 1, 8, 2, 8, 1, 8)
RESOURCE_ID = 5


def biased_model(biases) -> M.DecisionModel:
    """Single-layer net with zero weights: scores sigmoid(bias) per op."""
    return M.DecisionModel(((np.zeros((4, 64)), np.array(biases, float)),))


GRANT_ALL = biased_model([10.0] * 4)
DENY_ALL = biased_model([-10.0] * 4)
READ_ONLY = biased_model([10.0, -10.0, -10.0, -10.0])


def memory_with(user=USER, attrs=USER_ATTRS) -> dict:
    return {
        ledger.user_key(user.public_key): {"metadata": list(attrs)},
        ledger.resource_key(RESOURCE_ID): {"metadata": list(RESOURCE_ATTRS)},
    }


def accreq(user=USER, resource_id=RESOURCE_ID, op="read", ts=NOW, nonce=b"\x01" * 16):
    return ledger.make_accreq(user, resource_id, op, nonce, ts)


def subject_of(user) -> str:
    return crypto.hash_bytes(user.public_key).hex()


class TestAuthenticate:
    def test_user_bits_match_registered_metadata(self):
        payload = C.authenticate(accreq(), memory_with())
        assert isinstance(payload, C.VerifiedPayload)
        expected = []
        for a in USER_ATTRS:
            expected.extend(M.binary_repr(a, 4))
        assert payload.user_bits == tuple(expected)

    def test_unauthenticated_denial(self):
        result = C.authenticate(accreq(user=OTHER), memory_with())
        assert isinstance(result, C.Denial)
        assert result.reason == C.DenialReason.UNAUTHENTICATED


def authorize_simple(model, rules=None, op="read", resource_id=RESOURCE_ID):
    payload = C.authenticate(accreq(op=op, resource_id=resource_id), memory_with())
    assert isinstance(payload, C.VerifiedPayload)
    return C.authorize(payload, memory_with(), model, rules or C.RuleStore())


class TestAuthorize:
    def test_model_grants_no_rules(self):
        decision = authorize_simple(GRANT_ALL)
        assert isinstance(decision, C.AccessList)
        assert decision.grants == (True, True, True, True)
        assert decision.rule is None

    def test_model_denies(self):
        decision = authorize_simple(DENY_ALL, op="write")
        assert isinstance(decision, C.Denial)
        assert decision.reason == C.DenialReason.MODEL_DENIED

    def test_deny_rule_overrides_model(self):
        rules = C.RuleStore()
        rules.add(C.PriorityRule(0, subject_of(USER), str(RESOURCE_ID), (True,) * 4, C.DENY))
        decision = authorize_simple(GRANT_ALL, rules=rules)
        assert isinstance(decision, C.Denial)
        assert decision.reason == C.DenialReason.POLICY_DENIED

    def test_unknown_resource(self):
        decision = authorize_simple(GRANT_ALL, resource_id=999)
        assert isinstance(decision, C.Denial)
        assert decision.reason == C.DenialReason.WRONG_RESOURCE

    def test_unknown_operation(self):
        decision = authorize_simple(GRANT_ALL, op="delete")
        assert isinstance(decision, C.Denial)
        assert (decision.reason, decision.mask) == (C.DenialReason.WRONG_RESOURCE, None)

    def test_empty_rules_equals_thresholded_inference(self):
        payload = C.authenticate(accreq(), memory_with())
        scores = M.infer(READ_ONLY, payload.user_bits + tuple(
            b for a in RESOURCE_ATTRS for b in M.binary_repr(a, 4)
        ))
        expected = M.threshold_decide(scores, 0.5)
        decision = C.authorize(payload, memory_with(), READ_ONLY, C.RuleStore())
        assert isinstance(decision, C.AccessList)
        assert decision.grants == expected

    def test_allow_rule_extends_model_mask(self):
        rules = C.RuleStore()
        rules.add(
            C.PriorityRule(0, subject_of(USER), str(RESOURCE_ID),
                           (False, False, True, False), C.ALLOW)
        )
        decision = authorize_simple(READ_ONLY, rules=rules, op="execute")
        assert isinstance(decision, C.AccessList)
        assert decision.grants == (True, False, True, False)
        assert decision.rule is not None

    def test_rule_not_covering_requested_op_leaves_model_verdict(self):
        # the matching rule denies execute; the write refusal is the model's
        rules = C.RuleStore()
        rules.add(
            C.PriorityRule(0, subject_of(USER), str(RESOURCE_ID),
                           (False, False, True, False), C.DENY)
        )
        decision = authorize_simple(READ_ONLY, rules=rules, op="write")
        assert isinstance(decision, C.Denial)
        assert decision.reason == C.DenialReason.MODEL_DENIED

    def test_purity_across_threads(self):
        payload = C.authenticate(accreq(), memory_with())
        memory = memory_with()
        rules = C.RuleStore()

        def once(_):
            return C.authorize(payload, memory, READ_ONLY, rules)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(once, range(64)))
        first = results[0]
        assert all(r == first for r in results)


# Independent first-match evaluator used as the oracle.
def oracle_apply(mask, rule_list, subject, resource_id):
    for rule in sorted(rule_list, key=lambda r: r.ordinal):
        subject_ok = rule.subject in ("*", subject)
        resource_ok = rule.resource in ("*", str(resource_id))
        if subject_ok and resource_ok:
            if rule.effect == "DENY":
                return tuple(m and not o for m, o in zip(mask, rule.operations))
            return tuple(m or o for m, o in zip(mask, rule.operations))
    return tuple(mask)


class TestPriorityRules:
    def test_empty_store_is_identity(self):
        mask = (True, False, True, False)
        assert C.apply_rule(mask, C.RuleStore().first_match("s", 1)) == mask

    def test_banned_user_all_false(self):
        rules = C.RuleStore()
        C.register_ban(rules, "victim-hash")
        for mask in itertools.product((False, True), repeat=4):
            assert C.apply_rule(mask, rules.first_match("victim-hash", 3)) == (False,) * 4

    def test_equal_masks_are_one_object(self):
        allow_nothing = C.PriorityRule(0, "s", "*", (False,) * 4, C.ALLOW)
        deny_nothing = C.PriorityRule(0, "s", "*", (False,) * 4, C.DENY)
        for mask in itertools.product((False, True), repeat=4):
            shared = C.apply_rule(mask, None)
            assert shared == mask
            assert C.apply_rule(list(mask), None) is shared
            assert C.apply_rule(mask, allow_nothing) is shared
            assert C.apply_rule(mask, deny_nothing) is shared

    def test_allow_rule_gains_operation(self):
        rules = C.RuleStore()
        rules.add(C.PriorityRule(0, "s", "3", (False, False, True, False), C.ALLOW))
        got = C.apply_rule((True, False, False, False), rules.first_match("s", 3))
        assert got == (True, False, True, False)

    def test_first_match_wins_against_brute_force(self):
        rng = random.Random(11)
        subjects = ["alpha", "beta", "*"]
        resources = ["1", "2", "*"]
        for trial in range(120):
            n_rules = rng.randint(1, 4)
            rule_list = []
            ordinals = rng.sample(range(-5, 15), n_rules)
            for ordinal in ordinals:
                rule_list.append(
                    C.PriorityRule(
                        ordinal,
                        rng.choice(subjects),
                        rng.choice(resources),
                        tuple(rng.random() < 0.5 for _ in range(4)),
                        rng.choice((C.ALLOW, C.DENY)),
                    )
                )
            store = C.RuleStore(tuple(rule_list))
            mask = tuple(rng.random() < 0.5 for _ in range(4))
            subject = rng.choice(["alpha", "beta", "gamma"])
            resource_id = rng.choice([1, 2, 3])
            assert C.apply_rule(mask, store.first_match(subject, resource_id)) == \
                oracle_apply(mask, rule_list, subject, resource_id)

    def test_duplicate_ordinals_rejected(self):
        rules = C.RuleStore()
        rules.add(C.PriorityRule(1, "*", "*", (True,) * 4, C.DENY))
        with pytest.raises(ValueError):
            rules.add(C.PriorityRule(1, "s", "*", (True,) * 4, C.ALLOW))

    def test_invalid_effect_rejected(self):
        with pytest.raises(ValueError):
            C.PriorityRule(0, "*", "*", (True,) * 4, "MAYBE")


class TestRegisterBan:
    def test_ban_then_authorize_policy_denied_everywhere(self):
        rules = C.RuleStore()
        C.register_ban(rules, subject_of(USER))
        for op in M.OPERATIONS:
            decision = authorize_simple(GRANT_ALL, rules=rules, op=op)
            assert isinstance(decision, C.Denial)
            assert decision.reason == C.DenialReason.POLICY_DENIED

    def test_double_ban_single_rule(self):
        rules = C.RuleStore()
        C.register_ban(rules, "h")
        C.register_ban(rules, "h")
        assert len(rules) == 1
        assert rules.banned == {"h"}

    def test_ban_precedes_existing_rules(self):
        rules = C.RuleStore()
        rules.add(C.PriorityRule(0, "*", "*", (True,) * 4, C.ALLOW))
        C.register_ban(rules, "h")
        first = rules.rules[0]
        assert first.subject == "h" and first.effect == C.DENY

    def test_other_users_unchanged_by_ban(self):
        rules = C.RuleStore()
        before = authorize_simple(GRANT_ALL, rules=rules)
        C.register_ban(rules, subject_of(OTHER))
        after = authorize_simple(GRANT_ALL, rules=rules)
        assert isinstance(before, C.AccessList) and isinstance(after, C.AccessList)
        assert before.grants == after.grants
