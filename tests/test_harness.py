"""End-to-end world checks: pipeline invariants, scenarios, adversaries."""

from __future__ import annotations

import hashlib
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from authchain import crypto, harness as H, ledger, storage as S
from authchain.errors import ConfigError
from authchain.model import OPERATIONS
from conftest import build_small_world


def granting_cases(world, count: int):
    """Distinct (user, resource, op) triples the model grants."""
    cases = []
    skip: set[tuple[int, int]] = set()
    while len(cases) < count:
        user_index, resource_id, op = H.find_case(world, want_grant=True, skip=skip)
        skip.add((user_index, resource_id))
        cases.append((user_index, resource_id, op))
    return cases


class TestSetupWorld:
    def test_validator_floor(self):
        with pytest.raises(ConfigError):
            H.setup_world(2, 5, 5, seed=1)

    def test_population(self, shared_world):
        assert len(shared_world.users) == 10
        assert len(shared_world.storage_node.resources) == 10
        for kp, (_, attrs) in zip(shared_world.users, shared_world.dataset.users):
            record = ledger.memory_get(shared_world.chain, ledger.user_key(kp.public_key))
            assert record["metadata"] == list(attrs)

    def test_same_seed_identical_chain_bytes(self):
        a = build_small_world(seed=77)
        b = build_small_world(seed=77)
        blob_a = b"".join(ledger.block_canonical_bytes(x) for x in a.chain.blocks)
        blob_b = b"".join(ledger.block_canonical_bytes(x) for x in b.chain.blocks)
        assert blob_a == blob_b

    def test_chain_validates(self, shared_world):
        assert ledger.validate_chain(shared_world.chain)


class TestRunRequest:
    def test_allowed_returns_stored_content_hash(self):
        world = build_small_world(seed=3)
        user_index, resource_id, op = H.find_case(world, want_grant=True)
        outcome = H.run_request(world, user_index, resource_id, op)
        assert outcome.allowed
        expected = crypto.hash_bytes(world.storage_node.get_resource(resource_id).content)
        assert outcome.content_hash == expected
        assert ledger.validate_chain(world.chain)

    def test_allowed_leaves_exactly_one_storage_tx(self):
        world = build_small_world(seed=3)
        user_index, resource_id, op = H.find_case(world, want_grant=True)
        before = len(ledger.query_history(world.chain, kind="storage"))
        outcome = H.run_request(world, user_index, resource_id, op)
        assert outcome.allowed
        storage_txs = ledger.query_history(
            world.chain, user_pk=world.users[user_index].public_key, kind="storage"
        )
        assert len(ledger.query_history(world.chain, kind="storage")) == before + 1
        assert world.storage_node.spent_nonces == {tx.nonce for _, tx in storage_txs}

    def test_full_workflow_transaction_counts(self):
        world = build_small_world(seed=3)
        user_index, resource_id, op = H.find_case(world, want_grant=True)
        user_pk = world.users[user_index].public_key
        H.run_request(world, user_index, resource_id, op)
        for kind in ("accreq", "verified", "link", "storage"):
            matches = ledger.query_history(world.chain, user_pk=user_pk, kind=kind)
            assert len(matches) == 1, kind

    def test_unregistered_user_unauthenticated(self, fresh_world):
        outcome = H.run_request(fresh_world, len(fresh_world.users) + 5, 0, "read")
        assert outcome.verdict == "denied:unauthenticated"

    def test_denied_leaves_one_record_no_storage_tx(self):
        world = build_small_world(seed=3)
        user_index, resource_id, op = H.find_case(world, want_grant=False)
        records_before = len(world.storage_node.log)
        storage_before = len(ledger.query_history(world.chain, kind="storage"))
        outcome = H.run_request(world, user_index, resource_id, op)
        assert outcome.verdict == "denied:model-denied"
        assert len(world.storage_node.log) == records_before + 1
        assert len(ledger.query_history(world.chain, kind="storage")) == storage_before

    def test_wrong_resource_denied(self, fresh_world):
        outcome = H.run_request(fresh_world, 0, 424242, "read")
        assert outcome.verdict == "denied:wrong-resource"

    def test_root_mirror_matches_log_after_requests(self):
        world = build_small_world(seed=3)
        H.run_request(world, 0, 424242, "read")  # a denial
        user_index, resource_id, op = H.find_case(world, want_grant=True)
        H.run_request(world, user_index, resource_id, op)
        mirrored = world.chain.contract_state[H.STATE_ROOT_KEY]
        assert mirrored == world.storage_node.log.root.hex()
        verdict = S.verify_log(
            world.storage_node.log.records,
            bytes.fromhex(mirrored),
            world.chain.contract_state[H.STATE_ROOT_HISTORY_KEY],
        )
        assert verdict.ok

    def test_root_history_mirrored_as_copies_after_mixed_denials(self, tmp_path):
        world = build_small_world()
        rng = random.Random(5)
        resource_ids = [rid for rid, _ in world.dataset.resources]
        for i in range(150):
            if i == 75:
                assert H.tamper(world, "reuse-link").caught
                continue
            user_index = rng.randrange(len(world.users) + 3)  # a few outsiders
            resource_id = rng.choice(resource_ids + [10**6])  # and an absent one
            H.run_request(world, user_index, resource_id, rng.choice(OPERATIONS))
        log = world.storage_node.log
        mirrored = world.chain.contract_state[H.STATE_ROOT_HISTORY_KEY]
        assert len(log.history) > 50
        assert mirrored == log.history
        assert not any(m is h for m, h in zip(mirrored, log.history))
        path = tmp_path / "log.jsonl"
        H.save_world_artifacts(world, log_path=path)
        assert S.verify_log(S.load_log(path), log.root, mirrored).ok

    def test_every_denial_yields_exactly_one_record(self):
        # bijection between denied outcomes and malicious records
        world = build_small_world(seed=3)
        requests = [(0, 424242, "read"), (len(world.users) + 1, 0, "read")]
        requests += [H.find_case(world, want_grant=False)]
        requests += [H.find_case(world, want_grant=True)]
        denials = 0
        for case in requests:
            outcome = H.run_request(world, *case)
            denials += 0 if outcome.allowed else 1
        assert len(world.storage_node.log) == denials
        assert [r.seq for r in world.storage_node.log.records] == list(range(denials))

    def test_denial_record_embeds_the_offending_request(self):
        world = build_small_world(seed=3)
        H.run_request(world, 0, 424242, "read")
        record = world.storage_node.log.records[-1]
        accreqs = ledger.query_history(
            world.chain, user_pk=world.users[0].public_key, kind="accreq"
        )
        _, tx = accreqs[-1]
        assert record.tx_bytes == ledger.tx_canonical_bytes(tx)


class TestScenarios:
    def test_all_four_pass(self):
        world = build_small_world(seed=42)
        reports = H.run_all_scenarios(world)
        assert [r.scenario_id for r in reports] == [1, 2, 3, 4]
        assert all(r.passed for r in reports)
        assert [r.observed for r in reports] == [
            "denied:unauthenticated",
            "denied:model-denied",
            "denied:policy-denied",
            "allowed",
        ]

    def test_transcripts_nonempty_for_registered_users(self):
        world = build_small_world(seed=42)
        report = H.run_scenario(world, 2)
        kinds = [entry["tx"]["kind"] for entry in report.transcript]
        assert "accreq" in kinds

    def test_unknown_scenario_id(self, fresh_world):
        with pytest.raises(ValueError):
            H.run_scenario(fresh_world, 9)

    def test_scenario_3_rule_does_not_leak_into_4(self):
        world = build_small_world(seed=42)
        H.run_scenario(world, 3)
        report4 = H.run_scenario(world, 4)
        assert report4.passed


class TestTamper:
    @pytest.mark.parametrize("mutation", H.TAMPER_MUTATIONS)
    def test_each_mutation_caught(self, mutation):
        world = build_small_world(seed=7)
        outcome = H.tamper(world, mutation)
        assert outcome.caught, outcome.detail

    def test_unknown_mutation(self, fresh_world):
        with pytest.raises(ValueError):
            H.tamper(fresh_world, "paint-it-black")


class TestBanPathway:
    def test_three_wrong_files_ban_and_flag(self):
        world = build_small_world(seed=13)
        subject = crypto.hash_bytes(world.users[2].public_key).hex()
        for _ in range(3):
            outcome = H.run_request(world, 2, 10**6, "read")
            assert outcome.verdict == "denied:wrong-resource"
        assert subject in world.rules.banned
        flagged = H.find_malicious_users(world)
        assert (subject, 3, True) in flagged
        after = H.run_request(world, 2, world.dataset.resources[0][0], "read")
        assert after.verdict == "denied:policy-denied"

    def test_no_denials_no_malicious_users(self, shared_world):
        world = build_small_world(seed=99)
        assert H.find_malicious_users(world) == []

    def test_counts_match_on_chain_denied_accreqs(self):
        world = build_small_world(seed=13)
        for _ in range(2):
            H.run_request(world, 4, 10**6, "read")
        subject = crypto.hash_bytes(world.users[4].public_key).hex()
        counts = dict((s, n) for s, n, _ in H.find_malicious_users(world))
        on_chain = ledger.query_history(
            world.chain, user_pk=world.users[4].public_key, kind="accreq"
        )
        assert counts[subject] == len(on_chain) == 2


class TestConcurrency:
    def test_concurrent_verdicts_match_sequential(self):
        sequential = build_small_world(seed=21)
        cases = granting_cases(sequential, 5)
        wanted = {case: H.run_request(sequential, *case).verdict for case in cases}

        concurrent = build_small_world(seed=21)
        with ThreadPoolExecutor(max_workers=5) as pool:
            results = list(pool.map(lambda c: (c, H.run_request(concurrent, *c).verdict), cases))
        assert dict(results) == wanted
        assert ledger.validate_chain(concurrent.chain)
        verdict = S.verify_log(
            concurrent.storage_node.log.records,
            concurrent.storage_node.log.root,
            concurrent.storage_node.log.history,
        )
        assert verdict.ok


class TestCryptoCounts:
    @staticmethod
    def count_calls(monkeypatch) -> dict[str, int]:
        counts = {"verify": 0, "sign": 0}
        for name, attr in (("verify", "verify_sig"), ("sign", "sign")):
            inner = getattr(crypto, attr)

            def counted(*args, _inner=inner, _name=name):
                counts[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(crypto, attr, counted)
        return counts

    def test_verify_and_sign_counts_per_request(self, monkeypatch):
        world = H.setup_world(3, 30, 12, seed=0)
        counts = self.count_calls(monkeypatch)
        cases = {
            "allowed": (H.find_case(world, want_grant=True), (7, 6)),
            "denied:model-denied": (H.find_case(world, want_grant=False), (4, 3)),
            "denied:wrong-resource": ((0, 10**6, "read"), (4, 3)),
            "denied:unauthenticated": ((len(world.users), 0, "read"), (2, 2)),
        }
        for verdict, (case, expected) in cases.items():
            counts.update(verify=0, sign=0)
            assert H.run_request(world, *case).verdict == verdict
            assert (counts["verify"], counts["sign"]) == expected, verdict

    def test_replay_from_disk_verifies_every_signature(self, tmp_path, monkeypatch):
        world = H.setup_world(3, 30, 12, seed=0)
        H.run_all_scenarios(world)
        path = tmp_path / "chain.jsonl"
        H.save_world_artifacts(world, chain_path=path)
        loaded = ledger.load_chain(path)
        signed_txs = sum(
            not isinstance(tx, ledger.VerifiedTx)
            for block in loaded.blocks
            for tx in block.transactions
        )
        counts = self.count_calls(monkeypatch)
        assert ledger.validate_chain(loaded)
        assert counts["verify"] == len(loaded.blocks) + signed_txs


class TestArtifacts:
    def test_artifact_bytes_pinned(self, tmp_path):
        # Chain, state and log bytes of a fixed run after every scenario and
        # mutation.  Weights are left out: float results can differ between
        # BLAS builds.
        world = H.setup_world(3, 30, 12, seed=0)
        assert all(r.passed for r in H.run_all_scenarios(world))
        for mutation in H.TAMPER_MUTATIONS:
            assert H.tamper(world, mutation).caught
        paths = [tmp_path / name for name in ("chain.jsonl", "state.json", "log.jsonl")]
        H.save_world_artifacts(world, *paths)
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == [
            "0f1602bde6a7a60f3afa5cf9a8d3c01802f5f3c774d215f1e683932549eda423",
            "20fd507331477ef7b8427968fb904d206dcf8d4d71de9a1031c431e4410e604a",
            "c2aa49eb194e220a37e0079c07c8f118909466da3779136f6265994bd1c9553a",
        ]

    def test_save_world_artifacts_deterministic(self, tmp_path):
        for run in ("a", "b"):
            world = build_small_world(seed=31)
            H.run_all_scenarios(world)
            base = tmp_path / run
            base.mkdir()
            H.save_world_artifacts(
                world,
                chain_path=base / "chain.jsonl",
                state_path=base / "state.json",
                log_path=base / "log.jsonl",
            )
        for name in ("chain.jsonl", "state.json", "log.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_artifacts_cross_verify(self, tmp_path):
        world = build_small_world(seed=31)
        H.run_all_scenarios(world)
        H.save_world_artifacts(
            world,
            chain_path=tmp_path / "chain.jsonl",
            state_path=tmp_path / "state.json",
            log_path=tmp_path / "log.jsonl",
        )
        chain = ledger.load_chain(tmp_path / "chain.jsonl")
        assert ledger.validate_chain(chain)
        state = H.load_contract_state(tmp_path / "state.json")
        records = S.load_log(tmp_path / "log.jsonl")
        verdict = S.verify_log(
            records,
            bytes.fromhex(state[H.STATE_ROOT_KEY]),
            state[H.STATE_ROOT_HISTORY_KEY],
        )
        assert verdict.ok
