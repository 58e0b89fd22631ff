"""End-to-end world checks: pipeline invariants, scenarios, adversaries."""

from __future__ import annotations

import hashlib
import itertools
import random
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import orjson
import pytest
from hypothesis import assume, given, settings, strategies as st

from authchain import contracts as C, crypto, harness as H, ledger, storage as S
from authchain.config import Config
from authchain.contracts import DENY, DenialReason, PriorityRule, register_ban
from authchain.errors import ConfigError
from authchain.model import OPERATIONS
from conftest import IDENTITY_KEY, UNIVERSAL_SIG, build_small_world

README = Path(__file__).resolve().parents[1] / "README.md"


def chain_txs(chain, kind: str, user_pk: bytes | None = None) -> list:
    """The chain's transactions of one kind, in chain order; with
    ``user_pk``, only those naming that user (a link names its recipient)."""
    out = []
    for block in chain.blocks:
        for tx in block.transactions:
            if tx.kind != kind:
                continue
            if user_pk is None or (tx.recipient if kind == "link" else tx.user_pk) == user_pk:
                out.append(tx)
    return out


def granting_cases(world, count: int):
    """Distinct (user, resource, op) triples the model grants."""
    cases = []
    skip: set[tuple[int, int]] = set()
    while len(cases) < count:
        user_index, resource_id, op = H.find_case(world, want_grant=True, skip=skip)
        skip.add((user_index, resource_id))
        cases.append((user_index, resource_id, op))
    return cases


def lock_free_elsewhere(world) -> bool:
    """Whether another thread could take the world lock right now."""
    got: list[bool] = []

    def probe() -> None:
        got.append(world._lock.acquire(blocking=False))
        if got[-1]:
            world._lock.release()

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return got[0]


def probe_lock_during(monkeypatch, world, owner, name) -> list[bool]:
    """Wrap ``owner.name`` so each call records :func:`lock_free_elsewhere`."""
    seen: list[bool] = []
    original = getattr(owner, name)

    def wrapped(*args, **kwargs):
        seen.append(lock_free_elsewhere(world))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)
    return seen


class TestSetupWorld:
    def test_validator_floor(self):
        with pytest.raises(ConfigError):
            H.setup_world(2, 5, 5, seed=1)

    def test_population(self, shared_world):
        assert len(shared_world.users) == 10
        assert len(shared_world.storage_node.resources) == 10
        for kp, (_, attrs) in zip(shared_world.users, shared_world.dataset.users):
            record = shared_world.chain.memory.get(ledger.user_key(kp.public_key))
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
        before = len(chain_txs(world.chain, "storage"))
        outcome = H.run_request(world, user_index, resource_id, op)
        assert outcome.allowed
        storage_txs = chain_txs(world.chain, "storage", world.users[user_index].public_key)
        assert len(chain_txs(world.chain, "storage")) == before + 1
        redeemed = {link.nonce for link in world.storage_node.links.values() if link.redeemed}
        assert redeemed == {tx.nonce for tx in storage_txs}

    def test_full_workflow_transaction_counts(self):
        world = build_small_world(seed=3)
        user_index, resource_id, op = H.find_case(world, want_grant=True)
        user_pk = world.users[user_index].public_key
        height = world.chain.height
        outcome = H.run_request(world, user_index, resource_id, op)
        for kind in ("accreq", "link", "storage"):
            matches = chain_txs(world.chain, kind, user_pk)
            assert len(matches) == 1, kind
        # three blocks, one transaction each
        assert outcome.heights == (height, height + 1, height + 2) and world.chain.height == height + 3
        assert [
            [tx.kind for tx in world.chain.blocks[h].transactions] for h in outcome.heights
        ] == [["accreq"], ["link"], ["storage"]]

    @pytest.mark.parametrize("kind, signed_by", [("link", "issue_link"), ("storage", "redeem_link")])
    def test_refused_storage_transaction_raises(self, monkeypatch, kind, signed_by):
        # storage signing with a key genesis does not name: admission is the
        # request path's only check of storage's signatures
        world = build_small_world(seed=3)
        case = H.find_case(world, want_grant=True)
        node, stranger = world.storage_node, crypto.keygen(H.derive_seed(3, "stranger"))
        inner = getattr(node, signed_by)

        def with_stranger_key(*args, **kwargs):
            node.keypair = stranger
            return inner(*args, **kwargs)

        monkeypatch.setattr(node, signed_by, with_stranger_key)
        height = world.chain.height
        with pytest.raises(ConfigError, match=rf"^{kind} transaction rejected at admission \(bad-signature\)$"):
            H.run_request(world, *case)
        assert world.chain.height == height + (1 if kind == "link" else 2)
        assert len(world.mempool) == 0
        assert ledger.validate_chain(world.chain)

    @pytest.mark.parametrize(
        "refusal", ["model-denied", "policy-denied", "wrong-resource", "issue-link"]
    )
    def test_refusal_after_authentication_mines_one_block(self, refusal):
        # only the access request is mined: the hand-off from authentication
        # to authorization stays in-process
        world = build_small_world(seed=3)
        if refusal == "model-denied":
            case = H.find_case(world, want_grant=False)
        elif refusal == "wrong-resource":
            case = (0, 424242, "read")
        else:
            case = user_index, resource_id, op = H.find_case(world, want_grant=True)
            if refusal == "policy-denied":
                world.rules.add(
                    PriorityRule(
                        ordinal=world.rules.next_ordinal(),
                        subject=ledger.subject_id(world.users[user_index].public_key),
                        resource=str(resource_id),
                        operations=tuple(name == op for name in OPERATIONS),
                        effect=DENY,
                    )
                )
            else:  # the chain catalogs the resource, storage no longer holds it
                del world.storage_node.resources[resource_id]
        height, records = world.chain.height, len(world.storage_node.log)
        outcome = H.run_request(world, *case)
        verdict = "wrong-resource" if refusal == "issue-link" else refusal
        assert outcome.verdict == f"denied:{verdict}"
        assert outcome.heights == (height,)
        assert world.chain.height == height + 1
        assert len(world.storage_node.log) == records + 1

    def test_unregistered_user_unauthenticated(self, fresh_world):
        outcome = H.run_request(fresh_world, len(fresh_world.users) + 5, 0, "read")
        assert outcome.verdict == "denied:unauthenticated"

    def test_denied_leaves_one_record_no_storage_tx(self):
        world = build_small_world(seed=3)
        user_index, resource_id, op = H.find_case(world, want_grant=False)
        records_before = len(world.storage_node.log)
        storage_before = len(chain_txs(world.chain, "storage"))
        outcome = H.run_request(world, user_index, resource_id, op)
        assert outcome.verdict == "denied:model-denied"
        assert len(world.storage_node.log) == records_before + 1
        assert len(chain_txs(world.chain, "storage")) == storage_before

    def test_wrong_resource_denied(self, fresh_world):
        outcome = H.run_request(fresh_world, 0, 424242, "read")
        assert outcome.verdict == "denied:wrong-resource"

    @pytest.mark.parametrize(
        "resource_id, operation",
        [(None, "delete"), (2**32, "read"), (-1, "read")],
        ids=["unknown-operation", "2^32", "-1"],
    )
    def test_unservable_request_denied_as_wrong_resource_before_inference(
        self, monkeypatch, resource_id, operation
    ):
        world = build_small_world(seed=3)
        if resource_id is None:  # a catalogued resource, so only the operation is unknown
            resource_id = world.dataset.resources[0][0]
        inferred = []
        monkeypatch.setattr(C, "infer", lambda *args: inferred.append(args))
        outcome = H.run_request(world, 0, resource_id, operation)
        assert outcome.verdict == "denied:wrong-resource"
        assert outcome.heights == (world.chain.height - 1,)
        record = world.storage_node.log.records[-1]
        assert (record.reason, record.output_mask) == ("wrong-resource", None)
        assert inferred == []

    def test_root_mirror_matches_log_after_requests(self, tmp_path):
        world = build_small_world(seed=3)
        H.run_request(world, 0, 424242, "read")  # a denial
        user_index, resource_id, op = H.find_case(world, want_grant=True)
        H.run_request(world, user_index, resource_id, op)
        H.save_world_artifacts(world, state_path=tmp_path / "state.json")
        state = H.load_contract_state(tmp_path / "state.json")
        assert state[H.STATE_ROOT_KEY] == world.storage_node.log.root.hex()
        verdict = S.verify_log(
            world.storage_node.log.records,
            bytes.fromhex(state[H.STATE_ROOT_KEY]),
            state[H.STATE_ROOT_HISTORY_KEY],
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
        assert len(log.history) > 50
        state_path, log_path = tmp_path / "state.json", tmp_path / "log.jsonl"
        H.save_world_artifacts(world, state_path=state_path, log_path=log_path)
        saved = H.load_contract_state(state_path)[H.STATE_ROOT_HISTORY_KEY]
        assert saved == log.history
        assert S.verify_log(S.load_log(log_path), log.root, saved).ok

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
        tx = chain_txs(world.chain, "accreq", world.users[0].public_key)[-1]
        assert record.tx_bytes == ledger.tx_canonical_bytes(tx)


class TestResidentMemory:
    """What requests leave behind: slotted records and one object per
    repeated value."""

    @pytest.fixture(scope="class")
    def served(self):
        world = build_small_world(seed=3)
        case = H.find_case(world, want_grant=True)
        grants = [H.run_request(world, *case) for _ in range(2)]
        assert all(outcome.allowed for outcome in grants)
        H.run_request(world, 0, 424242, "read")  # a denial, so the log holds a record
        return world, grants

    def test_records_carry_no_instance_dict(self, served):
        world, _ = served
        kept = [
            *world.chain.blocks,
            *(tx for block in world.chain.blocks for tx in block.transactions),
            *world.storage_node.links.values(),
            *world.storage_node.log.records,
            *world.dataset.tuples,
        ]
        assert {type(obj).__name__ for obj in kept} == {
            "Block", "SetupTx", "AccReqTx", "LinkTx", "StorageTx",
            "AccessLink", "MaliciousRecord", "AccessTuple",
        }
        assert [type(obj).__name__ for obj in kept if hasattr(obj, "__dict__")] == []

    def test_storage_tx_shares_its_link_nonce(self, served):
        world, grants = served
        links = {link.nonce: link for link in world.storage_node.links.values()}
        for outcome in grants:
            (storage_tx,) = world.chain.blocks[outcome.heights[2]].transactions
            assert storage_tx.nonce is links[storage_tx.nonce].nonce

    def test_records_and_the_ban_share_one_subject_string(self):
        world = build_small_world(seed=3)
        for _ in range(world.config.ban_threshold):
            H.run_request(world, 0, 424242, "read")
        (banned,) = world.rules.banned
        assert banned == ledger.subject_id(world.users[0].public_key)
        assert all(r.subject_hash is banned for r in world.storage_node.log.records)

    def test_root_history_of_a_fixed_run(self):
        world = build_small_world(seed=3)
        for case in [
            (0, 424242, "read"),
            (len(world.users) + 1, 0, "read"),
            H.find_case(world, want_grant=False),
            H.find_case(world, want_grant=True),
            (0, 424242, "write"),
        ]:
            H.run_request(world, *case)
        assert world.storage_node.log.history == [
            {"height": 3,
             "root": "ca9766afa06d801c080e1eea7d42a2c3374fbbb0cf0facdafa50e5bc6f95e8f9"},
            {"height": 4,
             "root": "e6e4221d4fb9bf5fc2a41027fc3b9568a1d55ec8ec9c26089ebbf90c55fbc2df"},
            {"height": 5,
             "root": "9939a63fdcfe80758b145ed40e90232c42adb0479ba6d3fd5e46f701db39f06d"},
            {"height": 9,
             "root": "3765ed887ebcf180ba5f15017118dcc1c8808c666fe36b64f27c2022424afdbb"},
        ]


class TestFindCase:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 1000),
        n_users=st.integers(3, 6),
        n_resources=st.integers(3, 6),
        deny=st.none() | st.tuples(
            # on one of the first pairs, where find_case looks first
            st.integers(0, 1), st.integers(0, 2), st.tuples(*[st.booleans()] * len(OPERATIONS))
        ),
    )
    def test_found_case_gets_the_contracts_verdict(self, seed, n_users, n_resources, deny):
        world = H.setup_world(3, n_users, n_resources, seed)
        if deny is not None:
            user, resource, ops = deny
            world.rules.add(
                PriorityRule(
                    ordinal=world.rules.next_ordinal(),
                    subject=ledger.subject_id(world.users[user % n_users].public_key),
                    resource=str(world.dataset.resources[resource % n_resources][0]),
                    operations=ops,
                    effect=DENY,
                )
            )
        cases = {}
        for want_grant in (True, False):
            try:
                cases[want_grant] = H.find_case(world, want_grant)
            except LookupError:
                pass
        assume(len(cases) == 2)  # a tiny world can grant (or deny) every pair
        assert H.run_request(world, *cases[True]).verdict == "allowed"
        assert H.run_request(world, *cases[False]).verdict == "denied:model-denied"

    def test_banned_users_skipped_before_the_rule_scan(self, monkeypatch):
        world = build_small_world(seed=3)
        banned = {ledger.subject_id(kp.public_key) for kp in world.users[:3]}
        for subject in sorted(banned):
            register_ban(world.rules, subject)
        scanned: list[str] = []
        first_match = world.rules.first_match
        monkeypatch.setattr(
            world.rules, "first_match", lambda s, r: scanned.append(s) or first_match(s, r)
        )
        user_index, resource_id, op = H.find_case(world, want_grant=True)
        assert user_index >= 3
        assert scanned and not banned & set(scanned)
        assert H.run_request(world, user_index, resource_id, op).allowed


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

    def test_rule_set_up_under_the_world_lock(self, monkeypatch):
        world = build_small_world(seed=42)
        seen = probe_lock_during(monkeypatch, world, world.rules, "add")
        assert H.run_scenario(world, 3).passed
        assert seen and not any(seen)


class TestTamper:
    @pytest.mark.parametrize("mutation", H.TAMPER_MUTATIONS)
    def test_each_mutation_caught(self, mutation):
        world = build_small_world(seed=7)
        outcome = H.tamper(world, mutation)
        assert outcome.caught, outcome.detail

    def test_unknown_mutation(self, fresh_world):
        with pytest.raises(ValueError):
            H.tamper(fresh_world, "paint-it-black")

    def test_replay_denial_rolled_under_the_world_lock(self, monkeypatch):
        world = build_small_world(seed=7)
        seen = probe_lock_during(monkeypatch, world, world.storage_node, "record_malicious")
        assert H.tamper(world, "reuse-link").caught
        assert seen and not any(seen)


class TestSmallOrderKeyForgery:
    def test_forged_request_refused_and_logged_once(self):
        world = H.setup_world(3, 12, 6, seed=0)
        forged_pk = IDENTITY_KEY + world.users[0].public_key[32:]
        request = replace(
            ledger.AccReqTx(forged_pk, world.now(), 0, "read", bytes(16)), sig=UNIVERSAL_SIG
        )
        log, height = world.storage_node.log, world.chain.height
        logged = len(log)
        denial = H._admit(world, ledger.subject_id(forged_pk), request)
        assert denial is not None
        assert (denial.reason, denial.detail) == (DenialReason.UNAUTHENTICATED, "bad-signature")
        assert [(r.reason, r.tx_bytes) for r in log.records[logged:]] == [
            ("unauthenticated", ledger.tx_canonical_bytes(request))
        ]
        assert len(world.mempool) == 0
        assert world.chain.height == height


class TestProposerKey:
    def test_no_key_pair_signs_for_the_scheduled_key_with_another_secret(self, monkeypatch):
        # _produce does not verify the signature it makes, so a key pair
        # pairing the scheduled key with another secret must not exist
        world = build_small_world(seed=5)
        scheduled = world.scheduled_proposer()
        height, tip = world.chain.height, world.chain.tip_hash()
        others = [kp for kp in world.validators if kp != scheduled]
        for other in [*others, world.admin, world.storage_node.keypair, world.user_keypair(-1)]:
            monkeypatch.setattr(
                world, "scheduled_proposer",
                lambda other=other: crypto.KeyPair(scheduled.public_key, other.secret_key),
            )
            with pytest.raises(ValueError, match="^public key is not the one the secret key derives$"):
                H._produce(world)
        assert (world.chain.height, world.chain.tip_hash()) == (height, tip)


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
        on_chain = chain_txs(world.chain, "accreq", world.users[4].public_key)
        assert counts[subject] == len(on_chain) == 2

    def test_repeated_denials_of_a_banned_subject_skip_the_ban_check(self, monkeypatch):
        world = build_small_world(seed=13)
        subject = ledger.subject_id(world.users[2].public_key)
        checked: list[str] = []
        original = H.check_ban_threshold

        def counting(log, subject_hash, *args, **kwargs):
            checked.append(subject_hash)
            return original(log, subject_hash, *args, **kwargs)

        monkeypatch.setattr(H, "check_ban_threshold", counting)
        for _ in range(3):
            H.run_request(world, 2, 10**6, "read")
        assert subject in world.rules.banned
        assert checked == [subject] * 3
        rules_bytes = ledger.canonical_bytes(world.rules.to_state())
        for _ in range(4):
            assert H.run_request(world, 2, 10**6, "read").verdict == "denied:wrong-resource"
        assert checked == [subject] * 3
        assert ledger.canonical_bytes(world.rules.to_state()) == rules_bytes


class TestOutOfRangeResourceIds:
    @pytest.mark.parametrize("resource_id", [ledger.CANONICAL_INT_MIN, ledger.CANONICAL_INT_MAX])
    def test_edges_are_denied_as_wrong_resource(self, resource_id):
        world = build_small_world(seed=5)
        assert H.run_request(world, 0, resource_id, "read").verdict == "denied:wrong-resource"

    @pytest.mark.parametrize(
        "resource_id", [ledger.CANONICAL_INT_MIN - 1, ledger.CANONICAL_INT_MAX + 1, 2**70]
    )
    def test_beyond_the_edges_raise_before_any_state_change(self, tmp_path, resource_id):
        world = build_small_world(seed=5)

        def artifacts(directory):
            directory.mkdir()
            paths = [directory / name for name in ("chain", "state", "log")]
            H.save_world_artifacts(world, *paths)
            return world.now(), len(world.mempool), [p.read_bytes() for p in paths]

        before = artifacts(tmp_path / "before")
        with pytest.raises(ValueError, match=f"^resource id {resource_id} is outside"):
            H.run_request(world, 0, resource_id, "read")
        assert artifacts(tmp_path / "after") == before


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

    # libsodium function -> the cost column it counts
    SODIUM_COLUMNS = {
        "crypto_sign_verify_detached": "verify",
        "crypto_sign_detached": "sign",
        "crypto_scalarmult_curve25519_base": "x25519",
        "crypto_scalarmult_curve25519": "x25519",
        "crypto_aead_chacha20poly1305_ietf_encrypt": "aead",
        "crypto_aead_chacha20poly1305_ietf_decrypt": "aead",
    }

    # class -> (Ed25519 verifications, signs, X25519, AEAD, blocks mined,
    # chain bytes added, canonical encodings, verify_sig calls), run in
    # this order on one setup_world(3, 30, 12, 0)
    COSTS = {
        "grant": (3, 6, 3, 2, 3, 2152, 18, 3),
        "model-denied": (1, 2, 0, 0, 1, 695, 8, 1),
        "policy-denied": (1, 2, 0, 0, 1, 694, 8, 1),
        "wrong-resource": (1, 2, 0, 0, 1, 700, 8, 1),
        "outsider": (1, 2, 1, 0, 1, 694, 8, 1),
        "replayed request": (1, 0, 0, 0, 0, 0, 3, 1),
        "reused link": (0, 0, 0, 0, 0, 0, 2, 0),
    }

    @staticmethod
    def request_classes(world) -> dict:
        """class -> (run one request of it, the verdict it must give), in
        ``COSTS`` order; the replayed request replays the grant's."""
        grant_case = H.find_case(world, want_grant=True)
        grant_subject = ledger.subject_id(world.users[grant_case[0]].public_key)
        mined = []

        def grant():
            outcome = H.run_request(world, *grant_case)
            mined.append(world.chain.blocks[outcome.heights[0]].transactions[0])
            return outcome.verdict

        def scenario(scenario_id):
            return lambda: H.run_scenario(world, scenario_id).observed

        def replayed_request():
            return f"denied:{H._admit(world, grant_subject, mined[0]).reason.value}"

        def reused_link():
            link = list(world.storage_node.links.values())[-1]  # the grant's, as its user read it
            world.clock.tick(1)
            second = world.storage_node.redeem_link(
                link.token, link.nonce, world.now(), block_height=world.chain.height
            )
            return f"denied:{H._deny(world, grant_subject, second).reason.value}"

        return {
            "grant": (grant, "allowed"),
            "model-denied": (scenario(2), "denied:model-denied"),
            "policy-denied": (scenario(3), "denied:policy-denied"),  # a DENY rule on the grant's pair
            "wrong-resource": (
                lambda: H.run_request(world, 0, 10**6, "read").verdict, "denied:wrong-resource"
            ),
            "outsider": (scenario(1), "denied:unauthenticated"),
            "replayed request": (replayed_request, "denied:replay"),
            "reused link": (reused_link, "denied:replay"),
        }

    def test_cost_per_request_class(self, monkeypatch):
        # Counted at the libsodium calls.  Each signature is verified once,
        # at admission: a mined block's own signature and its transactions'
        # are not verified again.
        # X25519: a grant's link encryption (2) and the user's decryption of
        # it (1); an outsider's key derivation (1).
        crypto._x25519_public.cache_clear()  # before setup, so only the outsider's key is new
        world = H.setup_world(3, 30, 12, seed=0)
        counts = Counter()
        for name, column in self.SODIUM_COLUMNS.items():
            inner = getattr(crypto._sodium, name)

            def counted(*args, _inner=inner, _column=column):
                counts[_column] += 1
                return _inner(*args)

            monkeypatch.setattr(crypto._sodium, name, counted)

        def counted_dumps(*args, **kwargs):
            counts["encodings"] += 1
            return orjson.dumps(*args, **kwargs)

        # every canonical encoding is one ledger.orjson.dumps call
        monkeypatch.setattr(
            ledger, "orjson", SimpleNamespace(**{**vars(orjson), "dumps": counted_dumps})
        )
        verify_sig = crypto.verify_sig

        def counted_verify_sig(*args):
            counts["verify_sig"] += 1
            return verify_sig(*args)

        monkeypatch.setattr(crypto, "verify_sig", counted_verify_sig)

        rows = self.request_classes(world)
        assert list(rows) == list(self.COSTS)
        observed = {}
        for name, (run, verdict) in rows.items():
            counts.clear()
            start = world.chain.height
            assert run() == verdict, name
            encodings = counts["encodings"]  # read before the chain bytes below are encoded
            observed[name] = (
                counts["verify"], counts["sign"], counts["x25519"], counts["aead"],
                world.chain.height - start,
                sum(len(ledger.block_canonical_bytes(b)) + 1 for b in world.chain.blocks[start:]),
                encodings, counts["verify_sig"],
            )
        assert observed == self.COSTS

    def test_contracts_run_on_the_request_just_mined(self, monkeypatch):
        # The contracts check no signature or freshness of their own: they
        # rely on each request having just been accepted by block
        # validation, in the tip block, at the clock's time, within the
        # genesis window of that block.
        world = H.setup_world(3, 30, 12, seed=0)
        window = world.chain.genesis_payload["freshness_window"]
        checked = []

        def assert_just_mined(user_pk, resource_id, operation):
            tip = world.chain.blocks[-1]
            assert world.now() == tip.timestamp
            (request,) = [
                tx for tx in tip.transactions
                if isinstance(tx, ledger.AccReqTx)
                and (tx.user_pk, tx.resource_id, tx.operation) == (user_pk, resource_id, operation)
            ]
            assert abs(tip.timestamp - request.timestamp) <= window
            return request

        def spy(name):
            inner = getattr(H, name)

            def spied(first, *args, **kwargs):
                request = assert_just_mined(
                    first.user_pk, first.resource_id, first.operation
                )
                if name == "authenticate":
                    assert request is first
                checked.append(name)
                return inner(first, *args, **kwargs)

            monkeypatch.setattr(H, name, spied)

        spy("authenticate")
        spy("authorize")
        for name, (run, verdict) in self.request_classes(world).items():
            assert run() == verdict, name
        # authorize runs on every mined request but the outsider's
        assert Counter(checked) == {"authenticate": 5, "authorize": 4}

    def test_readme_cost_table_is_the_pinned_one(self):
        text = README.read_text(encoding="utf-8")
        header = ("| class | Ed25519 verify | sign | X25519 | AEAD | blocks | chain bytes | encodings "
                  "| verify_sig calls |")
        rows = text.split(header, 1)[1].strip().splitlines()[1:]  # past the |---| line
        table = {}
        for row in itertools.takewhile(lambda line: line.strip().startswith("|"), rows):
            name, *cells = (cell.strip() for cell in row.strip().strip("|").split("|"))
            table[name] = tuple(int(cell) for cell in cells)
        assert table == self.COSTS

    @pytest.mark.parametrize(
        "n_users, batch_size",
        [(ledger.DEFAULT_BATCH_SIZE, ledger.DEFAULT_BATCH_SIZE), (ledger.DEFAULT_BATCH_SIZE, 7),
         (200, ledger.DEFAULT_BATCH_SIZE), (200, 200)],
        ids=["100", "7", "200-users", "200-batch-200"],
    )
    def test_setup_signatures_verified_once(self, monkeypatch, n_users, batch_size):
        # at any batch size, libsodium verifies each setup signature once, at
        # admission, and of the block signatures only genesis', when
        # genesis() appends it
        verified: Counter[bytes] = Counter()
        inner = crypto._sodium.crypto_sign_verify_detached

        def counted(signature, *args):
            verified[signature] += 1
            return inner(signature, *args)

        monkeypatch.setattr(crypto._sodium, "crypto_sign_verify_detached", counted)
        world = H.setup_world(3, n_users, 2, seed=0, config=Config(batch_size=batch_size))
        setup_sigs = [tx.sig for block in world.chain.blocks for tx in block.transactions]
        assert len(setup_sigs) == n_users
        assert max(len(block.transactions) for block in world.chain.blocks) == batch_size
        assert verified == Counter([world.chain.blocks[0].sig, *setup_sigs])

    def test_replay_from_disk_verifies_every_signature(self, tmp_path, monkeypatch):
        world = H.setup_world(3, 30, 12, seed=0)
        H.run_all_scenarios(world)
        path = tmp_path / "chain.jsonl"
        H.save_world_artifacts(world, chain_path=path)
        loaded = ledger.load_chain(path)
        transactions = sum(len(block.transactions) for block in loaded.blocks)
        counts = self.count_calls(monkeypatch)
        assert ledger.validate_chain(loaded)
        assert counts["verify"] == len(loaded.blocks) + transactions


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
            "8e0967d588edffff11eb9c920ac4a7ca17c88f5d2ccb3f1d512895310e48436f",
            "39b6ff7a6d30e7eb5bb656c8590ee9c55c1b30ae91e993b37de26855379fc1bd",
            "252384b8a301a94e06db1bcf4348f39b5832ccb8ca778f2cef6ca40a56783e65",
        ]

    def test_state_sidecar_holds_rules_added_before_any_ban(self, tmp_path):
        world = build_small_world(seed=3)
        rule = PriorityRule(
            ordinal=world.rules.next_ordinal(),
            subject=ledger.subject_id(world.users[0].public_key),
            resource="*",
            operations=(True,) * len(OPERATIONS),
            effect=DENY,
        )
        world.rules.add(rule)
        H.save_world_artifacts(world, state_path=tmp_path / "state.json")
        state = H.load_contract_state(tmp_path / "state.json")
        assert state[H.STATE_RULES_KEY] == {"rules": [rule.to_dict()], "banned": []}

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
