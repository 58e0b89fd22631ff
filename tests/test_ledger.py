"""Ledger-level checks: admission, blocks, validation, replay, persistence."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from authchain import crypto, harness as H, ledger
from authchain.errors import ConfigError, FormatError, ScheduleError
from authchain.model import OPERATIONS
from conftest import build_small_world


def kp(tag: str) -> crypto.KeyPair:
    return crypto.keygen(hashlib.sha256(tag.encode()).digest())


VALIDATORS = [kp(f"validator-{i}") for i in range(3)]
ADMIN = kp("admin")
STORAGE = kp("storage-entity")
USERS = [kp(f"user-{i}") for i in range(4)]
ATTRS = (1, 2, 3, 4, 5, 6, 7, 8)


def fresh_chain(resources=None) -> ledger.Chain:
    return ledger.genesis(
        ledger.ValidatorSet(tuple(v.public_key for v in VALIDATORS)),
        ADMIN.public_key,
        proposer=VALIDATORS[0],
        timestamp=1_700_000_000,
        storage_pk=STORAGE.public_key,
        resources=resources or {},
    )


def scheduled(chain: ledger.Chain) -> crypto.KeyPair:
    want = chain.validator_set.scheduled(chain.height)
    return next(v for v in VALIDATORS if v.public_key == want)


def mine(chain: ledger.Chain, mempool: ledger.Mempool, now: int) -> ledger.Block:
    block = ledger.produce_block(chain, mempool, scheduled(chain), now)
    ledger.append_block(chain, block)
    return block


def build_chain_with_users(n_blocks: int = 3, now: int = 1_700_000_000):
    chain = fresh_chain()
    mempool = ledger.Mempool()
    for i, user in enumerate(USERS):
        assert mempool.submit(chain, ledger.make_setup(ADMIN, user.public_key, ATTRS, now), now) is None
    mine(chain, mempool, now)
    nonce_rng = crypto.seeded_rng(b"ledger-test-nonces" + bytes(14))
    while chain.height < n_blocks:
        tx = ledger.make_accreq(USERS[0], 1, "read", crypto.gen_nonce(nonce_rng), now)
        assert mempool.submit(chain, tx, now) is None
        mine(chain, mempool, now)
    return chain, mempool


class TestCanonicalBytes:
    def test_sorted_keys_no_whitespace(self):
        out = ledger.canonical_bytes({"b": 1, "a": [2, {"z": 3, "y": 4}]})
        assert out == b'{"a":[2,{"y":4,"z":3}],"b":1}'

    def test_stability(self):
        value = {"k": "v", "n": 12, "nested": {"x": [1, 2, 3]}}
        assert ledger.canonical_bytes(value) == ledger.canonical_bytes(dict(value))


class TestMerkleRoot:
    def test_empty_is_zero(self):
        assert ledger.merkle_root([]) == bytes(32)

    def test_single_leaf_is_itself(self):
        leaf = crypto.hash_bytes(b"r")
        assert ledger.merkle_root([leaf]) == leaf

    def test_two_leaves(self):
        a, b = crypto.hash_bytes(b"a"), crypto.hash_bytes(b"b")
        assert ledger.merkle_root([a, b]) == crypto.hash_bytes(a + b)

    def test_three_leaves_duplicates_last(self):
        # hand-chained oracle: pair (a,b), duplicate c, then combine
        a, b, c = (crypto.hash_bytes(x) for x in (b"a", b"b", b"c"))
        left = crypto.hash_bytes(a + b)
        right = crypto.hash_bytes(c + c)
        assert ledger.merkle_root([a, b, c]) == crypto.hash_bytes(left + right)


class TestGenesis:
    def test_three_validators_accepted(self):
        chain = fresh_chain()
        assert chain.height == 1
        assert ledger.validate_chain(chain)

    def test_two_validators_rejected(self):
        with pytest.raises(ConfigError):
            ledger.ValidatorSet((VALIDATORS[0].public_key, VALIDATORS[1].public_key))

    def test_wrong_genesis_proposer(self):
        with pytest.raises(ScheduleError):
            ledger.genesis(
                ledger.ValidatorSet(tuple(v.public_key for v in VALIDATORS)),
                ADMIN.public_key,
                proposer=VALIDATORS[1],
                timestamp=0,
            )

    def test_resources_registered_in_memory(self):
        chain = fresh_chain(resources={7: ATTRS})
        assert ledger.memory_get(chain, ledger.resource_key(7)) == {
            "metadata": list(ATTRS)
        }


class TestSubmit:
    def setup_method(self):
        self.chain = fresh_chain()
        self.mempool = ledger.Mempool()
        self.now = 1_700_000_000

    def test_fresh_signed_accreq_accepted(self):
        tx = ledger.make_accreq(USERS[0], 1, "read", bytes(16), self.now)
        assert self.mempool.submit(self.chain, tx, self.now) is None

    def test_ten_minute_old_request_rejected(self):
        tx = ledger.make_accreq(USERS[0], 1, "read", bytes(16), self.now - 600)
        assert self.mempool.submit(self.chain, tx, self.now) == "stale"

    def test_boundary_of_freshness_window(self):
        at_edge = ledger.make_accreq(USERS[0], 1, "read", bytes(16), self.now - 120)
        beyond = ledger.make_accreq(USERS[0], 1, "read", bytes(1) * 16, self.now - 121)
        assert self.mempool.submit(self.chain, at_edge, self.now) is None
        assert self.mempool.submit(self.chain, beyond, self.now) == "stale"

    def test_setup_by_non_admin_rejected(self):
        impostor = kp("impostor")
        tx = ledger.make_setup(impostor, USERS[0].public_key, ATTRS, self.now)
        assert self.mempool.submit(self.chain, tx, self.now) == "not-admin"

    def test_tampered_signature_rejected(self):
        tx = ledger.make_accreq(USERS[0], 1, "read", bytes(16), self.now)
        forged = ledger.AccReqTx(
            user_pk=tx.user_pk,
            timestamp=tx.timestamp,
            resource_id=2,  # body changed after signing
            operation=tx.operation,
            nonce=tx.nonce,
            sig=tx.sig,
        )
        assert self.mempool.submit(self.chain, forged, self.now) == "bad-signature"

    def test_duplicate_nonce_rejected_in_mempool(self):
        tx = ledger.make_accreq(USERS[0], 1, "read", b"\x07" * 16, self.now)
        again = ledger.make_accreq(USERS[0], 2, "write", b"\x07" * 16, self.now)
        assert self.mempool.submit(self.chain, tx, self.now) is None
        assert self.mempool.submit(self.chain, again, self.now) == "replayed-nonce"

    def test_duplicate_nonce_rejected_after_mining(self):
        tx = ledger.make_accreq(USERS[0], 1, "read", b"\x09" * 16, self.now)
        assert self.mempool.submit(self.chain, tx, self.now) is None
        mine(self.chain, self.mempool, self.now)
        replay = ledger.make_accreq(USERS[0], 1, "read", b"\x09" * 16, self.now)
        assert self.mempool.submit(self.chain, replay, self.now) == "replayed-nonce"

    def test_fifo_order_preserved(self):
        txs = [
            ledger.make_accreq(USERS[0], i, "read", bytes([i]) * 16, self.now)
            for i in range(5)
        ]
        for tx in txs:
            assert self.mempool.submit(self.chain, tx, self.now) is None
        drained = self.mempool.drain(100)
        assert [t.resource_id for t in drained] == [0, 1, 2, 3, 4]


class TestBlocks:
    def setup_method(self):
        self.chain = fresh_chain()
        self.mempool = ledger.Mempool()
        self.now = 1_700_000_000

    def test_height_mod_v_schedule(self):
        # height 3 with 3 validators wraps to index 0
        assert self.chain.validator_set.scheduled(3) == VALIDATORS[0].public_key

    def test_produce_with_five_queued(self):
        for i in range(5):
            self.mempool.submit(
                self.chain,
                ledger.make_accreq(USERS[0], i, "read", bytes([i]) * 16, self.now),
                self.now,
            )
        block = ledger.produce_block(self.chain, self.mempool, scheduled(self.chain), self.now)
        assert len(block.transactions) == 5
        assert len(self.mempool) == 0

    def test_unscheduled_proposer_raises(self):
        with pytest.raises(ScheduleError):
            ledger.produce_block(self.chain, self.mempool, VALIDATORS[2], self.now)

    def test_batch_size_respected(self):
        for i in range(7):
            self.mempool.submit(
                self.chain,
                ledger.make_accreq(USERS[0], i, "read", bytes([i + 1]) * 16, self.now),
                self.now,
            )
        block = ledger.produce_block(
            self.chain, self.mempool, scheduled(self.chain), self.now, batch_size=4
        )
        assert len(block.transactions) == 4
        assert len(self.mempool) == 3

    def test_validate_honest_block(self):
        block = ledger.produce_block(self.chain, self.mempool, scheduled(self.chain), self.now)
        assert ledger.validate_block(self.chain, block)

    def test_resigned_by_unscheduled_validator_invalid(self):
        block = ledger.produce_block(self.chain, self.mempool, scheduled(self.chain), self.now)
        resigned = ledger.Block(
            height=block.height,
            prev_hash=block.prev_hash,
            tx_root=block.tx_root,
            transactions=block.transactions,
            timestamp=block.timestamp,
            proposer=VALIDATORS[2].public_key,
            sig=crypto.sign(
                VALIDATORS[2].secret_key,
                ledger.signing_bytes(
                    ledger.Block(
                        height=block.height,
                        prev_hash=block.prev_hash,
                        tx_root=block.tx_root,
                        transactions=block.transactions,
                        timestamp=block.timestamp,
                        proposer=VALIDATORS[2].public_key,
                    )
                ),
            ),
        )
        assert not ledger.validate_block(self.chain, resigned)

    def test_mutated_tx_after_signing_invalid(self):
        self.mempool.submit(
            self.chain,
            ledger.make_accreq(USERS[0], 1, "read", bytes(16), self.now),
            self.now,
        )
        block = ledger.produce_block(self.chain, self.mempool, scheduled(self.chain), self.now)
        original = block.transactions[0]
        mutated_tx = ledger.AccReqTx(
            user_pk=original.user_pk,
            timestamp=original.timestamp,
            resource_id=99,
            operation=original.operation,
            nonce=original.nonce,
            sig=original.sig,
        )
        mutated = ledger.Block(
            height=block.height,
            prev_hash=block.prev_hash,
            tx_root=block.tx_root,
            transactions=(mutated_tx,),
            timestamp=block.timestamp,
            proposer=block.proposer,
            sig=block.sig,
        )
        assert not ledger.validate_block(self.chain, mutated)

    def test_admitted_signature_on_mutated_copy_rejected(self):
        # the admitted digest must not vouch for a copy with other bytes
        original = ledger.make_accreq(USERS[0], 1, "read", bytes(16), self.now)
        assert self.mempool.submit(self.chain, original, self.now) is None
        mutated = ledger.AccReqTx(
            user_pk=original.user_pk,
            timestamp=original.timestamp,
            resource_id=99,
            operation=original.operation,
            nonce=original.nonce,
            sig=original.sig,
        )
        proposer = scheduled(self.chain)
        block = ledger.signed(
            ledger.Block(
                height=self.chain.height,
                prev_hash=self.chain.tip_hash(),
                tx_root=ledger.merkle_root([ledger.tx_digest(mutated)]),
                transactions=(mutated,),
                timestamp=self.now,
                proposer=proposer.public_key,
            ),
            proposer,
        )
        with pytest.raises(FormatError):
            ledger.append_block(self.chain, block)
        assert self.chain.height == 1
        mine(self.chain, self.mempool, self.now)
        assert self.chain.blocks[-1].transactions == (original,)
        assert not self.chain._admitted

    def test_admitted_digests_drained_by_requests(self):
        world = build_small_world(seed=11)
        assert not world.chain._admitted
        rng = random.Random(11)
        n_users = len(world.users)
        resource_ids = [rid for rid, _ in world.dataset.resources]
        for _ in range(120):
            user_index = rng.randrange(n_users + 2)  # a few outsiders
            resource_id = rng.choice(resource_ids + [10**6])
            H.run_request(world, user_index, resource_id, rng.choice(OPERATIONS))
            assert not world.chain._admitted

    def test_admin_signed_setup_with_bad_metadata_invalid(self):
        # admission refuses this as "malformed"; block validation must too
        setup = ledger.signed(
            ledger.SetupTx(
                admin_pk=ADMIN.public_key,
                user_pk=USERS[0].public_key,
                metadata=(99,) + (0,) * 7,
                timestamp=self.now,
            ),
            ADMIN,
        )
        proposer = scheduled(self.chain)
        block = ledger.signed(
            ledger.Block(
                height=self.chain.height,
                prev_hash=self.chain.tip_hash(),
                tx_root=ledger.merkle_root([ledger.tx_digest(setup)]),
                transactions=(setup,),
                timestamp=self.now,
                proposer=proposer.public_key,
            ),
            proposer,
        )
        assert not ledger.validate_block(self.chain, block)
        with pytest.raises(FormatError):
            ledger.append_block(self.chain, block)
        assert self.chain.height == 1

    def test_append_invalid_leaves_chain_unchanged(self):
        block = ledger.produce_block(self.chain, self.mempool, scheduled(self.chain), self.now)
        bad = ledger.Block(
            height=block.height,
            prev_hash=bytes(32),
            tx_root=block.tx_root,
            transactions=block.transactions,
            timestamp=block.timestamp,
            proposer=block.proposer,
            sig=block.sig,
        )
        before = self.chain.height
        with pytest.raises(FormatError):
            ledger.append_block(self.chain, bad)
        assert self.chain.height == before


class TestChainState:
    def test_setup_registers_user_hash(self):
        chain, _ = build_chain_with_users()
        key = ledger.user_key(USERS[0].public_key)
        record = ledger.memory_get(chain, key)
        assert record is not None and record["metadata"] == list(ATTRS)

    def test_unregistered_key_absent(self):
        chain, _ = build_chain_with_users()
        assert ledger.memory_get(chain, ledger.user_key(kp("nobody").public_key)) is None

    def test_replay_reconstructs_memory_exactly(self):
        chain, _ = build_chain_with_users(n_blocks=5)
        replayed = ledger.Chain.replay(chain.blocks)
        assert replayed.memory == chain.memory

    def test_proposer_sequence_is_round_robin(self):
        chain, mempool = build_chain_with_users(n_blocks=9)
        members = chain.validator_set.members
        for block in chain.blocks:
            assert block.proposer == members[block.height % len(members)]

    def test_validate_chain_on_fresh_ten_block_chain(self):
        chain, _ = build_chain_with_users(n_blocks=10)
        assert ledger.validate_chain(chain)

    def test_chain_without_blocks_invalid(self):
        assert not ledger.validate_chain(ledger.Chain())

    def test_reordered_blocks_invalid(self):
        chain, _ = build_chain_with_users(n_blocks=4)
        swapped = ledger.Chain.from_blocks_unchecked(
            [chain.blocks[0], chain.blocks[2], chain.blocks[1], chain.blocks[3]]
        )
        assert not ledger.validate_chain(swapped)

    def test_contract_state_shadowed_by_memory(self):
        chain, _ = build_chain_with_users()
        chain.put_contract_state("some/key", {"v": 1})
        assert ledger.memory_get(chain, "some/key") == {"v": 1}


class TestTipHashCache:
    def assert_coherent(self, chain):
        assert chain.tip_hash() == ledger.block_hash(chain.blocks[-1])

    def test_after_genesis(self):
        self.assert_coherent(fresh_chain())

    def test_after_each_append(self):
        chain, mempool = fresh_chain(), ledger.Mempool()
        now = 1_700_000_000
        for i, user in enumerate(USERS):
            assert mempool.submit(chain, ledger.make_setup(ADMIN, user.public_key, ATTRS, now), now) is None
            mine(chain, mempool, now + i)
            self.assert_coherent(chain)

    def test_after_rejected_append(self):
        chain = fresh_chain()
        before = chain.tip_hash()
        block = ledger.produce_block(chain, ledger.Mempool(), scheduled(chain), 1_700_000_000)
        with pytest.raises(FormatError):
            ledger.append_block(chain, ledger.signed(block, VALIDATORS[2]))
        assert chain.tip_hash() == before
        self.assert_coherent(chain)

    def test_after_load(self, tmp_path):
        chain, _ = build_chain_with_users(n_blocks=5)
        path = tmp_path / "chain.jsonl"
        ledger.save_chain(chain, path)
        loaded = ledger.load_chain(path)
        self.assert_coherent(loaded)
        assert loaded.tip_hash() == chain.tip_hash()


class TestTamperEvidence:
    def test_any_single_byte_flip_detected(self):
        chain, _ = build_chain_with_users(n_blocks=4)
        blob = b"\n".join(ledger.block_canonical_bytes(b) for b in chain.blocks)
        rng = random.Random(2024)
        for _ in range(40):
            mutated = bytearray(blob)
            position = rng.randrange(len(mutated))
            mutated[position] ^= rng.randrange(1, 256)
            try:
                blocks = [
                    ledger.block_from_dict(json.loads(line.decode()))
                    for line in bytes(mutated).split(b"\n")
                    if line.strip()
                ]
            except (FormatError, json.JSONDecodeError, UnicodeDecodeError):
                continue  # unparseable counts as detected
            candidate = ledger.Chain.from_blocks_unchecked(blocks)
            assert not ledger.validate_chain(candidate), f"flip at {position} survived"


class TestQueryHistory:
    def test_unknown_pk_empty(self):
        chain, _ = build_chain_with_users()
        assert ledger.query_history(chain, user_pk=kp("ghost").public_key) == []

    def test_kind_filter(self):
        chain, _ = build_chain_with_users(n_blocks=4)
        setups = ledger.query_history(chain, kind="setup")
        assert len(setups) == len(USERS)
        accreqs = ledger.query_history(chain, kind="accreq")
        assert all(tx.kind == "accreq" for _, tx in accreqs)

    def test_union_of_per_user_queries_is_all_accreqs(self):
        chain, _ = build_chain_with_users(n_blocks=5)
        every = ledger.query_history(chain, kind="accreq")
        union = []
        for user in USERS:
            union.extend(ledger.query_history(chain, user_pk=user.public_key, kind="accreq"))
        assert sorted(ledger.tx_digest(t) for _, t in union) == sorted(
            ledger.tx_digest(t) for _, t in every
        )

    def test_resource_filter(self):
        chain, _ = build_chain_with_users(n_blocks=4)
        for height, tx in ledger.query_history(chain, resource_id=1):
            assert tx.resource_id == 1

    def test_unknown_kind_rejected(self):
        chain, _ = build_chain_with_users()
        with pytest.raises(ValueError):
            ledger.query_history(chain, kind="bogus")


class TestPersistence:
    def test_round_trip_preserves_bytes(self, tmp_path):
        chain, _ = build_chain_with_users(n_blocks=5)
        path = tmp_path / "chain.jsonl"
        ledger.save_chain(chain, path)
        loaded = ledger.load_chain(path)
        assert ledger.validate_chain(loaded)
        path2 = tmp_path / "chain2.jsonl"
        ledger.save_chain(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_load_garbage_raises(self, tmp_path):
        path = tmp_path / "chain.jsonl"
        path.write_bytes(b"not json\n")
        with pytest.raises(FormatError):
            ledger.load_chain(path)

    def test_loaded_chain_memory_usable(self, tmp_path):
        chain, _ = build_chain_with_users()
        path = tmp_path / "chain.jsonl"
        ledger.save_chain(chain, path)
        loaded = ledger.load_chain(path)
        assert ledger.memory_get(loaded, ledger.user_key(USERS[0].public_key)) is not None
