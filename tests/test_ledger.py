"""Ledger-level checks: admission, blocks, validation, replay, persistence."""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import multiprocessing
import os
import random
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import ClassVar

import pytest
from hypothesis import given, settings, strategies as st

from authchain import crypto, harness as H, ledger
from authchain.config import Config
from authchain.errors import ConfigError, FormatError, ScheduleError
from conftest import IDENTITY_KEY, UNIVERSAL_SIG, build_small_world


def kp(tag: str) -> crypto.KeyPair:
    return crypto.keygen(hashlib.sha256(tag.encode()).digest())


VALIDATORS = [kp(f"validator-{i}") for i in range(3)]
ADMIN = kp("admin")
STORAGE = kp("storage-entity")
USERS = [kp(f"user-{i}") for i in range(4)]
ATTRS = (1, 2, 3, 4, 5, 6, 7, 8)


def fresh_chain(resources=None, freshness_window=ledger.DEFAULT_FRESHNESS_WINDOW) -> ledger.Chain:
    return ledger.genesis(
        ledger.ValidatorSet(tuple(v.public_key for v in VALIDATORS)),
        ADMIN.public_key,
        proposer=VALIDATORS[0],
        timestamp=1_700_000_000,
        storage_pk=STORAGE.public_key,
        resources=resources or {},
        freshness_window=freshness_window,
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


def reference_canonical_bytes(value) -> bytes:
    """The standard library's canonical form, the encoder's oracle."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


class Wrapped:
    """A parsed line, in the shape ``parse_canonical_lines`` expects."""

    def __init__(self, value) -> None:
        self.value = value

    def to_dict(self):
        return self.value


EDGE_INTS = st.sampled_from([
    ledger.CANONICAL_INT_MIN, ledger.CANONICAL_INT_MIN + 1, -1, 0, 1,
    2**63 - 1, 2**63, ledger.CANONICAL_INT_MAX - 1, ledger.CANONICAL_INT_MAX,
])
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) | st.text(
    st.sampled_from('\x00\x08\t\n\x0c\r\x1f\x7f"\\/\u2028\u00e9\U0001f600'), max_size=8
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | EDGE_INTS
    | st.integers(ledger.CANONICAL_INT_MIN, ledger.CANONICAL_INT_MAX) | TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=16,
)


class TestCanonicalBytes:
    def test_sorted_keys_no_whitespace(self):
        out = ledger.canonical_bytes({"b": 1, "a": [2, {"z": 3, "y": 4}]})
        assert out == b'{"a":[2,{"y":4,"z":3}],"b":1}'

    def test_stability(self):
        value = {"k": "v", "n": 12, "nested": {"x": [1, 2, 3]}}
        assert ledger.canonical_bytes(value) == ledger.canonical_bytes(dict(value))

    @settings(max_examples=400, derandomize=True)
    @given(JSON_VALUES)
    def test_matches_standard_library_and_round_trips(self, value):
        line = ledger.canonical_bytes(value)
        assert line == reference_canonical_bytes(value)
        [parsed] = ledger.parse_canonical_lines(line, Wrapped, "value")
        assert reference_canonical_bytes(parsed.value) == line

    @pytest.mark.parametrize(
        "value, named",
        [
            (ledger.CANONICAL_INT_MAX + 1, ledger.CANONICAL_INT_MAX + 1),
            (ledger.CANONICAL_INT_MIN - 1, ledger.CANONICAL_INT_MIN - 1),
            ({"a": [1, {"b": (2, 10**30)}]}, 10**30),
        ],
        ids=["above", "below", "nested"],
    )
    def test_out_of_range_integer_raises_value_error(self, value, named):
        with pytest.raises(ValueError, match=f"^integer {named} is outside"):
            ledger.canonical_bytes(value)

    def test_unencodable_value_still_raises_type_error(self):
        with pytest.raises(TypeError):
            ledger.canonical_bytes({1: "int key"})

    def test_out_of_range_integer_in_a_line_names_its_line(self):
        line = str(ledger.CANONICAL_INT_MAX + 1).encode()
        with pytest.raises(FormatError, match="^value line 2: integer .* is outside"):
            ledger.parse_canonical_lines(b"1\n" + line, lambda v: Wrapped(int(v)), "value")


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
        assert chain.memory.get(ledger.resource_key(7)) == {
            "metadata": list(ATTRS)
        }

    def test_genesis_carries_the_chain_format(self):
        assert fresh_chain().genesis_payload["format"] == ledger.CHAIN_FORMAT == 3

    @staticmethod
    def genesis_with(key, value):
        """The genesis block with ``key`` set to ``value`` in its payload
        (absent for None), re-signed by its proposer."""
        block = fresh_chain().blocks[0]
        payload = {k: v for k, v in block.payload.items() if k != key}
        if value is not None:
            payload[key] = value
        return ledger.signed(replace(block, payload=payload), VALIDATORS[0])

    @pytest.mark.parametrize(
        "chain_format", [None, 0, 1, 2, 4, True, 1.0, 2.0, 3.0, "3"],
        ids=["absent", "0", "1", "2", "4", "true", "1.0", "2.0", "3.0", "str"],
    )
    def test_genesis_of_another_format_invalid(self, chain_format):
        resigned = self.genesis_with("format", chain_format)
        assert not ledger.validate_block(ledger.Chain(), resigned)
        assert not ledger.validate_chain(ledger.Chain.from_blocks_unchecked([resigned]))

    def test_genesis_carries_the_freshness_window(self):
        assert fresh_chain().genesis_payload["freshness_window"] == ledger.DEFAULT_FRESHNESS_WINDOW
        world = build_small_world(seed=3, config=Config(freshness_window=77))
        assert world.chain.genesis_payload["freshness_window"] == 77

    @pytest.mark.parametrize(
        "window", [None, 0, -1, True, 120.0, "120"],
        ids=["absent", "0", "negative", "true", "float", "str"],
    )
    def test_genesis_without_a_positive_int_window_invalid(self, window):
        resigned = self.genesis_with("freshness_window", window)
        assert not ledger.validate_block(ledger.Chain(), resigned)
        assert not ledger.validate_chain(ledger.Chain.from_blocks_unchecked([resigned]))


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

    def test_window_is_the_genesis_one(self):
        chain = fresh_chain(freshness_window=77)
        at_edge = ledger.make_accreq(USERS[0], 1, "read", bytes(16), self.now - 77)
        beyond = ledger.make_accreq(USERS[0], 1, "read", bytes(1) * 16, self.now - 78)
        assert self.mempool.submit(chain, at_edge, self.now) is None
        assert self.mempool.submit(chain, beyond, self.now) == "stale"

    def test_setup_by_non_admin_rejected(self):
        impostor = kp("impostor")
        tx = ledger.make_setup(impostor, USERS[0].public_key, ATTRS, self.now)
        assert self.mempool.submit(self.chain, tx, self.now) == "bad-signature"

    @pytest.mark.parametrize("key", ["admin_pk", "storage_pk"])
    @pytest.mark.parametrize("value", [None, "zz"], ids=["absent", "not-hex"])
    def test_signer_key_missing_from_genesis_rejected(self, key, value):
        block = self.chain.blocks[0]
        payload = {**block.payload, key: value}
        chain = ledger.Chain()
        ledger.append_block(chain, ledger.signed(replace(block, payload=payload), VALIDATORS[0]))
        tx = (
            ledger.make_setup(ADMIN, USERS[0].public_key, ATTRS, self.now)
            if key == "admin_pk"
            else ledger.make_storage(STORAGE, bytes(16), USERS[0].public_key, self.now)
        )
        assert self.mempool.submit(chain, tx, self.now) == "bad-signature"

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
            transactions=block.transactions,
            timestamp=block.timestamp,
            sig=crypto.sign(
                VALIDATORS[2].secret_key,
                ledger.signing_bytes(
                    ledger.Block(
                        height=block.height,
                        prev_hash=block.prev_hash,
                        transactions=block.transactions,
                        timestamp=block.timestamp,
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
            transactions=(mutated_tx,),
            timestamp=block.timestamp,
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
                transactions=(mutated,),
                timestamp=self.now,
            ),
            proposer,
        )
        with pytest.raises(FormatError):
            ledger.append_block(self.chain, block)
        assert self.chain.height == 1
        mine(self.chain, self.mempool, self.now)
        assert self.chain.blocks[-1].transactions == (original,)

    def test_admin_signed_setup_with_bad_metadata_invalid(self):
        # admission refuses this as "malformed"; block validation must too
        setup = ledger.signed(
            ledger.SetupTx(
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
                transactions=(setup,),
                timestamp=self.now,
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
            transactions=block.transactions,
            timestamp=block.timestamp,
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
        record = chain.memory.get(key)
        assert record is not None and record["metadata"] == list(ATTRS)

    def test_unregistered_key_absent(self):
        chain, _ = build_chain_with_users()
        assert chain.memory.get(ledger.user_key(kp("nobody").public_key)) is None

    def test_replay_reconstructs_memory_exactly(self):
        chain, _ = build_chain_with_users(n_blocks=5)
        replayed = ledger.Chain.replay(chain.blocks)
        assert replayed.memory == chain.memory

    def test_proposer_sequence_is_round_robin(self):
        chain, mempool = build_chain_with_users(n_blocks=9)
        members = chain.validator_set.members
        for block in chain.blocks:
            signers = [
                i for i, member in enumerate(members)
                if crypto.verify_sig(member, ledger.signing_bytes(block), block.sig)
            ]
            assert signers == [block.height % len(members)]

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


def block_at_tip(
    chain: ledger.Chain, transactions, now: int = 1_700_000_000, proposer=None
) -> ledger.Block:
    """A block of ``transactions`` for the chain's next height, signed by
    ``proposer`` (by default the scheduled one of ``VALIDATORS``), as a
    dishonest proposer would build it."""
    proposer = proposer or scheduled(chain)
    return ledger.signed(
        ledger.Block(
            height=chain.height,
            prev_hash=chain.tip_hash(),
            transactions=tuple(transactions),
            timestamp=now,
        ),
        proposer,
    )


class TestNonceReplayInBlocks:
    def test_block_replaying_a_mined_request_invalid(self):
        chain, _ = build_chain_with_users(n_blocks=3)
        (mined,) = chain.blocks[2].transactions
        block = block_at_tip(chain, [mined])
        assert not ledger.validate_block(chain, block)
        with pytest.raises(FormatError):
            ledger.append_block(chain, block)
        assert chain.height == 3

    def test_nonce_repeated_within_a_block_invalid(self):
        chain, _ = build_chain_with_users(n_blocks=2)
        now = 1_700_000_000
        nonce = bytes([7]) * 16
        request = ledger.make_accreq(USERS[1], 1, "read", nonce, now)
        other = ledger.make_accreq(USERS[2], 2, "write", nonce, now)
        assert ledger.validate_block(chain, block_at_tip(chain, [request]))
        assert not ledger.validate_block(chain, block_at_tip(chain, [request, request]))
        assert not ledger.validate_block(chain, block_at_tip(chain, [request, other]))

    def test_chain_replaying_a_granted_request_invalid(self, served_world):
        world = served_world
        mined = next(
            tx for block in world.chain.blocks for tx in block.transactions
            if isinstance(tx, ledger.AccReqTx)
        )
        replayed = block_at_tip(world.chain, [mined], world.now(), world.scheduled_proposer())
        blocks = [*world.chain.blocks, replayed]
        assert not ledger.validate_chain(ledger.Chain.from_blocks_unchecked(blocks))
        with pytest.raises(FormatError):
            ledger.Chain.replay(blocks)
        assert ledger.validate_chain(ledger.Chain.from_blocks_unchecked(blocks[:-1]))


class TestSmallOrderKeyForgery:
    def test_block_carrying_a_forged_request_invalid(self):
        chain, _ = build_chain_with_users(n_blocks=2)
        forged = replace(
            ledger.AccReqTx(IDENTITY_KEY + USERS[0].public_key[32:], 1_700_000_000, 1, "read", bytes([9]) * 16),
            sig=UNIVERSAL_SIG,
        )
        block = block_at_tip(chain, [forged])
        assert not ledger.validate_block(chain, block)
        with pytest.raises(FormatError):
            ledger.append_block(chain, block)
        assert chain.height == 2
        assert not ledger.validate_chain(ledger.Chain.from_blocks_unchecked([*chain.blocks, block]))


@pytest.fixture(scope="module")
def scenario_world():
    world = H.setup_world(3, 12, 6, seed=0)
    assert all(report.passed for report in H.run_all_scenarios(world))
    return world


class TestBlockTime:
    """A block signed by the scheduled validator but dated before its
    parent, or holding an access request dated outside the genesis
    freshness window from the block."""

    @pytest.mark.parametrize(
        "dated", [lambda parent: 0, lambda parent: parent - 10**6],
        ids=["zero", "million-seconds-early"],
    )
    def test_block_dated_before_its_parent_invalid(self, scenario_world, dated):
        chain = scenario_world.chain
        timestamp = dated(chain.blocks[-1].timestamp)
        block = block_at_tip(chain, [], timestamp, scenario_world.scheduled_proposer())
        assert not ledger.validate_block(chain, block)
        with pytest.raises(FormatError):
            ledger.append_block(chain, block)
        assert not ledger.validate_chain(ledger.Chain.from_blocks_unchecked([*chain.blocks, block]))

    WINDOW = ledger.DEFAULT_FRESHNESS_WINDOW

    def mine_request(self, world, request_after: int, block_after: int):
        """A fresh request dated ``request_after`` seconds after the tip, in
        a block dated ``block_after`` seconds after it, signed by the
        scheduled validator."""
        chain = world.chain
        tip = chain.blocks[-1].timestamp
        request = ledger.make_accreq(world.users[0], 0, "read", bytes([9]) * 16, tip + request_after)
        return block_at_tip(chain, [request], tip + block_after, world.scheduled_proposer())

    @pytest.mark.parametrize(
        "request_after, block_after",
        [(0, 10**6), (0, WINDOW + 1), (WINDOW + 1, 0)],
        ids=["million-seconds-late", "just-late", "dated-ahead"],
    )
    def test_request_outside_the_window_of_its_block_invalid(
        self, scenario_world, request_after, block_after
    ):
        chain = scenario_world.chain
        block = self.mine_request(scenario_world, request_after, block_after)
        assert not ledger.validate_block(chain, block)
        with pytest.raises(FormatError):
            ledger.append_block(chain, block)
        assert not ledger.validate_chain(ledger.Chain.from_blocks_unchecked([*chain.blocks, block]))

    @pytest.mark.parametrize("request_after, block_after", [(0, WINDOW), (WINDOW, 0)])
    def test_request_at_the_edge_of_the_window_valid(
        self, scenario_world, request_after, block_after
    ):
        block = self.mine_request(scenario_world, request_after, block_after)
        assert ledger.validate_block(scenario_world.chain, block)

    @pytest.mark.parametrize("age, kept", [(WINDOW, False), (WINDOW - 1, True)],
                             ids=["past-the-window", "at-the-edge"])
    def test_produce_block_leaves_out_a_request_its_block_cannot_hold(self, age, kept):
        # admitted at the window's edge, then mined a second later: the
        # request is one second past the window of its block
        chain, mempool = fresh_chain(), ledger.Mempool()
        now = chain.blocks[-1].timestamp + 10 * self.WINDOW
        request = ledger.make_accreq(USERS[0], 1, "read", bytes(16), now - age)
        assert mempool.submit(chain, request, now) is None
        block = mine(chain, mempool, now + 1)
        assert block.transactions == ((request,) if kept else ())
        assert len(mempool) == 0
        assert ledger.validate_chain(chain)
        # a left-out request's nonce is neither pending nor on chain
        again = ledger.make_accreq(USERS[0], 2, "read", request.nonce, now + 1)
        assert mempool.submit(chain, again, now + 1) == ("replayed-nonce" if kept else None)


@dataclass(frozen=True)
class FabricatedHandOff:
    """The unsigned authentication hand-off that older chains carried, or
    any other object that is not one of the four transaction kinds."""

    kind: ClassVar[str] = "verified"
    user_pk: bytes
    timestamp: int = 1_700_000_000

    def to_dict(self) -> dict:
        return {"kind": self.kind, "timestamp": self.timestamp, "user_pk": self.user_pk.hex()}


class TestFabricatedHandOff:
    """A validator mines a transaction of no known kind, here a hand-off for
    a key that was never registered."""

    def test_check_tx_refuses_an_unknown_kind(self):
        chain = fresh_chain()
        tx = FabricatedHandOff(kp("never-registered").public_key)
        assert ledger.check_tx(chain.genesis_payload, tx) == "unknown-kind"
        assert ledger.Mempool().submit(chain, tx, tx.timestamp) == "unknown-kind"

    def test_scheduled_validator_cannot_mine_it(self):
        chain, _ = build_chain_with_users(n_blocks=2)
        honest = ledger.make_accreq(USERS[0], 1, "read", bytes([7]) * 16, 1_700_000_000)
        assert ledger.validate_block(chain, block_at_tip(chain, [honest]))
        block = block_at_tip(chain, [honest, FabricatedHandOff(kp("never-registered").public_key)])
        assert crypto.verify_sig(
            chain.validator_set.scheduled(chain.height), ledger.signing_bytes(block), block.sig
        )
        assert not ledger.validate_block(chain, block)
        with pytest.raises(FormatError):
            ledger.append_block(chain, block)
        assert chain.height == 2
        assert not ledger.validate_chain(ledger.Chain.from_blocks_unchecked([*chain.blocks, block]))

    def test_chain_file_holding_a_hand_off_refused_at_parse(self, tmp_path):
        chain, _ = build_chain_with_users(n_blocks=2)
        block = block_at_tip(chain, [FabricatedHandOff(USERS[0].public_key)])
        with pytest.raises(FormatError, match="unknown transaction kind 'verified'"):
            ledger.block_from_dict(block.to_dict())
        path = tmp_path / "chain.jsonl"
        ledger.write_canonical_lines(path, [b.to_dict() for b in (*chain.blocks, block)])
        with pytest.raises(FormatError, match="^chain line 3: unknown transaction kind 'verified'$"):
            ledger.load_chain(path)


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


HEX_DIGITS = b"0123456789abcdef"


def byte_flipped_chains():
    """(position, chain) for 40 seeded single-byte changes of a 4-block
    chain file, each turning a hex digit into another, so most still parse
    and reach validation; one that no longer parses is left out, as
    already detected."""
    chain, _ = build_chain_with_users(n_blocks=4)
    blob = b"\n".join(ledger.block_canonical_bytes(b) for b in chain.blocks)
    digits = [i for i, byte in enumerate(blob) if byte in HEX_DIGITS]
    rng = random.Random(2024)
    for _ in range(40):
        mutated = bytearray(blob)
        position = rng.choice(digits)
        mutated[position] = rng.choice([d for d in HEX_DIGITS if d != mutated[position]])
        try:
            blocks = [
                ledger.block_from_dict(json.loads(line.decode()))
                for line in bytes(mutated).split(b"\n")
                if line.strip()
            ]
        except (FormatError, json.JSONDecodeError, UnicodeDecodeError):
            continue
        yield position, ledger.Chain.from_blocks_unchecked(blocks)


class TestTamperEvidence:
    def test_any_single_byte_flip_detected(self):
        for position, candidate in byte_flipped_chains():
            assert not ledger.validate_chain(candidate), f"flip at {position} survived"


def replay_verdict(blocks) -> bool:
    """The in-process reference: replay with every signature checked inline."""
    try:
        ledger.Chain.replay(blocks)
    except (FormatError, ValueError):
        return False
    return True


def structurally_valid(blocks) -> bool:
    """Whether the blocks pass every rule but the signature checks."""
    chain = ledger.Chain()
    try:
        for block in blocks:
            ledger.append_block(chain, block, lambda *check: True)
    except FormatError:
        return False
    return True


def flip(value: bytes) -> bytes:
    return bytes([value[0] ^ 1]) + value[1:]


def resigned_from(world, blocks, start):
    """Re-link and re-sign ``blocks[start:]``, so only a change made before
    ``start`` can be wrong."""
    keys = {v.public_key: v for v in world.validators}
    schedule = world.chain.validator_set
    out = list(blocks[:start])
    for block in blocks[start:]:
        if out:
            block = replace(block, prev_hash=ledger.block_hash(out[-1]))
        out.append(ledger.signed(block, keys[schedule.scheduled(block.height)]))
    return out


def bad_first_signature(world, blocks):
    return resigned_from(world, [replace(blocks[0], sig=flip(blocks[0].sig)), *blocks[1:]], 1)


def bad_last_signature(world, blocks):
    last = blocks[-1]
    txs = list(last.transactions)
    txs[0] = replace(txs[0], sig=flip(txs[0].sig))
    last = replace(last, transactions=tuple(txs))
    return resigned_from(world, [*blocks[:-1], last], len(blocks) - 1)


def broken_link(world, blocks):
    mid = len(blocks) // 2
    return [*blocks[:mid], replace(blocks[mid], prev_hash=flip(blocks[mid].prev_hash)),
            *blocks[mid + 1:]]


# name -> (make the blocks, expected verdict, only a signature is wrong)
CHAIN_CASES = {
    "intact": (lambda world, blocks: list(blocks), True, False),
    "bad-first-signature": (bad_first_signature, False, True),
    "bad-last-signature": (bad_last_signature, False, True),
    "broken-link": (broken_link, False, False),
}


@pytest.fixture(scope="module")
def served_world():
    world = build_small_world(seed=7)
    case = H.find_case(world, want_grant=True)
    for _ in range(12):
        H.run_request(world, *case)
    return world


@pytest.fixture()
def pooled(monkeypatch):
    """Make validate_chain verify a small chain in a pool of two workers,
    four signatures per chunk; returns the pools it opens."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(crypto, "PARALLEL_MIN_SIGNATURES", 8)
    monkeypatch.setattr(crypto, "PARALLEL_CHUNK_SIGNATURES", 4)
    pools = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return pools


class BreakingPool:
    """Stand-in pool that verifies the first chunk, then reports itself
    broken, as when a worker dies."""

    def __init__(self, *args, **kwargs):
        self.submitted = 0

    def submit(self, fn, chunk):
        future = Future()
        if self.submitted:
            future.set_exception(BrokenProcessPool("a worker died"))
        else:
            future.set_result(fn(chunk))
        self.submitted += 1
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


def pool_that_cannot_start(*args, **kwargs):
    raise OSError("fork failed")


class TestParallelValidation:
    @pytest.mark.parametrize("name", CHAIN_CASES)
    def test_pool_verdict_matches_replay(self, served_world, pooled, name):
        make, expected, signature_only = CHAIN_CASES[name]
        blocks = make(served_world, served_world.chain.blocks)
        assert structurally_valid(blocks) == (expected or signature_only)
        assert replay_verdict(blocks) is expected
        assert ledger.validate_chain(ledger.Chain.from_blocks_unchecked(blocks)) is expected
        assert pooled, "the chain was verified without the pool"
        # no worker outlives the call: after True, after a failed signature,
        # and after a broken link ends the stream with chunks in flight
        assert multiprocessing.active_children() == []

    def test_byte_flips_pool_verdict_matches_replay(self, pooled, monkeypatch):
        # the pool opens after the second block, before most flipped bytes
        monkeypatch.setattr(crypto, "PARALLEL_MIN_SIGNATURES", 2)
        for position, candidate in byte_flipped_chains():
            assert ledger.validate_chain(candidate) == replay_verdict(candidate.blocks), position
        assert pooled

    @pytest.mark.parametrize("failing_pool", [pool_that_cannot_start, BreakingPool],
                             ids=["cannot-start", "breaks"])
    @pytest.mark.parametrize("name", CHAIN_CASES)
    def test_failed_pool_verdict_matches_replay(self, served_world, pooled, monkeypatch,
                                                failing_pool, name):
        make, expected, _ = CHAIN_CASES[name]
        blocks = make(served_world, served_world.chain.blocks)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", failing_pool)
        verifies = []
        inner = crypto.verify_sig
        monkeypatch.setattr(crypto, "verify_sig", lambda *check: verifies.append(check) or inner(*check))
        assert ledger.validate_chain(ledger.Chain.from_blocks_unchecked(blocks)) is expected
        if expected:  # every signature verified exactly once
            transactions = sum(len(b.transactions) for b in blocks)
            assert len(verifies) == len(set(verifies)) == len(blocks) + transactions

    def test_other_threads_keep_verification_in_process(self, served_world, pooled):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert ledger.validate_chain(served_world.chain)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert pooled == []


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

    def test_malformed_block_names_its_line(self, tmp_path):
        chain, _ = build_chain_with_users(n_blocks=3)
        lines = [ledger.block_canonical_bytes(b) for b in chain.blocks]
        second = chain.blocks[1].to_dict()
        del second["height"]
        lines[1] = ledger.canonical_bytes(second)
        path = tmp_path / "chain.jsonl"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError, match="^chain line 2: malformed block: 'height'$"):
            ledger.load_chain(path)

    @pytest.mark.parametrize(
        "height, where, key, named",
        [
            (1, lambda block: block, "tx_root", "block"),
            (1, lambda block: block["transactions"][0], "admin_pk", "setup"),
            (1, lambda block: block, "a", "block"),
            (2, lambda block: block["transactions"][0], "user_bits", "accreq"),
            (2, lambda block: block["transactions"][0]["req_info"], "bits", "req_info"),
        ],
        ids=["block", "setup", "sorts-first", "accreq", "req-info"],
    )
    def test_unexpected_key_is_named(self, tmp_path, height, where, key, named):
        # a field of another format, which the reader would otherwise drop
        chain, _ = build_chain_with_users(n_blocks=3)
        d = chain.blocks[height].to_dict()
        where(d)[key] = "00"
        with pytest.raises(FormatError, match=f"^unexpected key '{key}' in {named}$"):
            ledger.block_from_dict(d)
        lines = [ledger.block_canonical_bytes(b) for b in chain.blocks]
        lines[height] = ledger.canonical_bytes(d)
        path = tmp_path / "chain.jsonl"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(
            FormatError, match=f"^chain line {height + 1}: unexpected key '{key}' in {named}$"
        ):
            ledger.load_chain(path)

    def test_loaded_chain_memory_usable(self, tmp_path):
        chain, _ = build_chain_with_users()
        path = tmp_path / "chain.jsonl"
        ledger.save_chain(chain, path)
        loaded = ledger.load_chain(path)
        assert loaded.memory.get(ledger.user_key(USERS[0].public_key)) is not None
