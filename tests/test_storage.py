"""Storage checks: links, redemption, the log, and its running root."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from authchain import crypto, ledger, storage as S
from authchain.contracts import BAN_COUNTED_REASONS, AccessList, Denial, DenialReason
from authchain.errors import DecryptError, FormatError
from conftest import SMALL_ORDER_X25519


def kp(tag: str) -> crypto.KeyPair:
    return crypto.keygen(hashlib.sha256(tag.encode()).digest())


STORAGE_KEYS = kp("storage")
USER = kp("link-user")
NOW = 1_700_000_000

GRANT_READ = AccessList(
    grants=(True, False, False, False),
    rule=None,
    requested="read",
)


def make_node(with_resource: bool = True) -> S.StorageNode:
    node = S.StorageNode(STORAGE_KEYS)
    if with_resource:
        node.put_resource(S.Resource(id=5, content=b"contents-5"))
    return node


def rng(tag: str = "storage-tests") -> crypto.RandomSource:
    return crypto.seeded_rng(hashlib.sha256(tag.encode()).digest())


def issue(node: S.StorageNode, r=None) -> tuple[bytes, bytes, ledger.LinkTx]:
    tx = node.issue_link(GRANT_READ, USER.public_key, 5, NOW, r or rng())
    assert isinstance(tx, ledger.LinkTx)
    note = crypto.decrypt(USER.secret_key, tx.ciphertext)
    assert len(note) == S.LINK_NOTE_SIZE
    return note[:S.TOKEN_SIZE], note[S.TOKEN_SIZE:], tx


class TestResources:
    def test_put_then_get(self):
        node = make_node()
        assert node.get_resource(5).content == b"contents-5"

    def test_duplicate_id_rejected(self):
        node = make_node()
        with pytest.raises(ValueError):
            node.put_resource(S.Resource(id=5, content=b"x"))

    def test_ids_independent_of_insertion_order(self):
        a = S.StorageNode(STORAGE_KEYS)
        b = S.StorageNode(STORAGE_KEYS)
        r1 = S.Resource(id=1, content=b"one")
        r2 = S.Resource(id=2, content=b"two")
        a.put_resource(r1), a.put_resource(r2)
        b.put_resource(r2), b.put_resource(r1)
        assert a.get_resource(1).content == b.get_resource(1).content
        assert a.get_resource(2).content == b.get_resource(2).content


class TestIssueLink:
    def test_payload_decrypts_only_for_recipient(self):
        node = make_node()
        _, _, tx = issue(node)
        stranger = kp("stranger")
        with pytest.raises(DecryptError):
            crypto.decrypt(stranger.secret_key, tx.ciphertext)

    def test_read_link_note_returns_stored_token_and_nonce(self):
        node = make_node()
        _, _, tx = issue(node)
        token, nonce = S.read_link_note(USER.secret_key, tx)
        link = node.links[token]
        assert link.nonce == nonce
        assert link.user_pk == USER.public_key

    def test_read_link_note_stranger_key_format_error(self):
        _, _, tx = issue(make_node())
        with pytest.raises(FormatError) as caught:
            S.read_link_note(kp("stranger").secret_key, tx)
        assert not isinstance(caught.value, DecryptError)

    @pytest.mark.parametrize(
        "plaintext",
        [b"not json", b"[1, 2]", bytes(S.TOKEN_SIZE), b'{"link": "zz", "nonce": "00"}'],
        ids=["not-json", "not-object", "no-nonce", "not-hex"],
    )
    def test_read_link_note_unparsable_note_format_error(self, plaintext):
        _, _, tx = issue(make_node())
        forged = dataclasses.replace(
            tx, ciphertext=crypto.encrypt(USER.public_key, plaintext, rng("forged"))
        )
        with pytest.raises(FormatError):
            S.read_link_note(USER.secret_key, forged)

    @pytest.mark.parametrize("ephemeral", SMALL_ORDER_X25519.values(), ids=SMALL_ORDER_X25519)
    def test_read_link_note_small_order_ephemeral_format_error(self, ephemeral):
        _, _, tx = issue(make_node())
        forged = dataclasses.replace(tx, ciphertext=ephemeral + tx.ciphertext[32:])
        with pytest.raises(FormatError, match="^unreadable link note: ") as caught:
            S.read_link_note(USER.secret_key, forged)
        assert not isinstance(caught.value, DecryptError)

    def test_two_issuances_distinct_nonces(self):
        node = make_node()
        shared = rng("one-stream")
        _, nonce_a, _ = issue(node, shared)
        _, nonce_b, _ = issue(node, shared)
        assert nonce_a != nonce_b

    def test_signed_by_storage(self):
        node = make_node()
        _, _, tx = issue(node)
        assert crypto.verify_sig(
            STORAGE_KEYS.public_key, ledger.signing_bytes(tx), tx.sig
        )

    def test_non_granting_decision_refused_and_logged(self):
        node = make_node()
        ungranted = AccessList(
            grants=(False, True, True, True),
            rule=None,
            requested="read",
        )
        result = node.issue_link(ungranted, USER.public_key, 5, NOW, rng())
        assert isinstance(result, Denial)
        assert len(node.log) == 1

    def test_unknown_resource_refused(self):
        node = make_node(with_resource=False)
        result = node.issue_link(GRANT_READ, USER.public_key, 5, NOW, rng())
        assert isinstance(result, Denial)
        assert result.reason == DenialReason.WRONG_RESOURCE


class TestRedeem:
    def test_first_redemption_returns_content_and_tx(self):
        node = make_node()
        token, nonce, _ = issue(node)
        result = node.redeem_link(token, nonce, NOW + 1)
        assert not isinstance(result, Denial)
        content, tx = result
        assert content == b"contents-5"
        assert tx.nonce == nonce
        assert tx.user_pk == USER.public_key

    def test_second_redemption_denied_replay(self):
        node = make_node()
        token, nonce, _ = issue(node)
        node.redeem_link(token, nonce, NOW + 1)
        second = node.redeem_link(token, nonce, NOW + 2)
        assert isinstance(second, Denial)
        assert second.reason == DenialReason.REPLAY

    def test_expired_link_denied(self):
        node = make_node()
        token, nonce, _ = issue(node)
        result = node.redeem_link(token, nonce, NOW + node.link_ttl + 1)
        assert isinstance(result, Denial)
        assert result.reason == DenialReason.STALE

    def test_unknown_token_denied(self):
        node = make_node()
        result = node.redeem_link(b"\x00" * 32, b"\x00" * 16, NOW)
        assert isinstance(result, Denial)
        assert result.reason == DenialReason.WRONG_RESOURCE

    def test_mismatched_nonce_denied(self):
        node = make_node()
        token, nonce, _ = issue(node)
        result = node.redeem_link(token, bytes(16), NOW + 1)
        assert isinstance(result, Denial)
        assert result.reason == DenialReason.REPLAY

    def test_exactly_one_concurrent_redemption_succeeds(self):
        node = make_node()
        token, nonce, _ = issue(node)

        def attempt(_):
            return node.redeem_link(token, nonce, NOW + 1)

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(attempt, range(64)))
        winners = [r for r in results if not isinstance(r, Denial)]
        assert len(winners) == 1

    def test_spent_nonces_survive_restore(self):
        node = make_node()
        token, nonce, _ = issue(node)
        node.redeem_link(token, nonce, NOW + 1)
        reborn = S.StorageNode(STORAGE_KEYS)
        reborn.restore_state(node.to_state())
        result = reborn.redeem_link(token, nonce, NOW + 2)
        assert isinstance(result, Denial)
        assert result.reason == DenialReason.REPLAY

    def test_restored_redeemed_link_logs_the_same_replay_record(self):
        node = make_node()
        token, nonce, _ = issue(node)
        node.redeem_link(token, nonce, NOW + 1)
        reborn = S.StorageNode(STORAGE_KEYS)
        reborn.restore_state(node.to_state())
        for n in (node, reborn):
            assert n.redeem_link(token, nonce, NOW + 2, block_height=9).reason == DenialReason.REPLAY
        assert [r.to_dict() for r in reborn.log.records] == [r.to_dict() for r in node.log.records]
        assert len(node.log) == 1


class TestRecords:
    def test_one_denial_one_record_with_sequence(self):
        node = make_node()
        for i in range(3):
            node.record_malicious(b"tx-bytes-%d" % i, DenialReason.MODEL_DENIED,
                                  None, "subject", 1, NOW + i)
        assert [r.seq for r in node.log.records] == [0, 1, 2]

    def test_record_bytes_round_trip(self):
        node = make_node()
        original = b"\x00\x01arbitrary-canonical-tx\xff"
        node.record_malicious(original, DenialReason.REPLAY, None, "s", 2, NOW)
        restored = S.MaliciousRecord.from_dict(node.log.records[0].to_dict())
        assert restored.tx_bytes == original


def record(seq: int, payload: bytes) -> S.MaliciousRecord:
    return S.MaliciousRecord(
        seq=seq,
        block_height=1,
        tx_bytes=payload,
        reason="model-denied",
        output_mask=(False, False, False, False),
        subject_hash="s",
        wall_time=NOW,
    )


class TestRollRoot:
    def test_fresh_log_root_is_zero(self):
        assert S.MaliciousLog().root == bytes(32)

    def test_root_step_is_a_hash_of_the_previous_root_and_the_record(self):
        log = S.MaliciousLog()
        first = log.record(b"x", DenialReason.REPLAY, None, "s", 1, NOW)
        second = log.record(b"y", DenialReason.MODEL_DENIED, (False,) * 4, "s", 2, NOW + 1)
        root = bytes(32)
        for r in (first, second):
            root = crypto.hash_bytes(root + ledger.canonical_bytes(r.to_dict()))
        assert log.root == root
        assert log.history[-1] == {"height": 2, "root": root.hex()}

    def test_block_order_changes_root(self):
        payloads = [b"a", b"b", b"c"]
        roots = set()
        for perm in itertools.permutations(payloads):
            log = S.MaliciousLog()
            for payload in perm:
                log.record(payload, DenialReason.REPLAY, None, "s", 1, NOW)
            roots.add(log.root)
        assert len(roots) == 6  # every record order distinct


def filled_log(n_heights: int = 3) -> S.MaliciousLog:
    """h records at each height h = 1..n_heights."""
    log = S.MaliciousLog()
    reasons = [DenialReason.MODEL_DENIED, DenialReason.REPLAY, DenialReason.WRONG_RESOURCE]
    for g in range(n_heights):
        for i in range(g + 1):
            log.record(b"offense-%d-%d" % (g, i), reasons[g % 3],
                       None, f"subject-{i}", g + 1, NOW + g)
    return log


class TestVerifyLog:
    def test_untampered_verified(self):
        log = filled_log()
        assert len(log.history) == len(log.records)
        v = S.verify_log(log.records, log.root, log.history)
        assert v.ok and v.verdict == "Verified"

    def test_record_is_in_the_root_once_written(self):
        node = S.StorageNode(STORAGE_KEYS)
        denial = node.redeem_link(bytes(S.TOKEN_SIZE), bytes(crypto.NONCE_SIZE), NOW)
        assert denial.reason is DenialReason.WRONG_RESOURCE
        log = node.log
        assert S.verify_log(log.records, log.root, log.history).ok
        assert len(log.history) == 1

    def test_flipped_byte_compromised(self):
        log = filled_log()
        records = list(log.records)
        target = records[2]
        records[2] = dataclasses.replace(target, tx_bytes=b"forged!")
        v = S.verify_log(records, log.root, log.history)
        assert not v.ok
        assert v.first_divergent_height is not None

    def test_deleting_last_record_compromised(self):
        log = filled_log()
        v = S.verify_log(log.records[:-1], log.root, log.history)
        assert not v.ok

    def test_inserted_record_compromised(self):
        log = filled_log()
        forged = record(99, b"inserted")
        v = S.verify_log(list(log.records) + [forged], log.root, log.history)
        assert not v.ok

    def test_divergence_height_points_at_first_bad_group(self):
        log = filled_log(3)
        records = list(log.records)
        idx = next(i for i, r in enumerate(records) if r.block_height == 2)
        records[idx] = dataclasses.replace(records[idx], tx_bytes=b"evil")
        v = S.verify_log(records, log.root, log.history)
        assert v.first_divergent_height == 2  # the first bad record was logged at height 2

    def test_export_import_round_trip(self, tmp_path):
        log = filled_log()
        path = tmp_path / "log.jsonl"
        S.export_log(log.records, path)
        loaded = S.load_log(path)
        assert loaded == log.records
        assert S.verify_log(loaded, log.root, log.history).ok

    def test_malformed_record_names_its_line(self):
        records = [r.to_dict() for r in filled_log().records[:3]]
        del records[2]["reason"]
        data = b"\n".join(ledger.canonical_bytes(r) for r in records)
        with pytest.raises(FormatError, match="^log line 3: malformed malicious record: 'reason'$"):
            S.parse_log_lines(data)
        # a record of the older, grouped export format
        grouped = dict(records[0], group_index=0)
        with pytest.raises(FormatError, match="^log line 1: non-canonical encoding$"):
            S.parse_log_lines(ledger.canonical_bytes(grouped))


class TestBanThreshold:
    def make_log(self, times, reason=DenialReason.WRONG_RESOURCE, subject="s"):
        log = S.MaliciousLog()
        for t in times:
            log.record(b"t", reason, None, subject, 1, t)
        return log

    def test_two_denials_insufficient(self):
        log = self.make_log([NOW, NOW + 10])
        assert not S.check_ban_threshold(log, "s", NOW + 20)

    def test_third_denial_inside_window_trips(self):
        log = self.make_log([NOW, NOW + 10, NOW + 20])
        assert S.check_ban_threshold(log, "s", NOW + 30)

    def test_denials_spread_over_two_hours_do_not_trip(self):
        log = self.make_log([NOW, NOW + 3600, NOW + 7200])
        assert not S.check_ban_threshold(log, "s", NOW + 7200)

    def test_unauthenticated_denials_do_not_count(self):
        log = self.make_log([NOW, NOW + 1, NOW + 2], reason=DenialReason.UNAUTHENTICATED)
        assert not S.check_ban_threshold(log, "s", NOW + 3)

    def test_only_named_subject_counted(self):
        log = self.make_log([NOW, NOW + 1, NOW + 2], subject="someone-else")
        assert not S.check_ban_threshold(log, "s", NOW + 3)

    def test_custom_threshold(self):
        log = self.make_log([NOW, NOW + 1])
        assert S.check_ban_threshold(log, "s", NOW + 2, threshold=2)

    # narrow time ranges, so window edges and out-of-order times are common
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["s", "t"]),
                st.sampled_from(list(DenialReason)),
                st.integers(NOW - 20, NOW + 20),
            ),
            max_size=40,
        ),
        st.sampled_from(["s", "t", "nobody"]),
        st.integers(NOW - 25, NOW + 25),
        st.integers(0, 8),
        st.integers(0, 40),
    )
    # a record dated exactly at the window's start counts
    @example([("s", DenialReason.MODEL_DENIED, NOW)], "s", NOW + 10, 1, 10)
    def test_matches_a_linear_scan(self, entries, subject, now, threshold, window):
        log = S.MaliciousLog()
        for who, reason, wall_time in entries:
            log.record(b"t", reason, None, who, 1, wall_time)
        counted = {r.value for r in BAN_COUNTED_REASONS}
        hits = sum(
            1
            for r in log.records
            if r.subject_hash == subject
            and r.reason in counted
            and r.wall_time >= now - window
        )
        got = S.check_ban_threshold(log, subject, now, threshold=threshold, window=window)
        assert got == (hits >= threshold)
