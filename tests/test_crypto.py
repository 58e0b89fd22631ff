"""Primitive-level checks, including an independent SHA-256 oracle."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from authchain import crypto
from authchain.errors import DecryptError


# ---------------------------------------------------------------------------
# Reference SHA-256, written from the FIPS 180-4 description with plain
# integer arithmetic.  Deliberately shares nothing with hashlib.
# ---------------------------------------------------------------------------

_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]

_H0 = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
]


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & 0xFFFFFFFF


def reference_sha256(message: bytes) -> bytes:
    length = len(message) * 8
    message += b"\x80"
    while len(message) % 64 != 56:
        message += b"\x00"
    message += struct.pack(">Q", length)

    h = list(_H0)
    for start in range(0, len(message), 64):
        w = list(struct.unpack(">16I", message[start : start + 64]))
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & 0xFFFFFFFF)
        a, b, c, d, e, f, g, hh = h
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            t1 = (hh + s1 + ch + _K[i] + w[i]) & 0xFFFFFFFF
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (s0 + maj) & 0xFFFFFFFF
            hh, g, f, e, d, c, b, a = g, f, e, (d + t1) & 0xFFFFFFFF, c, b, a, (t1 + t2) & 0xFFFFFFFF
        h = [(x + y) & 0xFFFFFFFF for x, y in zip(h, (a, b, c, d, e, f, g, hh))]
    return struct.pack(">8I", *h)


EMPTY_DIGEST = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
ABC_DIGEST = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


class TestHash:
    def test_known_vectors(self):
        assert crypto.hash_bytes(b"").hex() == EMPTY_DIGEST
        assert crypto.hash_bytes(b"abc").hex() == ABC_DIGEST

    def test_oracle_agrees_on_vectors(self):
        assert reference_sha256(b"").hex() == EMPTY_DIGEST
        assert reference_sha256(b"abc").hex() == ABC_DIGEST

    def test_matches_reference_on_random_inputs(self):
        rng = crypto.seeded_rng(b"hash-oracle" + bytes(21))
        for size in (0, 1, 55, 56, 63, 64, 65, 1000, 4096):
            message = rng.read(size)
            assert crypto.hash_bytes(message) == reference_sha256(message)

    def test_deterministic(self):
        m = b"fixed input"
        assert crypto.hash_bytes(m) == crypto.hash_bytes(m)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=0, max_size=4096))
    def test_digest_is_32_bytes(self, message):
        digest = crypto.hash_bytes(message)
        assert len(digest) == 32
        assert digest == crypto.hash_bytes(message)

    def test_large_input(self):
        message = bytes(2**20)  # upper end of the property range
        assert len(crypto.hash_bytes(message)) == 32


class TestKeygen:
    def test_deterministic(self):
        seed = bytes(range(32))
        assert crypto.keygen(seed) == crypto.keygen(seed)

    def test_distinct_seeds_distinct_pairs(self):
        pairs = {crypto.keygen(bytes([i]) * 32).public_key for i in range(64)}
        assert len(pairs) == 64

    def test_bad_seed_length(self):
        with pytest.raises(ValueError):
            crypto.keygen(b"short")

    def test_sign_roundtrip_for_any_seed(self):
        for i in range(8):
            pair = crypto.keygen(bytes([i]) * 32)
            sig = crypto.sign(pair.secret_key, b"message")
            assert crypto.verify_sig(pair.public_key, b"message", sig)


class TestSignatures:
    def setup_method(self):
        self.alice = crypto.keygen(b"a" * 32)
        self.bob = crypto.keygen(b"b" * 32)

    def test_roundtrip(self):
        sig = crypto.sign(self.alice.secret_key, b"access request bytes")
        assert crypto.verify_sig(self.alice.public_key, b"access request bytes", sig)

    def test_flipped_message_byte_fails(self):
        message = bytearray(b"access request bytes")
        sig = crypto.sign(self.alice.secret_key, bytes(message))
        message[3] ^= 0x01
        assert not crypto.verify_sig(self.alice.public_key, bytes(message), sig)

    def test_wrong_key_fails(self):
        sig = crypto.sign(self.alice.secret_key, b"message")
        assert not crypto.verify_sig(self.bob.public_key, b"message", sig)

    def test_malformed_inputs_verify_false(self):
        assert not crypto.verify_sig(b"junk", b"m", b"sig")
        assert not crypto.verify_sig(self.alice.public_key, b"m", b"short")

    def test_malformed_secret_key_raises(self):
        with pytest.raises(ValueError):
            crypto.sign(b"tiny", b"m")


class TestKeyCaches:
    def test_cached_sign_matches_uncached(self):
        pair = crypto.keygen(b"c" * 32)
        for message in (b"", b"first", b"first"):
            expected = Ed25519PrivateKey.from_private_bytes(pair.secret_key[:32]).sign(message)
            assert crypto.sign(pair.secret_key, message) == expected

    def test_caches_bounded_by_module_constant(self):
        for cache in (crypto._signing_key, crypto._verify_key, crypto._decrypt_key):
            assert cache.cache_info().maxsize == crypto.KEY_CACHE_SIZE


class TestVerifyCache:
    def setup_method(self):
        self.alice = crypto.keygen(b"v" * 32)
        self.message = b"cached access request"
        self.sig = crypto.sign(self.alice.secret_key, self.message)

    def test_bounded_by_module_constant(self):
        assert crypto._ed25519_verdict.cache_info().maxsize == crypto.VERIFY_CACHE_SIZE

    def test_repeat_is_a_hit(self):
        assert crypto.verify_sig(self.alice.public_key, self.message, self.sig)
        hits = crypto._ed25519_verdict.cache_info().hits
        assert crypto.verify_sig(self.alice.public_key, self.message, self.sig)
        assert crypto._ed25519_verdict.cache_info().hits == hits + 1

    def test_flips_after_a_cached_verdict_still_fail(self):
        assert crypto.verify_sig(self.alice.public_key, self.message, self.sig)
        flipped_sig = bytes([self.sig[0] ^ 0x01]) + self.sig[1:]
        flipped_message = bytes([self.message[0] ^ 0x01]) + self.message[1:]
        assert not crypto.verify_sig(self.alice.public_key, self.message, flipped_sig)
        assert not crypto.verify_sig(self.alice.public_key, flipped_message, self.sig)
        assert crypto.verify_sig(self.alice.public_key, self.message, self.sig)


class TestEncryption:
    def setup_method(self):
        self.receiver = crypto.keygen(b"r" * 32)
        self.other = crypto.keygen(b"o" * 32)

    def test_roundtrip(self):
        ct = crypto.encrypt(self.receiver.public_key, b"the plaintext")
        assert crypto.decrypt(self.receiver.secret_key, ct) == b"the plaintext"

    def test_wrong_key_raises(self):
        ct = crypto.encrypt(self.receiver.public_key, b"secret")
        with pytest.raises(DecryptError):
            crypto.decrypt(self.other.secret_key, ct)

    def test_randomized(self):
        a = crypto.encrypt(self.receiver.public_key, b"same plaintext")
        b = crypto.encrypt(self.receiver.public_key, b"same plaintext")
        assert a != b

    def test_tampered_ciphertext_raises(self):
        ct = bytearray(crypto.encrypt(self.receiver.public_key, b"payload"))
        ct[-1] ^= 0x40
        with pytest.raises(DecryptError):
            crypto.decrypt(self.receiver.secret_key, bytes(ct))

    def test_truncated_ciphertext_raises(self):
        with pytest.raises(DecryptError):
            crypto.decrypt(self.receiver.secret_key, b"\x00" * 10)

    def test_seeded_rng_gives_stable_ciphertext(self):
        a = crypto.encrypt(self.receiver.public_key, b"m", crypto.seeded_rng(b"e" * 32))
        b = crypto.encrypt(self.receiver.public_key, b"m", crypto.seeded_rng(b"e" * 32))
        assert a == b


class TestNonce:
    def test_length(self):
        rng = crypto.system_rng()
        assert len(crypto.gen_nonce(rng)) == 16

    def test_ten_thousand_draws_distinct(self):
        rng = crypto.system_rng()
        seen = {crypto.gen_nonce(rng) for _ in range(10_000)}
        assert len(seen) == 10_000

    def test_seeded_source_replays_fixed_sequence(self):
        first = [crypto.gen_nonce(crypto.seeded_rng(b"n" * 32)) for _ in range(1)]
        rng_a = crypto.seeded_rng(b"n" * 32)
        rng_b = crypto.seeded_rng(b"n" * 32)
        seq_a = [crypto.gen_nonce(rng_a) for _ in range(50)]
        seq_b = [crypto.gen_nonce(rng_b) for _ in range(50)]
        assert seq_a == seq_b
        assert seq_a[0] == first[0]

    def test_negative_read_rejected(self):
        with pytest.raises(ValueError):
            crypto.system_rng().read(-1)
