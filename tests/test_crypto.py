"""Primitive-level checks, including an independent SHA-256 oracle."""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import textwrap

import pytest
from hypothesis import example, given, settings, strategies as st

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from authchain import crypto
from authchain.errors import DecryptError
from conftest import IDENTITY_KEY, SMALL_ORDER_X25519, UNIVERSAL_SIG


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

    def test_public_key_must_be_the_one_the_secret_derives(self):
        alice, bob = crypto.keygen(b"a" * 32), crypto.keygen(b"b" * 32)
        assert crypto.KeyPair(alice.public_key, alice.secret_key) == alice
        with pytest.raises(ValueError, match="^public key is not the one the secret key derives$"):
            crypto.KeyPair(alice.public_key, bob.secret_key)

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
        for cache in (crypto._signing_key, crypto._x25519_public):
            assert cache.cache_info().maxsize == crypto.KEY_CACHE_SIZE


# Edwards25519 constants: the field prime, the group order, and the y of the
# order-8 points.  The small-order points have y in {0, 1, -1, Y8, -Y8}.
P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
Y8 = 2707385501144840649318225287225658788936804267575313519463743609750303402022
SMALL_ORDER_Y = frozenset({0, 1, P - 1, Y8, P - Y8})

NONCANONICAL_IDENTITY = (P + 1).to_bytes(32, "little")
ORDER_2 = (P - 1).to_bytes(32, "little")


def _y(encoding: bytes) -> int:
    return int.from_bytes(encoding, "little") & (2**255 - 1)


def strict_case(ed25519_pk: bytes, signature: bytes) -> bool:
    """Inputs the libsodium rule refuses outright: a non-canonical or
    small-order key, a small-order R, or S not below the group order."""
    return (
        _y(ed25519_pk) >= P
        or _y(ed25519_pk) in SMALL_ORDER_Y
        or _y(signature[:32]) in SMALL_ORDER_Y
        or int.from_bytes(signature[32:], "little") >= L
    )


def reference_verdict(ed25519_pk: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(ed25519_pk).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


def flip(blob: bytes, position: int, delta: int) -> bytes:
    i = position % len(blob)
    return blob[:i] + bytes([blob[i] ^ delta]) + blob[i + 1 :]


class TestAgainstReference:
    """libsodium against cryptography's Ed25519 (OpenSSL), the reference."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        seed=st.binary(min_size=32, max_size=32),
        message=st.binary(max_size=300),
        position=st.integers(0, 2**16),
        delta=st.integers(1, 255),
    )
    @example(seed=bytes(32), message=b"", position=0, delta=1)
    @example(seed=b"\xff" * 32, message=b"\x00" * 7, position=3, delta=0x80)
    @example(seed=bytes(range(32)), message=b"a\x00b\x00", position=1, delta=0x40)
    def test_keys_signatures_and_verdicts_agree(self, seed, message, position, delta):
        pair = crypto.keygen(seed)
        ed_pk, enc_pk = pair.public_key[:32], pair.public_key[32:]
        reference = Ed25519PrivateKey.from_private_bytes(pair.secret_key[:32])
        assert ed_pk == reference.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )
        sig = crypto.sign(pair.secret_key, message)
        assert sig == reference.sign(message)

        cases = [
            (ed_pk, message, sig),
            (ed_pk, message, flip(sig, position, delta)),
            (flip(ed_pk, position, delta), message, sig),
        ]
        if message:
            cases.append((ed_pk, flip(message, position, delta), sig))
        for key, msg, signature in cases:
            if strict_case(key, signature):
                continue
            expected = reference_verdict(key, msg, signature)
            assert crypto.verify_sig(key + enc_pk, msg, signature) == expected


class TestStrictRule:
    """The cases where libsodium refuses what OpenSSL's Ed25519 accepts."""

    ENC_HALF = crypto.keygen(b"s" * 32).public_key[32:]
    MESSAGES = [bytes([i]) * i for i in range(16)]

    def test_s_plus_group_order_refused(self):
        pair = crypto.keygen(b"s" * 32)
        sig = crypto.sign(pair.secret_key, b"message")
        s_plus_l = (int.from_bytes(sig[32:], "little") + L).to_bytes(32, "little")
        assert crypto.verify_sig(pair.public_key, b"message", sig)
        assert not crypto.verify_sig(pair.public_key, b"message", sig[:32] + s_plus_l)

    @pytest.mark.parametrize(
        "ed_pk",
        [IDENTITY_KEY, NONCANONICAL_IDENTITY, ORDER_2],
        ids=["identity", "non-canonical-identity", "order-2"],
    )
    def test_small_order_key_verifies_nothing(self, ed_pk):
        # the parent's OpenSSL verifier accepted every message under the
        # identity keys and about half of them under the order-2 key
        for message in self.MESSAGES:
            assert not crypto.verify_sig(ed_pk + self.ENC_HALF, message, UNIVERSAL_SIG)


class TestMissingLibrary:
    def test_import_names_the_library(self):
        child = textwrap.dedent(
            """
            import ctypes
            real = ctypes.CDLL

            def cdll(name, *args, **kwargs):
                if "sodium" in str(name):
                    raise OSError(f"{name}: cannot open shared object file")
                return real(name, *args, **kwargs)

            ctypes.CDLL = cdll
            try:
                import authchain.crypto
            except ImportError as exc:
                print(exc)
            else:
                print("imported")
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert "libsodium.so.23" in done.stdout
        assert "imported" not in done.stdout


class TestRuntimeImports:
    def test_cli_loads_no_cryptography(self):
        child = "import sys, authchain.cli; print([m for m in sys.modules if m.startswith('cryptography')])"
        done = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


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

    @pytest.mark.parametrize("point", SMALL_ORDER_X25519.values(), ids=SMALL_ORDER_X25519)
    def test_small_order_point_refused(self, point):
        ct = crypto.encrypt(self.receiver.public_key, b"payload")
        with pytest.raises(DecryptError):
            crypto.decrypt(self.receiver.secret_key, point + ct[32:])
        with pytest.raises(ValueError):
            crypto.encrypt(self.receiver.public_key[:32] + point, b"payload")


def _raw(public: X25519PublicKey) -> bytes:
    return public.public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)


def _reference_aead(shared: bytes, ephemeral_pk: bytes, recipient_pk: bytes) -> ChaCha20Poly1305:
    key = HKDF(
        algorithm=hashes.SHA256(), length=32, salt=ephemeral_pk + recipient_pk,
        info=b"authchain/ecies/v1",
    ).derive(shared)
    return ChaCha20Poly1305(key)


def reference_encrypt(public_key: bytes, plaintext: bytes, rng: crypto.RandomSource) -> bytes:
    """The hybrid construction rebuilt on `cryptography` (OpenSSL)."""
    ephemeral = X25519PrivateKey.from_private_bytes(rng.read(32))
    ephemeral_pk = _raw(ephemeral.public_key())
    shared = ephemeral.exchange(X25519PublicKey.from_public_bytes(public_key[32:]))
    aead = _reference_aead(shared, ephemeral_pk, public_key[32:])
    return ephemeral_pk + aead.encrypt(b"\x00" * 12, plaintext, None)


def reference_decrypt(secret_key: bytes, ciphertext: bytes) -> bytes:
    """Raises InvalidTag for a bad tag, ValueError for a small-order key."""
    own = X25519PrivateKey.from_private_bytes(secret_key[32:])
    ephemeral_pk = ciphertext[:32]
    shared = own.exchange(X25519PublicKey.from_public_bytes(ephemeral_pk))
    aead = _reference_aead(shared, ephemeral_pk, _raw(own.public_key()))
    return aead.decrypt(b"\x00" * 12, ciphertext[32:], None)


class TestEncryptionAgainstReference:
    """libsodium's X25519 and ChaCha20-Poly1305, with HKDF from hmac,
    against the same construction on `cryptography`, the reference."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        seed=st.binary(min_size=32, max_size=32),
        rng_seed=st.binary(min_size=32, max_size=32),
        message=st.binary(max_size=300),
        position=st.integers(0, 2**16),
        delta=st.integers(1, 255),
    )
    @example(seed=bytes(32), rng_seed=bytes(32), message=b"", position=0, delta=1)
    @example(seed=b"\xff" * 32, rng_seed=b"\x01" * 32, message=b"\x00" * 7, position=31, delta=0x80)
    @example(seed=bytes(range(32)), rng_seed=b"e" * 32, message=b"a\x00b\x00", position=1, delta=0x40)
    def test_keys_ciphertexts_and_failures_agree(self, seed, rng_seed, message, position, delta):
        pair = crypto.keygen(seed)
        own = X25519PrivateKey.from_private_bytes(pair.secret_key[32:])
        assert pair.public_key[32:] == _raw(own.public_key())

        ours = crypto.encrypt(pair.public_key, message, crypto.seeded_rng(rng_seed))
        theirs = reference_encrypt(pair.public_key, message, crypto.seeded_rng(rng_seed))
        assert ours == theirs
        assert crypto.decrypt(pair.secret_key, theirs) == message
        assert reference_decrypt(pair.secret_key, ours) == message

        tag = len(ours) - 16
        for start, end in ((0, 32), (32, tag), (tag, len(ours))):  # key, box, tag
            if start == end:  # an empty message has an empty box
                continue
            tampered = ours[:start] + flip(ours[start:end], position, delta) + ours[end:]
            with pytest.raises(DecryptError):
                crypto.decrypt(pair.secret_key, tampered)
            with pytest.raises((InvalidTag, ValueError)):
                reference_decrypt(pair.secret_key, tampered)


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
