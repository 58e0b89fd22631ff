"""Cryptographic primitives used by every other module.

Hashing is SHA-256.  Every public-key operation runs in the libsodium
system library (``libsodium.so.23``), which this module loads once at
import through ``ctypes``; without it the import fails.  Signatures are
Ed25519 (32-byte verify keys, 64-byte signatures).  Its verifier is
strict: besides a signature whose S is not below the group order, it
refuses small-order and non-canonical public keys and a small-order R, so
no key verifies a signature for every message.
Asymmetric encryption is a hybrid construction: an ephemeral X25519
exchange (RFC 7748) feeding HKDF-SHA256 (RFC 5869, from the standard
library's ``hmac``) into ChaCha20-Poly1305 (RFC 8439), so ciphertexts are
randomized and decryption failures are detected by the AEAD tag.  A
small-order ephemeral key fails decryption, since libsodium refuses the
exchange.

A key pair bundles both capabilities: ``public_key`` is the 32-byte Ed25519
verify key followed by the 32-byte X25519 encryption key; ``secret_key`` is
the corresponding pair of 32-byte seeds.  Both halves derive
deterministically from one 32-byte seed, so worlds rebuilt from the same
seed carry identical identities; a key pair whose Ed25519 verify key its
secret does not derive is refused.

Every operation is pure or draws from an explicitly injected
:class:`RandomSource`; there is no hidden global randomness.  Expanded
signing keys and the X25519 public keys of known seeds are kept in
bounded per-process caches (``KEY_CACHE_SIZE`` entries each), so signing
and decrypting with a known key skip the derivation.

:func:`verify_all` verifies a stream of signatures, on every CPU the
process may run on when the stream is long; the worker processes live only
for the call.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import hashlib
import hmac
import itertools
import os
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import DecryptError

DIGEST_SIZE = 32
NONCE_SIZE = 16
SEED_SIZE = 32
PUBLIC_KEY_SIZE = 64
SECRET_KEY_SIZE = 64
SIGNATURE_SIZE = 64
KEY_CACHE_SIZE = 4096  # keys held per derived-key cache (signing, X25519 public)
# verify_all starts worker processes only for at least this many signatures;
# below it, starting them costs more than they save
PARALLEL_MIN_SIGNATURES = 2048
PARALLEL_CHUNK_SIGNATURES = 512  # signatures per task sent to a worker

_ZERO_AEAD_NONCE = b"\x00" * 12  # fresh key per message, so a fixed nonce is safe
_ECIES_INFO = b"authchain/ecies/v1"

_SODIUM = "libsodium.so.23"


def _load_sodium() -> ctypes.CDLL:
    """The initialised libsodium, every call this module makes typed.
    Loaded by soname (``ctypes.util.find_library`` would run ``ldconfig``
    in a subprocess), and with no fallback: whether a signature is valid
    must not depend on which library was found."""
    try:
        lib = ctypes.CDLL(_SODIUM)
    except OSError as exc:
        raise ImportError(
            f"authchain.crypto needs the libsodium system library ({_SODIUM}; "
            f"Debian package libsodium23): {exc}"
        ) from exc
    buf, size = ctypes.c_char_p, ctypes.c_ulonglong
    for name, argtypes in (
        ("sodium_init", ()),  # 0 once initialised, 1 if it already was, -1 on failure
        # (pk[32] out, sk[64] out, seed[32])
        ("crypto_sign_seed_keypair", (buf, buf, buf)),
        # (sig[64] out, siglen out or NULL, message, length, sk[64])
        ("crypto_sign_detached", (buf, ctypes.c_void_p, buf, size, buf)),
        # (sig[64], message, length, pk[32]); 0 iff valid
        ("crypto_sign_verify_detached", (buf, buf, size, buf)),
        # (q[32] out, n[32]): the public key of secret scalar n
        ("crypto_scalarmult_curve25519_base", (buf, buf)),
        # (q[32] out, n[32], p[32]); -1 for a small-order p or an all-zero q
        ("crypto_scalarmult_curve25519", (buf, buf, buf)),
        # (c out, clen out or NULL, m, mlen, ad, adlen, nsec (NULL), npub[12], k[32])
        ("crypto_aead_chacha20poly1305_ietf_encrypt",
         (buf, ctypes.c_void_p, buf, size, buf, size, ctypes.c_void_p, buf, buf)),
        # (m out, mlen out or NULL, nsec (NULL), c, clen, ad, adlen, npub[12], k[32]);
        # 0 iff the tag verifies
        ("crypto_aead_chacha20poly1305_ietf_decrypt",
         (buf, ctypes.c_void_p, ctypes.c_void_p, buf, size, buf, size, buf, buf)),
    ):
        func = getattr(lib, name)
        func.argtypes = argtypes
        func.restype = ctypes.c_int
    if lib.sodium_init() < 0:
        raise ImportError(f"{_SODIUM} failed to initialise")
    return lib


_sodium = _load_sodium()


def hash_bytes(message: bytes) -> bytes:
    """SHA-256 digest (32 bytes) of the exact input bytes."""
    return hashlib.sha256(message).digest()


class RandomSource:
    """Byte stream used for nonces, tokens, and ephemeral keys.

    ``RandomSource()`` reads the operating system CSPRNG.  A seeded source
    produces a reproducible stream (SHA-256 in counter mode over the seed),
    which the simulation harness uses so whole runs are replayable.
    """

    def __init__(self, seed: bytes | None = None) -> None:
        self._seed = seed
        self._counter = 0

    def read(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("cannot read a negative number of bytes")
        if self._seed is None:
            return os.urandom(n)
        out = bytearray()
        while len(out) < n:
            block = hashlib.sha256(
                self._seed + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            out.extend(block)
        return bytes(out[:n])


def system_rng() -> RandomSource:
    """Operating-system CSPRNG."""
    return RandomSource()


def seeded_rng(seed: bytes) -> RandomSource:
    """Deterministic stream for reproducible simulations and tests."""
    return RandomSource(seed=seed)


@dataclass(frozen=True)
class KeyPair:
    """Signing + encryption identity of one entity."""

    public_key: bytes
    secret_key: bytes

    def __post_init__(self) -> None:
        if len(self.public_key) != PUBLIC_KEY_SIZE:
            raise ValueError(f"public key must be {PUBLIC_KEY_SIZE} bytes")
        if len(self.secret_key) != SECRET_KEY_SIZE:
            raise ValueError(f"secret key must be {SECRET_KEY_SIZE} bytes")
        if _signing_key(self.secret_key[:32])[32:] != self.public_key[:32]:
            raise ValueError("public key is not the one the secret key derives")


def keygen(seed: bytes) -> KeyPair:
    """Derive a key pair deterministically from a 32-byte seed."""
    if len(seed) != SEED_SIZE:
        raise ValueError(f"seed must be {SEED_SIZE} bytes, got {len(seed)}")
    sign_seed = hashlib.sha256(seed + b"/sig").digest()
    enc_seed = hashlib.sha256(seed + b"/enc").digest()
    sign_pk = _signing_key(sign_seed)[32:]
    enc_pk = _x25519_public(enc_seed)
    return KeyPair(public_key=sign_pk + enc_pk, secret_key=sign_seed + enc_seed)


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _signing_key(seed: bytes) -> bytes:
    """libsodium's 64-byte Ed25519 secret key: the seed, then the public key."""
    public, secret = ctypes.create_string_buffer(32), ctypes.create_string_buffer(64)
    _sodium.crypto_sign_seed_keypair(public, secret, seed)
    return secret.raw


def _x25519(scalar: bytes, point: bytes | None = None) -> bytes:
    """X25519 (RFC 7748) of the scalar with the point, or with the base
    point when none is given.  :class:`ValueError` when libsodium refuses,
    as it does for a small-order point."""
    out = ctypes.create_string_buffer(32)
    if point is None:
        status = _sodium.crypto_scalarmult_curve25519_base(out, scalar)
    else:
        status = _sodium.crypto_scalarmult_curve25519(out, scalar, point)
    if status != 0:
        raise ValueError("X25519 refused the point")
    return out.raw


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _x25519_public(seed: bytes) -> bytes:
    """The X25519 public key of an encryption seed."""
    return _x25519(seed)


def sign(secret_key: bytes, message: bytes) -> bytes:
    """Ed25519 signature over the message bytes."""
    if len(secret_key) != SECRET_KEY_SIZE:
        raise ValueError("malformed secret key")
    sig = ctypes.create_string_buffer(SIGNATURE_SIZE)
    _sodium.crypto_sign_detached(sig, None, message, len(message), _signing_key(secret_key[:32]))
    return sig.raw


def verify_sig(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff the signature was produced by the paired secret key over
    exactly these bytes.  Malformed inputs verify false rather than raising.
    """
    if len(public_key) != PUBLIC_KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    return _sodium.crypto_sign_verify_detached(signature, message, len(message), public_key[:32]) == 0


def verify_all(checks: Iterable[tuple[bytes, bytes, bytes]]) -> bool:
    """True iff every ``(public_key, message, signature)`` check verifies.

    The checks are consumed lazily.  With fewer than
    ``PARALLEL_MIN_SIGNATURES`` of them, a single CPU, or other threads
    alive in this process (forking them is unsafe), they are verified
    in-process.  Otherwise a pool with one worker per CPU verifies them, as
    :func:`_verify_in_pool` describes.  An exception raised by the producer
    stops the stream and propagates.  No worker outlives the call.
    """
    checks = iter(checks)
    workers = len(os.sched_getaffinity(0))
    if workers < 2 or threading.active_count() > 1:
        return _verify_chunk(checks)
    head = list(itertools.islice(checks, PARALLEL_MIN_SIGNATURES))
    if len(head) < PARALLEL_MIN_SIGNATURES:
        return _verify_chunk(head)
    return _verify_in_pool(itertools.chain(head, checks), workers)


def _verify_in_pool(checks: Iterator[tuple[bytes, bytes, bytes]], workers: int) -> bool:
    """Verify chunks of ``checks`` in a forked pool while the producer makes
    more, at most two chunks per worker in flight.  The first failed chunk
    cancels the rest.  A pool that cannot start or breaks leaves every chunk
    whose verdict was not read to be verified here, with the rest of the
    stream, so the verdict never depends on the pool."""
    # Loaded here rather than at import: a process that never opens a pool,
    # such as one serving requests, does not carry these modules.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    unconfirmed: collections.deque[list] = collections.deque()
    futures: collections.deque = collections.deque()

    def oldest_verified() -> bool:
        ok = futures.popleft().result()
        unconfirmed.popleft()
        return ok

    try:
        # fork: workers start without re-importing anything, and no fork
        # server or resource tracker outlives the pool
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            while chunk := list(itertools.islice(checks, PARALLEL_CHUNK_SIGNATURES)):
                unconfirmed.append(chunk)
                futures.append(pool.submit(_verify_chunk, chunk))
                if len(futures) == 2 * workers and not oldest_verified():
                    return False
            while futures:
                if not oldest_verified():
                    return False
            return True
        finally:
            pool.shutdown(cancel_futures=True)
    except (OSError, BrokenProcessPool):
        return _verify_chunk(itertools.chain(itertools.chain.from_iterable(unconfirmed), checks))


def _verify_chunk(checks: Iterable[tuple[bytes, bytes, bytes]]) -> bool:
    return all(verify_sig(*check) for check in checks)


def _session_key(shared: bytes, ephemeral_pk: bytes, recipient_pk: bytes) -> bytes:
    # HKDF-SHA256 (RFC 5869): extract, then the single expand block that a
    # 32-byte key needs
    prk = hmac.digest(ephemeral_pk + recipient_pk, shared, "sha256")
    return hmac.digest(prk, _ECIES_INFO + b"\x01", "sha256")


def encrypt(public_key: bytes, plaintext: bytes, rng: RandomSource | None = None) -> bytes:
    """Encrypt so only the paired secret key can recover the plaintext.

    Randomized: every call draws a fresh ephemeral key, so two encryptions
    of the same plaintext differ.  The ciphertext layout is the 32-byte
    ephemeral public key followed by the AEAD box (ciphertext, then the
    16-byte tag).  :class:`ValueError` for a malformed or small-order key.
    """
    if len(public_key) != PUBLIC_KEY_SIZE:
        raise ValueError("malformed public key")
    rng = rng or system_rng()
    recipient_pk = public_key[32:]
    ephemeral = rng.read(32)
    ephemeral_pk = _x25519(ephemeral)
    key = _session_key(_x25519(ephemeral, recipient_pk), ephemeral_pk, recipient_pk)
    box = ctypes.create_string_buffer(len(plaintext) + 16)
    _sodium.crypto_aead_chacha20poly1305_ietf_encrypt(
        box, None, plaintext, len(plaintext), None, 0, None, _ZERO_AEAD_NONCE, key
    )
    return ephemeral_pk + box.raw


def decrypt(secret_key: bytes, ciphertext: bytes) -> bytes:
    """Recover the plaintext, raising :class:`DecryptError` on any failure."""
    if len(secret_key) != SECRET_KEY_SIZE:
        raise DecryptError("malformed secret key")
    if len(ciphertext) < 32 + 16:
        raise DecryptError("ciphertext too short")
    ephemeral_pk, box = ciphertext[:32], ciphertext[32:]
    own = secret_key[32:]
    try:
        shared = _x25519(own, ephemeral_pk)
    except ValueError as exc:
        raise DecryptError("decryption failed") from exc
    key = _session_key(shared, ephemeral_pk, _x25519_public(own))
    plaintext = ctypes.create_string_buffer(len(box) - 16)
    if _sodium.crypto_aead_chacha20poly1305_ietf_decrypt(
        plaintext, None, None, box, len(box), None, 0, _ZERO_AEAD_NONCE, key
    ) != 0:
        raise DecryptError("decryption failed")
    return plaintext.raw


def gen_nonce(rng: RandomSource) -> bytes:
    """16 fresh bytes from the injected source."""
    return rng.read(NONCE_SIZE)
