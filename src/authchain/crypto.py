"""Cryptographic primitives used by every other module.

Hashing is SHA-256.  Signatures are Ed25519 (32-byte verify keys, 64-byte
signatures).  Asymmetric encryption is a hybrid construction: an ephemeral
X25519 exchange feeding HKDF-SHA256 into ChaCha20-Poly1305, so ciphertexts
are randomized and decryption failures are detected by the AEAD tag.

A key pair bundles both capabilities: ``public_key`` is the 32-byte Ed25519
verify key followed by the 32-byte X25519 encryption key; ``secret_key`` is
the corresponding pair of 32-byte seeds.  Both halves derive
deterministically from one 32-byte seed, so worlds rebuilt from the same
seed carry identical identities.

Every operation is pure or draws from an explicitly injected
:class:`RandomSource`; there is no hidden global randomness.  Parsed key
objects are kept in bounded per-process caches (``KEY_CACHE_SIZE`` entries
each), so signing, verifying and decrypting with a known key skip the parse.
:func:`verify_sig` keeps the verdicts of the last ``VERIFY_CACHE_SIZE``
distinct ``(public_key, message, signature)`` triples, so a signature
checked twice on one request's path, or at admission and again when its
block is validated, costs one Ed25519 verification.

:func:`verify_all` verifies a stream of signatures, on every CPU the
process may run on when the stream is long; the worker processes live only
for the call.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import os
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

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

from .errors import DecryptError

DIGEST_SIZE = 32
NONCE_SIZE = 16
SEED_SIZE = 32
PUBLIC_KEY_SIZE = 64
SECRET_KEY_SIZE = 64
SIGNATURE_SIZE = 64
KEY_CACHE_SIZE = 4096  # parsed keys held per cache
# signature verdicts held, keyed by the exact triple; at least
# ledger.DEFAULT_BATCH_SIZE, so validating a full block of just-admitted
# transactions re-checks every signature from the cache
VERIFY_CACHE_SIZE = 128
# verify_all starts worker processes only for at least this many signatures;
# below it, starting them costs more than they save
PARALLEL_MIN_SIGNATURES = 2048
PARALLEL_CHUNK_SIGNATURES = 512  # signatures per task sent to a worker

_ZERO_AEAD_NONCE = b"\x00" * 12  # fresh key per message, so a fixed nonce is safe
_ECIES_INFO = b"authchain/ecies/v1"


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


def _raw_public(key: Ed25519PublicKey | X25519PublicKey) -> bytes:
    return key.public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )


def keygen(seed: bytes) -> KeyPair:
    """Derive a key pair deterministically from a 32-byte seed."""
    if len(seed) != SEED_SIZE:
        raise ValueError(f"seed must be {SEED_SIZE} bytes, got {len(seed)}")
    sign_seed = hashlib.sha256(seed + b"/sig").digest()
    enc_seed = hashlib.sha256(seed + b"/enc").digest()
    sign_pk = _raw_public(Ed25519PrivateKey.from_private_bytes(sign_seed).public_key())
    enc_pk = _raw_public(X25519PrivateKey.from_private_bytes(enc_seed).public_key())
    return KeyPair(public_key=sign_pk + enc_pk, secret_key=sign_seed + enc_seed)


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _signing_key(seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(seed)


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _verify_key(raw: bytes) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(raw)


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _decrypt_key(seed: bytes) -> tuple[X25519PrivateKey, bytes]:
    """The X25519 private key and its raw public bytes."""
    key = X25519PrivateKey.from_private_bytes(seed)
    return key, _raw_public(key.public_key())


def sign(secret_key: bytes, message: bytes) -> bytes:
    """Ed25519 signature over the message bytes."""
    if len(secret_key) != SECRET_KEY_SIZE:
        raise ValueError("malformed secret key")
    return _signing_key(secret_key[:32]).sign(message)


def verify_sig(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff the signature was produced by the paired secret key over
    exactly these bytes.  Malformed inputs verify false rather than raising.
    """
    if len(public_key) != PUBLIC_KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    return _ed25519_verdict(public_key, message, signature)


@functools.lru_cache(maxsize=VERIFY_CACHE_SIZE)
def _ed25519_verdict(public_key: bytes, message: bytes, signature: bytes) -> bool:
    # a pure function of the exact bytes, so a cached verdict is the verdict
    try:
        _verify_key(public_key[:32]).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


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
    return HKDF(
        algorithm=hashes.SHA256(),
        length=32,
        salt=ephemeral_pk + recipient_pk,
        info=_ECIES_INFO,
    ).derive(shared)


def encrypt(public_key: bytes, plaintext: bytes, rng: RandomSource | None = None) -> bytes:
    """Encrypt so only the paired secret key can recover the plaintext.

    Randomized: every call draws a fresh ephemeral key, so two encryptions
    of the same plaintext differ.  The ciphertext layout is the 32-byte
    ephemeral public key followed by the AEAD box.
    """
    if len(public_key) != PUBLIC_KEY_SIZE:
        raise ValueError("malformed public key")
    rng = rng or system_rng()
    recipient = X25519PublicKey.from_public_bytes(public_key[32:])
    ephemeral = X25519PrivateKey.from_private_bytes(rng.read(32))
    ephemeral_pk = _raw_public(ephemeral.public_key())
    key = _session_key(ephemeral.exchange(recipient), ephemeral_pk, public_key[32:])
    box = ChaCha20Poly1305(key).encrypt(_ZERO_AEAD_NONCE, plaintext, None)
    return ephemeral_pk + box


def decrypt(secret_key: bytes, ciphertext: bytes) -> bytes:
    """Recover the plaintext, raising :class:`DecryptError` on any failure."""
    if len(secret_key) != SECRET_KEY_SIZE:
        raise DecryptError("malformed secret key")
    if len(ciphertext) < 32 + 16:
        raise DecryptError("ciphertext too short")
    ephemeral_pk = ciphertext[:32]
    own, own_pk = _decrypt_key(secret_key[32:])
    try:
        shared = own.exchange(X25519PublicKey.from_public_bytes(ephemeral_pk))
        key = _session_key(shared, ephemeral_pk, own_pk)
        return ChaCha20Poly1305(key).decrypt(_ZERO_AEAD_NONCE, ciphertext[32:], None)
    except (InvalidTag, ValueError) as exc:
        raise DecryptError("decryption failed") from exc


def gen_nonce(rng: RandomSource) -> bytes:
    """16 fresh bytes from the injected source."""
    return rng.read(NONCE_SIZE)
