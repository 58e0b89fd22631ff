"""Permissioned ledger: transactions, hash-chained blocks, chain memory.

Serialization is canonical everywhere: JSON with lexicographically sorted
keys, no whitespace, UTF-8, byte values as lowercase hex.  Digests and
signatures are computed over these bytes, so two processes that build the
same world produce byte-identical chain files.  The encoder is orjson, whose
output equals ``json.dumps(v, sort_keys=True, separators=(",", ":"),
ensure_ascii=False)`` for the values encoded here (str-keyed dicts, lists,
tuples, strings, bools, ``None`` and integers in ``CANONICAL_INT_MIN`` ..
``CANONICAL_INT_MAX``); it cannot encode an integer outside that range.

Consensus is proof-of-authority realized as a round-robin proposer
schedule: the validator at index ``height mod v`` signs the block at that
height, and every block is re-verified on receipt.  There are no view
changes or forks; the chain is a single-writer, append-only list.  A block
is never dated before its parent, and never holds an access request dated
more than the genesis freshness window from its own time.

A block commits to its transactions once: its signature, and its hash
that the next block's ``prev_hash`` names, cover them.

No signer key is carried on chain where the chain already names it: a
block's signer is the validator the genesis schedule names for its height,
a setup transaction's is the genesis admin key, and a link's or storage
record's is the genesis storage key; only an access request carries its
signer, the requesting user.

Chain memory ``M`` is the key-value state derived purely from applying
blocks: ``user/<pk-hash>`` records registered users (written by setup
transactions) and ``resource/<id>`` records the resource catalog carried
in the genesis payload.  It is the chain's only state besides the blocks
and their nonces: the priority rules and the malicious-log root are kept
by their owners (the rule store and the storage node's log).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Any, Callable, ClassVar, Union

import orjson

from . import crypto
from .errors import ConfigError, FormatError, ScheduleError
from .model import check_metadata

DEFAULT_FRESHNESS_WINDOW = 120  # seconds
DEFAULT_BATCH_SIZE = 100
ZERO_DIGEST = b"\x00" * crypto.DIGEST_SIZE
# the chain format, written into the genesis payload as "format"; a genesis
# with no format or any other value is invalid, so a chain of an older
# format is refused rather than misread
CHAIN_FORMAT = 3

# (public_key, message, signature) -> verdict; crypto.verify_sig by default
SignatureCheck = Callable[[bytes, bytes, bytes], bool]

USER_KEY_PREFIX = "user/"
RESOURCE_KEY_PREFIX = "resource/"

# the integers canonical_bytes can encode: a signed or an unsigned 64-bit value
CANONICAL_INT_MIN = -(2**63)
CANONICAL_INT_MAX = 2**64 - 1


def canonical_bytes(value: Any) -> bytes:
    """Canonical serialization of a JSON-able value.

    Raises ``ValueError`` naming the first integer outside
    ``CANONICAL_INT_MIN`` .. ``CANONICAL_INT_MAX``.
    """
    try:
        return orjson.dumps(value, option=orjson.OPT_SORT_KEYS)
    except TypeError:
        out_of_range = next(
            (i for i in _ints(value) if not CANONICAL_INT_MIN <= i <= CANONICAL_INT_MAX), None
        )
        if out_of_range is None:
            raise
        raise ValueError(
            f"integer {out_of_range} is outside the canonical range "
            f"{CANONICAL_INT_MIN}..{CANONICAL_INT_MAX}"
        ) from None


def _ints(value: Any):
    if isinstance(value, int):
        yield value
    elif isinstance(value, (list, tuple, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _ints(item)


@lru_cache(maxsize=crypto.KEY_CACHE_SIZE)
def subject_id(public_key: bytes) -> str:
    """A user's subject id, as rules, bans and log records name it: the
    hash of the public key, hex.  Cached per key, so the records and ban
    entries that name one user share one string."""
    return crypto.hash_bytes(public_key).hex()


def user_key(public_key: bytes) -> str:
    """Memory key of a registered user: prefix plus its subject id."""
    return USER_KEY_PREFIX + subject_id(public_key)


def resource_key(resource_id: int) -> str:
    return RESOURCE_KEY_PREFIX + str(int(resource_id))


@dataclass
class LogicalClock:
    """Injected simulation clock; POSIX seconds, advanced by the script."""

    t: int = 1_700_000_000

    def now(self) -> int:
        return self.t

    def tick(self, seconds: int = 1) -> int:
        self.t += int(seconds)
        return self.t


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SetupTx:
    """Registration of a user by the genesis admin (carries its metadata)."""

    kind: ClassVar[str] = "setup"
    user_pk: bytes
    metadata: tuple[int, ...]
    timestamp: int
    sig: bytes = b""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "user_pk": self.user_pk.hex(),
            "metadata": list(self.metadata),
            "timestamp": self.timestamp,
            "sig": self.sig.hex(),
        }


@dataclass(frozen=True, slots=True)
class AccReqTx:
    """A user's request to perform one operation on one resource.

    Carries a per-request nonce so a captured request cannot be replayed
    even inside the freshness window.
    """

    kind: ClassVar[str] = "accreq"
    user_pk: bytes
    timestamp: int
    resource_id: int
    operation: str
    nonce: bytes
    sig: bytes = b""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "user_pk": self.user_pk.hex(),
            "timestamp": self.timestamp,
            "req_info": {"resource_id": self.resource_id, "operation": self.operation},
            "nonce": self.nonce.hex(),
            "sig": self.sig.hex(),
        }


@dataclass(frozen=True, slots=True)
class LinkTx:
    """Encrypted access link issued by storage for one granted request.

    The recipient key is carried in clear so the ledger can route and
    index the transaction; the link, nonce, and issue time are inside the
    ciphertext, readable only by the holder of the recipient's secret key.
    """

    kind: ClassVar[str] = "link"
    recipient: bytes
    ciphertext: bytes
    timestamp: int
    sig: bytes = b""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "recipient": self.recipient.hex(),
            "ciphertext": self.ciphertext.hex(),
            "timestamp": self.timestamp,
            "sig": self.sig.hex(),
        }


@dataclass(frozen=True, slots=True)
class StorageTx:
    """Storage's log of a completed access (one per redeemed link)."""

    kind: ClassVar[str] = "storage"
    nonce: bytes
    timestamp: int
    user_pk: bytes
    sig: bytes = b""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "nonce": self.nonce.hex(),
            "timestamp": self.timestamp,
            "user_pk": self.user_pk.hex(),
            "sig": self.sig.hex(),
        }


Transaction = Union[SetupTx, AccReqTx, LinkTx, StorageTx]

# the keys ``to_dict`` writes for a block, each transaction kind and an
# access request's req_info: the only keys a chain line may hold there
_KEYS = {
    "block": frozenset({"height", "prev_hash", "transactions", "timestamp", "payload", "sig"}),
    "setup": frozenset({"kind", "user_pk", "metadata", "timestamp", "sig"}),
    "accreq": frozenset({"kind", "user_pk", "timestamp", "req_info", "nonce", "sig"}),
    "req_info": frozenset({"resource_id", "operation"}),
    "link": frozenset({"kind", "recipient", "ciphertext", "timestamp", "sig"}),
    "storage": frozenset({"kind", "nonce", "timestamp", "user_pk", "sig"}),
}


def signing_bytes(obj) -> bytes:
    """Canonical bytes of a transaction or block minus its signature field."""
    d = obj.to_dict()
    d.pop("sig", None)
    return canonical_bytes(d)


def signed(obj, keypair: crypto.KeyPair):
    """Copy of a transaction or block carrying the keypair's signature."""
    return replace(obj, sig=crypto.sign(keypair.secret_key, signing_bytes(obj)))


def tx_canonical_bytes(tx: Transaction) -> bytes:
    return canonical_bytes(tx.to_dict())


def _check_keys(d: dict, name: str) -> None:
    """Raise ``FormatError`` naming the first key of ``d``, in sorted order,
    that ``_KEYS[name]`` lacks, such as a field of another chain format."""
    unexpected = sorted(d.keys() - _KEYS[name])
    if unexpected:
        raise FormatError(f"unexpected key {unexpected[0]!r} in {name}")


def tx_from_dict(d: dict) -> Transaction:
    try:
        kind = d["kind"]
        if kind == "setup":
            tx = SetupTx(
                user_pk=bytes.fromhex(d["user_pk"]),
                metadata=tuple(int(a) for a in d["metadata"]),
                timestamp=int(d["timestamp"]),
                sig=bytes.fromhex(d["sig"]),
            )
        elif kind == "accreq":
            tx = AccReqTx(
                user_pk=bytes.fromhex(d["user_pk"]),
                timestamp=int(d["timestamp"]),
                resource_id=int(d["req_info"]["resource_id"]),
                operation=str(d["req_info"]["operation"]),
                nonce=bytes.fromhex(d["nonce"]),
                sig=bytes.fromhex(d["sig"]),
            )
            _check_keys(d["req_info"], "req_info")
        elif kind == "link":
            tx = LinkTx(
                recipient=bytes.fromhex(d["recipient"]),
                ciphertext=bytes.fromhex(d["ciphertext"]),
                timestamp=int(d["timestamp"]),
                sig=bytes.fromhex(d["sig"]),
            )
        elif kind == "storage":
            tx = StorageTx(
                nonce=bytes.fromhex(d["nonce"]),
                timestamp=int(d["timestamp"]),
                user_pk=bytes.fromhex(d["user_pk"]),
                sig=bytes.fromhex(d["sig"]),
            )
        else:
            raise FormatError(f"unknown transaction kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed transaction: {exc}") from exc
    _check_keys(d, kind)
    return tx


def make_setup(admin: crypto.KeyPair, user_pk: bytes, metadata, timestamp: int) -> SetupTx:
    return signed(
        SetupTx(
            user_pk=user_pk,
            metadata=check_metadata(metadata),
            timestamp=timestamp,
        ),
        admin,
    )


def make_accreq(
    user: crypto.KeyPair, resource_id: int, operation: str, nonce: bytes, timestamp: int
) -> AccReqTx:
    return signed(
        AccReqTx(
            user_pk=user.public_key,
            timestamp=timestamp,
            resource_id=int(resource_id),
            operation=operation,
            nonce=nonce,
        ),
        user,
    )


def make_link(
    storage: crypto.KeyPair, recipient: bytes, ciphertext: bytes, timestamp: int
) -> LinkTx:
    return signed(LinkTx(recipient=recipient, ciphertext=ciphertext, timestamp=timestamp), storage)


def make_storage(
    storage: crypto.KeyPair, nonce: bytes, user_pk: bytes, timestamp: int
) -> StorageTx:
    return signed(StorageTx(nonce=nonce, timestamp=timestamp, user_pk=user_pk), storage)


# ---------------------------------------------------------------------------
# Blocks and the chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Block:
    height: int
    prev_hash: bytes
    transactions: tuple[Transaction, ...]
    timestamp: int
    payload: dict | None = None  # genesis configuration, height 0 only
    sig: bytes = b""

    def to_dict(self) -> dict:
        return {
            "height": self.height,
            "prev_hash": self.prev_hash.hex(),
            "transactions": [t.to_dict() for t in self.transactions],
            "timestamp": self.timestamp,
            "payload": self.payload,
            "sig": self.sig.hex(),
        }


def block_canonical_bytes(block: Block) -> bytes:
    return canonical_bytes(block.to_dict())


def block_hash(block: Block) -> bytes:
    return crypto.hash_bytes(block_canonical_bytes(block))


def block_from_dict(d: dict) -> Block:
    try:
        block = Block(
            height=int(d["height"]),
            prev_hash=bytes.fromhex(d["prev_hash"]),
            transactions=tuple(tx_from_dict(t) for t in d["transactions"]),
            timestamp=int(d["timestamp"]),
            payload=d.get("payload"),
            sig=bytes.fromhex(d["sig"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed block: {exc}") from exc
    _check_keys(d, "block")
    return block


@dataclass(frozen=True)
class ValidatorSet:
    members: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if len(self.members) <= 2:
            raise ConfigError(
                f"validator count must exceed 2, got {len(self.members)}"
            )
        if len(set(self.members)) != len(self.members):
            raise ConfigError("validator keys must be distinct")

    def __len__(self) -> int:
        return len(self.members)

    def scheduled(self, height: int) -> bytes:
        """Round-robin proposer for the given height."""
        return self.members[height % len(self.members)]


class Chain:
    """Append-only block list plus the memory map derived from it."""

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.memory: dict[str, Any] = {}
        self._seen_nonces: set[bytes] = set()
        self._tip_hash: bytes | None = None

    # -- genesis-derived configuration ------------------------------------

    @property
    def genesis_payload(self) -> dict:
        if not self.blocks:
            raise ValueError("chain has no genesis block")
        payload = self.blocks[0].payload
        if not isinstance(payload, dict):
            raise FormatError("genesis block carries no payload")
        return payload

    @cached_property
    def validator_set(self) -> ValidatorSet:
        return ValidatorSet(
            tuple(bytes.fromhex(v) for v in self.genesis_payload["validators"])
        )

    @property
    def height(self) -> int:
        return len(self.blocks)

    def tip_hash(self) -> bytes:
        if self._tip_hash is None:
            self._tip_hash = block_hash(self.blocks[-1]) if self.blocks else ZERO_DIGEST
        return self._tip_hash

    def nonce_seen(self, nonce: bytes) -> bool:
        return nonce in self._seen_nonces

    # -- memory effects ----------------------------------------------------

    def _apply_effects(self, block: Block) -> None:
        if block.height == 0 and isinstance(block.payload, dict):
            for rid, attrs in block.payload.get("resources", {}).items():
                self.memory[resource_key(int(rid))] = {
                    "metadata": [int(a) for a in attrs]
                }
        for tx in block.transactions:
            if isinstance(tx, SetupTx):
                self.memory[user_key(tx.user_pk)] = {"metadata": list(tx.metadata)}
            elif isinstance(tx, AccReqTx):
                self._seen_nonces.add(tx.nonce)

    @classmethod
    def replay(cls, blocks: list[Block]) -> "Chain":
        """Rebuild a chain by validating and applying every block in order."""
        chain = cls()
        for block in blocks:
            append_block(chain, block)
        return chain

    @classmethod
    def from_blocks_unchecked(cls, blocks: list[Block]) -> "Chain":
        """Load blocks applying effects without validation (for inspection
        of possibly tampered files; run validate_chain for the verdict)."""
        chain = cls()
        for block in blocks:
            chain.blocks.append(block)
            try:
                chain._apply_effects(block)
            except (FormatError, ValueError, KeyError):
                continue
        return chain


def genesis(
    validators: ValidatorSet,
    admin_pk: bytes,
    proposer: crypto.KeyPair,
    timestamp: int,
    storage_pk: bytes | None = None,
    resources: dict[int, Any] | None = None,
    freshness_window: int = DEFAULT_FRESHNESS_WINDOW,
) -> Chain:
    """Create a chain whose genesis block carries the network configuration.

    The genesis block is signed by the validator scheduled for height 0
    and carries ``CHAIN_FORMAT`` and the freshness window, in seconds,
    that bounds how far an access request's time may lie from its block's.
    The optional resource catalog maps resource id to its 8 metadata
    attributes and seeds ``resource/<id>`` entries in chain memory.
    """
    if proposer.public_key != validators.scheduled(0):
        raise ScheduleError("genesis must be proposed by the validator at index 0")
    payload = {
        "format": CHAIN_FORMAT,
        "freshness_window": freshness_window,
        "validators": [v.hex() for v in validators.members],
        "admin_pk": admin_pk.hex(),
        "storage_pk": storage_pk.hex() if storage_pk else None,
        "resources": {
            str(int(rid)): list(check_metadata(attrs))
            for rid, attrs in (resources or {}).items()
        },
    }
    block = Block(
        height=0,
        prev_hash=ZERO_DIGEST,
        transactions=(),
        timestamp=timestamp,
        payload=payload,
    )
    block = signed(block, proposer)
    chain = Chain()
    append_block(chain, block)
    return chain


# ---------------------------------------------------------------------------
# Mempool and admission
# ---------------------------------------------------------------------------

class Mempool:
    """FIFO queue of admitted transactions awaiting block inclusion."""

    def __init__(self) -> None:
        self._queue: list[Transaction] = []
        self._pending_nonces: set[bytes] = set()

    def __len__(self) -> int:
        return len(self._queue)

    def submit(self, chain: Chain, tx: Transaction, now: int) -> str | None:
        """Admit the transaction if it is fresh and correctly signed.

        Rejection is a value, not an error: None means the transaction was
        admitted, else the first label that applies is returned: ``stale``
        (dated more than the genesis freshness window from ``now``), any
        :func:`check_tx` label, then ``replayed-nonce`` (an access
        request's nonce already on the chain or pending here).
        """
        genesis_payload = chain.genesis_payload
        if abs(now - tx.timestamp) > genesis_payload["freshness_window"]:
            return "stale"
        reason = check_tx(genesis_payload, tx)
        if reason is not None:
            return reason
        if isinstance(tx, AccReqTx):
            if chain.nonce_seen(tx.nonce) or tx.nonce in self._pending_nonces:
                return "replayed-nonce"
            self._pending_nonces.add(tx.nonce)
        self._queue.append(tx)
        return None

    def drain(self, max_count: int = DEFAULT_BATCH_SIZE) -> list[Transaction]:
        taken = self._queue[:max_count]
        self._queue = self._queue[max_count:]
        for tx in taken:
            if isinstance(tx, AccReqTx):
                self._pending_nonces.discard(tx.nonce)
        return taken


def check_tx(
    genesis_payload: dict, tx: Transaction, verify: SignatureCheck | None = None
) -> str | None:
    """The signer rule: each kind must be signed by its known key.

    Setup transactions by the genesis admin (and with valid metadata),
    access requests by the requesting user, links and storage records by
    the genesis storage key; anything else is ``unknown-kind``, whoever
    signs the block carrying it.  Returns ``bad-signature``, ``malformed``
    or ``unknown-kind``, or None when the transaction passes.  Admission
    and block validation both apply it.  ``verify`` checks each
    signature; the default is ``crypto.verify_sig``, looked up on every
    call.
    """
    verify = verify or crypto.verify_sig
    if isinstance(tx, AccReqTx):
        signer = tx.user_pk
    elif isinstance(tx, (SetupTx, LinkTx, StorageTx)):
        try:
            signer = bytes.fromhex(
                genesis_payload.get("admin_pk" if isinstance(tx, SetupTx) else "storage_pk")
            )
        except (TypeError, ValueError):  # the genesis names no such key, or not in hex
            return "bad-signature"
    else:
        return "unknown-kind"
    if not verify(signer, signing_bytes(tx), tx.sig):
        return "bad-signature"
    if isinstance(tx, SetupTx):
        try:
            check_metadata(tx.metadata)
        except ValueError:
            return "malformed"
    return None


def produce_block(
    chain: Chain,
    mempool: Mempool,
    proposer: crypto.KeyPair,
    timestamp: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Block:
    """Drain the mempool into a signed block; proposer must be scheduled.

    A drained access request dated more than the genesis freshness window
    from ``timestamp`` is left out, since :func:`validate_block` would
    refuse a block holding it (an old one can never be mined, as block
    times never go back); like every drained transaction, its nonce is no
    longer pending."""
    height = chain.height
    scheduled = chain.validator_set.scheduled(height)
    if proposer.public_key != scheduled:
        raise ScheduleError(
            f"validator not scheduled for height {height} "
            f"(expected index {height % len(chain.validator_set)})"
        )
    window = chain.genesis_payload["freshness_window"]
    block = Block(
        height=height,
        prev_hash=chain.tip_hash(),
        transactions=tuple(
            tx for tx in mempool.drain(batch_size)
            if not (isinstance(tx, AccReqTx) and abs(timestamp - tx.timestamp) > window)
        ),
        timestamp=timestamp,
    )
    return signed(block, proposer)


def validate_block(chain: Chain, block: Block, verify: SignatureCheck | None = None) -> bool:
    """Full structural check of a candidate for the chain's next height,
    a pure function of the chain and the block; a genesis must carry
    ``CHAIN_FORMAT`` and a positive integer freshness window, a later block
    must be signed by the validator scheduled for its height and dated no
    earlier than its parent, every transaction must meet :func:`check_tx`,
    and no access request may be dated more than the window from the
    block, or carry a nonce that is already on the chain or repeats within
    the block.  ``verify`` checks each signature, as in :func:`check_tx`."""
    verify = verify or crypto.verify_sig
    if block.height != chain.height:
        return False
    if block.height == 0:
        payload = block.payload
        if not isinstance(payload, dict):
            return False
        chain_format, window = payload.get("format"), payload.get("freshness_window")
        if type(chain_format) is not int or chain_format != CHAIN_FORMAT:
            return False
        if type(window) is not int or window <= 0:
            return False
        try:
            validators = ValidatorSet(
                tuple(bytes.fromhex(v) for v in payload["validators"])
            )
        except (ConfigError, KeyError, TypeError, ValueError):
            return False
        if block.prev_hash != ZERO_DIGEST or block.transactions:
            return False
    else:
        if block.payload is not None:
            return False
        try:
            validators = chain.validator_set
            window = chain.genesis_payload["freshness_window"]
        except (FormatError, KeyError, ValueError):
            return False
        if block.prev_hash != chain.tip_hash():
            return False
        if block.timestamp < chain.blocks[-1].timestamp:
            return False
    requests = [tx for tx in block.transactions if isinstance(tx, AccReqTx)]
    if any(abs(block.timestamp - tx.timestamp) > window for tx in requests):
        return False
    nonces = [tx.nonce for tx in requests]
    if len(set(nonces)) != len(nonces) or any(chain.nonce_seen(n) for n in nonces):
        return False
    if not verify(validators.scheduled(block.height), signing_bytes(block), block.sig):
        return False
    payload = block.payload if block.height == 0 else chain.genesis_payload
    return all(check_tx(payload, tx, verify) is None for tx in block.transactions)


def append_block(chain: Chain, block: Block, verify: SignatureCheck | None = None) -> None:
    """Validate and append; an invalid block leaves the chain unchanged.
    ``verify`` checks each signature, as in :func:`check_tx`."""
    if not validate_block(chain, block, verify):
        raise FormatError(f"invalid block at height {block.height}")
    chain.blocks.append(block)
    chain._apply_effects(block)
    chain._tip_hash = block_hash(block)


def validate_chain(chain: Chain) -> bool:
    """Re-validate every block from genesis; a chain without one is invalid.

    The structural rules (height, linkage, schedule, block and request
    time, signer per kind, metadata) run here, replaying the blocks onto a
    private chain.
    The signature checks they meet are deferred and streamed, as they are
    met, to :func:`crypto.verify_all`, which verifies each one once and may
    use every CPU.  The verdict equals that of :meth:`Chain.replay`.
    """
    if not chain.blocks:
        return False

    def deferred_checks():
        replica, checks = Chain(), []

        def defer(public_key: bytes, message: bytes, signature: bytes) -> bool:
            checks.append((public_key, message, signature))
            return True

        for block in chain.blocks:
            append_block(replica, block, defer)
            yield from checks
            checks.clear()

    try:
        return crypto.verify_all(deferred_checks())
    except (FormatError, ValueError):
        return False


# ---------------------------------------------------------------------------
# Persistence: JSON lines, one canonical value per line
# ---------------------------------------------------------------------------

def write_canonical_lines(path, values) -> None:
    """Write each JSON-able value as one canonical line."""
    with open(path, "wb") as fh:
        for value in values:
            fh.write(canonical_bytes(value))
            fh.write(b"\n")


def parse_canonical_lines(data: bytes, from_dict, what: str) -> list:
    """Parse JSON lines with ``from_dict``.  Each line must equal the
    canonical bytes of what it parses to, so a flipped byte that decodes
    to the same value (hex case, number forms) is still caught."""
    out = []
    for line_no, raw in enumerate(data.split(b"\n"), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            # decoded here, not by orjson, so a bad byte is named by position
            value = from_dict(orjson.loads(raw.decode("utf-8")))
            canonical = canonical_bytes(value.to_dict())
        except (FormatError, ValueError) as exc:  # orjson's and UTF-8's errors are ValueErrors
            raise FormatError(f"{what} line {line_no}: {exc}") from exc
        if canonical != raw:
            raise FormatError(f"{what} line {line_no}: non-canonical encoding")
        out.append(value)
    return out


def save_chain(chain: Chain, path) -> None:
    write_canonical_lines(path, (block.to_dict() for block in chain.blocks))


def parse_chain_lines(data: bytes) -> list[Block]:
    """Parse persisted blocks, insisting on canonical encoding."""
    return parse_canonical_lines(data, block_from_dict, "chain")


def load_chain(path) -> Chain:
    """Parse a persisted chain without validating block linkage.

    Memory effects are applied best-effort so lookups work; call
    :func:`validate_chain` for the integrity verdict.
    """
    with open(path, "rb") as fh:
        blocks = parse_chain_lines(fh.read())
    return Chain.from_blocks_unchecked(blocks)
