"""Storage entity: resource custody, access links, malicious-activity log.

A granted decision turns into a single-use access link: a fresh 32-byte
token plus a fresh 16-byte nonce.  Their 48 raw bytes, token then nonce,
are the link note, encrypted under the requesting user's public key and
carried in a link transaction signed by storage.  Redemption is
check-and-mark atomic; a redeemed link, a nonce that is not the link's,
an unknown token, or an expired link is denied and logged.  Each link
keeps its redeemed flag in the storage state, so replay protection
survives a restart.

Every denial anywhere in the pipeline becomes one record in the
malicious-activity log.  Each record moves the log's tamper-evident root
one step: the new root is the hash of the previous root and the record's
canonical bytes, which hold the offending bytes, the reason and the
contract's output mask.  The running root and its per-record history are
kept here only; the harness writes them to the state sidecar beside the
chain file, so an exported log can be cross-checked against them.

A denial's log work does not grow with history: a record costs one
encoding and one hash, and the ban check reads a per-subject sorted list
of ban-counted wall times instead of scanning every record.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable

from . import crypto
from .contracts import BAN_COUNTED_REASONS, AccessList, Denial, DenialReason
from .errors import DecryptError, FormatError
from .ledger import (
    LinkTx,
    StorageTx,
    ZERO_DIGEST,
    canonical_bytes,
    make_link,
    make_storage,
    parse_canonical_lines,
    subject_id,
    write_canonical_lines,
)
from .model import operation_index

DEFAULT_LINK_TTL = 120  # seconds, matches the global freshness window
DEFAULT_BAN_THRESHOLD = 3
DEFAULT_BAN_WINDOW = 600  # seconds
TOKEN_SIZE = 32
LINK_NOTE_SIZE = TOKEN_SIZE + crypto.NONCE_SIZE  # token, then nonce

UNKNOWN_SUBJECT = "unknown"


@dataclass
class Resource:
    id: int
    content: bytes


@dataclass(slots=True)
class AccessLink:
    token: bytes
    resource_id: int
    grants: tuple[bool, ...]
    nonce: bytes
    user_pk: bytes
    expiry: int
    redeemed: bool = False


@dataclass(frozen=True, slots=True)
class MaliciousRecord:
    """One denied request: the offending bytes, the verdict, bookkeeping."""

    seq: int
    block_height: int
    tx_bytes: bytes
    reason: str
    output_mask: tuple[bool, ...] | None
    subject_hash: str
    wall_time: int

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "block_height": self.block_height,
            "tx": self.tx_bytes.hex(),
            "reason": self.reason,
            "output_mask": list(self.output_mask) if self.output_mask is not None else None,
            "subject": self.subject_hash,
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MaliciousRecord":
        try:
            return cls(
                seq=int(d["seq"]),
                block_height=int(d["block_height"]),
                tx_bytes=bytes.fromhex(d["tx"]),
                reason=str(d["reason"]),
                output_mask=(
                    tuple(bool(v) for v in d["output_mask"])
                    if d["output_mask"] is not None
                    else None
                ),
                subject_hash=str(d["subject"]),
                wall_time=int(d["wall_time"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed malicious record: {exc}") from exc


def next_root(prev_root: bytes, record: MaliciousRecord) -> bytes:
    """The log's root after ``record``: the hash of the previous root and
    the record's canonical bytes."""
    return crypto.hash_bytes(prev_root + canonical_bytes(record.to_dict()))


class MaliciousLog:
    """Append-only denial records with a tamper-evident running root."""

    def __init__(self) -> None:
        self.records: list[MaliciousRecord] = []
        self.root: bytes = ZERO_DIGEST
        self._roots: list[tuple[int, bytes]] = []  # (height, running root) per record
        # subject -> sorted wall times of its BAN_COUNTED_REASONS records
        self._ban_times: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def record(
        self,
        tx_bytes: bytes,
        reason: DenialReason,
        output_mask: tuple[bool, ...] | None,
        subject_hash: str,
        block_height: int,
        wall_time: int,
    ) -> MaliciousRecord:
        rec = MaliciousRecord(
            seq=len(self.records),
            block_height=block_height,
            tx_bytes=tx_bytes,
            reason=reason.value,
            output_mask=output_mask,
            subject_hash=subject_hash,
            wall_time=wall_time,
        )
        self.records.append(rec)
        self.root = next_root(self.root, rec)
        self._roots.append((block_height, self.root))
        if reason in BAN_COUNTED_REASONS:
            insort(self._ban_times.setdefault(subject_hash, []), wall_time)
        return rec

    @property
    def history(self) -> list[dict]:
        """The running root after each record, as the state sidecar holds
        it: ``{"height", "root"}`` per record, root in hex."""
        return [{"height": height, "root": root.hex()} for height, root in self._roots]


@dataclass(frozen=True)
class LogVerification:
    ok: bool
    computed_root: bytes
    first_divergent_height: int | None = None

    @property
    def verdict(self) -> str:
        return "Verified" if self.ok else "Compromised"


def verify_log(
    records: Iterable[MaliciousRecord],
    stored_root: bytes,
    stored_history: list[dict] | None = None,
) -> LogVerification:
    """Fold the root step over the records in file order and compare the
    result to the stored root (the log's own, or the state sidecar's).

    With the stored per-record history available, reports the block
    height of the first record whose running root diverges.
    """
    root = ZERO_DIGEST
    recomputed: list[tuple[int, bytes]] = []
    for r in records:
        root = next_root(root, r)
        recomputed.append((r.block_height, root))

    if stored_history is not None:
        length = max(len(recomputed), len(stored_history))
        for i in range(length):
            have = recomputed[i][1].hex() if i < len(recomputed) else None
            want = stored_history[i]["root"] if i < len(stored_history) else None
            if have != want:
                if i < len(stored_history):
                    height = int(stored_history[i]["height"])
                elif i < len(recomputed):
                    height = recomputed[i][0]
                else:
                    height = 0
                return LogVerification(False, root, height)
    if root != stored_root:
        height = recomputed[-1][0] if recomputed else 0
        return LogVerification(False, root, height)
    return LogVerification(True, root, None)


def check_ban_threshold(
    log: MaliciousLog,
    subject_hash: str,
    now: int,
    threshold: int = DEFAULT_BAN_THRESHOLD,
    window: int = DEFAULT_BAN_WINDOW,
) -> bool:
    """True once the subject has reached the configured number of
    authorization-class denials dated at or after ``now - window``."""
    times = log._ban_times.get(subject_hash, [])
    return len(times) - bisect_left(times, now - window) >= threshold


# ---------------------------------------------------------------------------
# Log export / import (JSON lines, one canonical record per line)
# ---------------------------------------------------------------------------

def export_log(records: Iterable[MaliciousRecord], path) -> None:
    write_canonical_lines(path, (r.to_dict() for r in records))


def parse_log_lines(data: bytes) -> list[MaliciousRecord]:
    """Parse exported records, insisting on canonical encoding so any byte
    flip in the export is detectable (either here or by the root check)."""
    return parse_canonical_lines(data, MaliciousRecord.from_dict, "log")


def load_log(path) -> list[MaliciousRecord]:
    with open(path, "rb") as fh:
        return parse_log_lines(fh.read())


# ---------------------------------------------------------------------------
# Storage node
# ---------------------------------------------------------------------------

class StorageNode:
    """Holds resources, issues and redeems links, keeps the denial log.

    All mutations are serialized through one lock; redemption's
    check-and-mark is atomic, so at most one redemption of a link ever
    returns content regardless of concurrent attempts.
    """

    def __init__(self, keypair: crypto.KeyPair, link_ttl: int = DEFAULT_LINK_TTL) -> None:
        self.keypair = keypair
        self.link_ttl = link_ttl
        self.resources: dict[int, Resource] = {}
        self.links: dict[bytes, AccessLink] = {}
        self.log = MaliciousLog()
        self._lock = threading.RLock()

    # -- resources -----------------------------------------------------------

    def put_resource(self, resource: Resource) -> None:
        with self._lock:
            if resource.id in self.resources:
                raise ValueError(f"resource id {resource.id} already stored")
            self.resources[resource.id] = resource

    def get_resource(self, resource_id: int) -> Resource | None:
        return self.resources.get(resource_id)

    # -- malicious log --------------------------------------------------------

    def record_malicious(
        self,
        tx_bytes: bytes,
        reason: DenialReason,
        output_mask: tuple[bool, ...] | None,
        subject_hash: str,
        block_height: int,
        wall_time: int,
    ) -> MaliciousRecord:
        with self._lock:
            return self.log.record(
                tx_bytes, reason, output_mask, subject_hash, block_height, wall_time
            )

    # -- links ----------------------------------------------------------------

    def issue_link(
        self,
        decision: AccessList,
        user_pk: bytes,
        resource_id: int,
        now: int,
        rng: crypto.RandomSource,
        block_height: int = 0,
    ) -> LinkTx | Denial:
        """Encrypt a fresh token‖nonce note under the user's key;
        :func:`read_link_note` reads it back.

        Refuses, and logs, a decision that does not actually grant the
        requested operation or names an unknown resource.
        """
        with self._lock:
            op = operation_index(decision.requested)
            subject = subject_id(user_pk)
            if resource_id not in self.resources:
                denial = Denial(DenialReason.WRONG_RESOURCE, f"no resource {resource_id}")
            elif not decision.grants[op]:
                denial = Denial(
                    DenialReason.MODEL_DENIED,
                    f"decision does not grant {decision.requested!r}",
                    mask=decision.grants,
                )
            else:
                denial = None
            if denial is not None:
                self.record_malicious(
                    canonical_bytes(
                        {
                            "issue": {
                                "user_pk": user_pk.hex(),
                                "resource_id": resource_id,
                                "operation": decision.requested,
                            }
                        }
                    ),
                    denial.reason,
                    denial.mask,
                    subject,
                    block_height,
                    now,
                )
                return denial
            token = rng.read(TOKEN_SIZE)
            nonce = crypto.gen_nonce(rng)
            link = AccessLink(
                token=token,
                resource_id=resource_id,
                grants=decision.grants,
                nonce=nonce,
                user_pk=user_pk,
                expiry=now + self.link_ttl,
            )
            self.links[token] = link
            ciphertext = crypto.encrypt(user_pk, token + nonce, rng)
            return make_link(self.keypair, user_pk, ciphertext, now)

    def redeem_link(
        self,
        token: bytes,
        nonce: bytes,
        now: int,
        block_height: int = 0,
    ) -> tuple[bytes, StorageTx] | Denial:
        """Exchange an unspent, unexpired link for the resource content.

        Success marks the link redeemed and returns the signed storage
        transaction that logs the access on chain.  Every failure is
        recorded in the malicious-activity log.
        """
        with self._lock:
            link = self.links.get(token)
            if link is None:
                denial = Denial(DenialReason.WRONG_RESOURCE, "unknown access token")
                subject = UNKNOWN_SUBJECT
            elif link.redeemed:
                denial = Denial(DenialReason.REPLAY, "link already used")
                subject = subject_id(link.user_pk)
            elif nonce != link.nonce:
                denial = Denial(DenialReason.REPLAY, "nonce does not match link")
                subject = subject_id(link.user_pk)
            elif now > link.expiry:
                denial = Denial(DenialReason.STALE, "link expired")
                subject = subject_id(link.user_pk)
            else:
                denial = None
            if denial is not None:
                self.record_malicious(
                    canonical_bytes(
                        {"redeem": {"token": token.hex(), "nonce": nonce.hex(), "time": now}}
                    ),
                    denial.reason, denial.mask, subject, block_height, now,
                )
                return denial
            link.redeemed = True
            content = self.resources[link.resource_id].content
            # signed over the link's own nonce (equal to ``nonce`` here), so
            # the storage transaction and the link share one bytes object
            return content, make_storage(self.keypair, link.nonce, link.user_pk, now)

    # -- persistence -----------------------------------------------------------

    def to_state(self) -> dict:
        return {
            "links": [
                {
                    "token": link.token.hex(),
                    "resource_id": link.resource_id,
                    "grants": list(link.grants),
                    "nonce": link.nonce.hex(),
                    "user_pk": link.user_pk.hex(),
                    "expiry": link.expiry,
                    "redeemed": link.redeemed,
                }
                for link in self.links.values()
            ],
            "resources": [
                {"id": r.id, "content": r.content.hex()}
                for r in self.resources.values()
            ],
        }

    def restore_state(self, state: dict) -> None:
        with self._lock:
            self.links = {}
            for d in state.get("links", []):
                link = AccessLink(
                    token=bytes.fromhex(d["token"]),
                    resource_id=int(d["resource_id"]),
                    grants=tuple(bool(g) for g in d["grants"]),
                    nonce=bytes.fromhex(d["nonce"]),
                    user_pk=bytes.fromhex(d["user_pk"]),
                    expiry=int(d["expiry"]),
                    redeemed=bool(d["redeemed"]),
                )
                self.links[link.token] = link
            self.resources = {}
            for d in state.get("resources", []):
                self.put_resource(
                    Resource(id=int(d["id"]), content=bytes.fromhex(d["content"]))
                )


def read_link_note(secret_key: bytes, link_tx: LinkTx) -> tuple[bytes, bytes]:
    """The (token, nonce) that :meth:`StorageNode.issue_link` encrypted
    for the link's recipient; :class:`FormatError` for a note this key
    cannot decrypt or that is not ``LINK_NOTE_SIZE`` bytes."""
    try:
        note = crypto.decrypt(secret_key, link_tx.ciphertext)
    except DecryptError as exc:
        raise FormatError(f"unreadable link note: {exc}") from exc
    if len(note) != LINK_NOTE_SIZE:
        raise FormatError(f"unreadable link note: {len(note)} bytes, not {LINK_NOTE_SIZE}")
    return note[:TOKEN_SIZE], note[TOKEN_SIZE:]
