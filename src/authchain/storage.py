"""Storage entity: resource custody, access links, malicious-activity log.

A granted decision turns into a single-use access link: a fresh 32-byte
token plus a fresh 16-byte nonce, encrypted under the requesting user's
public key and signed by storage.  Redemption is check-and-mark atomic;
a spent nonce, an unknown token, or an expired link is denied and logged.
Spent nonces persist with the storage state so replay protection survives
a restart.

Every denial anywhere in the pipeline becomes one record in the
malicious-activity log.  Records roll into a tamper-evident chain of
roots: each flush Merkle-hashes the new records, appends the serialized
contract outputs, and hashes them onto the previous root.  The running
root (and its per-group history) is mirrored into ledger contract state,
so the off-chain log can always be cross-checked against the chain.

A denial's log work does not grow with history: a roll visits only the
records appended since the previous roll, and the ban check reads a
per-subject sorted list of ban-counted wall times instead of scanning
every record.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left, insort
from dataclasses import dataclass, replace
from typing import Iterable

from . import crypto
from .contracts import BAN_COUNTED_REASONS, AccessList, Denial, DenialReason
from .errors import FormatError
from .ledger import (
    LinkTx,
    StorageTx,
    ZERO_DIGEST,
    canonical_bytes,
    make_link,
    make_storage,
    merkle_root,
)
from .model import check_metadata, operation_index

DEFAULT_LINK_TTL = 120  # seconds, matches the global freshness window
DEFAULT_BAN_THRESHOLD = 3
DEFAULT_BAN_WINDOW = 600  # seconds
TOKEN_SIZE = 32

UNKNOWN_SUBJECT = "unknown"


@dataclass
class Resource:
    id: int
    metadata: tuple[int, ...]
    content: bytes

    def __post_init__(self) -> None:
        self.metadata = check_metadata(self.metadata)


@dataclass
class AccessLink:
    token: bytes
    resource_id: int
    grants: tuple[bool, ...]
    nonce: bytes
    user_pk: bytes
    expiry: int
    redeemed: bool = False


@dataclass(frozen=True)
class MaliciousRecord:
    """One denied request: the offending bytes, the verdict, bookkeeping."""

    seq: int
    block_height: int
    tx_bytes: bytes
    reason: str
    output_mask: tuple[bool, ...] | None
    subject_hash: str
    wall_time: int
    group_index: int | None = None  # assigned when rolled into the root

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "block_height": self.block_height,
            "tx": self.tx_bytes.hex(),
            "reason": self.reason,
            "output_mask": list(self.output_mask) if self.output_mask is not None else None,
            "subject": self.subject_hash,
            "wall_time": self.wall_time,
            "group_index": self.group_index,
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
                group_index=(
                    int(d["group_index"]) if d["group_index"] is not None else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed malicious record: {exc}") from exc


def record_digest(record: MaliciousRecord) -> bytes:
    return crypto.hash_bytes(canonical_bytes(record.to_dict()))


def block_merkle_root(records: list[MaliciousRecord]) -> bytes:
    """Merkle root over one block's record digests (empty is an error)."""
    if not records:
        raise ValueError("cannot build a Merkle root over zero records")
    return merkle_root([record_digest(r) for r in records])


def group_output_bytes(records: list[MaliciousRecord]) -> bytes:
    """Serialized contract outputs for one block of records."""
    return canonical_bytes(
        [
            {
                "reason": r.reason,
                "mask": list(r.output_mask) if r.output_mask is not None else None,
            }
            for r in records
        ]
    )


def roll_root(
    prev_root: bytes, records: list[MaliciousRecord], output_bytes: bytes
) -> bytes:
    """New running root: hash of the previous root, the block's Merkle root,
    and the serialized contract outputs."""
    return crypto.hash_bytes(prev_root + block_merkle_root(records) + output_bytes)


class MaliciousLog:
    """Append-only denial records with a rolling tamper-evident root."""

    def __init__(self) -> None:
        self.records: list[MaliciousRecord] = []
        self.root: bytes = ZERO_DIGEST
        self.history: list[dict] = []  # running root after each rolled group
        self._next_group = 0
        self._rolled = 0  # records[:_rolled] are in a group, the rest pending
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
        if reason in BAN_COUNTED_REASONS:
            insort(self._ban_times.setdefault(subject_hash, []), wall_time)
        return rec

    def pending(self) -> list[MaliciousRecord]:
        return self.records[self._rolled:]

    def roll(self) -> bytes:
        """Fold all pending records into the running root as one group,
        replacing only the pending tail of ``records`` in place."""
        pending = self.pending()
        if not pending:
            return self.root
        rolled = [replace(r, group_index=self._next_group) for r in pending]
        self.records[self._rolled:] = rolled
        self._rolled = len(self.records)
        self.root = roll_root(self.root, rolled, group_output_bytes(rolled))
        self.history.append(
            {
                "group": self._next_group,
                "height": max(r.block_height for r in rolled),
                "root": self.root.hex(),
            }
        )
        self._next_group += 1
        return self.root


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
    """Recompute the rolling root over all record groups and compare it to
    the root mirrored in contract state.

    With the mirrored per-group history available, reports the block height
    of the first group whose running root diverges.
    """
    records = list(records)
    unrolled = [r for r in records if r.group_index is None]
    if unrolled:
        return LogVerification(
            ok=False,
            computed_root=ZERO_DIGEST,
            first_divergent_height=min(r.block_height for r in unrolled),
        )
    groups: dict[int, list[MaliciousRecord]] = {}
    for r in records:
        groups.setdefault(r.group_index, []).append(r)  # type: ignore[arg-type]
    root = ZERO_DIGEST
    recomputed: list[tuple[int, bytes]] = []
    for gi in sorted(groups):
        block = sorted(groups[gi], key=lambda r: r.seq)
        root = roll_root(root, block, group_output_bytes(block))
        recomputed.append((max(r.block_height for r in block), root))

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
    with open(path, "wb") as fh:
        for r in records:
            fh.write(canonical_bytes(r.to_dict()))
            fh.write(b"\n")


def parse_log_lines(data: bytes) -> list[MaliciousRecord]:
    """Parse exported records, insisting on canonical encoding so any byte
    flip in the export is detectable (either here or by the root check)."""
    out = []
    for line_no, raw in enumerate(data.split(b"\n"), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = MaliciousRecord.from_dict(json.loads(raw.decode("utf-8")))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"log line {line_no}: {exc}") from exc
        if canonical_bytes(record.to_dict()) != raw:
            raise FormatError(f"log line {line_no}: non-canonical encoding")
        out.append(record)
    return out


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
        self.spent_nonces: set[bytes] = set()
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

    def roll_log(self) -> bytes:
        with self._lock:
            return self.log.roll()

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
        """Encrypt a fresh (token, nonce, time) triple under the user's key.

        Refuses, and logs, a decision that does not actually grant the
        requested operation or names an unknown resource.
        """
        with self._lock:
            op = operation_index(decision.requested)
            subject = crypto.hash_bytes(user_pk).hex()
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
            payload = canonical_bytes(
                {"link": token.hex(), "nonce": nonce.hex(), "time": now}
            )
            ciphertext = crypto.encrypt(user_pk, payload, rng)
            return make_link(self.keypair, user_pk, ciphertext, now)

    def redeem_link(
        self,
        token: bytes,
        nonce: bytes,
        now: int,
        block_height: int = 0,
    ) -> tuple[bytes, StorageTx] | Denial:
        """Exchange an unspent, unexpired link for the resource content.

        Success marks the link redeemed and the nonce spent, and returns the
        signed storage transaction that logs the access on chain.  Every
        failure is recorded in the malicious-activity log.
        """
        with self._lock:
            attempt_bytes = canonical_bytes(
                {"redeem": {"token": token.hex(), "nonce": nonce.hex(), "time": now}}
            )
            link = self.links.get(token)
            if link is None:
                denial = Denial(DenialReason.WRONG_RESOURCE, "unknown access token")
                subject = UNKNOWN_SUBJECT
            elif link.redeemed or nonce in self.spent_nonces:
                denial = Denial(DenialReason.REPLAY, "link or nonce already used")
                subject = crypto.hash_bytes(link.user_pk).hex()
            elif nonce != link.nonce:
                denial = Denial(DenialReason.REPLAY, "nonce does not match link")
                subject = crypto.hash_bytes(link.user_pk).hex()
            elif now > link.expiry:
                denial = Denial(DenialReason.STALE, "link expired")
                subject = crypto.hash_bytes(link.user_pk).hex()
            else:
                denial = None
            if denial is not None:
                self.record_malicious(
                    attempt_bytes, denial.reason, denial.mask, subject, block_height, now
                )
                return denial
            link.redeemed = True
            self.spent_nonces.add(nonce)
            content = self.resources[link.resource_id].content
            return content, make_storage(self.keypair, nonce, link.user_pk, now)

    # -- persistence -----------------------------------------------------------

    def to_state(self) -> dict:
        return {
            "spent_nonces": sorted(n.hex() for n in self.spent_nonces),
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
                {"id": r.id, "metadata": list(r.metadata), "content": r.content.hex()}
                for r in self.resources.values()
            ],
        }

    def restore_state(self, state: dict) -> None:
        with self._lock:
            self.spent_nonces = {bytes.fromhex(n) for n in state.get("spent_nonces", [])}
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
                    Resource(
                        id=int(d["id"]),
                        metadata=tuple(int(a) for a in d["metadata"]),
                        content=bytes.fromhex(d["content"]),
                    )
                )
