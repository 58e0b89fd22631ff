"""Simulated world: wires users, validators, contracts, and storage.

The network is synchronous and in-process.  Time is a logical clock
advanced by the script, randomness comes from one seeded stream, and all
key material derives from the world seed, so a whole run (chain file,
log export, outcomes) is byte-reproducible.

A request walks the full pipeline: the signed access request is admitted
to the mempool and mined; authentication verifies membership, freshness,
and the signature; the verified hand-off drives authorization (model
inference filtered by priority rules); a grant becomes an encrypted
single-use link issued by storage; redeeming the link returns the content
and logs the access on chain.  Every refusal at any stage lands exactly
once in storage's malicious-activity log, the log's rolling root is
mirrored into contract state, and repeated misuse trips the ban rule.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import crypto
from .config import Config
from .contracts import (
    Denial,
    DenialReason,
    RuleStore,
    PriorityRule,
    DENY,
    authenticate,
    authorize,
    register_ban,
)
from .errors import ConfigError, DecryptError, FormatError, ScheduleError
from .ledger import (
    AccReqTx,
    Block,
    Chain,
    LinkTx,
    LogicalClock,
    Mempool,
    ValidatorSet,
    append_block,
    block_canonical_bytes,
    canonical_bytes,
    genesis,
    make_accreq,
    make_setup,
    merkle_root,
    parse_chain_lines,
    produce_block,
    save_chain,
    signed,
    tx_canonical_bytes,
    validate_block,
    validate_chain,
)
from .model import (
    DecisionModel,
    OPERATIONS,
    SyntheticDataset,
    _forward_all,
    encode_pair,
    generate_dataset,
    train,
)
from .storage import (
    Resource,
    StorageNode,
    UNKNOWN_SUBJECT,
    check_ban_threshold,
    export_log,
    parse_log_lines,
    verify_log,
)

STATE_RULES_KEY = "rules"
STATE_ROOT_KEY = "malicious_root"
STATE_ROOT_HISTORY_KEY = "malicious_roots"

SCENARIO_EXPECTATIONS = {
    1: "denied:unauthenticated",
    2: "denied:model-denied",
    3: "denied:policy-denied",
    4: "allowed",
}

RESOURCE_CONTENT_SIZE = 64  # bytes of seeded content per resource


@dataclass
class World:
    config: Config
    clock: LogicalClock
    rng: crypto.RandomSource
    chain: Chain
    mempool: Mempool
    validators: list[crypto.KeyPair]
    admin: crypto.KeyPair
    storage_node: StorageNode
    rules: RuleStore
    model: DecisionModel
    dataset: SyntheticDataset
    users: list[crypto.KeyPair]
    _outsiders: dict[int, crypto.KeyPair] = field(default_factory=dict)
    _mask_cache: dict | None = field(default=None, repr=False)
    _lock: threading.RLock = field(default_factory=threading.RLock)

    def now(self) -> int:
        return self.clock.now()

    def user_keypair(self, index: int) -> crypto.KeyPair:
        """Registered user for 0 <= index < n_users, otherwise a derived
        keypair that was never registered (scenario 1 material)."""
        if 0 <= index < len(self.users):
            return self.users[index]
        if index not in self._outsiders:
            self._outsiders[index] = crypto.keygen(derive_seed(self.config.seed, f"outsider/{index}"))
        return self._outsiders[index]

    def user_attrs(self, index: int) -> tuple[int, ...]:
        return self.dataset.users[index][1]

    def scheduled_proposer(self) -> crypto.KeyPair:
        want = self.chain.validator_set.scheduled(self.chain.height)
        for kp in self.validators:
            if kp.public_key == want:
                return kp
        raise ScheduleError("scheduled validator key not held by this world")


@dataclass(frozen=True)
class RequestOutcome:
    verdict: str  # "allowed" or "denied:<reason>"
    reason: DenialReason | None
    content_hash: bytes | None
    heights: tuple[int, ...]
    user_index: int
    resource_id: int
    operation: str

    @property
    def allowed(self) -> bool:
        return self.verdict == "allowed"


@dataclass(frozen=True)
class ScenarioReport:
    scenario_id: int
    expected: str
    observed: str
    passed: bool
    transcript: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "expected": self.expected,
            "observed": self.observed,
            "passed": self.passed,
            "transcript": list(self.transcript),
        }


@dataclass(frozen=True)
class TamperOutcome:
    mutation: str
    caught: bool
    detail: str


def derive_seed(seed: int, tag: str) -> bytes:
    return hashlib.sha256(f"{seed}/{tag}".encode("utf-8")).digest()


def setup_world(
    n_validators: int,
    n_users: int,
    n_resources: int,
    seed: int,
    config: Config | None = None,
) -> World:
    """Deterministic world: genesis, user registration, trained model.

    The world's config is ``config`` (or the defaults) with the shape and
    seed given here, so ``world.config`` describes the world built."""
    config = replace(
        config or Config(),
        validators=n_validators, users=n_users, resources=n_resources, seed=seed,
    )

    dataset = generate_dataset(n_users, n_resources, seed)
    model = train(dataset, config)

    validators = [
        crypto.keygen(derive_seed(seed, f"validator/{i}")) for i in range(n_validators)
    ]
    admin = crypto.keygen(derive_seed(seed, "admin"))
    storage_keys = crypto.keygen(derive_seed(seed, "storage"))
    users = [crypto.keygen(derive_seed(seed, f"user/{uid}")) for uid, _ in dataset.users]

    clock = LogicalClock()
    chain = genesis(
        ValidatorSet(tuple(kp.public_key for kp in validators)),
        admin.public_key,
        proposer=validators[0],
        timestamp=clock.now(),
        storage_pk=storage_keys.public_key,
        resources={rid: attrs for rid, attrs in dataset.resources},
    )

    storage_node = StorageNode(storage_keys, link_ttl=config.link_ttl)
    content_rng = crypto.seeded_rng(derive_seed(seed, "content"))
    for rid, attrs in dataset.resources:
        storage_node.put_resource(
            Resource(id=rid, metadata=attrs, content=content_rng.read(RESOURCE_CONTENT_SIZE))
        )

    world = World(
        config=config,
        clock=clock,
        rng=crypto.seeded_rng(derive_seed(seed, "sim")),
        chain=chain,
        mempool=Mempool(),
        validators=validators,
        admin=admin,
        storage_node=storage_node,
        rules=RuleStore(),
        model=model,
        dataset=dataset,
        users=users,
    )

    for kp, (_, attrs) in zip(users, dataset.users):
        rejected = world.mempool.submit(
            chain, make_setup(admin, kp.public_key, attrs, clock.now()), clock.now(),
            config.freshness_window,
        )
        if rejected is not None:
            raise ConfigError(f"setup transaction rejected during world bootstrap ({rejected})")
    while len(world.mempool):
        _produce(world)

    _mirror_rules(world)
    _mirror_root(world)
    return world


def _produce(world: World) -> Block:
    world.clock.tick(1)
    block = produce_block(
        world.chain,
        world.mempool,
        world.scheduled_proposer(),
        world.clock.now(),
        world.config.batch_size,
    )
    append_block(world.chain, block)
    return block


def _mirror_rules(world: World) -> None:
    world.chain.put_contract_state(STATE_RULES_KEY, world.rules.to_state())


def _mirror_root(world: World) -> None:
    """Mirror the log root, and append copies of the history entries the
    contract state does not hold yet (the history is append-only)."""
    log = world.storage_node.log
    world.chain.put_contract_state(STATE_ROOT_KEY, log.root.hex())
    mirrored = world.chain.contract_state.get(STATE_ROOT_HISTORY_KEY, [])
    mirrored.extend(dict(h) for h in log.history[len(mirrored):])
    world.chain.put_contract_state(STATE_ROOT_HISTORY_KEY, mirrored)


def _after_denial(world: World, subject_hash: str) -> None:
    """Roll the new record into the log root, mirror it, maybe ban."""
    world.storage_node.roll_log()
    _mirror_root(world)
    if subject_hash != UNKNOWN_SUBJECT and check_ban_threshold(
        world.storage_node.log,
        subject_hash,
        world.now(),
        threshold=world.config.ban_threshold,
        window=world.config.ban_window,
    ):
        register_ban(world.rules, subject_hash)
        _mirror_rules(world)


def _record_denial(
    world: World, offending_bytes: bytes, denial: Denial, subject_hash: str
) -> None:
    world.storage_node.record_malicious(
        offending_bytes,
        denial.reason,
        denial.mask,
        subject_hash,
        world.chain.height,
        world.now(),
    )
    _after_denial(world, subject_hash)


def run_request(
    world: World, user_index: int, resource_id: int, operation: str
) -> RequestOutcome:
    """Execute the full data-retrieval pipeline for one request."""
    with world._lock:
        return _run_request_locked(world, user_index, resource_id, operation)


def _run_request_locked(
    world: World, user_index: int, resource_id: int, operation: str
) -> RequestOutcome:
    cfg = world.config
    heights: list[int] = []
    world.clock.tick(1)
    user = world.user_keypair(user_index)
    subject = crypto.hash_bytes(user.public_key).hex()

    def denied(reason: DenialReason) -> RequestOutcome:
        return RequestOutcome(
            verdict=f"denied:{reason.value}",
            reason=reason,
            content_hash=None,
            heights=tuple(heights),
            user_index=user_index,
            resource_id=resource_id,
            operation=operation,
        )

    nonce = crypto.gen_nonce(world.rng)
    accreq = make_accreq(user, resource_id, operation, nonce, world.now())
    label = world.mempool.submit(world.chain, accreq, world.now(), cfg.freshness_window)
    if label is not None:
        reason = {
            "stale": DenialReason.STALE,
            "replayed-nonce": DenialReason.REPLAY,
        }.get(label, DenialReason.UNAUTHENTICATED)
        _record_denial(world, tx_canonical_bytes(accreq), Denial(reason, label), subject)
        return denied(reason)

    heights.append(_produce(world).height)

    result = authenticate(
        accreq, world.chain.memory, world.now(), cfg.freshness_window
    )
    if isinstance(result, Denial):
        _record_denial(world, tx_canonical_bytes(accreq), result, subject)
        return denied(result.reason)

    payload = result
    world.mempool.submit(world.chain, payload.to_tx(), world.now(), cfg.freshness_window)

    decision = authorize(
        payload,
        world.chain.memory,
        world.model,
        world.rules,
        world.now(),
        cfg.freshness_window,
        cfg.threshold,
    )
    if isinstance(decision, Denial):
        heights.append(_produce(world).height)  # the verified tx still lands on chain
        _record_denial(world, tx_canonical_bytes(accreq), decision, subject)
        return denied(decision.reason)

    issued = world.storage_node.issue_link(
        decision,
        user.public_key,
        resource_id,
        world.now(),
        world.rng,
        block_height=world.chain.height,
    )
    if isinstance(issued, Denial):
        heights.append(_produce(world).height)
        _after_denial(world, subject)
        return denied(issued.reason)

    world.mempool.submit(world.chain, issued, world.now(), cfg.freshness_window)
    heights.append(_produce(world).height)

    try:
        secret_note = json.loads(crypto.decrypt(user.secret_key, issued.ciphertext))
        token = bytes.fromhex(secret_note["link"])
        link_nonce = bytes.fromhex(secret_note["nonce"])
    except (DecryptError, KeyError, ValueError) as exc:  # pragma: no cover
        raise FormatError(f"undecodable link payload: {exc}") from exc

    redeemed = world.storage_node.redeem_link(
        token, link_nonce, world.now(), block_height=world.chain.height
    )
    if isinstance(redeemed, Denial):
        _after_denial(world, subject)
        return denied(redeemed.reason)

    content, storage_tx = redeemed
    world.mempool.submit(world.chain, storage_tx, world.now(), cfg.freshness_window)
    heights.append(_produce(world).height)

    return RequestOutcome(
        verdict="allowed",
        reason=None,
        content_hash=crypto.hash_bytes(content),
        heights=tuple(heights),
        user_index=user_index,
        resource_id=resource_id,
        operation=operation,
    )


# ---------------------------------------------------------------------------
# Scenario suite
# ---------------------------------------------------------------------------

def _model_mask(world: World, user_index: int, resource_id: int) -> tuple[bool, ...]:
    # one batched forward pass over every (user, resource) pair, then cached
    if world._mask_cache is None:
        pairs = [
            (ui, rid)
            for ui in range(len(world.users))
            for rid, _ in world.dataset.resources
        ]
        resource_attrs = dict(world.dataset.resources)
        inputs = np.array(
            [
                encode_pair(world.dataset.users[ui][1], resource_attrs[rid])
                for ui, rid in pairs
            ],
            dtype=np.float64,
        )
        scores = _forward_all(world.model.layers, inputs)[-1]
        masks = scores >= world.config.threshold
        world._mask_cache = {
            pair: tuple(bool(v) for v in masks[i]) for i, pair in enumerate(pairs)
        }
    return world._mask_cache[(user_index, resource_id)]


def find_case(
    world: World, want_grant: bool, skip: set[tuple[int, int]] = frozenset()
) -> tuple[int, int, str]:
    """First (user index, resource id, operation) whose model verdict matches
    ``want_grant`` and that no current priority rule touches."""
    for user_index in range(len(world.users)):
        subject = crypto.hash_bytes(world.users[user_index].public_key).hex()
        for resource_id, _ in world.dataset.resources:
            if (user_index, resource_id) in skip:
                continue
            if world.rules.first_match(subject, resource_id) is not None:
                continue
            mask = _model_mask(world, user_index, resource_id)
            for op_index, op in enumerate(OPERATIONS):
                if mask[op_index] == want_grant:
                    return user_index, resource_id, op
    raise LookupError(
        f"no {'granting' if want_grant else 'denying'} case in this world"
    )


def run_scenario(world: World, scenario_id: int) -> ScenarioReport:
    """Build the scenario's precondition, run the request, report."""
    if scenario_id not in SCENARIO_EXPECTATIONS:
        raise ValueError(f"unknown scenario id {scenario_id}")
    start_height = world.chain.height

    if scenario_id == 1:
        outsider = len(world.users)  # never registered
        resource_id = world.dataset.resources[0][0]
        outcome = run_request(world, outsider, resource_id, "read")
    elif scenario_id == 2:
        user_index, resource_id, op = find_case(world, want_grant=False)
        outcome = run_request(world, user_index, resource_id, op)
    elif scenario_id == 3:
        user_index, resource_id, op = find_case(world, want_grant=True)
        subject = crypto.hash_bytes(world.users[user_index].public_key).hex()
        ops = tuple(name == op for name in OPERATIONS)
        world.rules.add(
            PriorityRule(
                ordinal=world.rules.next_ordinal(),
                subject=subject,
                resource=str(resource_id),
                operations=ops,
                effect=DENY,
            )
        )
        _mirror_rules(world)
        outcome = run_request(world, user_index, resource_id, op)
    else:
        user_index, resource_id, op = find_case(world, want_grant=True)
        outcome = run_request(world, user_index, resource_id, op)

    transcript = tuple(
        {"height": block.height, "tx": tx.to_dict()}
        for block in world.chain.blocks[start_height:]
        for tx in block.transactions
    )
    expected = SCENARIO_EXPECTATIONS[scenario_id]
    return ScenarioReport(
        scenario_id=scenario_id,
        expected=expected,
        observed=outcome.verdict,
        passed=outcome.verdict == expected,
        transcript=transcript,
    )


def run_all_scenarios(world: World) -> list[ScenarioReport]:
    return [run_scenario(world, sid) for sid in sorted(SCENARIO_EXPECTATIONS)]


# ---------------------------------------------------------------------------
# Adversarial mutations
# ---------------------------------------------------------------------------

TAMPER_MUTATIONS = (
    "flip-chain-byte",
    "reuse-link",
    "replay-accreq",
    "wrong-validator-block",
    "mutate-malicious-record",
)


def tamper(world: World, mutation: str) -> TamperOutcome:
    """Apply one adversarial mutation and report whether defenses caught it."""
    if mutation == "flip-chain-byte":
        return _tamper_chain_byte(world)
    if mutation == "reuse-link":
        return _tamper_reuse_link(world)
    if mutation == "replay-accreq":
        return _tamper_replay_accreq(world)
    if mutation == "wrong-validator-block":
        return _tamper_wrong_validator(world)
    if mutation == "mutate-malicious-record":
        return _tamper_malicious_record(world)
    raise ValueError(f"unknown mutation {mutation!r}")


def _flip_byte(blob: bytes, rng: crypto.RandomSource) -> bytes:
    position = int.from_bytes(rng.read(8), "big") % len(blob)
    delta = (rng.read(1)[0] % 255) + 1  # never zero, so the byte changes
    mutated = bytearray(blob)
    mutated[position] ^= delta
    return bytes(mutated)


def _tamper_chain_byte(world: World) -> TamperOutcome:
    blob = b"\n".join(block_canonical_bytes(b) for b in world.chain.blocks)
    mutated = _flip_byte(blob, world.rng)
    try:
        blocks = parse_chain_lines(mutated)
    except FormatError as exc:
        return TamperOutcome("flip-chain-byte", True, f"rejected at parse: {exc}")
    candidate = Chain.from_blocks_unchecked(blocks)
    valid = validate_chain(candidate)
    return TamperOutcome(
        "flip-chain-byte",
        caught=not valid,
        detail="validate_chain rejected mutated chain" if not valid else "mutation undetected",
    )


def _granted_link_material(world: World) -> tuple[int, bytes, bytes]:
    """Run one granted request and recover its (user, token, nonce)."""
    user_index, resource_id, op = find_case(world, want_grant=True)
    outcome = run_request(world, user_index, resource_id, op)
    if not outcome.allowed:
        raise LookupError(f"expected a grant, got {outcome.verdict}")
    user = world.users[user_index]
    # a grant mines its access request, link and storage blocks in that order
    link_tx = next(
        tx
        for tx in world.chain.blocks[outcome.heights[1]].transactions
        if isinstance(tx, LinkTx) and tx.recipient == user.public_key
    )
    note = json.loads(crypto.decrypt(user.secret_key, link_tx.ciphertext))
    return user_index, bytes.fromhex(note["link"]), bytes.fromhex(note["nonce"])


def _tamper_reuse_link(world: World) -> TamperOutcome:
    user_index, token, nonce = _granted_link_material(world)
    world.clock.tick(1)
    second = world.storage_node.redeem_link(
        token, nonce, world.now(), block_height=world.chain.height
    )
    if isinstance(second, Denial) and second.reason == DenialReason.REPLAY:
        subject = crypto.hash_bytes(world.users[user_index].public_key).hex()
        _after_denial(world, subject)
        return TamperOutcome("reuse-link", True, "second redemption denied as replay")
    return TamperOutcome("reuse-link", False, f"unexpected result {second!r}")


def _tamper_replay_accreq(world: World) -> TamperOutcome:
    user_index, resource_id, op = find_case(world, want_grant=True)
    outcome = run_request(world, user_index, resource_id, op)
    user_pk = world.users[user_index].public_key
    captured = next(
        tx
        for tx in world.chain.blocks[outcome.heights[0]].transactions
        if isinstance(tx, AccReqTx) and tx.user_pk == user_pk
    )
    world.clock.tick(world.config.freshness_window + 1)
    label = world.mempool.submit(
        world.chain, captured, world.now(), world.config.freshness_window
    )
    if label is None:
        return TamperOutcome("replay-accreq", False, "replayed request admitted")
    return TamperOutcome(
        "replay-accreq", True, f"replayed request rejected ({label}); first run {outcome.verdict}"
    )


def _tamper_wrong_validator(world: World) -> TamperOutcome:
    height = world.chain.height
    v = len(world.chain.validator_set)
    wrong = world.validators[(height + 1) % v]
    try:
        produce_block(world.chain, world.mempool, wrong, world.now())
        return TamperOutcome("wrong-validator-block", False, "out-of-turn proposal allowed")
    except ScheduleError:
        pass
    # craft the block anyway, as a malicious validator would
    block = signed(
        Block(
            height=height,
            prev_hash=world.chain.tip_hash(),
            tx_root=merkle_root([]),
            transactions=(),
            timestamp=world.now(),
            proposer=wrong.public_key,
        ),
        wrong,
    )
    accepted = validate_block(world.chain, block)
    return TamperOutcome(
        "wrong-validator-block",
        caught=not accepted,
        detail="signed out-of-turn block rejected" if not accepted else "block accepted",
    )


def _tamper_malicious_record(world: World) -> TamperOutcome:
    if not world.storage_node.log.records:
        # cause one denial so there is something to tamper with
        run_request(world, 0, 10**6, "read")
    records = world.storage_node.log.records
    lines = b"\n".join(canonical_bytes(r.to_dict()) for r in records)
    mutated = _flip_byte(lines, world.rng)
    try:
        loaded = parse_log_lines(mutated)
    except FormatError as exc:
        return TamperOutcome("mutate-malicious-record", True, f"rejected at parse: {exc}")
    verdict = verify_log(
        loaded,
        world.storage_node.log.root,
        world.chain.contract_state.get(STATE_ROOT_HISTORY_KEY),
    )
    return TamperOutcome(
        "mutate-malicious-record",
        caught=not verdict.ok,
        detail=f"verify_log says {verdict.verdict}",
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def find_malicious_users(world: World) -> list[tuple[str, int, bool]]:
    """(pk hash, record count, banned flag) per offender, most records first."""
    counts: dict[str, int] = {}
    for record in world.storage_node.log.records:
        counts[record.subject_hash] = counts.get(record.subject_hash, 0) + 1
    return sorted(
        ((subject, n, subject in world.rules.banned) for subject, n in counts.items()),
        key=lambda item: (-item[1], item[0]),
    )


# ---------------------------------------------------------------------------
# Persistence of a run's artifacts
# ---------------------------------------------------------------------------

def save_world_artifacts(
    world: World,
    chain_path=None,
    state_path=None,
    log_path=None,
) -> None:
    """Write the chain file, the contract-state sidecar, and the log export.

    All three are canonical-serialized, so two runs from the same seed
    produce byte-identical files.
    """
    if chain_path is not None:
        save_chain(world.chain, chain_path)
    if state_path is not None:
        with open(state_path, "wb") as fh:
            fh.write(canonical_bytes(world.chain.contract_state))
            fh.write(b"\n")
    if log_path is not None:
        export_log(world.storage_node.log.records, log_path)


def load_contract_state(path) -> dict:
    """Parse the contract-state sidecar; raises :class:`FormatError` unless
    it is an object whose log root is a string and whose root history is a
    list of ``{"root": str, "height": int}`` entries."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        state = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"state file: {exc}") from exc
    if not isinstance(state, dict):
        raise FormatError("state file: not a JSON object")
    if not isinstance(state.get(STATE_ROOT_KEY, ""), str):
        raise FormatError(f"state file: {STATE_ROOT_KEY} is not a string")
    history = state.get(STATE_ROOT_HISTORY_KEY, [])
    if not isinstance(history, list) or not all(
        isinstance(h, dict) and isinstance(h.get("root"), str) and isinstance(h.get("height"), int)
        for h in history
    ):
        raise FormatError(f"state file: malformed {STATE_ROOT_HISTORY_KEY}")
    return state
