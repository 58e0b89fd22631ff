"""Simulated world: wires users, validators, contracts, and storage.

The network is synchronous and in-process.  Time is a logical clock
advanced by the script, randomness comes from one seeded stream, and all
key material derives from the world seed, so a whole run (chain file,
log export, outcomes) is byte-reproducible.

A request walks the full pipeline: the signed access request is admitted
to the mempool, which verifies its signature, then mined, and block
validation checks its nonce and time; authentication then checks only that
the key is registered; its in-process hand-off drives authorization (model
inference filtered by priority rules) and never goes on chain; a grant
becomes an encrypted single-use link issued by storage and mined;
redeeming the link returns the content and logs the access on chain.  So a
grant mines three blocks (access request, link, storage record), a refusal
after admission mines one (its access request), and a refusal at admission
mines none.  Every refusal at any stage lands exactly once in storage's
malicious-activity log, whose root moves one step with that record, and
repeated misuse trips the ban rule.  The rules and the log root have one
copy each, in the rule store and the log; :func:`save_world_artifacts`
writes the state sidecar from them.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field, replace

import orjson

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
from .errors import ConfigError, FormatError, ScheduleError
from .ledger import (
    AccReqTx,
    Block,
    CANONICAL_INT_MAX,
    CANONICAL_INT_MIN,
    Chain,
    LinkTx,
    LogicalClock,
    Mempool,
    Transaction,
    ValidatorSet,
    append_block,
    block_canonical_bytes,
    canonical_bytes,
    genesis,
    make_accreq,
    make_setup,
    parse_chain_lines,
    produce_block,
    save_chain,
    signed,
    subject_id,
    tx_canonical_bytes,
    validate_block,
    validate_chain,
    write_canonical_lines,
)
from .model import (
    DecisionModel,
    OPERATIONS,
    SyntheticDataset,
    encode_pair,
    generate_dataset,
    infer,
    threshold_decide,
    train,
)
from .storage import (
    Resource,
    StorageNode,
    UNKNOWN_SUBJECT,
    check_ban_threshold,
    export_log,
    parse_log_lines,
    read_link_note,
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

# mempool rejection label -> logged reason; any other label is unauthenticated
ADMISSION_DENIAL_REASONS = {
    "stale": DenialReason.STALE,
    "replayed-nonce": DenialReason.REPLAY,
}


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

    def scheduled_proposer(self) -> crypto.KeyPair:
        want = self.chain.validator_set.scheduled(self.chain.height)
        for kp in self.validators:
            if kp.public_key == want:
                return kp
        raise ScheduleError("scheduled validator key not held by this world")


@dataclass(frozen=True)
class RequestOutcome:
    verdict: str  # "allowed" or "denied:<reason>"
    content_hash: bytes | None
    heights: tuple[int, ...]

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
        freshness_window=config.freshness_window,
    )

    storage_node = StorageNode(storage_keys, link_ttl=config.link_ttl)
    content_rng = crypto.seeded_rng(derive_seed(seed, "content"))
    for rid, _ in dataset.resources:
        storage_node.put_resource(Resource(id=rid, content=content_rng.read(RESOURCE_CONTENT_SIZE)))

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

    now = clock.now()
    for kp, (_, attrs) in zip(users, dataset.users):
        _submit_own(world, make_setup(admin, kp.public_key, attrs, now))
    while len(world.mempool):
        _produce(world)
    return world


def _submit_own(world: World, tx: Transaction) -> None:
    """Admit a transaction the world signed, else raise :class:`ConfigError`."""
    label = world.mempool.submit(world.chain, tx, world.now())
    if label is not None:
        raise ConfigError(f"{tx.kind} transaction rejected at admission ({label})")


def _produce(world: World) -> Block:
    """Mine the mempool into the next block and append it.  The block's own
    signature, just made with the scheduled key, and its transactions',
    each verified by ``Mempool.submit``, are not verified again."""
    world.clock.tick(1)
    block = produce_block(
        world.chain,
        world.mempool,
        world.scheduled_proposer(),
        world.clock.now(),
        world.config.batch_size,
    )
    trusted = {block.sig, *(tx.sig for tx in block.transactions)}
    append_block(
        world.chain, block, lambda pk, msg, sig: sig in trusted or crypto.verify_sig(pk, msg, sig)
    )
    return block


def _deny(
    world: World, subject_hash: str, denial: Denial, offending_bytes: bytes | None = None
) -> Denial:
    """The one exit for a refusal, returning ``denial``: log it (given the
    bytes; storage logs its own refusals) and ban the subject once it
    reaches the ban rule."""
    node, cfg = world.storage_node, world.config
    if offending_bytes is not None:
        node.record_malicious(
            offending_bytes, denial.reason, denial.mask, subject_hash,
            world.chain.height, world.now(),
        )
    if (
        subject_hash != UNKNOWN_SUBJECT
        and subject_hash not in world.rules.banned
        and check_ban_threshold(
            node.log, subject_hash, world.now(), threshold=cfg.ban_threshold, window=cfg.ban_window
        )
    ):
        register_ban(world.rules, subject_hash)
    return denial


def _admit(world: World, subject_hash: str, accreq: AccReqTx) -> Denial | None:
    """Submit an access request to the mempool; a refusal goes through
    :func:`_deny` with the request's bytes and is returned."""
    label = world.mempool.submit(world.chain, accreq, world.now())
    if label is None:
        return None
    reason = ADMISSION_DENIAL_REASONS.get(label, DenialReason.UNAUTHENTICATED)
    return _deny(world, subject_hash, Denial(reason, label), tx_canonical_bytes(accreq))


def check_resource_id(resource_id: int) -> None:
    """Raise ``ValueError`` unless a request may carry ``resource_id``."""
    if not CANONICAL_INT_MIN <= resource_id <= CANONICAL_INT_MAX:
        raise ValueError(
            f"resource id {resource_id} is outside {CANONICAL_INT_MIN}..{CANONICAL_INT_MAX}"
        )


def run_request(
    world: World, user_index: int, resource_id: int, operation: str
) -> RequestOutcome:
    """Execute the full data-retrieval pipeline for one request.

    Raises ``ValueError``, before any state changes, for a resource id the
    canonical encoding cannot carry (outside ``CANONICAL_INT_MIN`` ..
    ``CANONICAL_INT_MAX``)."""
    check_resource_id(resource_id)
    with world._lock:
        return _run_request_locked(world, user_index, resource_id, operation)


def _run_request_locked(
    world: World, user_index: int, resource_id: int, operation: str
) -> RequestOutcome:
    cfg = world.config
    heights: list[int] = []
    world.clock.tick(1)
    user = world.user_keypair(user_index)
    subject = subject_id(user.public_key)

    def outcome(denial: Denial | None = None, content: bytes | None = None) -> RequestOutcome:
        return RequestOutcome(
            verdict="allowed" if denial is None else f"denied:{denial.reason.value}",
            content_hash=None if content is None else crypto.hash_bytes(content),
            heights=tuple(heights),
        )

    nonce = crypto.gen_nonce(world.rng)
    accreq = make_accreq(user, resource_id, operation, nonce, world.now())
    refused = _admit(world, subject, accreq)
    if refused is not None:
        return outcome(refused)

    heights.append(_produce(world).height)

    result = authenticate(accreq, world.chain.memory)
    if isinstance(result, Denial):
        return outcome(_deny(world, subject, result, tx_canonical_bytes(accreq)))

    decision = authorize(result, world.chain.memory, world.model, world.rules, cfg.threshold)
    if isinstance(decision, Denial):
        return outcome(_deny(world, subject, decision, tx_canonical_bytes(accreq)))

    issued = world.storage_node.issue_link(
        decision,
        user.public_key,
        resource_id,
        world.now(),
        world.rng,
        block_height=world.chain.height,
    )
    if isinstance(issued, Denial):
        return outcome(_deny(world, subject, issued))

    _submit_own(world, issued)
    heights.append(_produce(world).height)

    token, link_nonce = read_link_note(user.secret_key, issued)
    redeemed = world.storage_node.redeem_link(
        token, link_nonce, world.now(), block_height=world.chain.height
    )
    if isinstance(redeemed, Denial):
        return outcome(_deny(world, subject, redeemed))

    content, storage_tx = redeemed
    _submit_own(world, storage_tx)
    heights.append(_produce(world).height)
    return outcome(content=content)


# ---------------------------------------------------------------------------
# Scenario suite
# ---------------------------------------------------------------------------

def find_case(
    world: World, want_grant: bool, skip: set[tuple[int, int]] = frozenset()
) -> tuple[int, int, str]:
    """First (user index, resource id, operation) whose model verdict matches
    ``want_grant`` and that no current priority rule touches.  The verdict
    is the one :func:`authorize` reaches, from the same ``infer`` and
    ``threshold_decide``.  A banned user's front DENY-all rule touches
    every pair, so banned users are passed over before any rule scan."""
    for user_index, (_, attrs) in enumerate(world.dataset.users):
        subject = subject_id(world.users[user_index].public_key)
        if subject in world.rules.banned:
            continue
        for resource_id, resource_attrs in world.dataset.resources:
            if (user_index, resource_id) in skip:
                continue
            if world.rules.first_match(subject, resource_id) is not None:
                continue
            scores = infer(world.model, encode_pair(attrs, resource_attrs))
            mask = threshold_decide(scores, world.config.threshold)
            if want_grant in mask:
                return user_index, resource_id, OPERATIONS[mask.index(want_grant)]
    raise LookupError(
        f"no {'granting' if want_grant else 'denying'} case in this world"
    )


def run_scenario(world: World, scenario_id: int) -> ScenarioReport:
    """Build the scenario's precondition, run the request, report, all
    under the world lock, as :func:`run_request` runs."""
    if scenario_id not in SCENARIO_EXPECTATIONS:
        raise ValueError(f"unknown scenario id {scenario_id}")
    with world._lock:
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
            subject = subject_id(world.users[user_index].public_key)
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

def tamper(world: World, mutation: str) -> TamperOutcome:
    """Apply one adversarial mutation, under the world lock, and report
    whether defenses caught it."""
    if mutation not in _TAMPERS:
        raise ValueError(f"unknown mutation {mutation!r}")
    with world._lock:
        return TamperOutcome(mutation, *_TAMPERS[mutation](world))


def _flip_byte(blob: bytes, rng: crypto.RandomSource) -> bytes:
    position = int.from_bytes(rng.read(8), "big") % len(blob)
    delta = (rng.read(1)[0] % 255) + 1  # never zero, so the byte changes
    mutated = bytearray(blob)
    mutated[position] ^= delta
    return bytes(mutated)


def _tamper_chain_byte(world: World) -> tuple[bool, str]:
    blob = b"\n".join(block_canonical_bytes(b) for b in world.chain.blocks)
    mutated = _flip_byte(blob, world.rng)
    try:
        blocks = parse_chain_lines(mutated)
    except FormatError as exc:
        return True, f"rejected at parse: {exc}"
    if validate_chain(Chain.from_blocks_unchecked(blocks)):
        return False, "mutation undetected"
    return True, "validate_chain rejected mutated chain"


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
    return (user_index, *read_link_note(user.secret_key, link_tx))


def _tamper_reuse_link(world: World) -> tuple[bool, str]:
    user_index, token, nonce = _granted_link_material(world)
    world.clock.tick(1)
    second = world.storage_node.redeem_link(
        token, nonce, world.now(), block_height=world.chain.height
    )
    if isinstance(second, Denial) and second.reason == DenialReason.REPLAY:
        _deny(world, subject_id(world.users[user_index].public_key), second)
        return True, "second redemption denied as replay"
    return False, f"unexpected result {second!r}"


def _tamper_replay_accreq(world: World) -> tuple[bool, str]:
    user_index, resource_id, op = find_case(world, want_grant=True)
    outcome = run_request(world, user_index, resource_id, op)
    user_pk = world.users[user_index].public_key
    captured = next(
        tx
        for tx in world.chain.blocks[outcome.heights[0]].transactions
        if isinstance(tx, AccReqTx) and tx.user_pk == user_pk
    )
    world.clock.tick(world.chain.genesis_payload["freshness_window"] + 1)
    refused = _admit(world, subject_id(user_pk), captured)
    if refused is None:
        return False, "replayed request admitted"
    return True, f"replayed request rejected ({refused.detail}); first run {outcome.verdict}"


def _tamper_wrong_validator(world: World) -> tuple[bool, str]:
    height = world.chain.height
    v = len(world.chain.validator_set)
    wrong = world.validators[(height + 1) % v]
    try:
        produce_block(world.chain, world.mempool, wrong, world.now())
        return False, "out-of-turn proposal allowed"
    except ScheduleError:
        pass
    # craft the block anyway, as a malicious validator would
    block = signed(
        Block(
            height=height,
            prev_hash=world.chain.tip_hash(),
            transactions=(),
            timestamp=world.now(),
        ),
        wrong,
    )
    if validate_block(world.chain, block):
        return False, "block accepted"
    return True, "signed out-of-turn block rejected"


def _tamper_malicious_record(world: World) -> tuple[bool, str]:
    log = world.storage_node.log
    if not log.records:
        # cause one denial so there is something to tamper with
        run_request(world, 0, 10**6, "read")
    lines = b"\n".join(canonical_bytes(r.to_dict()) for r in log.records)
    mutated = _flip_byte(lines, world.rng)
    try:
        loaded = parse_log_lines(mutated)
    except FormatError as exc:
        return True, f"rejected at parse: {exc}"
    verdict = verify_log(loaded, log.root, log.history)
    return not verdict.ok, f"verify_log says {verdict.verdict}"


# mutation name -> function returning (caught, detail)
_TAMPERS = {
    "flip-chain-byte": _tamper_chain_byte,
    "reuse-link": _tamper_reuse_link,
    "replay-accreq": _tamper_replay_accreq,
    "wrong-validator-block": _tamper_wrong_validator,
    "mutate-malicious-record": _tamper_malicious_record,
}
TAMPER_MUTATIONS = tuple(_TAMPERS)


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

    The sidecar is written from the rule store and the log as they are
    now: the rules (with the bans), the log's running root and its
    per-record history.  All three are canonical-serialized, so two runs
    from the same seed produce byte-identical files.
    """
    log = world.storage_node.log
    if chain_path is not None:
        save_chain(world.chain, chain_path)
    if state_path is not None:
        state = {
            STATE_RULES_KEY: world.rules.to_state(),
            STATE_ROOT_KEY: log.root.hex(),
            STATE_ROOT_HISTORY_KEY: log.history,
        }
        write_canonical_lines(state_path, [state])
    if log_path is not None:
        export_log(log.records, log_path)


def load_contract_state(path) -> dict:
    """Parse the contract-state sidecar; raises :class:`FormatError` unless
    it is one canonical line (as :func:`save_world_artifacts` writes it)
    holding an object whose log root is present and a lower-case string
    and whose root history is a list of ``{"root": str, "height": int}``
    entries with no other key, each root lower-case too."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        state = orjson.loads(data)
        canonical = canonical_bytes(state) + b"\n"
    except ValueError as exc:  # orjson's decode errors are ValueErrors
        raise FormatError(f"state file: {exc}") from exc
    if data != canonical:
        raise FormatError("state file: non-canonical encoding")
    if not isinstance(state, dict):
        raise FormatError("state file: not a JSON object")
    if STATE_ROOT_KEY not in state:
        raise FormatError(f"state file: no {STATE_ROOT_KEY}")
    root = state[STATE_ROOT_KEY]
    if not isinstance(root, str):
        raise FormatError(f"state file: {STATE_ROOT_KEY} is not a string")
    if root != root.lower():  # one spelling of the root, as a chain or log line has
        raise FormatError(f"state file: {STATE_ROOT_KEY} is not lower-case hex")
    history = state.get(STATE_ROOT_HISTORY_KEY, [])
    if not isinstance(history, list) or not all(
        isinstance(h, dict) and h.keys() == {"height", "root"}
        and isinstance(h["root"], str) and isinstance(h["height"], int)
        for h in history
    ):
        raise FormatError(f"state file: malformed {STATE_ROOT_HISTORY_KEY}")
    if any(h["root"] != h["root"].lower() for h in history):
        raise FormatError(f"state file: a {STATE_ROOT_HISTORY_KEY} root is not lower-case hex")
    return state
