"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failure fails the test the normal way.  The default world is a
seeded 100-user, 50-resource network with 3 validators.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from authchain import bench as B
from authchain import crypto, harness as H, ledger
from authchain import model as M
from authchain import storage as S
from authchain.cli import dispatch
from authchain.errors import FormatError, ScheduleError
from conftest import build_small_world
from test_model import oracle_forward, seeded_bits, seeded_model

DEFAULT_SEED = 0


@pytest.fixture(scope="module")
def default_world():
    return H.setup_world(3, 100, 50, DEFAULT_SEED)


def ok(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_scenario_suite(default_world):
    started = time.perf_counter()
    reports = H.run_all_scenarios(default_world)
    elapsed = time.perf_counter() - started
    observed = [r.observed for r in reports]
    assert observed == [
        "denied:unauthenticated",
        "denied:model-denied",
        "denied:policy-denied",
        "allowed",
    ]
    assert all(r.passed for r in reports)
    assert elapsed < 30.0
    ok(f"1 PASS scenario suite on 100-user world ({elapsed:.1f}s): {observed}")


def test_criterion_2_replay_prevention(default_world):
    world = default_world
    link_caught = accreq_caught = 0
    trials = 100
    for _ in range(trials):
        if H.tamper(world, "reuse-link").caught:
            link_caught += 1
        if H.tamper(world, "replay-accreq").caught:
            accreq_caught += 1
    assert link_caught == trials
    assert accreq_caught == trials
    ok(
        f"2 PASS replay prevention: link reuse {link_caught}/{trials}, "
        f"stale request replay {accreq_caught}/{trials}"
    )


def test_criterion_3_log_tamper_evidence(tmp_path):
    world = build_small_world(seed=17)
    # produce a few denials so the log holds several records
    for i in range(4):
        H.run_request(world, i, 10**6 + i, "read")
    records = world.storage_node.log.records
    assert len(records) >= 4
    export = b"\n".join(ledger.canonical_bytes(r.to_dict()) for r in records) + b"\n"
    H.save_world_artifacts(world, state_path=tmp_path / "state.json")
    state = H.load_contract_state(tmp_path / "state.json")
    root = bytes.fromhex(state[H.STATE_ROOT_KEY])
    history = state[H.STATE_ROOT_HISTORY_KEY]

    untampered = sum(
        S.verify_log(S.parse_log_lines(export), root, history).ok for _ in range(100)
    )
    assert untampered == 100

    rng = random.Random(33)
    caught = 0
    trials = 100
    for trial in range(trials):
        mutation = rng.choice(("flip", "delete", "insert"))
        lines = export.strip().split(b"\n")
        if mutation == "flip":
            blob = bytearray(export)
            blob[rng.randrange(len(blob))] ^= rng.randrange(1, 256)
            candidate = bytes(blob)
        elif mutation == "delete":
            del lines[rng.randrange(len(lines))]
            candidate = b"\n".join(lines) + b"\n"
        else:
            forged = json.loads(lines[rng.randrange(len(lines))])
            forged["seq"] = 1000 + trial
            forged["tx"] = (b"forged-%d" % trial).hex()
            lines.insert(rng.randrange(len(lines) + 1), ledger.canonical_bytes(forged))
            candidate = b"\n".join(lines) + b"\n"
        try:
            loaded = S.parse_log_lines(candidate)
        except FormatError:
            caught += 1
            continue
        if not S.verify_log(loaded, root, history).ok:
            caught += 1
    assert caught == trials
    ok(f"3 PASS log tamper evidence: {caught}/{trials} mutations caught, 100/100 clean verifies")


def test_criterion_4_chain_immutability():
    world = build_small_world(seed=23)
    clock = world.clock
    users = world.users
    wrong_proposer_rejections = 0

    # genesis itself refuses an out-of-turn proposer
    with pytest.raises(ScheduleError):
        ledger.genesis(
            world.chain.validator_set,
            world.admin.public_key,
            proposer=world.validators[1],
            timestamp=clock.now(),
        )

    # grow to 30 blocks one height at a time, probing both unscheduled
    # validators before every single production
    nonce_rng = crypto.seeded_rng(b"immutability-nonces" + bytes(13))
    while world.chain.height < 30:
        height = world.chain.height
        scheduled = world.chain.validator_set.scheduled(height)
        for validator in world.validators:
            if validator.public_key == scheduled:
                continue
            with pytest.raises(ScheduleError):
                ledger.produce_block(world.chain, world.mempool, validator, clock.now())
            rogue = ledger.Block(
                height=height,
                prev_hash=world.chain.tip_hash(),
                transactions=(),
                timestamp=clock.now(),
            )
            rogue = ledger.Block(
                height=rogue.height,
                prev_hash=rogue.prev_hash,
                transactions=rogue.transactions,
                timestamp=rogue.timestamp,
                sig=crypto.sign(validator.secret_key, ledger.signing_bytes(rogue)),
            )
            assert not ledger.validate_block(world.chain, rogue)
            wrong_proposer_rejections += 1
        clock.tick(1)
        tx = ledger.make_accreq(
            users[height % len(users)], height % 10, "read",
            crypto.gen_nonce(nonce_rng), clock.now(),
        )
        assert world.mempool.submit(world.chain, tx, clock.now()) is None
        honest = next(
            v for v in world.validators if v.public_key == scheduled
        )
        block = ledger.produce_block(world.chain, world.mempool, honest, clock.now())
        ledger.append_block(world.chain, block)
    assert world.chain.height == 30
    assert wrong_proposer_rejections == 2 * 28  # every height after setup, both rogues
    assert ledger.validate_chain(world.chain)

    blob = b"\n".join(ledger.block_canonical_bytes(b) for b in world.chain.blocks)
    rng = random.Random(44)
    caught = 0
    trials = 100
    for _ in range(trials):
        mutated = bytearray(blob)
        mutated[rng.randrange(len(mutated))] ^= rng.randrange(1, 256)
        try:
            blocks = ledger.parse_chain_lines(bytes(mutated))
        except FormatError:
            caught += 1
            continue
        if not ledger.validate_chain(ledger.Chain.from_blocks_unchecked(blocks)):
            caught += 1
    assert caught == trials
    ok(
        f"4 PASS chain immutability: {caught}/{trials} byte flips caught, "
        f"both wrong proposers rejected at all {wrong_proposer_rejections // 2} "
        f"probed heights of a {world.chain.height}-block run"
    )


def test_criterion_5_decision_engine(default_world):
    # forward pass against the plain-loop oracle
    worst_forward = 0.0
    for case in range(100):
        net = seeded_model(case)
        bits = seeded_bits(10_000 + case)
        got = M.infer(net, bits)
        want = oracle_forward(net.layers, bits)
        worst_forward = max(worst_forward, max(abs(g - w) for g, w in zip(got, want)))
    assert worst_forward < 1e-9

    # analytic gradients against central differences, 20 seeded configurations
    worst_gradient = 0.0
    import numpy as np

    for offset in range(20):
        seed = 1000 + offset
        rng = np.random.default_rng(seed)
        net = seeded_model(seed)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=64))
        labels = tuple(bool(b) for b in rng.integers(0, 2, size=4))
        worst_gradient = max(worst_gradient, M.gradient_check(net, (bits, labels)))
    assert worst_gradient < 1e-4

    # accuracy on the default seeded dataset (the world's own trained model)
    train_acc = M.accuracy(default_world.model, default_world.dataset.train)
    test_acc = M.accuracy(default_world.model, default_world.dataset.test)
    assert train_acc >= 0.95
    assert test_acc >= 0.90
    ok(
        f"5 PASS decision engine: forward err {worst_forward:.1e}, "
        f"gradient err {worst_gradient:.1e}, accuracy {train_acc:.3f}/{test_acc:.3f}"
    )


def test_criterion_6_baseline_equivalence():
    from test_bench import brute_force_abac, brute_force_rbac, random_query

    rbac = B.generate_rbac_policy(scale=2, seed=6)
    abac = B.generate_abac_policy(scale=2, seed=6)
    rng = random.Random(66)
    for _ in range(1000):
        user, rid, rattrs, op = random_query(rng)
        assert B.rbac_check(rbac, user, rid, op) == brute_force_rbac(rbac, user, rid, op)
        assert B.abac_check(abac, user, rattrs, op) == brute_force_abac(abac, user, rattrs, op)
    ok("6 PASS baseline equivalence: rbac and abac match brute force on 1000 queries")


def test_criterion_7_qualitative_latency_reproduction():
    started = time.perf_counter()
    n = 10_000
    dlbac_1 = B.measure("dlbac", n, 1, 1, seed=7)
    dlbac_10 = B.measure("dlbac", n, 1, 10, seed=7)
    abac_1 = B.measure("abac", n, 1, 1, seed=7)
    abac_10 = B.measure("abac", n, 1, 10, seed=7)

    dlbac_ratio = dlbac_10.mean_ns / dlbac_1.mean_ns
    abac_ratio = abac_10.mean_ns / abac_1.mean_ns
    assert dlbac_ratio < 1.5
    assert abac_ratio >= 2.0

    threaded = B.measure("abac", n, 4, 10, seed=7)
    assert sorted(threaded.decisions) == sorted(abac_10.decisions)
    dlbac_threaded = B.measure("dlbac", n, 4, 1, seed=7)
    assert sorted(dlbac_threaded.decisions) == sorted(dlbac_1.decisions)

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    ok(
        f"7 PASS latency scaling: dlbac x1->x10 ratio {dlbac_ratio:.2f} (<1.5), "
        f"abac ratio {abac_ratio:.2f} (>=2), thread decisions identical ({elapsed:.0f}s)"
    )


def test_criterion_8_ban_pathway():
    world = build_small_world(seed=29)
    offender = 3
    probe_resource = world.dataset.resources[0][0]

    def probe_all() -> dict[int, str]:
        return {
            u: H.run_request(world, u, probe_resource, "read").verdict
            for u in range(len(world.users))
        }

    before = probe_all()
    for _ in range(3):
        outcome = H.run_request(world, offender, 10**6, "read")
        assert outcome.verdict == "denied:wrong-resource"
    subject = crypto.hash_bytes(world.users[offender].public_key).hex()
    assert subject in world.rules.banned

    after = probe_all()
    assert after[offender] == "denied:policy-denied"
    for op in M.OPERATIONS:
        assert H.run_request(world, offender, probe_resource, op).verdict == (
            "denied:policy-denied"
        )
    unchanged = [u for u in before if u != offender and before[u] == after[u]]
    assert len(unchanged) == len(world.users) - 1
    ok(
        f"8 PASS ban pathway: offender locked out after 3 wrong-file denials, "
        f"{len(unchanged)} other users unchanged"
    )


def test_criterion_9_cli_determinism(tmp_path):
    outputs = []
    flags = ["--seed", "11", "--users", "10", "--resources", "10"]
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        files = {
            "chain": base / "chain.jsonl",
            "state": base / "state.json",
            "log": base / "log.jsonl",
            "report": base / "reports.json",
            "stats": base / "stats.csv",
            "decisions": base / "decisions.csv",
        }
        common = [
            *flags,
            "--chain", str(files["chain"]),
            "--state", str(files["state"]),
            "--log", str(files["log"]),
        ]
        assert dispatch(["init", *common]) == 0
        assert dispatch(["scenario", "--all", "--report", str(files["report"]), *common]) == 0
        assert dispatch([
            "bench", "--engine", "dlbac", "--n", "100", "--seed", "11",
            "--out", str(files["stats"]), "--decisions-out", str(files["decisions"]),
        ]) == 0
        outputs.append(files)

    identical = []
    for name in ("chain", "state", "log", "report", "decisions"):
        assert outputs[0][name].read_bytes() == outputs[1][name].read_bytes(), name
        identical.append(name)
    # stats CSV: timing columns excluded from the comparison
    for a, b in zip(
        outputs[0]["stats"].read_text().splitlines(),
        outputs[1]["stats"].read_text().splitlines(),
    ):
        assert a.split(",")[:4] == b.split(",")[:4]
    ok(f"9 PASS determinism: byte-identical {', '.join(identical)}; stats identity columns match")
