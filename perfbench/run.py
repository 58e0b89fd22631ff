"""End-to-end benchmark of the authchain request pipeline.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 25 --trace 0

Run from the repository root.  One client drives a seeded request stream
through the public API in a closed loop (the world lock serializes every
request, and signature checks hold the interpreter lock, so more clients
would measure the scheduler).  Every verdict is predicted before the
request is sent and checked after; at the end the run persists the chain,
the state sidecar and the denial log, reloads them, replay-verifies them
(the audit phase), and requires that a copy of each with one hex digit
changed is rejected.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sends the
stream to two identical worlds, alternating in chunks between one left
untraced and one with spans recorded around every layer entry point, and
prints the per-layer metrics.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORLD_SHAPE = dict(n_validators=3, n_users=100, n_resources=50)
SETUP_REPEATS = 3  # setup_s: importing the program plus the median of these set-ups
EXIT_NO_PROGRAM = 2
EXIT_INCORRECT = 1

# Latency is reported at the 90th percentile: on a shared 2-CPU host the
# machine drifts between a fast and a slow speed for tens of seconds at a
# time, and a median flips between the two while the upper percentiles
# stay put.  Every count behind a percentile leaves at least 40 samples
# beyond it.
END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "grant_p90_ms": "ms",
    "denial_p90_ms": "ms",
    "audit_blocks_per_s": "1/s",
    "peak_rss_mb": "MB",
}
HEX_FIELD = re.compile(rb'"([0-9a-f]{64,})"')
TRACE_CHUNK = 100  # requests per turn when traced and untraced runs alternate


def import_program():
    """Import authchain from this checkout's src/, or exit without a result."""
    if not (SRC / "authchain" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    try:
        import authchain
        from authchain import harness
    except ImportError as exc:
        print(f"error: cannot import authchain: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    if Path(authchain.__file__).resolve().parent != (SRC / "authchain").resolve():
        print(f"error: authchain imported from {authchain.__file__}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return harness


@dataclass(frozen=True)
class Sample:
    index: int
    kind: str  # the drawn request kind
    verdict: str  # observed verdict, "reuse" for a reused link, "error" if it raised
    latency_ns: int
    ok: bool


def pct(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ms(values, q: float) -> float:
    return pct(values, q) / 1e6 if values else float("nan")


def set_up(harness, workloads, seed: int):
    """One full set-up: world, the benchmark's policy rules, warmed caches."""
    world = harness.setup_world(seed=seed, **WORLD_SHAPE)
    rules = workloads.policy_rules(world, seed)
    for rule in rules:
        world.rules.add(rule)
    n_users = len(world.users)
    for i in range(workloads.OUTSIDER_POOL):
        world.user_keypair(n_users + i)  # outsider keys are derived once
    harness.find_case(world, want_grant=True)  # fills the harness's model-mask cache
    return world, rules


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Client:
    """One client in a closed loop: predict, send, check, record."""

    def __init__(self, harness, workloads, world, stream, oracle) -> None:
        self.harness = harness
        self.workloads = workloads
        self.world = world
        self.stream = stream
        self.oracle = oracle
        self.samples: list[Sample] = []
        self.denials = 0  # requests that each should have left exactly one log record
        self.elapsed_s = 0.0
        self.window_s: float | None = None  # time taken by the first ``window`` requests
        self.window_rss_mb: float | None = None  # peak resident memory at that point
        self._errors_shown = 0

    def run(self, *, deadline=None, count=None, window=None, tracer=None) -> None:
        """Send requests until the deadline, or until ``count`` were sent in all.

        The first ``window`` requests are the same requests, met in the same
        state, whatever the speed of the program, so the end-to-end metrics
        are taken over them; the loop goes on to the deadline regardless.
        """
        t0 = time.perf_counter()
        try:
            while True:
                i = len(self.samples)
                if i == window:
                    self.window_s = self.elapsed_s + time.perf_counter() - t0
                    self.window_rss_mb = peak_rss_mb()
                if count is not None and i >= count:
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                self.samples.append(self._send(i, tracer))
        finally:
            self.elapsed_s += time.perf_counter() - t0

    def _send(self, i: int, tracer) -> Sample:
        harness, world = self.harness, self.world
        reuse = self.workloads.REUSE
        req = self.stream.next()
        want = self.oracle.predict(req)
        clock = time.perf_counter_ns
        if tracer is not None:
            tracer.req = i
        start = clock()
        try:
            if req.kind == reuse:
                out = harness.tamper(world, "reuse-link")
            else:
                out = harness.run_request(world, req.user, req.resource, req.operation)
        except Exception:  # a failing request is counted, and the loop goes on
            latency = clock() - start
            if self._errors_shown < 3:
                traceback.print_exc(file=sys.stderr)
                self._errors_shown += 1
            return Sample(i, req.kind, "error", latency, False)
        finally:
            if tracer is not None:
                tracer.req = None
        latency = clock() - start
        if req.kind == reuse:
            ok = out.mutation == "reuse-link" and out.caught
            self.denials += ok
            return Sample(i, req.kind, reuse, latency, ok)
        ok = out.verdict == want
        if out.allowed:
            content = world.storage_node.get_resource(req.resource).content
            ok = ok and out.content_hash == hashlib.sha256(content).digest()
        else:
            self.denials += 1
        self.oracle.observe(req, out.verdict, world.now())
        return Sample(i, req.kind, out.verdict, latency, ok)


def audit(harness, world, denials: int, workdir: Path, seed: int) -> tuple[dict, list[str]]:
    """Persist, reload, replay-verify; check invariants and both mutations."""
    from authchain.errors import FormatError
    from authchain.ledger import load_chain, validate_chain
    from authchain.storage import load_log, verify_log

    problems: list[str] = []
    chain_path = workdir / "chain.jsonl"
    state_path = workdir / "state.json"
    log_path = workdir / "log.jsonl"
    harness.save_world_artifacts(world, chain_path, state_path, log_path)

    gc.collect()
    t0 = time.perf_counter()
    chain = load_chain(chain_path)
    t1 = time.perf_counter()
    chain_ok = validate_chain(chain)
    t2 = time.perf_counter()
    records = load_log(log_path)
    state = harness.load_contract_state(state_path)
    verdict = verify_log(
        records,
        bytes.fromhex(state[harness.STATE_ROOT_KEY]),
        state[harness.STATE_ROOT_HISTORY_KEY],
    )
    t3 = time.perf_counter()

    if not chain_ok:
        problems.append("validate_chain rejected the persisted chain")
    if chain.height != world.chain.height or chain.tip_hash() != world.chain.tip_hash():
        problems.append("reloaded chain differs from the live chain")
    if not verdict.ok:
        problems.append(f"verify_log says {verdict.verdict}")
    if verdict.computed_root != world.storage_node.log.root:
        problems.append("log root differs from the live log root")
    if len(records) != denials:
        problems.append(f"log holds {len(records)} records for {denials} denials")

    rng = random.Random(f"mutate/{seed}")
    chain_caught = _mutation_rejected(
        chain_path, rng, lambda p: validate_chain(load_chain(p)), FormatError
    )
    log_caught = _mutation_rejected(
        log_path,
        rng,
        lambda p: verify_log(
            load_log(p),
            bytes.fromhex(state[harness.STATE_ROOT_KEY]),
            state[harness.STATE_ROOT_HISTORY_KEY],
        ).ok,
        FormatError,
    )
    if not chain_caught:
        problems.append("a chain file with one changed byte was accepted")
    if not log_caught:
        problems.append("a log export with one changed byte was accepted")

    figures = {
        "blocks": chain.height,
        "records": len(records),
        "load_chain_s": t1 - t0,
        "validate_chain_s": t2 - t1,
        "verify_log_s": t3 - t2,
        "blocks_per_s": chain.height / (t2 - t0),
    }
    return figures, problems


def _mutation_rejected(path: Path, rng: random.Random, accepts, format_error) -> bool:
    """Change one hex digit inside a digest, key or signature field of a
    copy of the file.  The copy still parses, so only verification can
    reject it."""
    data = bytearray(path.read_bytes())
    fields = [m.span(1) for m in HEX_FIELD.finditer(data)]
    if not fields:
        return True  # nothing to forge
    pos = rng.randrange(*rng.choice(fields))
    data[pos] = rng.choice([c for c in b"0123456789abcdef" if c != data[pos]])
    copy = path.with_name(path.name + ".mutated")
    copy.write_bytes(bytes(data))
    try:
        return not accepts(copy)
    except format_error:
        return True


def end_to_end(setup_s: float, client: Client, window: int, figures: dict) -> tuple[dict, str]:
    samples = client.samples[:window]
    grants = [s.latency_ns for s in samples if s.verdict == "allowed"]
    denials = [s.latency_ns for s in samples if s.verdict.startswith("denied:")]
    metrics = {
        "setup_s": setup_s,
        "req_per_s": len(samples) / client.window_s,
        "grant_p90_ms": ms(grants, 0.9),
        "denial_p90_ms": ms(denials, 0.9),
        "audit_blocks_per_s": figures["blocks_per_s"],
        "peak_rss_mb": client.window_rss_mb,
    }
    counts = (f"window: {len(samples)} requests, {len(grants)} grants, "
              f"{len(denials)} denials")
    return metrics, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    harness = import_program()
    import_s = time.perf_counter() - t0
    import layers
    import workloads

    if args.workload not in workloads.MIXES:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.MIXES)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    setups: list[float] = []
    worlds = []
    keep = 2 if args.trace else 1  # a traced run needs a second, untraced world
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        world, rules = set_up(harness, workloads, args.seed)
        setups.append(time.perf_counter() - t0)
        worlds = (worlds + [world])[-keep:]
    setup_s = import_s + statistics.median(setups)

    def client(world):
        oracle = workloads.Oracle(world, rules)
        stream = workloads.Stream(args.workload, args.seed, oracle, rules)
        return Client(harness, workloads, world, stream, oracle)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    window = workloads.WINDOW[args.workload]
    try:
        gc.collect()
        deadline = time.perf_counter() + args.seconds
        world = worlds[-1]
        measured = client(world)
        if args.trace:
            # The same requests go to two identical worlds, alternately
            # untraced and traced, so both halves meet the same host speed.
            untraced = client(worlds[0])
            tracer = layers.Tracer()
            while time.perf_counter() < deadline:
                untraced.run(count=len(untraced.samples) + TRACE_CHUNK)
                tracer.install()
                try:
                    measured.run(count=len(measured.samples) + TRACE_CHUNK, tracer=tracer)
                finally:
                    tracer.remove()
            diverged = (worlds[0].chain.tip_hash(), worlds[0].storage_node.log.root) != (
                world.chain.tip_hash(), world.storage_node.log.root
            )
        else:
            measured.run(deadline=deadline, window=window)
            if measured.window_s is None:  # the window did not close before the deadline
                measured.window_s, measured.window_rss_mb = measured.elapsed_s, peak_rss_mb()
            untraced, diverged = measured, False
        figures, problems = audit(harness, world, measured.denials, workdir, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if diverged:
        problems.append("the traced world ended in a different state from the untraced one")
    samples = untraced.samples + (measured.samples if args.trace else [])
    failed = sum(not s.ok for s in samples)

    print(f"workload {args.workload} seed {args.seed}: {len(measured.samples)} requests, "
          f"by verdict {dict(Counter(s.verdict for s in measured.samples))}")
    if len(measured.samples) < window and not args.trace:
        print(f"note: only {len(measured.samples)} of the {window} window requests "
              f"finished in {args.seconds} s")
    print(f"audit: {figures['blocks']} blocks, {figures['records']} log records")
    print(f"set-ups (s): {', '.join(f'{s:.3f}' for s in setups)}; imports {import_s:.3f} s")

    if args.trace:
        metrics, notes = layers.per_layer(
            tracer, measured, untraced, world, figures,
            json.loads((BENCH_DIR / "spec.json").read_text())["exact_counts"]["counts"],
        )
        tracer.write(OUT / f"{args.workload}.spans.jsonl")
        units = layers.UNITS
    else:
        metrics, counts = end_to_end(setup_s, measured, window, figures)
        notes = [counts]
        units = END_TO_END
    for name, value in metrics.items():
        if math.isnan(value):
            problems.append(f"{name}: no sample to measure")
            metrics[name] = 0.0
    for note in notes:
        print(note)
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
