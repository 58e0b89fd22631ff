"""Operator surface: subcommand dispatch over all modules.

Exit codes: 0 success, 1 verification or scenario failure, 2 usage or
configuration error.  Every command is deterministic given its config,
seed, and inputs; repeated invocations produce identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import bench as bench_mod
from .config import Config, read_config_values
from .errors import AuthchainError, ConfigError, FormatError
from .harness import (
    TAMPER_MUTATIONS,
    load_contract_state,
    run_all_scenarios,
    run_request,
    run_scenario,
    save_world_artifacts,
    setup_world,
    tamper,
)
from .ledger import ZERO_DIGEST, canonical_bytes, load_chain, validate_chain
from .model import (
    accuracy,
    dataset_to_csv,
    generate_dataset,
    load_weights,
    save_weights,
    train,
)
from . import crypto
from .storage import load_log, verify_log


def _config_from_args(args: argparse.Namespace) -> Config:
    """The config file's values, overridden by every flag given, validated
    once, so a flag can repair a value the file got wrong."""
    values = read_config_values(args.config) if getattr(args, "config", None) else {}
    for f in fields(Config):
        value = getattr(args, f.name, None)
        if value is not None:
            values[f.name] = value
    return Config(**values)


def _build_world(cfg: Config):
    return setup_world(cfg.validators, cfg.users, cfg.resources, cfg.seed, cfg)


def _persist(world, cfg: Config) -> None:
    save_world_artifacts(
        world,
        chain_path=cfg.chain_path,
        state_path=cfg.state_path,
        log_path=cfg.log_path,
    )


# -- commands ----------------------------------------------------------------

def cmd_keygen(args: argparse.Namespace) -> int:
    try:
        seed = bytes.fromhex(args.seed)
    except ValueError:
        raise ConfigError("seed must be hex") from None
    if len(seed) != crypto.SEED_SIZE:
        raise ConfigError(f"seed must be {2 * crypto.SEED_SIZE} hex characters")
    pair = crypto.keygen(seed)
    out = {"public_key": pair.public_key.hex(), "secret_key": pair.secret_key.hex()}
    print(json.dumps(out, indent=2))
    return 0


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    dataset = generate_dataset(cfg.users, cfg.resources, cfg.seed)
    dataset_to_csv(dataset, args.out, split=args.split)
    print(f"wrote {len(dataset.tuples)} tuples ({args.split}) to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    dataset = generate_dataset(cfg.users, cfg.resources, cfg.seed)
    model = train(dataset, cfg)
    save_weights(model, cfg.weights_path)
    train_acc = accuracy(model, dataset.train, cfg.threshold)
    test_acc = accuracy(model, dataset.test, cfg.threshold)
    print(
        f"trained {'-'.join(str(d) for d in model.dims)} model: "
        f"train accuracy {train_acc:.4f}, test accuracy {test_acc:.4f}"
    )
    print(f"weights written to {cfg.weights_path}")
    return 0


def cmd_init(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    world = _build_world(cfg)
    _persist(world, cfg)
    print(
        f"initialized world seed={cfg.seed}: {len(world.users)} users, "
        f"{len(world.storage_node.resources)} resources, "
        f"height {world.chain.height}"
    )
    print(f"chain -> {cfg.chain_path}, state -> {cfg.state_path}, log -> {cfg.log_path}")
    return 0


def cmd_request(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    world = _build_world(cfg)
    outcome = run_request(world, args.user, args.resource, args.op)
    _persist(world, cfg)
    print(
        json.dumps(
            {
                "verdict": outcome.verdict,
                "content_hash": outcome.content_hash.hex() if outcome.content_hash else None,
                "heights": list(outcome.heights),
            },
            indent=2,
        )
    )
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    world = _build_world(cfg)
    if args.all:
        reports = run_all_scenarios(world)
    else:
        if args.id is None:
            raise ConfigError("pass --id N or --all")
        reports = [run_scenario(world, args.id)]
    _persist(world, cfg)
    with open(cfg.report_path, "wb") as fh:
        fh.write(canonical_bytes([r.to_dict() for r in reports]))
        fh.write(b"\n")
    failed = 0
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"scenario {r.scenario_id}: expected {r.expected}, "
            f"observed {r.observed} [{status}]"
        )
        failed += 0 if r.passed else 1
    return 0 if failed == 0 else 1


def cmd_tamper(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    world = _build_world(cfg)
    outcome = tamper(world, args.mutation)
    print(
        f"{outcome.mutation}: {'caught' if outcome.caught else 'NOT CAUGHT'} "
        f"({outcome.detail})"
    )
    return 0 if outcome.caught else 1


def cmd_verify_chain(args: argparse.Namespace) -> int:
    try:
        chain = load_chain(args.chain)
    except FormatError as exc:
        print(f"chain INVALID: {exc}")
        return 1
    if validate_chain(chain):
        print(f"chain OK ({chain.height} blocks)")
        return 0
    print("chain INVALID: validation failed")
    return 1


def cmd_verify_log(args: argparse.Namespace) -> int:
    try:
        records = load_log(args.log)
        state = load_contract_state(args.state)
        root = bytes.fromhex(state.get("malicious_root", ZERO_DIGEST.hex()))
        history = state.get("malicious_roots")
    except (FormatError, ValueError) as exc:
        print(f"Compromised (unreadable: {exc})")
        return 1
    verdict = verify_log(records, root, history)
    if verdict.ok:
        print(f"Verified ({len(records)} records)")
        return 0
    print(f"Compromised (first divergent block height: {verdict.first_divergent_height})")
    return 1


def cmd_bench(args: argparse.Namespace) -> int:
    model = load_weights(args.weights) if args.weights else None
    try:
        stats = [
            bench_mod.measure(
                engine=args.engine,
                n_requests=args.n,
                n_threads=args.threads,
                policy_scale=args.scale,
                seed=args.seed if args.seed is not None else 0,
                model=model,
            )
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    bench_mod.emit_report(stats, args.out)
    if args.decisions_out:
        bench_mod.decisions_csv(stats, args.decisions_out)
    sys.stdout.write(bench_mod.format_summary(stats))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    try:
        with open(args.stats, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError:
        lines = []
    if not lines or lines[0] != bench_mod.REPORT_COLUMNS:
        raise FormatError(f"{args.stats}: not a bench report")
    print(lines[0].replace(",", "  "))
    for line in lines[1:]:
        print(line.replace(",", "  "))
    return 0


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="authchain",
        description="permissioned ledger with a learned access-control engine",
    )
    sub = parser.add_subparsers(dest="command")

    def world_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--users", type=int)
        p.add_argument("--resources", type=int)
        p.add_argument("--validators", type=int)
        p.add_argument("--chain", dest="chain_path")
        p.add_argument("--state", dest="state_path")
        p.add_argument("--log", dest="log_path")

    p = sub.add_parser("keygen", help="derive a keypair from a 64-hex-char seed")
    p.add_argument("--seed", required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset CSV")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--users", type=int)
    p.add_argument("--resources", type=int)
    p.add_argument("--split", choices=("train", "test", "all"), default="all")
    p.add_argument("--out", default="dataset.csv")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the decision model and save weights")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--users", type=int)
    p.add_argument("--resources", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--out", dest="weights_path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("init", help="create a seeded world and persist it")
    world_flags(p)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("request", help="run one access request end to end")
    world_flags(p)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--resource", type=int, required=True)
    p.add_argument("--op", required=True, choices=("read", "write", "execute", "own"))
    p.set_defaults(func=cmd_request)

    p = sub.add_parser("scenario", help="run the acceptance scenarios")
    world_flags(p)
    p.add_argument("--report", dest="report_path")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true")
    group.add_argument("--id", type=int, choices=(1, 2, 3, 4))
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("tamper", help="apply one adversarial mutation")
    world_flags(p)
    p.add_argument("--mutation", required=True, choices=TAMPER_MUTATIONS)
    p.set_defaults(func=cmd_tamper)

    p = sub.add_parser("verify-chain", help="re-validate a persisted chain file")
    p.add_argument("--chain", required=True)
    p.set_defaults(func=cmd_verify_chain)

    p = sub.add_parser("verify-log", help="check a log export against the root mirror")
    p.add_argument("--log", required=True)
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_verify_log)

    p = sub.add_parser("bench", help="measure one engine configuration")
    p.add_argument("--engine", required=True, choices=bench_mod.ENGINES)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--weights", help="optional weight file for the dlbac engines")
    p.add_argument("--out", help="stats CSV path")
    p.add_argument("--decisions-out", dest="decisions_out", help="decision CSV path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="pretty-print a bench stats CSV")
    p.add_argument("--stats", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing or unreadable input file is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AuthchainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
