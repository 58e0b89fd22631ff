"""Operator-surface checks: dispatch, exit codes, config handling."""

from __future__ import annotations

import json
import re
import struct
from dataclasses import fields
from pathlib import Path

import pytest

from authchain.bench import ENGINES
from authchain.cli import _build_world, _config_from_args, build_parser, dispatch
from authchain.config import Config, load_config
from authchain.errors import ConfigError
from authchain.harness import TAMPER_MUTATIONS, setup_world
from authchain.ledger import AccReqTx, canonical_bytes, load_chain, tx_canonical_bytes

README = Path(__file__).resolve().parents[1] / "README.md"

WORLD_FLAGS = ["--seed", "5", "--users", "6", "--resources", "6"]


def world_files(tmp_path):
    return [
        "--chain", str(tmp_path / "chain.jsonl"),
        "--state", str(tmp_path / "state.json"),
        "--log", str(tmp_path / "log.jsonl"),
    ]


class TestDispatchBasics:
    def test_no_arguments_usage(self, capsys):
        assert dispatch([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self):
        assert dispatch(["frobnicate"]) == 2

    def test_bad_flag(self):
        assert dispatch(["bench", "--engine", "nope"]) == 2


class TestKeygen:
    def test_valid_seed(self, capsys):
        assert dispatch(["keygen", "--seed", "ab" * 32]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(bytes.fromhex(out["public_key"])) == 64

    def test_deterministic(self, capsys):
        dispatch(["keygen", "--seed", "cd" * 32])
        first = capsys.readouterr().out
        dispatch(["keygen", "--seed", "cd" * 32])
        assert capsys.readouterr().out == first

    def test_short_seed_rejected(self):
        assert dispatch(["keygen", "--seed", "abcd"]) == 2

    def test_non_hex_rejected(self):
        assert dispatch(["keygen", "--seed", "zz" * 32]) == 2


class TestDataAndTraining:
    def test_gen_data_writes_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        code = dispatch(
            ["gen-data", "--users", "4", "--resources", "4", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("user_id,u0")
        assert len(lines) == 1 + 16

    def test_train_writes_weights(self, tmp_path, capsys):
        weights = tmp_path / "w.bin"
        code = dispatch(
            ["train", "--users", "4", "--resources", "4", "--seed", "1",
             "--epochs", "20", "--out", str(weights)]
        )
        assert code == 0
        assert weights.exists()
        assert "train accuracy" in capsys.readouterr().out


class TestConfigFile:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert load_config(path) == Config()

    def test_comments_and_values(self, tmp_path):
        path = tmp_path / "world.cfg"
        path.write_text(
            "# world sizing\n"
            "users = 12\n"
            "seed=9\n"
            "hidden = 16,8\n"
            "learning_rate = 0.5\n"
        )
        cfg = load_config(path)
        assert cfg.users == 12
        assert cfg.seed == 9
        assert cfg.hidden == (16, 8)
        assert cfg.learning_rate == 0.5

    def test_validator_floor_enforced(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("validators=2\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "validators" in str(err.value)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("wibble=1\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "wibble" in str(err.value)

    def test_invalid_value_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs=purple\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "epochs" in str(err.value)

    def test_cli_flag_overrides_config(self, tmp_path, capsys):
        path = tmp_path / "world.cfg"
        path.write_text("validators=2\n")
        # the flag raises the count above the floor, so init succeeds
        code = dispatch(
            ["init", "--config", str(path), "--validators", "3",
             *WORLD_FLAGS, *world_files(tmp_path)]
        )
        assert code == 0

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("validators=2\n")
        assert dispatch(["init", "--config", str(path), *world_files(tmp_path)]) == 2

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            Config(seed=-1)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("freshness_window", 77),
            ("ban_threshold", 5),
            ("ban_window", 900),
            ("batch_size", 7),
            ("link_ttl", 33),
            ("threshold", 0.25),
        ],
    )
    def test_config_file_value_reaches_world(self, tmp_path, key, value):
        path = tmp_path / "world.cfg"
        path.write_text(f"{key} = {value}\nepochs = 20\n")
        args = build_parser().parse_args(
            ["init", "--config", str(path), "--seed", "2", "--users", "3",
             "--resources", "3", *world_files(tmp_path)]
        )
        world = _build_world(_config_from_args(args))
        assert getattr(world.config, key) == value
        assert world.config.epochs == 20
        if key == "link_ttl":
            assert world.storage_node.link_ttl == value

    def test_world_config_records_the_shape_built(self):
        world = setup_world(3, 5, 4, seed=7, config=Config(seed=0, users=99, epochs=20))
        assert world.config.seed == 7
        assert world.config.users == 5
        assert world.config.resources == 4
        assert world.config.validators == 3
        assert len(world.users) == 5

    def test_readme_configuration_block_lists_every_key(self, tmp_path):
        section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
        block = re.search(r"```\n(.*?)```", section, re.S).group(1)
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert load_config(path) == Config()
        keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
        assert keys == [f.name for f in fields(Config)]


class TestWorldCommands:
    def test_init_then_verify_chain(self, tmp_path, capsys):
        assert dispatch(["init", *WORLD_FLAGS, *world_files(tmp_path)]) == 0
        assert dispatch(["verify-chain", "--chain", str(tmp_path / "chain.jsonl")]) == 0
        assert "chain OK" in capsys.readouterr().out

    def test_verify_chain_detects_flip(self, tmp_path, capsys):
        assert dispatch(["init", *WORLD_FLAGS, *world_files(tmp_path)]) == 0
        chain_file = tmp_path / "chain.jsonl"
        blob = bytearray(chain_file.read_bytes())
        blob[len(blob) // 2] ^= 0x20
        chain_file.write_bytes(bytes(blob))
        assert dispatch(["verify-chain", "--chain", str(chain_file)]) == 1

    @pytest.mark.parametrize("content", [b"", b"\n  \n"], ids=["empty", "blank"])
    def test_verify_chain_without_blocks_invalid(self, tmp_path, capsys, content):
        chain_file = tmp_path / "chain.jsonl"
        chain_file.write_bytes(content)
        assert dispatch(["verify-chain", "--chain", str(chain_file)]) == 1
        assert capsys.readouterr().out.startswith("chain INVALID")

    def test_verify_chain_refuses_the_format_before_chain_format(self, tmp_path, capsys):
        # format 0: no "format" in genesis, and an unsigned "verified"
        # hand-off mined beside each decision's next step
        report = str(tmp_path / "reports.json")
        assert dispatch(["scenario", "--all", *WORLD_FLAGS, *world_files(tmp_path), "--report", report]) == 0
        chain_file = tmp_path / "chain.jsonl"
        written = chain_file.read_bytes().splitlines()
        blocks = [json.loads(line) for line in written]
        del blocks[0]["payload"]["format"]
        last = blocks[-1]["transactions"]
        last.append({"kind": "verified", "timestamp": last[0]["timestamp"], "user_bits": "0" * 32,
                     "request_bits": "0" * 36, "user_pk": last[0]["user_pk"]})
        chain_file.write_bytes(b"\n".join(canonical_bytes(b) for b in blocks) + b"\n")
        capsys.readouterr()
        assert dispatch(["verify-chain", "--chain", str(chain_file)]) == 1
        assert capsys.readouterr().out == (
            f"chain INVALID: chain line {len(blocks)}: unknown transaction kind 'verified'\n"
        )
        chain_file.write_bytes(b"\n".join(canonical_bytes(b) for b in blocks[:-1]) + b"\n")
        assert dispatch(["verify-chain", "--chain", str(chain_file)]) == 1
        assert capsys.readouterr().out == "chain INVALID: validation failed\n"

        # format 2: each block carries a Merkle root of its transactions, and
        # genesis no freshness window
        blocks = [json.loads(line) for line in written]
        genesis = blocks[0]["payload"]
        genesis["format"] = 2
        del genesis["freshness_window"]
        for block in blocks:
            block["tx_root"] = "ab" * 32  # refused by its key, whatever its value
        chain_file.write_bytes(b"\n".join(canonical_bytes(b) for b in blocks) + b"\n")
        assert dispatch(["verify-chain", "--chain", str(chain_file)]) == 1
        assert capsys.readouterr().out == (
            "chain INVALID: chain line 1: unexpected key 'tx_root' in block\n"
        )

        # format 1: also each block names its proposer and each setup its admin
        genesis["format"] = 1
        validators = genesis["validators"]
        for block in blocks:
            block["proposer"] = validators[block["height"] % len(validators)]
            for tx in block["transactions"]:
                if tx["kind"] == "setup":
                    tx["admin_pk"] = genesis["admin_pk"]
        chain_file.write_bytes(b"\n".join(canonical_bytes(b) for b in blocks) + b"\n")
        assert dispatch(["verify-chain", "--chain", str(chain_file)]) == 1
        assert capsys.readouterr().out == (
            "chain INVALID: chain line 1: unexpected key 'proposer' in block\n"
        )

    def test_scenario_all_passes_and_verifies(self, tmp_path, capsys):
        report = tmp_path / "reports.json"
        code = dispatch(
            ["scenario", "--all", "--report", str(report),
             *WORLD_FLAGS, *world_files(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4
        reports = json.loads(report.read_text())
        assert [r["scenario_id"] for r in reports] == [1, 2, 3, 4]
        assert dispatch(
            ["verify-log", "--log", str(tmp_path / "log.jsonl"),
             "--state", str(tmp_path / "state.json")]
        ) == 0

    def test_scenario_single_id(self, tmp_path, capsys):
        code = dispatch(
            ["scenario", "--id", "1", "--report", str(tmp_path / "r.json"),
             *WORLD_FLAGS, *world_files(tmp_path)]
        )
        assert code == 0
        assert "scenario 1" in capsys.readouterr().out

    def test_scenario_without_selector(self, tmp_path):
        assert dispatch(["scenario", *WORLD_FLAGS, *world_files(tmp_path)]) == 2

    def test_verify_log_detects_mutation(self, tmp_path):
        dispatch(["scenario", "--all", "--report", str(tmp_path / "r.json"),
                  *WORLD_FLAGS, *world_files(tmp_path)])
        log_file = tmp_path / "log.jsonl"
        blob = bytearray(log_file.read_bytes())
        blob[len(blob) // 3] ^= 0x04
        log_file.write_bytes(bytes(blob))
        assert dispatch(
            ["verify-log", "--log", str(log_file),
             "--state", str(tmp_path / "state.json")]
        ) == 1

    @pytest.mark.parametrize(
        "state",
        [
            [1, 2],
            {},
            {"malicious_root": 5},
            {"malicious_root": "0" * 64, "malicious_roots": [{"height": 3}]},
            {"malicious_root": "0" * 64, "malicious_roots": [{"root": "00"}]},
            {"malicious_root": "AB" * 32},
            {"malicious_root": "0" * 64,
             "malicious_roots": [{"height": 3, "root": "AB" * 32}]},
            # a history entry of the grouped format, one root per group
            {"malicious_root": "0" * 64,
             "malicious_roots": [{"group": 0, "height": 3, "root": "00" * 32}]},
            # the empty log's own root, re-encoded
            json.dumps({"malicious_root": "0" * 64, "malicious_roots": []}, indent=2).encode(),
        ],
        ids=["list", "no-root", "numeric-root", "history-without-root",
             "history-without-height", "upper-case-root", "upper-case-history-root",
             "history-with-group", "indented"],
    )
    def test_verify_log_malformed_state_unreadable(self, tmp_path, capsys, state):
        log_file = tmp_path / "log.jsonl"
        log_file.write_bytes(b"")
        state_file = tmp_path / "state.json"
        # a value is written canonically, so its shape check is what refuses it
        state_file.write_bytes(
            state if isinstance(state, bytes) else canonical_bytes(state) + b"\n"
        )
        assert dispatch(["verify-log", "--log", str(log_file), "--state", str(state_file)]) == 1
        assert capsys.readouterr().out.startswith("Compromised (unreadable: ")

    def test_request_prints_outcome(self, tmp_path, capsys):
        code = dispatch(
            ["request", "--user", "0", "--resource", "999999", "--op", "read",
             *WORLD_FLAGS, *world_files(tmp_path)]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "denied:wrong-resource"

    def test_tamper_caught(self, tmp_path, capsys):
        code = dispatch(
            ["tamper", "--mutation", "replay-accreq",
             *WORLD_FLAGS, *world_files(tmp_path)]
        )
        assert code == 0
        assert "caught" in capsys.readouterr().out

    @pytest.mark.parametrize("mutation", TAMPER_MUTATIONS)
    def test_tamper_writes_a_world_that_verifies(self, tmp_path, capsys, mutation):
        assert dispatch(["tamper", "--mutation", mutation, *WORLD_FLAGS, *world_files(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith(f"{mutation}: caught")
        assert dispatch(["verify-chain", "--chain", str(tmp_path / "chain.jsonl")]) == 0
        assert capsys.readouterr().out.startswith("chain OK")
        log, state = str(tmp_path / "log.jsonl"), str(tmp_path / "state.json")
        assert dispatch(["verify-log", "--log", log, "--state", state]) == 0
        assert capsys.readouterr().out.startswith("Verified")

    def test_tamper_reuse_link_logs_the_replay(self, tmp_path, capsys):
        dispatch(["tamper", "--mutation", "reuse-link", *WORLD_FLAGS, *world_files(tmp_path)])
        lines = (tmp_path / "log.jsonl").read_text().splitlines()
        assert [json.loads(line)["reason"] for line in lines] == ["replay"]

    def test_tamper_replay_accreq_logs_the_replay(self, tmp_path, capsys):
        dispatch(["tamper", "--mutation", "replay-accreq", *WORLD_FLAGS, *world_files(tmp_path)])
        records = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
        assert [record["reason"] for record in records] == ["stale"]
        # the record holds the captured request's bytes, as mined the first time
        chain = load_chain(tmp_path / "chain.jsonl")
        accreqs = [tx for b in chain.blocks for tx in b.transactions if isinstance(tx, AccReqTx)]
        assert bytes.fromhex(records[0]["tx"]) == tx_canonical_bytes(accreqs[-1])


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-chain", "--chain", "{tmp}/missing.jsonl"],
            ["verify-log", "--log", "{tmp}/missing.jsonl", "--state", "{tmp}/state.json"],
            ["verify-log", "--log", "{tmp}/log.jsonl", "--state", "{tmp}/missing.json"],
            ["report", "--stats", "{tmp}/missing.csv"],
            ["bench", "--engine", "rbac", "--weights", "{tmp}/missing.bin"],
            ["bench", "--engine", "rbac", "--n", "10"],
            ["bench", "--engine", "rbac", "--threads", "0"],
            ["bench", "--engine", "rbac", "--scale", "0"],
            ["gen-data", "--seed", "-1", "--out", "{tmp}/data.csv"],
            ["request", "--user", "0", "--resource", "1180591620717411303424", "--op", "read"],
        ],
        ids=[
            "chain-missing", "log-missing", "state-missing", "stats-missing",
            "weights-missing", "too-few-requests", "zero-threads", "zero-scale",
            "negative-seed", "resource-out-of-range",
        ],
    )
    def test_exit_2_without_traceback(self, tmp_path, capfd, argv):
        (tmp_path / "log.jsonl").write_bytes(b"")
        (tmp_path / "state.json").write_text("{}")
        code = dispatch([arg.format(tmp=tmp_path) for arg in argv])
        err = capfd.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert re.fullmatch(r"(config )?error: .+\n", err)

    def test_non_finite_weight_file_exits_1(self, tmp_path, capfd):
        weights = tmp_path / "nan.bin"
        assert dispatch(["train", "--users", "4", "--resources", "4", "--epochs", "2",
                         "--out", str(weights)]) == 0
        blob = bytearray(weights.read_bytes())
        blob[15:19] = struct.pack("<f", float("nan"))  # layer 0's first weight
        weights.write_bytes(bytes(blob))
        capfd.readouterr()
        code = dispatch(["bench", "--engine", "dlbac", "--weights", str(weights), "--n", "10"])
        err = capfd.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err == "error: layer 0 holds a non-finite parameter\n"

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_2(self, tmp_path, capfd, lr):
        code = dispatch(["train", "--lr", lr, "--out", str(tmp_path / "w.bin")])
        err = capfd.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert re.fullmatch(r"config error: learning_rate .+\n", err)
        assert not (tmp_path / "w.bin").exists()


class TestBenchCommands:
    def test_readme_names_every_engine(self):
        text = README.read_text(encoding="utf-8")
        sentence = text.split("Engines for `bench --engine`:", 1)[1].split(". ", 1)[0]
        assert tuple(re.findall(r"`([^`]+)`", sentence)) == ENGINES

    def test_bench_writes_stats_and_decisions(self, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        decisions = tmp_path / "decisions.csv"
        code = dispatch(
            ["bench", "--engine", "rbac", "--n", "50", "--seed", "3",
             "--out", str(stats), "--decisions-out", str(decisions)]
        )
        assert code == 0
        assert stats.read_text().startswith("engine,threads,scale,n")
        assert decisions.read_text().count("\n") == 1 + 50
        assert "rbac" in capsys.readouterr().out

    def test_report_pretty_prints(self, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        dispatch(["bench", "--engine", "abac", "--n", "40", "--seed", "2",
                  "--out", str(stats)])
        capsys.readouterr()
        assert dispatch(["report", "--stats", str(stats)]) == 0
        assert "abac" in capsys.readouterr().out

    def test_report_rejects_other_files(self, tmp_path):
        path = tmp_path / "notstats.csv"
        path.write_text("a,b,c\n1,2,3\n")
        assert dispatch(["report", "--stats", str(path)]) == 1

    def test_report_rejects_binary_file(self, tmp_path, capfd):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"engine,\xd0\xff\n")
        assert dispatch(["report", "--stats", str(path)]) == 1
        assert capfd.readouterr().err == f"error: {path}: not a bench report\n"
