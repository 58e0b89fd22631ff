"""Decision-model checks against independent scalar and rule oracles."""

from __future__ import annotations

import math
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from authchain import model as M
from authchain.config import Config
from authchain.errors import ConfigError, FormatError


# ---------------------------------------------------------------------------
# Scalar forward-pass oracle: plain loops, no numpy, written before the
# vectorized implementation and kept independent of it.
# ---------------------------------------------------------------------------

def oracle_forward(layers, bits):
    h = [float(b) for b in bits]
    last = len(layers) - 1
    for index, (weights, biases) in enumerate(layers):
        rows = len(weights)
        out = []
        for r in range(rows):
            z = float(biases[r])
            row = weights[r]
            for c, x in enumerate(h):
                z += float(row[c]) * x
            if index == last:
                out.append(1.0 / (1.0 + math.exp(-z)))
            else:
                out.append(z if z > 0.0 else 0.0)
        h = out
    return h


def seeded_model(seed: int, dims=(64, 32, 16, 4)) -> M.DecisionModel:
    return M.DecisionModel(tuple(M._init_layers(dims, seed)))


def seeded_bits(seed: int, width: int = 64):
    rng = np.random.default_rng(seed)
    return tuple(int(b) for b in rng.integers(0, 2, size=width))


class TestBinaryRepr:
    def test_basic(self):
        assert M.binary_repr(5, 8) == (0, 0, 0, 0, 0, 1, 0, 1)

    def test_zero(self):
        assert M.binary_repr(0, 8) == (0,) * 8

    def test_max(self):
        assert M.binary_repr(255, 8) == (1,) * 8

    def test_overflow(self):
        with pytest.raises(ValueError):
            M.binary_repr(256, 8)

    def test_negative(self):
        with pytest.raises(ValueError):
            M.binary_repr(-1, 8)


class TestEncodePair:
    def test_all_zero(self):
        assert M.encode_pair((0,) * 8, (0,) * 8) == (0,) * 64

    def test_user_max_resource_zero(self):
        assert M.encode_pair((15,) * 8, (0,) * 8) == (1,) * 32 + (0,) * 32

    def test_matches_per_attribute_expansion(self):
        user = (1, 2, 3, 4, 5, 6, 7, 8)
        resource = (8, 7, 6, 5, 4, 3, 2, 1)
        expected = []
        for a in user + resource:
            expected.extend(M.binary_repr(a, 4))
        assert M.encode_pair(user, resource) == tuple(expected)

    def test_out_of_range_attribute(self):
        with pytest.raises(ValueError):
            M.encode_pair((16,) + (0,) * 7, (0,) * 8)

    def test_wrong_attribute_count(self):
        with pytest.raises(ValueError):
            M.encode_pair((0,) * 7, (0,) * 8)


class TestInfer:
    def test_zero_model_gives_half(self):
        zero = M.DecisionModel(((np.zeros((4, 64)), np.zeros(4)),))
        assert M.infer(zero, (0,) * 64) == (0.5, 0.5, 0.5, 0.5)

    def test_single_layer_all_ones(self):
        net = M.DecisionModel(((np.ones((4, 64)), np.zeros(4)),))
        for k in (0, 1, 3, 7):
            bits = (1,) * k + (0,) * (64 - k)
            expected = 1.0 / (1.0 + math.exp(-k))
            for score in M.infer(net, bits):
                assert score == pytest.approx(expected, abs=1e-12)

    def test_matches_scalar_oracle_on_100_seeded_cases(self):
        for case in range(100):
            net = seeded_model(case)
            bits = seeded_bits(10_000 + case)
            got = M.infer(net, bits)
            want = oracle_forward(net.layers, bits)
            for g, w in zip(got, want):
                assert abs(g - w) < 1e-9

    def test_scores_in_unit_interval(self):
        net = seeded_model(3)
        for s in M.infer(net, seeded_bits(77)):
            assert 0.0 <= s <= 1.0

    def test_dimension_mismatch(self):
        net = seeded_model(0)
        with pytest.raises(ValueError):
            M.infer(net, (0,) * 63)

    def test_thread_count_does_not_change_output(self):
        from concurrent.futures import ThreadPoolExecutor

        net = seeded_model(5)
        bits = seeded_bits(55)
        expected = M.infer(net, bits)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: M.infer(net, bits), range(64)))
        assert all(r == expected for r in results)

    def test_bad_layer_shapes_rejected(self):
        with pytest.raises(ValueError):
            M.DecisionModel(((np.zeros((4, 63)), np.zeros(4)),))
        with pytest.raises(ValueError):
            M.DecisionModel(((np.zeros((3, 64)), np.zeros(3)),))
        with pytest.raises(ValueError):
            M.DecisionModel(((np.full((4, 64), np.nan), np.zeros(4)),))


class TestThresholdDecide:
    def test_boundary_inclusive(self):
        assert M.threshold_decide((0.9, 0.1, 0.5, 0.49), 0.5) == (True, False, True, False)

    def test_all_zero(self):
        assert M.threshold_decide((0.0,) * 4, 0.5) == (False,) * 4

    def test_all_one(self):
        assert M.threshold_decide((1.0,) * 4, 0.5) == (True,) * 4

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            M.threshold_decide((0.5,) * 4, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(*([st.floats(0, 1)] * 4)),
        st.integers(0, 3),
        st.floats(0.01, 0.2),
    )
    def test_monotone_raising_a_score_never_removes_grants(self, scores, index, bump):
        before = M.threshold_decide(scores, 0.5)
        raised = list(scores)
        raised[index] = min(1.0, raised[index] + bump)
        after = M.threshold_decide(tuple(raised), 0.5)
        for b, a in zip(before, after):
            assert (not b) or a


class TestTrain:
    def test_constant_all_grant_labels_fit(self):
        ds = M.generate_dataset(8, 8, seed=5)
        forced = M.SyntheticDataset(
            users=ds.users,
            resources=ds.resources,
            train=tuple(
                M.AccessTuple(t.user_id, t.user_attrs, t.resource_id, t.resource_attrs,
                              (True, True, True, True))
                for t in ds.train
            ),
            test=ds.test,
            rules=ds.rules,
            seed=ds.seed,
        )
        net = M.train(forced, Config(seed=1, epochs=300))
        for t in forced.train:
            for score in M.infer(net, M.encode_pair(t.user_attrs, t.resource_attrs)):
                assert score > 0.9

    def test_deterministic_same_seed_bitwise(self):
        ds = M.generate_dataset(6, 6, seed=9)
        a = M.train(ds, Config(seed=4, epochs=50))
        b = M.train(ds, Config(seed=4, epochs=50))
        assert a == b

    def test_empty_training_split_rejected(self):
        ds = M.generate_dataset(2, 2, seed=1)
        empty = M.SyntheticDataset(
            users=ds.users, resources=ds.resources, train=(), test=ds.test,
            rules=ds.rules, seed=ds.seed,
        )
        with pytest.raises(ValueError):
            M.train(empty, Config(seed=0))

    def test_default_config_reaches_regression_bound(self):
        # frozen bound measured once on the reference configuration
        ds = M.generate_dataset(40, 20, seed=0)
        net = M.train(ds, Config(seed=0))
        assert M.accuracy(net, ds.train) >= 0.95

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            Config(learning_rate=0.0)
        with pytest.raises(ConfigError):
            Config(epochs=0)
        with pytest.raises(ConfigError):
            Config(threshold=1.0)


class TestGradientCheck:
    # seeds chosen away from ReLU kinks (a preactivation inside the
    # finite-difference step makes the comparison ill-posed, see docstring)
    def test_seeded_models_below_tolerance(self):
        for seed in range(1000, 1005):
            net = seeded_model(seed)
            sample = (seeded_bits(seed), (bool(seed % 2), True, False, True))
            assert M.gradient_check(net, sample) < 1e-4

    def test_zero_model_zero_label_matches_everywhere(self):
        zero = M.DecisionModel(((np.zeros((4, 64)), np.zeros(4)),))
        err = M.gradient_check(zero, ((0,) * 64, (False,) * 4))
        assert err < 1e-8

    def test_invariant_under_paired_permutation(self):
        # permuting the first layer's input columns together with the input
        # bits is a reparametrization: the error must not move
        net = seeded_model(12)
        bits = seeded_bits(99)
        labels = (True, False, True, False)
        base = M.gradient_check(net, (bits, labels))

        rng = np.random.default_rng(0)
        perm = rng.permutation(64)
        w0, b0 = net.layers[0]
        permuted = M.DecisionModel(((w0[:, perm], b0),) + net.layers[1:])
        permuted_bits = tuple(bits[i] for i in perm)
        assert M.gradient_check(permuted, (permuted_bits, labels)) == pytest.approx(
            base, abs=1e-10
        )


def fork_calls(monkeypatch) -> list[int]:
    """Record each ``os.fork`` the model makes, and let it go ahead."""
    calls: list[int] = []
    real_fork = os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(M.os, "fork", fork)
    return calls


class TestSharedPasses:
    """Training, inference, accuracy and gradient checks share one forward
    pass and one gradient routine that write into arrays allocated once."""

    def test_buffers_reused_across_calls_give_fresh_results(self):
        rng = np.random.default_rng(3)
        inputs = rng.integers(0, 2, size=(20, 64)).astype(np.float64)
        labels = rng.integers(0, 2, size=(20, 4)).astype(np.float64)
        first, second = seeded_model(1).layers, seeded_model(2).layers
        activations = M._activations(first, inputs)
        backward = M._Backward(first, 20)
        M._raw_gradients(first, activations, labels, backward)
        reused = M._raw_gradients(second, activations, labels, backward)
        fresh = M._raw_gradients(
            second, M._activations(second, inputs), labels, M._Backward(second, 20)
        )
        for (rw, rb), (fw, fb) in zip(reused, fresh):
            assert np.array_equal(rw, fw) and np.array_equal(rb, fb)

    def test_batch_gradient_is_the_mean_of_row_gradients(self):
        layers = seeded_model(1001).layers
        rng = np.random.default_rng(4)
        inputs = rng.integers(0, 2, size=(6, 64)).astype(np.float64)
        labels = rng.integers(0, 2, size=(6, 4)).astype(np.float64)

        def gradients(rows: slice):
            x = inputs[rows]
            return M._raw_gradients(
                layers, M._activations(layers, x), labels[rows], M._Backward(layers, len(x))
            )

        batch = gradients(slice(None))
        rows = [gradients(slice(r, r + 1)) for r in range(6)]
        for layer, (gw, gb) in enumerate(batch):
            assert np.allclose(gw, np.mean([row[layer][0] for row in rows], axis=0), atol=1e-12)
            assert np.allclose(gb, np.mean([row[layer][1] for row in rows], axis=0), atol=1e-12)

    def test_gradient_check_passes_on_a_trained_model(self):
        ds = M.generate_dataset(6, 6, seed=2)
        net = M.train(ds, Config(seed=2, epochs=40))
        for t in ds.train[:3]:
            sample = (M.encode_pair(t.user_attrs, t.resource_attrs), t.labels)
            assert M.gradient_check(net, sample) < 1e-4

    def test_accuracy_matches_per_tuple_inference(self):
        ds = M.generate_dataset(8, 5, seed=6)
        net = M.train(ds, Config(seed=6, epochs=30))
        hits = [
            got == want
            for t in ds.test
            for got, want in zip(
                M.threshold_decide(M.infer(net, M.encode_pair(t.user_attrs, t.resource_attrs))),
                t.labels,
            )
        ]
        assert M.accuracy(net, ds.test) == sum(hits) / len(hits)


class TestTrainingChild:
    """``train`` fits in a forked child that hands the model back in the
    weight-file format; the child is always reaped."""

    @pytest.mark.parametrize(
        "users, resources, seed", [(30, 12, 0), (30, 12, 1), (30, 12, 2), (100, 50, 1)]
    )
    def test_child_and_in_process_weights_are_byte_identical(
        self, monkeypatch, users, resources, seed
    ):
        ds = M.generate_dataset(users, resources, seed)
        config = Config(seed=seed)
        forks = fork_calls(monkeypatch)
        from_child = M.train(ds, config)
        assert forks == [os.getpid()]
        assert M.weights_to_bytes(from_child) == M.weights_to_bytes(M._fit(ds, config))

    def test_another_thread_alive_trains_in_process(self, monkeypatch):
        ds = M.generate_dataset(10, 6, seed=3)
        config = Config(seed=3, epochs=60)
        expected = M.weights_to_bytes(M.train(ds, config))
        forks = fork_calls(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            got = M.weights_to_bytes(M.train(ds, config))
        finally:
            release.set()
            thread.join(timeout=10)
        assert forks == []
        assert got == expected

    def test_failure_in_the_child_is_raised_and_the_child_reaped(self, monkeypatch):
        def diverge(*args):
            raise FloatingPointError("loss diverged")

        monkeypatch.setattr(M, "_raw_gradients", diverge)
        forks = fork_calls(monkeypatch)
        with pytest.raises(FloatingPointError, match="loss diverged") as caught:
            M.train(M.generate_dataset(4, 4, seed=1), Config(seed=1, epochs=5))
        assert len(forks) == 1
        assert "raised in the training child" in "".join(caught.value.__notes__)
        with pytest.raises(ChildProcessError):
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)

    def test_child_that_dies_without_a_model(self, monkeypatch):
        monkeypatch.setattr(M, "_fit", lambda dataset, config: os._exit(3))
        with pytest.raises(RuntimeError, match="status 3 and no model"):
            M.train(M.generate_dataset(4, 4, seed=1), Config(seed=1, epochs=5))
        with pytest.raises(ChildProcessError):
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)


class TestWeightsFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        net = seeded_model(7)
        path = tmp_path / "weights.bin"
        M.save_weights(net, path)
        assert M.load_weights(path) == net

    def test_default_architecture_under_one_megabyte(self, tmp_path):
        net = seeded_model(0)
        path = tmp_path / "weights.bin"
        M.save_weights(net, path)
        assert path.stat().st_size < 1_048_576

    def test_truncated_file(self, tmp_path):
        net = seeded_model(1)
        path = tmp_path / "weights.bin"
        M.save_weights(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            M.load_weights(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "weights.bin"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(FormatError):
            M.load_weights(path)

    def test_bad_version(self, tmp_path):
        net = seeded_model(1)
        path = tmp_path / "weights.bin"
        M.save_weights(net, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            M.load_weights(path)

    def test_trailing_garbage(self, tmp_path):
        net = seeded_model(2)
        path = tmp_path / "weights.bin"
        M.save_weights(net, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(FormatError):
            M.load_weights(path)

    def test_file_bytes_are_the_bytes_helper(self, tmp_path):
        net = seeded_model(3)
        path = tmp_path / "weights.bin"
        M.save_weights(net, path)
        assert path.read_bytes() == M.weights_to_bytes(net)
        assert M.weights_from_bytes(path.read_bytes()) == net

    # header 7 bytes, then layer 0's row/column counts: its first weight
    # starts at 15 and its first bias at 15 + 32 * 64 * 4
    @pytest.mark.parametrize("offset", [15, 15 + 32 * 64 * 4])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter(self, offset, value):
        blob = bytearray(M.weights_to_bytes(seeded_model(4)))
        blob[offset : offset + 4] = struct.pack("<f", value)
        with pytest.raises(FormatError, match="layer 0 holds a non-finite parameter"):
            M.weights_from_bytes(bytes(blob))


# Independent re-evaluation of the hidden rule set, plain loops.
def oracle_labels(rules: M.HiddenRuleSet, user_attrs, resource_attrs):
    labels = []
    for group in rules.predicates:
        satisfied = 0
        for predicate in group:
            attrs = user_attrs if predicate.side == 0 else resource_attrs
            if attrs[predicate.attr] >= predicate.min_value:
                satisfied += 1
        labels.append(satisfied >= rules.required)
    return tuple(labels)


class TestDataset:
    def test_population_counts(self):
        ds = M.generate_dataset(100, 50, seed=3)
        assert len(ds.users) == 100
        assert len(ds.resources) == 50
        assert len(ds.tuples) == 100 * 50

    def test_same_seed_identical(self):
        assert M.generate_dataset(20, 10, seed=8) == M.generate_dataset(20, 10, seed=8)

    def test_labels_match_rule_oracle(self):
        ds = M.generate_dataset(12, 12, seed=11)
        for t in ds.tuples:
            assert t.labels == oracle_labels(ds.rules, t.user_attrs, t.resource_attrs)

    def test_split_is_80_20(self):
        ds = M.generate_dataset(10, 10, seed=2)
        assert len(ds.train) == 80
        assert len(ds.test) == 20

    def test_six_predicates_per_operation(self):
        ds = M.generate_dataset(2, 2, seed=0)
        assert len(ds.rules.predicates) == 4
        assert all(len(group) == 6 for group in ds.rules.predicates)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            M.generate_dataset(0, 5, seed=1)

    def test_csv_export(self, tmp_path):
        ds = M.generate_dataset(3, 3, seed=6)
        path = tmp_path / "data.csv"
        M.dataset_to_csv(ds, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "user_id,u0,u1,u2,u3,u4,u5,u6,u7,"
            "resource_id,r0,r1,r2,r3,r4,r5,r6,r7,read,write,execute,own"
        )
        assert len(lines) == 1 + 9
        first = lines[1].split(",")
        assert len(first) == 22
        t = ds.tuples[0]
        assert first[0] == str(t.user_id)
        assert first[9] == str(t.resource_id)
        assert first[18:] == [str(int(v)) for v in t.labels]
