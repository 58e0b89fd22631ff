"""Decision-model checks against independent scalar and rule oracles."""

from __future__ import annotations

import math

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
