"""Learned core of the decision engine.

Identities are encoded as fixed-width bit vectors: each entity carries 8
attributes in [0, 16), each expanded to 4 bits big-endian, and a
(user, resource) pair concatenates to the 64-bit network input.  The
network is a small feedforward net (default 64-32-16-4) with ReLU hidden
layers and a sigmoid output head producing one score per operation
(read, write, execute, own).

Training is plain full-batch gradient descent on mean binary
cross-entropy, deterministic under the configured seed.  Weights round
through float32 at construction so the binary weight file reproduces a
model bit-exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import FormatError

if TYPE_CHECKING:
    from .config import Config

OPERATIONS = ("read", "write", "execute", "own")
N_OPERATIONS = 4
N_ATTRIBUTES = 8
ATTRIBUTE_BITS = 4
ATTRIBUTE_RANGE = 16
INPUT_WIDTH = 2 * N_ATTRIBUTES * ATTRIBUTE_BITS  # 64

WEIGHTS_MAGIC = b"DLAC"
WEIGHTS_VERSION = 1


def operation_index(operation: str) -> int:
    try:
        return OPERATIONS.index(operation)
    except ValueError:
        raise ValueError(f"unknown operation {operation!r}") from None


def check_metadata(attrs) -> tuple[int, ...]:
    """Validate and normalize an 8-attribute metadata tuple."""
    attrs = tuple(int(a) for a in attrs)
    if len(attrs) != N_ATTRIBUTES:
        raise ValueError(f"metadata must have {N_ATTRIBUTES} attributes")
    for a in attrs:
        if not 0 <= a < ATTRIBUTE_RANGE:
            raise ValueError(f"attribute {a} outside [0, {ATTRIBUTE_RANGE})")
    return attrs


def binary_repr(value: int, width: int) -> tuple[int, ...]:
    """Big-endian fixed-width binary expansion of a non-negative integer."""
    value = int(value)
    if value < 0:
        raise ValueError("value must be non-negative")
    if value >= 1 << width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def encode_attrs(attrs) -> tuple[int, ...]:
    """32 bits: the 8 validated attributes, 4 bits each, big-endian."""
    bits: list[int] = []
    for a in check_metadata(attrs):
        bits.extend(binary_repr(a, ATTRIBUTE_BITS))
    return tuple(bits)


def encode_pair(user_attrs, resource_attrs) -> tuple[int, ...]:
    """64-bit input: 8 user attributes then 8 resource attributes, 4 bits each."""
    return encode_attrs(user_attrs) + encode_attrs(resource_attrs)


def _as_f32_exact(a: np.ndarray) -> np.ndarray:
    # float64 values snapped to their float32 representation, so the
    # 32-bit weight file round-trips bit-exactly
    return np.asarray(a, dtype=np.float32).astype(np.float64)


@dataclass(frozen=True)
class DecisionModel:
    """Feedforward network weights: ReLU hidden layers, sigmoid output."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("model needs at least one layer")
        snapped = []
        previous = INPUT_WIDTH
        for weights, biases in self.layers:
            weights = _as_f32_exact(weights)
            biases = _as_f32_exact(biases)
            if weights.ndim != 2 or biases.ndim != 1:
                raise ValueError("layer must be (2-d weights, 1-d biases)")
            rows, cols = weights.shape
            if cols != previous:
                raise ValueError(f"layer expects {cols} inputs, got {previous}")
            if biases.shape[0] != rows:
                raise ValueError("bias length must match weight rows")
            if not (np.isfinite(weights).all() and np.isfinite(biases).all()):
                raise ValueError("model parameters must be finite")
            weights.setflags(write=False)
            biases.setflags(write=False)
            snapped.append((weights, biases))
            previous = rows
        if previous != N_OPERATIONS:
            raise ValueError(f"output width must be {N_OPERATIONS}, got {previous}")
        object.__setattr__(self, "layers", tuple(snapped))

    @property
    def dims(self) -> tuple[int, ...]:
        return (INPUT_WIDTH,) + tuple(w.shape[0] for w, _ in self.layers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DecisionModel):
            return NotImplemented
        if len(self.layers) != len(other.layers):
            return False
        return all(
            a[0].shape == b[0].shape
            and np.array_equal(a[0], b[0])
            and np.array_equal(a[1], b[1])
            for a, b in zip(self.layers, other.layers)
        )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _forward_all(layers, inputs: np.ndarray) -> list[np.ndarray]:
    """Activations per layer for a batch; last entry is the score matrix."""
    activations = [inputs]
    h = inputs
    last = len(layers) - 1
    for i, (weights, biases) in enumerate(layers):
        z = h @ weights.T + biases
        h = _sigmoid(z) if i == last else np.maximum(z, 0.0)
        activations.append(h)
    return activations


def infer(model: DecisionModel, bits) -> tuple[float, ...]:
    """Forward pass over one 64-bit input; four scores in [0, 1]."""
    x = np.asarray(bits, dtype=np.float64)
    if x.shape != (INPUT_WIDTH,):
        raise ValueError(f"input must have width {INPUT_WIDTH}")
    scores = _forward_all(model.layers, x[None, :])[-1][0]
    return tuple(float(s) for s in scores)


def threshold_decide(scores, threshold: float = 0.5) -> tuple[bool, ...]:
    """Grant mask: score >= threshold, per operation."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    return tuple(float(s) >= threshold for s in scores)


def _bce_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    p = np.clip(scores, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


def _init_layers(dims: tuple[int, ...], seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append((weights, np.zeros(fan_out)))
    return layers


def train(dataset: "SyntheticDataset", config: "Config") -> DecisionModel:
    """Fit the network on the training split by full-batch gradient descent,
    with the config's learning rate, epochs, seed and hidden widths."""
    if not dataset.train:
        raise ValueError("training split is empty")
    inputs = np.array(
        [encode_pair(t.user_attrs, t.resource_attrs) for t in dataset.train],
        dtype=np.float64,
    )
    labels = np.array([t.labels for t in dataset.train], dtype=np.float64)
    dims = (INPUT_WIDTH,) + tuple(config.hidden) + (N_OPERATIONS,)
    layers = _init_layers(dims, config.seed)
    for _ in range(config.epochs):
        grads = _raw_gradients(layers, inputs, labels)
        for (weights, biases), (gw, gb) in zip(layers, grads):
            weights -= config.learning_rate * gw
            biases -= config.learning_rate * gb
    return DecisionModel(tuple((w, b) for w, b in layers))


def _raw_gradients(layers, inputs: np.ndarray, labels: np.ndarray):
    """Analytic gradient of mean BCE w.r.t. every weight and bias."""
    activations = _forward_all(layers, inputs)
    # sigmoid + BCE gives dL/dz directly
    delta = (activations[-1] - labels) / labels.size
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        weights, _ = layers[i]
        grads[i] = (delta.T @ activations[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ weights) * (activations[i] > 0)
    return grads


def accuracy(model: DecisionModel, tuples, threshold: float = 0.5) -> float:
    """Fraction of per-operation grants predicted correctly."""
    if not tuples:
        raise ValueError("no tuples to score")
    inputs = np.array(
        [encode_pair(t.user_attrs, t.resource_attrs) for t in tuples],
        dtype=np.float64,
    )
    labels = np.array([t.labels for t in tuples], dtype=bool)
    scores = _forward_all(model.layers, inputs)[-1]
    return float(((scores >= threshold) == labels).mean())


def gradient_check(model: DecisionModel, sample, step: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    Perturbs every parameter in turn.  The relative error denominator is
    floored at 1e-3 so coordinates with near-zero gradient do not amplify
    finite-difference noise.

    Meaningful only where the loss is differentiable: if a ReLU
    preactivation lies within the step of zero, the central difference
    straddles the kink and disagrees with the (correct) subgradient.
    """
    bits, labels = sample
    x = np.asarray(bits, dtype=np.float64)[None, :]
    y = np.asarray(labels, dtype=np.float64)[None, :]

    analytic = _raw_gradients(model.layers, x, y)
    mutable = [(w.copy(), b.copy()) for w, b in model.layers]

    def loss() -> float:
        return _bce_loss(_forward_all(mutable, x)[-1], y)

    worst = 0.0
    for layer, (weights, biases) in enumerate(mutable):
        for arr, grad in ((weights, analytic[layer][0]), (biases, analytic[layer][1])):
            flat = arr.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            for k in range(flat.size):
                original = flat[k]
                flat[k] = original + step
                up = loss()
                flat[k] = original - step
                down = loss()
                flat[k] = original
                numeric = (up - down) / (2.0 * step)
                err = abs(gflat[k] - numeric) / max(abs(gflat[k]) + abs(numeric), 1e-3)
                if err > worst:
                    worst = err
    return worst


# ---------------------------------------------------------------------------
# Weight file format: magic, version, layer count, then per layer the row and
# column counts (u32 LE) followed by row-major float32 LE weights and biases.
# ---------------------------------------------------------------------------

def save_weights(model: DecisionModel, path) -> None:
    parts = [
        WEIGHTS_MAGIC,
        struct.pack("<H", WEIGHTS_VERSION),
        struct.pack("<B", len(model.layers)),
    ]
    for weights, biases in model.layers:
        rows, cols = weights.shape
        parts.append(struct.pack("<II", rows, cols))
        parts.append(weights.astype("<f4").tobytes(order="C"))
        parts.append(biases.astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_weights(path) -> DecisionModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    offset = 0

    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(view):
            raise FormatError("weight file truncated")
        chunk = view[offset : offset + n]
        offset += n
        return chunk

    if bytes(take(4)) != WEIGHTS_MAGIC:
        raise FormatError("bad magic, not a weight file")
    (version,) = struct.unpack("<H", take(2))
    if version != WEIGHTS_VERSION:
        raise FormatError(f"unsupported weight file version {version}")
    (n_layers,) = struct.unpack("<B", take(1))
    if n_layers == 0:
        raise FormatError("weight file declares zero layers")

    layers = []
    previous = INPUT_WIDTH
    for _ in range(n_layers):
        rows, cols = struct.unpack("<II", take(8))
        if cols != previous:
            raise FormatError(f"layer expects {cols} inputs, previous width {previous}")
        weights = np.frombuffer(take(rows * cols * 4), dtype="<f4").reshape(rows, cols)
        biases = np.frombuffer(take(rows * 4), dtype="<f4")
        layers.append((weights.astype(np.float64), biases.astype(np.float64)))
        previous = rows
    if previous != N_OPERATIONS:
        raise FormatError(f"output width {previous} != {N_OPERATIONS}")
    if offset != len(view):
        raise FormatError("trailing bytes after final layer")
    return DecisionModel(tuple(layers))


# ---------------------------------------------------------------------------
# Synthetic dataset.  Labels come from a hidden rule set: per operation, six
# seeded attribute thresholds; a pair is granted the operation when at least
# three of the six hold.  The rule set rides along so tests can re-evaluate
# any tuple independently.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttributePredicate:
    side: int  # 0 = user attributes, 1 = resource attributes
    attr: int
    min_value: int

    def holds(self, user_attrs, resource_attrs) -> bool:
        attrs = user_attrs if self.side == 0 else resource_attrs
        return attrs[self.attr] >= self.min_value


@dataclass(frozen=True)
class HiddenRuleSet:
    predicates: tuple[tuple[AttributePredicate, ...], ...]  # one group per operation
    required: int = 3

    def labels(self, user_attrs, resource_attrs) -> tuple[bool, ...]:
        out = []
        for group in self.predicates:
            n = sum(1 for p in group if p.holds(user_attrs, resource_attrs))
            out.append(n >= self.required)
        return tuple(out)


@dataclass(frozen=True)
class AccessTuple:
    user_id: int
    user_attrs: tuple[int, ...]
    resource_id: int
    resource_attrs: tuple[int, ...]
    labels: tuple[bool, ...]


@dataclass(frozen=True)
class SyntheticDataset:
    users: tuple[tuple[int, tuple[int, ...]], ...]
    resources: tuple[tuple[int, tuple[int, ...]], ...]
    train: tuple[AccessTuple, ...]
    test: tuple[AccessTuple, ...]
    rules: HiddenRuleSet
    seed: int = 0

    @property
    def tuples(self) -> tuple[AccessTuple, ...]:
        return self.train + self.test


def generate_dataset(n_users: int, n_resources: int, seed: int) -> SyntheticDataset:
    """Seeded population, hidden-rule labels, 80/20 train/test split."""
    if n_users < 1 or n_resources < 1:
        raise ValueError("need at least one user and one resource")
    rng = np.random.default_rng(seed)
    users = tuple(
        (i, tuple(int(v) for v in rng.integers(0, ATTRIBUTE_RANGE, size=N_ATTRIBUTES)))
        for i in range(n_users)
    )
    resources = tuple(
        (i, tuple(int(v) for v in rng.integers(0, ATTRIBUTE_RANGE, size=N_ATTRIBUTES)))
        for i in range(n_resources)
    )
    groups = []
    for _ in range(N_OPERATIONS):
        group = []
        for _ in range(6):
            side = int(rng.integers(0, 2))
            attr = int(rng.integers(0, N_ATTRIBUTES))
            min_value = int(rng.integers(4, 13))
            group.append(AttributePredicate(side, attr, min_value))
        groups.append(tuple(group))
    rules = HiddenRuleSet(predicates=tuple(groups))

    tuples = []
    for uid, uattrs in users:
        for rid, rattrs in resources:
            tuples.append(
                AccessTuple(uid, uattrs, rid, rattrs, rules.labels(uattrs, rattrs))
            )
    order = rng.permutation(len(tuples))
    cut = int(len(tuples) * 0.8)
    train_split = tuple(tuples[i] for i in order[:cut])
    test_split = tuple(tuples[i] for i in order[cut:])
    return SyntheticDataset(users, resources, train_split, test_split, rules, seed)


DATASET_CSV_HEADER = (
    "user_id,"
    + ",".join(f"u{i}" for i in range(N_ATTRIBUTES))
    + ",resource_id,"
    + ",".join(f"r{i}" for i in range(N_ATTRIBUTES))
    + ",read,write,execute,own"
)


def dataset_to_csv(dataset: SyntheticDataset, path, split: str = "all") -> None:
    """Export tuples as CSV (split: train, test, or all)."""
    if split == "train":
        rows = dataset.train
    elif split == "test":
        rows = dataset.test
    elif split == "all":
        rows = dataset.tuples
    else:
        raise ValueError(f"unknown split {split!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(DATASET_CSV_HEADER + "\n")
        for t in rows:
            cells = (
                [str(t.user_id)]
                + [str(a) for a in t.user_attrs]
                + [str(t.resource_id)]
                + [str(a) for a in t.resource_attrs]
                + [str(int(v)) for v in t.labels]
            )
            fh.write(",".join(cells) + "\n")
