"""Dense feed-forward classifiers with hand-derived gradients, and the one
minibatch SGD loop every model in the package trains with.

Everything here is plain NumPy in float64. A network's weights, biases and
optional scalar confidence head are views into one contiguous parameter
vector; gradients and the optimizer velocity are vectors with the same
layout. Forward and backward passes never mutate the parameters.
train_loop copies its input parameters once and then updates that copy in
place. Seeded runs are bitwise reproducible because every step applies the
same elementwise operations in a fixed order to that loop-owned copy.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, DivergenceError, ParameterError

PARAMS_MAGIC = b"OEWB"
PARAMS_VERSION = 1

_ACT_CODES = {"relu": 0, "tanh": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}

# Weight of the -log b(x) term that pulls the confidence head toward 1 on
# in-distribution samples when training with the confidence-branch objective.
BRANCH_FIT_WEIGHT = 1.0


@dataclass
class Batch:
    """Row-vector inputs with optional integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ConfigurationError("batch inputs must form a nonempty (n, d) matrix")
        if not np.all(np.isfinite(self.inputs)):
            raise DataError("batch inputs contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.inputs.shape[0],):
                raise ConfigurationError("labels must supply one class index per example")
            if np.any(self.labels < 0):
                raise DataError("negative class label")

    def __len__(self):
        return self.inputs.shape[0]


@dataclass
class BranchHead:
    """Scalar confidence head: maps the last hidden layer to one real."""

    weight: np.ndarray  # (last_hidden_dim,)
    bias: np.ndarray  # (1,)


class NetworkParams:
    """Dense network parameters stored in one contiguous float64 vector.

    weights[i] has shape (layer_dims[i+1], layer_dims[i]). The weights,
    biases and confidence head are views into `vector`, laid out as
    w0, b0, w1, b1, ..., head weight, head bias; writing through a view
    writes the vector. Gradients and optimizer velocities use this layout.
    """

    def __init__(self, layer_dims, weights, biases, branch: BranchHead | None = None,
                 activation: str = "relu"):
        arrays = [a for pair in zip(weights, biases) for a in pair]
        if branch is not None:
            arrays += [branch.weight, branch.bias]
        self.layer_dims = [int(d) for d in layer_dims]
        self.activation = activation
        self._slots, start = [], 0  # (start, stop, shape) of each array in the vector
        for a in arrays:
            stop = start + math.prod(np.shape(a))
            self._slots.append((start, stop, np.shape(a)))
            start = stop
        flat = [np.asarray(a, dtype=np.float64).ravel() for a in arrays]
        self.vector = np.concatenate(flat) if flat else np.empty(0)
        views = self.arrays()
        n = len(weights)
        self.weights = views[0 : 2 * n : 2]
        self.biases = views[1 : 2 * n : 2]
        self.branch = BranchHead(*views[2 * n :]) if branch is not None else None

    def split(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views into a vector of this layout, in arrays() order."""
        return [vector[start:stop].reshape(shape) for start, stop, shape in self._slots]

    def validate(self) -> "NetworkParams":
        dims = self.layer_dims
        if len(dims) < 2 or any(int(d) < 1 for d in dims):
            raise ConfigurationError("layer_dims needs at least two positive entries")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ConfigurationError("expected one weight/bias pair per layer transition")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
                raise ConfigurationError(f"layer {i} parameter shapes do not match layer_dims")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise DataError(f"layer {i} has non-finite parameters")
        if self.activation not in _ACT_CODES:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if self.branch is not None:
            if self.branch.weight.shape != (dims[-2],) or self.branch.bias.shape != (1,):
                raise ConfigurationError("confidence head must map the last hidden layer to one value")
            if not (np.all(np.isfinite(self.branch.weight)) and np.all(np.isfinite(self.branch.bias))):
                raise DataError("confidence head has non-finite parameters")
        return self

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "NetworkParams":
        """Same layout over a fresh copy of the parameter vector."""
        return NetworkParams(self.layer_dims, self.weights, self.biases, self.branch, self.activation)

    def arrays(self) -> list[np.ndarray]:
        """Per-layer views of the parameter vector, in layout order."""
        return self.split(self.vector)


def init_network(layer_dims, seed, activation: str = "relu", with_branch: bool = False) -> NetworkParams:
    """Seeded uniform init with per-layer scale sqrt(6 / (fan_in + fan_out)).

    Biases start at zero. The confidence head, when requested, follows the
    same rule with fan_out = 1.
    """
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in layer_dims]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-s, s, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    branch = None
    if with_branch:
        h = dims[-2]
        s = np.sqrt(6.0 / (h + 1))
        branch = BranchHead(rng.uniform(-s, s, size=h), np.zeros(1))
    return NetworkParams(dims, weights, biases, branch, activation).validate()


def _act(z: np.ndarray, name: str) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_backward(da: np.ndarray, z: np.ndarray, name: str) -> np.ndarray:
    """da * act'(z), written over da."""
    if name == "relu":
        return np.multiply(da, z > 0, out=da)
    t = np.tanh(z)
    return np.multiply(da, 1.0 - t * t, out=da)


def _input_matrix(params: NetworkParams, inputs) -> np.ndarray:
    X = np.asarray(inputs, dtype=np.float64)
    if X.ndim != 2:
        raise ConfigurationError("inputs must form an (n, d) matrix")
    if X.shape[1] != params.input_dim:
        raise ConfigurationError(
            f"input width {X.shape[1]} does not match network input dim {params.input_dim}"
        )
    return X


def forward_cached(params: NetworkParams, inputs) -> tuple:
    """Forward pass keeping activations; returns (logits, branch_pre, cache)."""
    X = _input_matrix(params, inputs)
    acts = [X]
    pres = []
    a = X
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w.T
        z += b
        pres.append(z)
        if i < last:
            a = _act(z, params.activation)
            acts.append(a)
    logits = pres[-1]
    branch_pre = None
    if params.branch is not None:
        branch_pre = acts[-1] @ params.branch.weight + params.branch.bias[0]
    return logits, branch_pre, (acts, pres)


def forward(params: NetworkParams, batch):
    """Class logits for a batch, plus the confidence pre-activation when a head exists.

    The same arithmetic as forward_cached without the cache: each hidden
    activation is applied in place to its layer's fresh matmul output and
    is dropped once the next layer has read it.
    """
    a = _input_matrix(params, batch.inputs if isinstance(batch, Batch) else batch)
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w.T
        z += b
        if i == last:
            break
        if params.activation == "relu":
            a = np.maximum(z, 0.0, out=z)
        else:
            a = np.tanh(z, out=z)
    branch_pre = None
    if params.branch is not None:
        branch_pre = a @ params.branch.weight + params.branch.bias[0]
    return z, branch_pre


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax of logits / temperature, max-subtracted for stability."""
    if not temperature > 0:
        raise ParameterError("temperature must be positive")
    z = np.asarray(logits, dtype=np.float64)
    if temperature != 1.0:
        z = z / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits, temperature: float = 1.0) -> np.ndarray:
    if not temperature > 0:
        raise ParameterError("temperature must be positive")
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def sigmoid(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def log_sigmoid(u) -> np.ndarray:
    """log(sigmoid(u)) computed without ever forming sigmoid(u) = 0."""
    u = np.asarray(u, dtype=np.float64)
    return np.where(u >= 0, -np.log1p(np.exp(-np.abs(u))), u - np.log1p(np.exp(-np.abs(u))))


def ce_logit_grad(logits, labels: np.ndarray) -> np.ndarray:
    """softmax(logits) - one_hot(labels): the gradient of the summed
    cross-entropy with respect to the logits, as a fresh array."""
    out = softmax(logits)
    out[np.arange(labels.shape[0]), labels] -= 1.0
    return out


def backward(params: NetworkParams, cache, dlogits, dbranch_pre=None) -> np.ndarray:
    """Parameter gradient from per-example gradients at the network outputs.

    dlogits is (n, k); dbranch_pre, when given, is (n,) with respect to the
    raw confidence pre-activation. The caller bakes any 1/n factors into
    these upstream gradients; this routine only applies the chain rule.
    Returns a fresh vector in the layout of params.vector.
    """
    acts, pres = cache
    n_layers = len(params.weights)
    out = np.empty_like(params.vector)
    views = params.split(out)
    branch_delta = None
    if params.branch is not None:
        gbw, gbb = views[-2], views[-1]
        if dbranch_pre is None:
            gbw[...] = 0.0
            gbb[...] = 0.0
        else:
            branch_delta = np.asarray(dbranch_pre, dtype=np.float64)
            np.matmul(acts[n_layers - 1].T, branch_delta, out=gbw)
            gbb[0] = branch_delta.sum()
    delta = np.asarray(dlogits, dtype=np.float64)
    for i in range(n_layers - 1, -1, -1):
        np.matmul(delta.T, acts[i], out=views[2 * i])
        np.add.reduce(delta, axis=0, out=views[2 * i + 1])
        if i > 0:
            da = delta @ params.weights[i]
            if i == n_layers - 1 and branch_delta is not None:
                da = da + branch_delta[:, None] * params.branch.weight[None, :]
            delta = _act_backward(da, pres[i - 1], params.activation)
    return out


_OBJECTIVES = ("plain_ce", "multiclass_oe", "confidence_branch_oe")


def _check_objective(params: NetworkParams, objective, in_batch, oe_batch) -> bool:
    """Reject batches the objective cannot use; returns whether it reads outliers."""
    kind = objective.kind
    if kind not in _OBJECTIVES:
        raise ConfigurationError(f"unknown objective kind {kind!r}")
    if kind == "confidence_branch_oe" and params.branch is None:
        raise ConfigurationError("confidence-branch objective needs a network with a confidence head")
    if in_batch is None or len(in_batch) == 0:
        raise ConfigurationError(f"{kind} needs a nonempty in-distribution batch")
    if in_batch.labels is None:
        raise ConfigurationError(f"{kind} needs labels on the in-distribution batch")
    if np.any(in_batch.labels >= params.n_classes):
        raise DataError(f"class label out of range for {params.n_classes} classes")
    uses_oe = kind != "plain_ce" and float(objective.lam) > 0
    if uses_oe and (oe_batch is None or len(oe_batch) == 0):
        raise ConfigurationError("exposure objective needs a nonempty outlier batch")
    return uses_oe


def _objective_grad(params: NetworkParams, objective, X, y, oe_X) -> np.ndarray:
    """The gradient behind grad and train_classifier, on checked rows.

    Inlier and outlier terms keep separate forward/backward passes whose
    gradients are summed with one +=: one pass over the concatenated rows
    would sum the weight gradients in another order and move the bits.
    """
    kind = objective.kind
    k = params.n_classes
    lam = float(objective.lam)
    logits, bpre, cache = forward_cached(params, X)
    n = X.shape[0]
    dlog = ce_logit_grad(logits, y)
    dlog /= n
    if kind == "confidence_branch_oe":
        # d(-log sigmoid(u))/du = sigmoid(u) - 1
        g = backward(params, cache, dlog, BRANCH_FIT_WEIGHT * (sigmoid(bpre) - 1.0) / n)
        if lam > 0:
            _, obpre, ocache = forward_cached(params, oe_X)
            m = oe_X.shape[0]
            g += backward(params, ocache, np.zeros((m, k)), lam * (1.0 - sigmoid(obpre)) / m)
        return g
    g = backward(params, cache, dlog)
    if kind == "multiclass_oe" and lam > 0:
        ologits, _, ocache = forward_cached(params, oe_X)
        g += backward(params, ocache, lam * (softmax(ologits) - 1.0 / k) / oe_X.shape[0])
    return g


def grad(params: NetworkParams, objective, in_batch: Batch, oe_batch: Batch | None = None) -> np.ndarray:
    """Exact gradient of a training objective, as a vector in the layout of
    params.vector.

    in_batch supplies labeled in-distribution examples; oe_batch supplies
    auxiliary outliers for the exposure objectives. The sequence-paired
    margin objective lives with the density model (density.margin_grad)
    because its batches are whole sequences, not rows.
    """
    uses_oe = _check_objective(params, objective, in_batch, oe_batch)
    return _objective_grad(
        params, objective, in_batch.inputs, in_batch.labels, oe_batch.inputs if uses_oe else None
    )


@dataclass
class OptimizerState:
    velocity: np.ndarray  # layout of NetworkParams.vector
    step_count: int
    lr0: float
    momentum: float
    weight_decay: float
    total_steps: int


def init_optimizer(
    params: NetworkParams,
    lr0: float,
    total_steps: int,
    momentum: float = 0.9,
    weight_decay: float = 5e-4,
) -> OptimizerState:
    if not lr0 > 0:
        raise ParameterError("lr0 must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ParameterError("momentum must lie in [0, 1)")
    if weight_decay < 0:
        raise ParameterError("weight_decay must be nonnegative")
    if int(total_steps) < 1:
        raise ParameterError("total_steps must be positive")
    return OptimizerState(
        np.zeros_like(params.vector), 0, float(lr0), float(momentum), float(weight_decay), int(total_steps)
    )


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Half-cosine decay: lr0 * 0.5 * (1 + cos(pi * step / total_steps))."""
    if total_steps <= 0:
        raise ParameterError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ParameterError("step outside the schedule range")
    if not lr0 > 0:
        raise ParameterError("lr0 must be positive")
    return float(lr0 * 0.5 * (1.0 + np.cos(np.pi * step / total_steps)))


def sgd_step(params: NetworkParams, grads: np.ndarray, state: OptimizerState) -> None:
    """One Nesterov SGD update of params.vector and state.velocity, in place.

    Weight decay joins the raw gradient and the learning rate follows the
    cosine schedule: gd = g + wd * p; v = m * v + gd; p -= lr * (gd + m * v).
    The gradient vector is only read.
    """
    p, v = params.vector, state.velocity
    if np.shape(grads) != p.shape or v.shape != p.shape:
        raise ConfigurationError("parameter, gradient, and velocity layouts differ")
    lr = cosine_lr(state.step_count, state.total_steps, state.lr0)
    gd = grads + state.weight_decay * p
    v *= state.momentum
    v += gd
    p -= lr * (gd + state.momentum * v)
    state.step_count += 1


def train_loop(
    params: NetworkParams,
    loss_grad,
    n_rows: int,
    *,
    n_oe: int = 0,
    epochs: int,
    batch_size: int,
    lr0: float,
    momentum: float = 0.9,
    weight_decay: float = 5e-4,
    seed=0,
) -> NetworkParams:
    """Minibatch Nesterov SGD on a cosine schedule; returns the trained copy.

    The input parameters are copied once and never touched. Each epoch
    visits the n_rows inlier rows in a fresh seeded permutation, in batches
    of batch_size (the last may be short). With n_oe > 0, outlier rows come
    cyclically from one seeded permutation drawn before the first epoch and
    are paired with inlier batches by position. loss_grad(net, idx, oe_idx)
    returns the gradient at net for those row indices (oe_idx is None
    without outliers). Raises DivergenceError after the first epoch that
    leaves a non-finite parameter.
    """
    if epochs < 1:
        raise ParameterError("epochs must be >= 1")
    if n_rows < 1:
        raise ConfigurationError("training needs at least one inlier row")
    net = params.copy()
    bs = min(int(batch_size), n_rows)
    steps_per_epoch = (n_rows + bs - 1) // bs
    state = init_optimizer(
        net, lr0, total_steps=epochs * steps_per_epoch, momentum=momentum, weight_decay=weight_decay
    )
    rng = np.random.default_rng(seed)
    if n_oe:
        oe_order = rng.permutation(n_oe)
        oe_ptr = 0
    for epoch in range(epochs):
        perm = rng.permutation(n_rows)
        for start in range(0, n_rows, bs):
            idx = perm[start : start + bs]
            oe_idx = None
            if n_oe:
                oe_idx = oe_order[(oe_ptr + np.arange(idx.size)) % n_oe]
                oe_ptr = (oe_ptr + idx.size) % n_oe
            sgd_step(net, loss_grad(net, idx, oe_idx), state)
        if not np.isfinite(net.vector).all():
            raise DivergenceError(f"parameters became non-finite in epoch {epoch + 1} of {epochs}")
    return net


def train_classifier(
    params: NetworkParams,
    objective,
    in_batch: Batch,
    oe_batch: Batch | None = None,
    **settings,
) -> NetworkParams:
    """train_loop on one of grad's objectives over whole-set batches.

    The batches are checked once per run; each step slices rows from them.
    settings are train_loop's keyword arguments other than n_oe.
    """
    uses_oe = _check_objective(params, objective, in_batch, oe_batch)
    X, y = in_batch.inputs, in_batch.labels
    oe_X = oe_batch.inputs if uses_oe else None

    def loss_grad(net, idx, oe_idx):
        return _objective_grad(net, objective, X[idx], y[idx], None if oe_idx is None else oe_X[oe_idx])

    return train_loop(params, loss_grad, X.shape[0], n_oe=0 if oe_X is None else oe_X.shape[0], **settings)


def save_params(params: NetworkParams, path) -> None:
    """Write parameters as little-endian binary: magic 'OEWB', version,
    layer count, dims, activation and head flags, then row-major f64 blocks."""
    params.validate()
    dims = params.layer_dims
    parts = [
        PARAMS_MAGIC,
        struct.pack("<I", PARAMS_VERSION),
        struct.pack("<I", len(dims)),
        struct.pack(f"<{len(dims)}I", *dims),
        struct.pack("<BB", _ACT_CODES[params.activation], 1 if params.branch is not None else 0),
    ]
    # the blocks are the parameter vector's layout, in order
    parts.append(np.ascontiguousarray(params.vector, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_params(path) -> NetworkParams:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read parameter file {path}: {exc.strerror or exc}") from exc
    if len(raw) < 12 or raw[:4] != PARAMS_MAGIC:
        raise DataError("not a parameter file (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != PARAMS_VERSION:
        raise DataError(f"unsupported parameter file version {version}")
    (n_dims,) = struct.unpack_from("<I", raw, 8)
    off = 12
    try:
        dims = list(struct.unpack_from(f"<{n_dims}I", raw, off))
        off += 4 * n_dims
        act_code, has_branch = struct.unpack_from("<BB", raw, off)
        off += 2
        if act_code not in _ACT_NAMES:
            raise DataError(f"unknown activation code {act_code}")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w_bytes = 8 * fan_in * fan_out
            weights.append(
                np.frombuffer(raw, dtype="<f8", count=fan_in * fan_out, offset=off).reshape(fan_out, fan_in).copy()
            )
            off += w_bytes
            biases.append(np.frombuffer(raw, dtype="<f8", count=fan_out, offset=off).copy())
            off += 8 * fan_out
        branch = None
        if has_branch:
            h = dims[-2]
            bw = np.frombuffer(raw, dtype="<f8", count=h, offset=off).copy()
            off += 8 * h
            bb = np.frombuffer(raw, dtype="<f8", count=1, offset=off).copy()
            off += 8
            branch = BranchHead(bw, bb)
    except (struct.error, ValueError) as exc:
        raise DataError(f"truncated or corrupt parameter file: {exc}") from exc
    if off != len(raw):
        raise DataError("parameter file has trailing or missing bytes")
    return NetworkParams(dims, weights, biases, branch, _ACT_NAMES[act_code]).validate()
