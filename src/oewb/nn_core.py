"""Dense feed-forward classifiers with hand-derived gradients, and the one
minibatch SGD loop every model in the package trains with.

Everything here is plain NumPy in float64. A network's weights, biases and
optional scalar confidence head are views into one contiguous parameter
array: a vector of shape (P,) for one net, or an (S, P) matrix for a stack
of S nets of one layout, one row per net. Gradients and the optimizer
velocity share that layout. forward_cached, backward, sgd_step and the
objective gradients work on either form: every matmul, bias add and
reduction runs over the last axes, so a stack puts one per-net BLAS call
of the same shape and transpose flags behind each layer, and every net of
a stack gets the same bits it would get on its own.

train_loop steps a stack in lockstep: each net draws its own seeded
permutations and outlier order, and one Nesterov step updates the whole
(S, P) matrix in place. A single net trains as a stack of one. The input
parameters are copied once and never mutated; seeded runs are bitwise
reproducible.
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
    """Row-vector inputs with optional integer class labels: an (n, d)
    matrix with (n,) labels, or an (S, n, d) stack with (S, n) labels that
    feeds a stack of S nets."""

    inputs: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim not in (2, 3) or self.inputs.shape[-2] < 1:
            raise ConfigurationError("batch inputs must form a nonempty (n, d) matrix")
        if not np.all(np.isfinite(self.inputs)):
            raise DataError("batch inputs contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != self.inputs.shape[:-1]:
                raise ConfigurationError("labels must supply one class index per example")
            if np.any(self.labels < 0):
                raise DataError("negative class label")

    def __len__(self):
        return self.inputs.shape[-2]


@dataclass
class BranchHead:
    """Scalar confidence head: maps the last hidden layer to one real."""

    weight: np.ndarray  # (..., last_hidden_dim)
    bias: np.ndarray  # (..., 1)


class NetworkParams:
    """Dense network parameters stored in one contiguous float64 array.

    weights[i] has shape (layer_dims[i+1], layer_dims[i]). The weights,
    biases and confidence head are views into `vector`, laid out as
    w0, b0, w1, b1, ..., head weight, head bias; writing through a view
    writes the vector. Gradients and optimizer velocities use this layout.
    A stack (NetworkParams.stack) holds S nets as the rows of an (S, P)
    `vector`, and every view gains a leading axis of length S.
    """

    def __init__(self, layer_dims, weights, biases, branch: BranchHead | None = None,
                 activation: str = "relu"):
        arrays = [a for pair in zip(weights, biases) for a in pair]
        if branch is not None:
            arrays += [branch.weight, branch.bias]
        self.layer_dims = [int(d) for d in layer_dims]
        self.activation = activation
        self._slots, start = [], 0  # (start, stop, shape) of each array in a net's row
        for a in arrays:
            stop = start + math.prod(np.shape(a))
            self._slots.append((start, stop, np.shape(a)))
            start = stop
        flat = [np.asarray(a, dtype=np.float64).ravel() for a in arrays]
        self._bind(np.concatenate(flat) if flat else np.empty(0), branch is not None)

    def _bind(self, vector: np.ndarray, has_branch: bool) -> None:
        self.vector = vector
        views = self.arrays()
        n = len(views) - 2 if has_branch else len(views)
        self.weights = views[0:n:2]
        self.biases = views[1:n:2]
        self.branch = BranchHead(*views[n:]) if has_branch else None

    def _with_vector(self, vector: np.ndarray) -> "NetworkParams":
        """Same layout over another parameter array, taken without copying."""
        out = object.__new__(NetworkParams)
        out.layer_dims, out.activation, out._slots = self.layer_dims, self.activation, self._slots
        out._bind(vector, self.branch is not None)
        return out

    @classmethod
    def stack(cls, nets) -> "NetworkParams":
        """S single nets of one layout as a stack over a fresh (S, P) matrix."""
        first = nets[0]
        for net in nets:
            if (net.vector.ndim != 1 or net.layer_dims != first.layer_dims or net._slots != first._slots
                    or net.activation != first.activation):
                raise ConfigurationError("only single nets of one layout can be stacked")
        return first._with_vector(np.stack([net.vector for net in nets]))

    def unstack(self) -> list:
        """The nets of a stack, each over a fresh copy of its row."""
        return [self._with_vector(row.copy()) for row in self.vector]

    def split(self, array: np.ndarray) -> list[np.ndarray]:
        """Views into an array of this layout, in arrays() order."""
        lead = array.shape[:-1]
        return [array[..., start:stop].reshape(*lead, *shape) for start, stop, shape in self._slots]

    def validate(self) -> "NetworkParams":
        dims = self.layer_dims
        if len(dims) < 2 or any(int(d) < 1 for d in dims):
            raise ConfigurationError("layer_dims needs at least two positive entries")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ConfigurationError("expected one weight/bias pair per layer transition")
        shapes = [shape for _, _, shape in self._slots]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if shapes[2 * i] != (dims[i + 1], dims[i]) or shapes[2 * i + 1] != (dims[i + 1],):
                raise ConfigurationError(f"layer {i} parameter shapes do not match layer_dims")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise DataError(f"layer {i} has non-finite parameters")
        if self.activation not in _ACT_CODES:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if self.branch is not None:
            if shapes[-2] != (dims[-2],) or shapes[-1] != (1,):
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
        """Same layout over a fresh copy of the parameter array."""
        return self._with_vector(self.vector.copy())

    def arrays(self) -> list[np.ndarray]:
        """Per-layer views of the parameter array, in layout order."""
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


class Workspace:
    """float64 arrays that every step of one training run reuses, by role.

    A stack's activations are large enough that allocating them afresh on
    every step costs more in page faults than the arithmetic they hold.
    Each role keeps one buffer, grown to the largest shape asked of it; an
    array taken for a role is overwritten by the next pass that takes it.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, role, shape) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(role)
        if buf is None or buf.size < size:
            buf = self._buffers[role] = np.empty(size)
        return buf[:size].reshape(shape)


def _out(work: Workspace | None, role, shape):
    """An output array from the workspace, or None to let numpy allocate."""
    return None if work is None else work.take(role, shape)


def _act(z: np.ndarray, name: str) -> np.ndarray:
    """The activation of z, written over z."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    return np.tanh(z, out=z)


def _delta_below(params: NetworkParams, i: int, delta, a, branch_delta, work: Workspace | None) -> np.ndarray:
    """The delta at the pre-activation of hidden layer i-1, written over its
    activation a = act(z) once a has been read: (delta @ W_i) * act'(z),
    where relu'(z) is a > 0 and tanh'(z) is 1 - a * a. branch_delta, when
    given, adds the confidence head's share of the backpropagated delta."""
    w = params.weights[i]
    if params.activation == "relu":
        mask = a > 0
        da = np.matmul(delta, w, out=a)
    else:
        mask = np.multiply(a, a, out=a)
        np.subtract(1.0, mask, out=mask)
        da = np.matmul(delta, w, out=_out(work, "delta", a.shape))
    if branch_delta is not None:
        da += branch_delta[..., :, None] * params.branch.weight[..., None, :]
    return np.multiply(da, mask, out=a)


def _input_matrix(params: NetworkParams, inputs) -> np.ndarray:
    """inputs as float64 rows: (n, d) for one net, (S, n, d) for a stack of S."""
    X = np.asarray(inputs, dtype=np.float64)
    lead = params.vector.shape[:-1]
    if X.ndim != len(lead) + 2 or X.shape[:-2] != lead:
        raise ConfigurationError("inputs must form an (n, d) matrix per net")
    if X.shape[-1] != params.input_dim:
        raise ConfigurationError(
            f"input width {X.shape[-1]} does not match network input dim {params.input_dim}"
        )
    return X


def forward_cached(params: NetworkParams, inputs, work: Workspace | None = None) -> tuple:
    """Forward pass keeping activations; returns (logits, branch_pre, cache).

    The cache lists the input of every layer: the rows, then each hidden
    activation, which is applied in place to its pre-activation. For a
    stack every array gains the leading seed axis of params.vector. With a
    workspace, the logits and cache live in its arrays until the next
    forward pass through it.
    """
    X = _input_matrix(params, inputs)
    acts = [X]
    a = X
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = np.matmul(a, w.swapaxes(-1, -2), out=_out(work, ("layer", i), (*a.shape[:-1], w.shape[-2])))
        z += b[..., None, :]
        if i < last:
            a = _act(z, params.activation)
            acts.append(a)
    branch_pre = None
    if params.branch is not None:
        head = params.branch
        branch_pre = (acts[-1] @ head.weight[..., None])[..., 0] + head.bias
    return z, branch_pre, acts


def forward(params: NetworkParams, batch):
    """Class logits for a batch, plus the confidence pre-activation when a head exists.

    The same arithmetic as forward_cached without the cache: each hidden
    activation is dropped once the next layer has read it.
    """
    a = _input_matrix(params, batch.inputs if isinstance(batch, Batch) else batch)
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w.T
        z += b
        if i == last:
            break
        a = _act(z, params.activation)
    branch_pre = None
    if params.branch is not None:
        branch_pre = a @ params.branch.weight + params.branch.bias[0]
    return z, branch_pre


def class_max(z: np.ndarray) -> np.ndarray:
    """z.max(axis=-1, keepdims=True), as one np.maximum per class column:
    over a handful of classes that is several times faster than a reduce
    along the short last axis, and the values are the same."""
    m = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(m, z[..., j:j + 1], out=m)
    return m


def softmax(logits, temperature: float = 1.0, out=None) -> np.ndarray:
    """Row-wise softmax of logits / temperature, max-subtracted for stability.

    out, when given, receives the result and may be the logits array.
    """
    if not temperature > 0:
        raise ParameterError("temperature must be positive")
    z = np.asarray(logits, dtype=np.float64)
    if temperature != 1.0:
        z = z / temperature
    e = np.subtract(z, class_max(z), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax(logits, temperature: float = 1.0) -> np.ndarray:
    if not temperature > 0:
        raise ParameterError("temperature must be positive")
    z = np.asarray(logits, dtype=np.float64) / temperature
    z -= class_max(z)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


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


def ce_logit_grad(logits, labels: np.ndarray, out=None) -> np.ndarray:
    """softmax(logits) - one_hot(labels): the gradient of the summed
    cross-entropy with respect to the logits, as a fresh array or in out
    (which may be the logits array)."""
    out = softmax(logits, out=out)
    out[(*np.indices(labels.shape, sparse=True), labels)] -= 1.0
    return out


def backward(params: NetworkParams, cache, dlogits, dbranch_pre=None, work: Workspace | None = None) -> np.ndarray:
    """Parameter gradient from per-example gradients at the network outputs.

    dlogits is (n, k); dbranch_pre, when given, is (n,) with respect to the
    raw confidence pre-activation; a stack adds its seed axis in front. The
    caller bakes any 1/n factors into these upstream gradients; this
    routine only applies the chain rule. It uses up the cache: each hidden
    activation is overwritten by the delta below it once it has been read.
    Returns a fresh array in the layout of params.vector.
    """
    acts = cache
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
            np.matmul(acts[n_layers - 1].swapaxes(-1, -2), branch_delta[..., None], out=gbw[..., None])
            gbb[...] = branch_delta.sum(axis=-1, keepdims=True)
    delta = np.asarray(dlogits, dtype=np.float64)
    for i in range(n_layers - 1, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), acts[i], out=views[2 * i])
        np.add.reduce(delta, axis=-2, out=views[2 * i + 1])
        if i > 0:
            head_delta = branch_delta if i == n_layers - 1 else None
            delta = _delta_below(params, i, delta, acts[i], head_delta, work)
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


def _objective_grad(params: NetworkParams, objective, X, y, oe_X, work: Workspace | None = None) -> np.ndarray:
    """The gradient behind grad and train_classifier, on checked rows.

    X, y and oe_X carry the seed axis of a stack when params is one. The
    inlier pass is done with the workspace before the outlier pass takes it.
    Inlier and outlier terms keep separate forward/backward passes whose
    gradients are summed with one +=: one pass over the concatenated rows
    would sum the weight gradients in another order and move the bits.
    """
    kind = objective.kind
    k = params.n_classes
    lam = float(objective.lam)
    logits, bpre, cache = forward_cached(params, X, work)
    n = X.shape[-2]
    dlog = ce_logit_grad(logits, y)
    dlog /= n
    if kind == "confidence_branch_oe":
        # d(-log sigmoid(u))/du = sigmoid(u) - 1
        g = backward(params, cache, dlog, BRANCH_FIT_WEIGHT * (sigmoid(bpre) - 1.0) / n, work)
        if lam > 0:
            _, obpre, ocache = forward_cached(params, oe_X, work)
            m = oe_X.shape[-2]
            g += backward(params, ocache, np.zeros((*obpre.shape, k)), lam * (1.0 - sigmoid(obpre)) / m, work)
        return g
    g = backward(params, cache, dlog, work=work)
    if kind == "multiclass_oe" and lam > 0:
        ologits, _, ocache = forward_cached(params, oe_X, work)
        g += backward(params, ocache, lam * (softmax(ologits) - 1.0 / k) / oe_X.shape[-2], work=work)
    return g


def grad(params: NetworkParams, objective, in_batch: Batch, oe_batch: Batch | None = None) -> np.ndarray:
    """Exact gradient of a training objective, as an array in the layout of
    params.vector (one row per net for a stack with stacked batches).

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
    """One Nesterov SGD update of params.vector and state.velocity, in place,
    for one net or a whole stack.

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

    params is one net with one shuffle seed, or a stack of S nets with a
    sequence of S seeds; a single net trains as a stack of one and comes
    back single. The input parameters are copied once and never touched.
    Each epoch visits the n_rows inlier rows of every net in a fresh
    permutation from that net's seed, in batches of batch_size (the last
    may be short). With n_oe > 0, each net's outlier rows come cyclically
    from one permutation drawn before its first epoch and are paired with
    its inlier batches by position. loss_grad(net, idx, oe_idx) returns the
    (S, P) gradient at the stack net for (S, b) row indices, one row of
    indices per net (oe_idx is None without outliers). Every step is
    followed by a finiteness check of the whole stack; the first non-finite
    parameter raises DivergenceError naming the step and epoch, with the
    stack position of the first net that diverged as its member.
    """
    if epochs < 1:
        raise ParameterError("epochs must be >= 1")
    if n_rows < 1:
        raise ConfigurationError("training needs at least one inlier row")
    single = params.vector.ndim == 1
    net = NetworkParams.stack([params]) if single else params.copy()
    seeds = [seed] if single else list(seed)
    if len(seeds) != net.vector.shape[0]:
        raise ConfigurationError("a training stack needs one shuffle seed per net")
    bs = min(int(batch_size), n_rows)
    steps_per_epoch = (n_rows + bs - 1) // bs
    state = init_optimizer(
        net, lr0, total_steps=epochs * steps_per_epoch, momentum=momentum, weight_decay=weight_decay
    )
    rngs = [np.random.default_rng(s) for s in seeds]
    if n_oe:
        oe_order = np.stack([rng.permutation(n_oe) for rng in rngs])
        # every net takes as many outliers per step as the others, so one
        # pointer tracks the cyclic position of the whole stack
        oe_ptr = 0
    for epoch in range(epochs):
        perm = np.stack([rng.permutation(n_rows) for rng in rngs])
        for step, start in enumerate(range(0, n_rows, bs)):
            idx = perm[:, start : start + bs]
            oe_idx = None
            if n_oe:
                oe_idx = oe_order[:, (oe_ptr + np.arange(idx.shape[1])) % n_oe]
                oe_ptr = (oe_ptr + idx.shape[1]) % n_oe
            sgd_step(net, loss_grad(net, idx, oe_idx), state)
            if not np.isfinite(net.vector).all():
                member = int(np.argmin(np.isfinite(net.vector).all(axis=-1)))
                raise DivergenceError(
                    f"parameters became non-finite in step {step + 1} of {steps_per_epoch} "
                    f"of epoch {epoch + 1} of {epochs}",
                    member=member,
                )
    return net.unstack()[0] if single else net


def with_seed_axis(params: NetworkParams, *arrays) -> tuple:
    """arrays as train_loop's loss_grad indexes them, with a leading seed
    axis: as given for a stack's data, with one added for one net's data."""
    if params.vector.ndim == 2:
        return arrays
    return tuple(None if a is None else a[None] for a in arrays)


def train_classifier(
    params: NetworkParams,
    objective,
    in_batch: Batch,
    oe_batch: Batch | None = None,
    **settings,
) -> NetworkParams:
    """train_loop on one of grad's objectives over whole-set batches.

    One net takes (n, d) batches; a stack of S nets takes (S, n, d) batches
    that hold each net's rows, and one seed per net. The batches are
    checked once per run; each step gathers every net's rows from them.
    settings are train_loop's keyword arguments other than n_oe.
    """
    uses_oe = _check_objective(params, objective, in_batch, oe_batch)
    X, y, oe_X = with_seed_axis(params, in_batch.inputs, in_batch.labels, oe_batch.inputs if uses_oe else None)
    rows = np.arange(X.shape[0])[:, None]
    work = Workspace()

    def loss_grad(net, idx, oe_idx):
        oe_rows = None if oe_idx is None else oe_X[rows, oe_idx]
        return _objective_grad(net, objective, X[rows, idx], y[rows, idx], oe_rows, work)

    return train_loop(params, loss_grad, X.shape[1], n_oe=0 if oe_X is None else oe_X.shape[1], **settings)


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
