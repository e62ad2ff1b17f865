"""Dense feed-forward classifiers with hand-derived gradients, and the one
minibatch SGD loop every model in the package trains with.

Everything here is plain NumPy in float64. A network's weights and biases
are views into one contiguous parameter array: a vector of shape (P,) for
one net, or an (S, P) matrix for a stack of S nets of one layout, one row
per net. Gradients and the optimizer velocity share that layout.
forward_cached, backward, sgd_step and the training gradient work on
either form: every matmul, bias add and reduction runs over the last axes,
so a stack puts one per-net BLAS call of the same shape and transpose flags
behind each layer, and every net of a stack gets the same bits it would get
on its own. forward, the cache-free pass of one net that scoring,
calibration and accuracy read, runs its rows in near-equal blocks of at
most FORWARD_ROWS: a row's logits depend on that row alone, and blocks of
at least FORWARD_ROWS // 2 rows stay on the BLAS kernel of one whole-set
call, so the blocks keep the bits while each block's activations reuse
two small buffers instead of a fresh full-size array per layer. The same
invariant lets a caller run just some rows of a set: a forward of at
least FORWARD_ROWS // 2 rows gives each of them the bits it gets in a
whole-set pass, so scoring.score_rows forwards a base-rate pool's kept
rows alone from that size up. Smaller forwards can move the last bits
and are run as part of the whole set.

The classifier loss is the mean cross-entropy on labeled inliers plus lam
times the mean cross-entropy from the uniform distribution on auxiliary
outliers; lam = 0 is plain cross-entropy and reads no outliers.

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

from .errors import ConfigurationError, DataError, DivergenceError, ParameterError, ValidationError

PARAMS_MAGIC = b"OEWB"
PARAMS_VERSION = 1

_ACT_CODES = {"relu": 0, "tanh": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}

# The most rows forward runs through the net at once.
FORWARD_ROWS = 4096


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


class NetworkParams:
    """Dense network parameters stored in one contiguous float64 array.

    weights[i] has shape (layer_dims[i+1], layer_dims[i]). The weights and
    biases are views into `vector`, laid out as w0, b0, w1, b1, ...;
    writing through a view writes the vector. Gradients and optimizer
    velocities use this layout. A stack (NetworkParams.stack) holds S nets
    as the rows of an (S, P) `vector`, and every view gains a leading axis
    of length S.
    """

    def __init__(self, layer_dims, weights, biases, activation: str = "relu"):
        arrays = [a for pair in zip(weights, biases) for a in pair]
        self.layer_dims = [int(d) for d in layer_dims]
        self.activation = activation
        self._slots, start = [], 0  # (start, stop, shape) of each array in a net's row
        for a in arrays:
            stop = start + math.prod(np.shape(a))
            self._slots.append((start, stop, np.shape(a)))
            start = stop
        flat = [np.asarray(a, dtype=np.float64).ravel() for a in arrays]
        self._bind(np.concatenate(flat) if flat else np.empty(0))

    def _bind(self, vector: np.ndarray) -> None:
        self.vector = vector
        views = self.arrays()
        self.weights = views[0::2]
        self.biases = views[1::2]

    def _with_vector(self, vector: np.ndarray) -> "NetworkParams":
        """Same layout over another parameter array, taken without copying."""
        out = object.__new__(NetworkParams)
        out.layer_dims, out.activation, out._slots = self.layer_dims, self.activation, self._slots
        out._bind(vector)
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


def init_network(layer_dims, seed, activation: str = "relu") -> NetworkParams:
    """Seeded uniform init with per-layer scale sqrt(6 / (fan_in + fan_out));
    biases start at zero."""
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in layer_dims]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-s, s, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkParams(dims, weights, biases, activation).validate()


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


def _delta_below(params: NetworkParams, i: int, delta, a, work: Workspace | None) -> np.ndarray:
    """The delta at the pre-activation of hidden layer i-1, written over its
    activation a = act(z) once a has been read: (delta @ W_i) * act'(z),
    where relu'(z) is a > 0 and tanh'(z) is 1 - a * a."""
    w = params.weights[i]
    if params.activation == "relu":
        mask = a > 0
        da = np.matmul(delta, w, out=a)
    else:
        mask = np.multiply(a, a, out=a)
        np.subtract(1.0, mask, out=mask)
        da = np.matmul(delta, w, out=_out(work, "delta", a.shape))
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
    """Forward pass keeping activations; returns (logits, cache).

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
    return z, acts


def _row_blocks(n: int) -> list[int]:
    """Bounds of the near-equal blocks of at most FORWARD_ROWS rows that
    forward splits n rows into: block j is rows bounds[j] to bounds[j+1].
    Sizes differ by at most one, so once n > FORWARD_ROWS every block has
    at least FORWARD_ROWS // 2 rows."""
    blocks = max(1, -(-n // FORWARD_ROWS))
    return [n * j // blocks for j in range(blocks + 1)]


def forward(params: NetworkParams, batch) -> np.ndarray:
    """Class logits for a batch of one net, as a fresh (n, k) array.

    The same arithmetic as forward_cached without the cache, run over the
    row blocks of _row_blocks: each block's hidden activations alternate
    between two block-sized buffers, and its last layer writes straight
    into its rows of the logits. Every output row is a function of its
    input row alone, and no block is small enough to move BLAS to another
    kernel, so the logits keep the bits of one whole-set pass.
    """
    a = _input_matrix(params, batch.inputs if isinstance(batch, Batch) else batch)
    n, last = a.shape[0], len(params.weights) - 1
    logits = np.empty((n, params.n_classes))
    work = Workspace()
    bounds = _row_blocks(n)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        h = a[lo:hi]
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = np.matmul(h, w.T, out=logits[lo:hi] if i == last else work.take(i % 2, (hi - lo, w.shape[0])))
            z += b
            if i < last:
                h = _act(z, params.activation)
    return logits


def class_max(z: np.ndarray) -> np.ndarray:
    """z.max(axis=-1, keepdims=True), as one np.maximum per class column:
    over a handful of classes that is several times faster than a reduce
    along the short last axis, and the values are the same."""
    m = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(m, z[..., j:j + 1], out=m)
    return m


def _shifted_exp(logits, temperature: float, out=None) -> np.ndarray:
    """exp(z - max z) per row, z = logits / temperature: softmax's numerators."""
    if not temperature > 0:
        raise ParameterError("temperature must be positive")
    z = np.asarray(logits, dtype=np.float64)
    if temperature != 1.0:
        z = z / temperature
    e = np.subtract(z, class_max(z), out=out)
    return np.exp(e, out=e)


def softmax(logits, temperature: float = 1.0, out=None) -> np.ndarray:
    """Row-wise softmax of logits / temperature, max-subtracted for stability.

    out, when given, receives the result and may be the logits array.
    """
    e = _shifted_exp(logits, temperature, out)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def max_softmax(logits, temperature: float = 1.0, out=None) -> np.ndarray:
    """softmax(logits, temperature).max(axis=-1), bit for bit, as 1 / sum.

    The largest numerator is exp(0) = 1 exactly, and dividing every entry
    by the same sum is monotone, so no quotient rounds above 1 / sum. The
    sum is softmax's own reduction, whose order sets the bits. out, when
    given, holds the numerators and may be the logits array.
    """
    return 1.0 / _shifted_exp(logits, temperature, out).sum(axis=-1)


def log_softmax(logits, temperature: float = 1.0) -> np.ndarray:
    if not temperature > 0:
        raise ParameterError("temperature must be positive")
    z = np.asarray(logits, dtype=np.float64) / temperature
    z -= class_max(z)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


def ce_logit_grad(logits, labels: np.ndarray, out=None) -> np.ndarray:
    """softmax(logits) - one_hot(labels): the gradient of the summed
    cross-entropy with respect to the logits, as a fresh array or in out
    (which may be the logits array)."""
    out = softmax(logits, out=out)
    out[(*np.indices(labels.shape, sparse=True), labels)] -= 1.0
    return out


def backward(params: NetworkParams, cache, dlogits, work: Workspace | None = None) -> np.ndarray:
    """Parameter gradient from per-example gradients at the logits.

    dlogits is (n, k); a stack adds its seed axis in front. The caller
    bakes any 1/n factors into this upstream gradient; this routine only
    applies the chain rule. It uses up the cache: each hidden
    activation is overwritten by the delta below it once it has been read.
    Returns a fresh array in the layout of params.vector.
    """
    acts = cache
    n_layers = len(params.weights)
    out = np.empty_like(params.vector)
    views = params.split(out)
    delta = np.asarray(dlogits, dtype=np.float64)
    for i in range(n_layers - 1, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), acts[i], out=views[2 * i])
        np.add.reduce(delta, axis=-2, out=views[2 * i + 1])
        if i > 0:
            delta = _delta_below(params, i, delta, acts[i], work)
    return out


def _check_batches(params: NetworkParams, lam, in_batch, oe_batch) -> float:
    """Reject a negative lam and batches the loss cannot use; returns lam
    as a float. The outlier batch is needed, and read, only when lam > 0."""
    lam = float(lam)
    if not lam >= 0:
        raise ParameterError("lam must be nonnegative")
    if in_batch is None or len(in_batch) == 0:
        raise ConfigurationError("training needs a nonempty in-distribution batch")
    if in_batch.labels is None:
        raise ConfigurationError("training needs labels on the in-distribution batch")
    if np.any(in_batch.labels >= params.n_classes):
        raise DataError(f"class label out of range for {params.n_classes} classes")
    if lam > 0 and (oe_batch is None or len(oe_batch) == 0):
        raise ConfigurationError("positive lam needs a nonempty outlier batch")
    return lam


def _objective_grad(params: NetworkParams, lam: float, X, y, oe_X, work: Workspace | None = None) -> np.ndarray:
    """The gradient behind grad and train_classifier, on checked rows.

    X, y and oe_X carry the seed axis of a stack when params is one; oe_X
    is read only when lam > 0. The inlier pass is done with the workspace
    before the outlier pass takes it. Inlier and outlier terms keep
    separate forward/backward passes whose gradients are summed with one
    +=: one pass over the concatenated rows would sum the weight gradients
    in another order and move the bits.
    """
    logits, cache = forward_cached(params, X, work)
    dlog = ce_logit_grad(logits, y)
    dlog /= X.shape[-2]
    g = backward(params, cache, dlog, work)
    if lam > 0:
        ologits, ocache = forward_cached(params, oe_X, work)
        g += backward(params, ocache, lam * (softmax(ologits) - 1.0 / params.n_classes) / oe_X.shape[-2], work)
    return g


def grad(params: NetworkParams, lam: float, in_batch: Batch, oe_batch: Batch | None = None) -> np.ndarray:
    """Exact gradient of the classifier loss at outlier weight lam, as an
    array in the layout of params.vector (one row per net for a stack with
    stacked batches).

    in_batch supplies labeled in-distribution examples; oe_batch supplies
    auxiliary outliers, read only when lam > 0. The sequence-paired margin
    loss lives with the density model (density.margin_grad) because its
    batches are whole sequences, not rows.
    """
    lam = _check_batches(params, lam, in_batch, oe_batch)
    return _objective_grad(params, lam, in_batch.inputs, in_batch.labels, oe_batch.inputs if lam > 0 else None)


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
    lam: float,
    in_batch: Batch,
    oe_batch: Batch | None = None,
    **settings,
) -> NetworkParams:
    """train_loop on grad's classifier loss at outlier weight lam, over
    whole-set batches.

    One net takes (n, d) batches; a stack of S nets takes (S, n, d) batches
    that hold each net's rows, and one seed per net. The batches are
    checked once per run; each step gathers every net's rows from them.
    settings are train_loop's keyword arguments other than n_oe.
    """
    lam = _check_batches(params, lam, in_batch, oe_batch)
    X, y, oe_X = with_seed_axis(params, in_batch.inputs, in_batch.labels, oe_batch.inputs if lam > 0 else None)
    rows = np.arange(X.shape[0])[:, None]
    work = Workspace()

    def loss_grad(net, idx, oe_idx):
        oe_rows = None if oe_idx is None else oe_X[rows, oe_idx]
        return _objective_grad(net, lam, X[rows, idx], y[rows, idx], oe_rows, work)

    return train_loop(params, loss_grad, X.shape[1], n_oe=0 if oe_X is None else oe_X.shape[1], **settings)


def save_params(params: NetworkParams, path) -> None:
    """Write parameters as little-endian binary: magic 'OEWB', version,
    layer count, dims, activation code, a head-flag byte, then row-major
    f64 blocks. The head flag marked an extra output head in files of an
    earlier layout; it is always written as 0, and load_params refuses any
    other value."""
    params.validate()
    dims = params.layer_dims
    parts = [
        PARAMS_MAGIC,
        struct.pack("<I", PARAMS_VERSION),
        struct.pack("<I", len(dims)),
        struct.pack(f"<{len(dims)}I", *dims),
        struct.pack("<BB", _ACT_CODES[params.activation], 0),
    ]
    # the blocks are the parameter vector's layout, in order
    parts.append(np.ascontiguousarray(params.vector, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_params(path) -> NetworkParams:
    """The net save_params wrote to path; every refusal is a DataError naming the file."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read parameter file {path}: {exc.strerror or exc}") from exc
    try:
        if len(raw) < 12 or raw[:4] != PARAMS_MAGIC:
            raise DataError("not a parameter file (bad magic)")
        version, n_dims = struct.unpack_from("<II", raw, 4)
        if version != PARAMS_VERSION:
            raise DataError(f"unsupported parameter file version {version}")
        off = 12
        dims = list(struct.unpack_from(f"<{n_dims}I", raw, off))
        off += 4 * n_dims
        act_code, head_flag = struct.unpack_from("<BB", raw, off)
        off += 2
        if act_code not in _ACT_NAMES:
            raise DataError(f"unknown activation code {act_code}")
        if head_flag != 0:
            raise DataError(f"head flag {head_flag}; only head-less nets (flag 0) load")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(
                np.frombuffer(raw, dtype="<f8", count=fan_in * fan_out, offset=off).reshape(fan_out, fan_in).copy()
            )
            off += 8 * fan_in * fan_out
            biases.append(np.frombuffer(raw, dtype="<f8", count=fan_out, offset=off).copy())
            off += 8 * fan_out
        if off != len(raw):
            raise DataError("trailing or missing bytes")
        return NetworkParams(dims, weights, biases, _ACT_NAMES[act_code]).validate()
    except (struct.error, ValueError, ValidationError) as exc:  # struct and numpy raise on truncation
        raise DataError(f"bad parameter file {path}: {exc}") from exc
