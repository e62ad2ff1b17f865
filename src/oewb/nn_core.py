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
on its own. forward, the pass of one net that scoring, calibration and
accuracy read, is forward_cached without the cache.

The classifier loss is the mean cross-entropy on labeled inliers plus lam
times the mean cross-entropy from the uniform distribution on auxiliary
outliers; lam = 0 is plain cross-entropy and reads no outliers.

A training step is dozens of small numpy calls, so the step avoids
per-call temporaries and short inner loops without reordering any float
operation: class sums add whole class columns in the order numpy's
reduce uses (class_sum), logit gradients are written over their logits,
the label entries are found through one flat index, and sgd_step swaps
only the operands of commutative operations.

train_loop steps a stack in lockstep: each net draws its own seeded
permutations and outlier order, and one Nesterov step updates the whole
(S, P) matrix in place. The loop alone draws batches: it gathers every
net's rows from each data array and from the outliers, through one
workspace per run, and hands them to the trainer's step gradient, so
train_classifier and density's MLE and margin trainers each supply only
the gradient of one step. The input parameters are copied once and never
mutated; seeded runs are bitwise reproducible.
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

    `vector` holds w0, b0, w1, b1, ... row-major, where weights[i] has
    shape (layer_dims[i+1], layer_dims[i]) and biases[i] has shape
    (layer_dims[i+1],), so the widths alone fix the layout. The weights and
    biases are views into `vector`; writing through a view writes the
    vector. Gradients and optimizer velocities use this layout. A stack
    (NetworkParams.stack) holds S nets as the rows of an (S, P) `vector`,
    and every view gains a leading axis of length S.
    """

    def __init__(self, layer_dims, vector, activation: str = "relu"):
        self.layer_dims = [int(d) for d in layer_dims]
        self.activation = activation
        self._slots, start = [], 0  # (start, stop, shape) of each array in a net's row
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            for shape in ((fan_out, fan_in), (fan_out,)):
                self._slots.append((start, start + math.prod(shape), shape))
                start += math.prod(shape)
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape[-1:] != (start,):
            raise ConfigurationError(f"layer widths {self.layer_dims} need {start} parameters per net, "
                                     f"got an array of shape {vector.shape}")
        self._bind(vector)

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
            if net.vector.ndim != 1 or net.layer_dims != first.layer_dims or net.activation != first.activation:
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
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ConfigurationError("layer_dims needs at least two positive entries")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
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
    parts = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        parts += [rng.uniform(-s, s, size=fan_out * fan_in), np.zeros(fan_out)]
    return NetworkParams(dims, np.concatenate(parts) if parts else np.empty(0), activation).validate()


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


def forward(params: NetworkParams, inputs) -> np.ndarray:
    """Class logits for the (n, d) rows of one net, as a fresh (n, k) array."""
    return forward_cached(params, inputs)[0]


def class_max(z: np.ndarray) -> np.ndarray:
    """z.max(axis=-1, keepdims=True), as one np.maximum per class column:
    over a handful of classes that is several times faster than a reduce
    along the short last axis, and the values are the same."""
    m = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(m, z[..., j:j + 1], out=m)
    return m


def class_sum(z: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """z.sum(axis=-1), bit for bit, as a few adds over whole class columns
    in the order numpy's reduce adds each row: a reduce along a short last
    axis costs more. Below 8 classes the reduce adds the entries one by one
    from 0.0; from 8 it sums 8 accumulators in the tree
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), adds the remaining entries one at
    a time and then joins its start value 0.0. Either way a -0.0 sum turns
    into +0.0. From 16 classes on the reduce's blocks of 8 cost more as
    columns than the reduce itself, so the reduce runs; so it does for an
    array that is not C-contiguous, which numpy may sum in another order.
    """
    k = z.shape[-1]
    if not 0 < k < 16 or not z.flags.c_contiguous:
        return z.sum(axis=-1, keepdims=keepdims)
    cols = z.reshape(-1, k).T
    if k < 8:
        s = 0.0 + cols[0]
        for c in cols[1:]:
            s += c
    else:
        r = cols[0:8:2] + cols[1:8:2]  # r0+r1, r2+r3, r4+r5, r6+r7
        r[0::2] += r[1::2]
        s = r[0]
        s += r[2]
        for c in cols[8:]:
            s += c
        s += 0.0
    s = s.reshape(z.shape[:-1])
    return s[..., None] if keepdims else s


def _shifted_exp(logits, temperature: float, out=None) -> np.ndarray:
    """exp(z - max z) per row, z = logits / temperature: softmax's numerators."""
    if not temperature > 0:
        raise ParameterError("temperature must be positive")
    z = np.asarray(logits, dtype=np.float64)
    if temperature != 1.0:
        z = z / temperature
    e = np.subtract(z, class_max(z), out=out)
    return np.exp(e, out=e)


def softmax(logits, out=None) -> np.ndarray:
    """Row-wise softmax of logits, max-subtracted for stability.

    out, when given, receives the result and may be the logits array.
    """
    e = _shifted_exp(logits, 1.0, out)
    e /= class_sum(e, keepdims=True)
    return e


def max_softmax(logits, temperature: float = 1.0, out=None) -> np.ndarray:
    """softmax(logits / temperature).max(axis=-1), bit for bit, as 1 / sum.

    The largest numerator is exp(0) = 1 exactly, and dividing every entry
    by the same sum is monotone, so no quotient rounds above 1 / sum. The
    sum is softmax's own reduction, whose order sets the bits. out, when
    given, holds the numerators and may be the logits array.
    """
    return 1.0 / class_sum(_shifted_exp(logits, temperature, out))


def log_softmax(logits) -> np.ndarray:
    """Row-wise log of softmax(logits), as a fresh array; logits are only read."""
    z = np.array(logits, dtype=np.float64)
    z -= class_max(z)
    z -= np.log(class_sum(np.exp(z), keepdims=True))
    return z


def ce_logit_grad(logits, labels: np.ndarray, out=None) -> np.ndarray:
    """softmax(logits) - one_hot(labels): the gradient of the summed
    cross-entropy with respect to the logits, as a fresh array or in out
    (which may be the logits array, and must be C-contiguous). The label
    entries are found through one flat index: row r's entry sits at
    r * k + labels[r] of the flattened rows."""
    out = softmax(logits, out=out)
    if not out.flags.c_contiguous:
        raise ConfigurationError("ce_logit_grad writes only into a C-contiguous array")
    at = np.arange(0, out.size, out.shape[-1])
    at += labels.ravel()
    out.reshape(-1)[at] -= 1.0
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
    in another order and move the bits. Each term's logit gradient is
    written over its logits, in the operation order of
    lam * (softmax(logits) - 1 / k) / m for the outlier term.
    """
    logits, cache = forward_cached(params, X, work)
    dlog = ce_logit_grad(logits, y, out=logits)
    dlog /= X.shape[-2]
    g = backward(params, cache, dlog, work)
    if lam > 0:
        ologits, ocache = forward_cached(params, oe_X, work)
        dout = softmax(ologits, out=ologits)
        dout -= 1.0 / params.n_classes
        dout *= lam
        dout /= oe_X.shape[-2]
        g += backward(params, ocache, dout, work)
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
    cosine schedule: gd = wd * p + g; v = m * v + gd; p -= lr * (m * v + gd).
    Each step allocates two arrays, gd and the step, and writes the rest in
    place; every operation is the expression's own, at most with the
    operands of a commutative one swapped, so the bits are the same. The
    gradient vector is only read.
    """
    p, v = params.vector, state.velocity
    if np.shape(grads) != p.shape or v.shape != p.shape:
        raise ConfigurationError("parameter, gradient, and velocity layouts differ")
    lr = cosine_lr(state.step_count, state.total_steps, state.lr0)
    gd = np.multiply(p, state.weight_decay)
    gd += grads
    v *= state.momentum
    v += gd
    step = np.multiply(v, state.momentum)
    step += gd
    step *= lr
    p -= step
    state.step_count += 1


def train_loop(
    params: NetworkParams,
    step_grad,
    data: tuple,
    oe: np.ndarray | None = None,
    *,
    epochs: int,
    batch_size: int,
    lr0: float,
    momentum: float = 0.9,
    weight_decay: float = 5e-4,
    seed,
) -> NetworkParams:
    """Minibatch Nesterov SGD on a cosine schedule; returns the trained copy.

    params is a stack of S nets (NetworkParams.stack), copied once and
    never touched, and seed a sequence of S shuffle seeds, one per net.
    data is a tuple of (S, n, ...) per-row arrays and oe the (S, m, ...)
    auxiliary outlier rows, or None. Each epoch visits the n inlier rows
    of every net in a fresh permutation from that net's seed, in batches
    of batch_size (the last may be short). With oe, each net's outlier
    rows come cyclically from one permutation drawn before its first
    epoch and are paired with its inlier batches by position. Every step
    gathers each net's batch rows from every data array, and its outlier
    rows from oe, and calls step_grad(net, batch, oe_batch, work) on the
    stack net with those (S, b, ...) arrays (oe_batch is None without
    outliers) and the run's one Workspace; it returns the (S, P)
    gradient. Every step is followed by a finiteness check of the whole
    stack; the first non-finite parameter raises DivergenceError naming
    the step and epoch, with the stack position of the first net that
    diverged as its member.
    """
    if epochs < 1:
        raise ParameterError("epochs must be >= 1")
    seeds = list(seed) if np.ndim(seed) == 1 else []
    if params.vector.ndim != 2 or len(seeds) != params.vector.shape[0]:
        raise ConfigurationError("training takes an (S, P) stack of nets and a sequence of S shuffle seeds")
    net = params.copy()
    n_rows = data[0].shape[1]
    if n_rows < 1:
        raise ConfigurationError("training needs at least one inlier row")
    if oe is not None and oe.shape[1] < 1:
        raise ConfigurationError("exposure training needs a nonempty outlier set")
    bs = min(int(batch_size), n_rows)
    steps_per_epoch = (n_rows + bs - 1) // bs
    state = init_optimizer(
        net, lr0, total_steps=epochs * steps_per_epoch, momentum=momentum, weight_decay=weight_decay
    )
    rngs = [np.random.default_rng(s) for s in seeds]
    rows = np.arange(len(seeds))[:, None]
    work = Workspace()
    oe_batch = None
    if oe is not None:
        n_oe = oe.shape[1]
        oe_order = np.stack([rng.permutation(n_oe) for rng in rngs])
        # every net takes as many outliers per step as the others, so one
        # pointer tracks the cyclic position of the whole stack
        oe_ptr = 0
    for epoch in range(epochs):
        perm = np.stack([rng.permutation(n_rows) for rng in rngs])
        for step, start in enumerate(range(0, n_rows, bs)):
            idx = perm[:, start : start + bs]
            if oe is not None:
                oe_batch = oe[rows, oe_order[:, (oe_ptr + np.arange(idx.shape[1])) % n_oe]]
                oe_ptr = (oe_ptr + idx.shape[1]) % n_oe
            batch = tuple(a[rows, idx] for a in data)
            sgd_step(net, step_grad(net, batch, oe_batch, work), state)
            if not np.isfinite(net.vector).all():
                member = int(np.argmin(np.isfinite(net.vector).all(axis=-1)))
                raise DivergenceError(
                    f"parameters became non-finite in step {step + 1} of {steps_per_epoch} "
                    f"of epoch {epoch + 1} of {epochs}",
                    member=member,
                )
    return net


def train_classifier(
    params: NetworkParams,
    lam: float,
    in_batch: Batch,
    oe_batch: Batch | None = None,
    **settings,
) -> NetworkParams:
    """train_loop on grad's classifier loss at outlier weight lam, over
    whole-set batches.

    params is a stack of S nets and the (S, n, d) batches hold each net's
    rows. The batches are checked once per run. settings are train_loop's
    keyword arguments, with one seed per net.
    """
    lam = _check_batches(params, lam, in_batch, oe_batch)

    def step_grad(net, batch, oe_X, work):
        return _objective_grad(net, lam, *batch, oe_X, work)

    oe = oe_batch.inputs if lam > 0 else None
    return train_loop(params, step_grad, (in_batch.inputs, in_batch.labels), oe, **settings)


def save_params(params: NetworkParams, path) -> None:
    """Write parameters as little-endian binary: magic 'OEWB', version,
    layer count, dims, activation code, a head-flag byte, then the
    parameter vector w0, b0, w1, b1, ... as row-major f64, whose layout
    follows from the dims. The head flag marked an extra output head in
    files of an earlier layout; it is always written as 0, and load_params
    refuses any other value."""
    params.validate()
    dims = params.layer_dims
    parts = [
        PARAMS_MAGIC,
        struct.pack("<I", PARAMS_VERSION),
        struct.pack("<I", len(dims)),
        struct.pack(f"<{len(dims)}I", *dims),
        struct.pack("<BB", _ACT_CODES[params.activation], 0),
        np.ascontiguousarray(params.vector, dtype="<f8").tobytes(),
    ]
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
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
        if len(raw) - off != 8 * size:
            raise DataError("trailing or missing bytes")
        vector = np.frombuffer(raw, dtype="<f8", count=size, offset=off).astype(np.float64)
        return NetworkParams(dims, vector, _ACT_NAMES[act_code]).validate()
    except (struct.error, ValidationError) as exc:  # struct raises on a truncated header
        raise DataError(f"bad parameter file {path}: {exc}") from exc
