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
the label entries are found through one flat index, relu takes its max
against a zero array rather than the scalar 0.0, bias gradients are summed
by einsum above width 1, and sgd_step swaps only the operands of
commutative operations.

train_loop steps a stack in lockstep: each net draws its own seeded
permutations and outlier order, and one Nesterov step updates the whole
(S, P) matrix in place. The loop alone draws batches: it gathers every
net's rows from each data array and from the outliers and hands them to
the trainer's step gradient, so train_classifier and density's MLE and
margin trainers each supply only the gradient of one step. The input
parameters are copied once and never mutated; seeded runs are bitwise
reproducible.

A run binds once what its steps derive from shapes alone: a net its
transposed weights and bias rows, the run's Workspace every buffer and
view a step writes or reads. Every pass takes its arrays from a
workspace: a run passes its own, and each one-off entry point (forward,
grad, max_softmax, log_softmax) makes one per call. A gradient that
forward_cached and backward compute is the workspace's array, valid until
the run's next step; sgd_step reads it before then.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DivergenceError, ValidationError

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
            raise ValidationError("batch inputs must form a nonempty (n, d) matrix")
        if not np.all(np.isfinite(self.inputs)):
            raise ValidationError("batch inputs contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != self.inputs.shape[:-1]:
                raise ValidationError("labels must supply one class index per example")
            if np.any(self.labels < 0):
                raise ValidationError("negative class label")

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
            raise ValidationError(f"layer widths {self.layer_dims} need {start} parameters per net, "
                                  f"got an array of shape {vector.shape}")
        self.vector = vector
        views = self.arrays()
        self.weights = views[0::2]
        self.biases = views[1::2]
        # the transposed weights and bias rows that forward_cached reads
        self._weights_t = [w.swapaxes(-1, -2) for w in self.weights]
        self._bias_rows = [b[..., None, :] for b in self.biases]

    @classmethod
    def stack(cls, nets) -> "NetworkParams":
        """S single nets of one layout as a stack over a fresh (S, P) matrix."""
        first = nets[0]
        for net in nets:
            if net.vector.ndim != 1 or net.layer_dims != first.layer_dims or net.activation != first.activation:
                raise ValidationError("only single nets of one layout can be stacked")
        return cls(first.layer_dims, np.stack([net.vector for net in nets]), first.activation)

    def unstack(self) -> list:
        """The nets of a stack, each over a fresh copy of its row."""
        return [NetworkParams(self.layer_dims, row.copy(), self.activation) for row in self.vector]

    def split(self, array: np.ndarray) -> list[np.ndarray]:
        """Views into an array of this layout, in arrays() order."""
        lead = array.shape[:-1]
        return [array[..., start:stop].reshape(*lead, *shape) for start, stop, shape in self._slots]

    def validate(self) -> "NetworkParams":
        dims = self.layer_dims
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValidationError("layer_dims needs at least two positive entries")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValidationError(f"layer {i} has non-finite parameters")
        if self.activation not in _ACT_CODES:
            raise ValidationError(f"unknown activation {self.activation!r}")
        return self

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "NetworkParams":
        """Same layout over a fresh copy of the parameter array."""
        return NetworkParams(self.layer_dims, self.vector.copy(), self.activation)

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
    """Where every pass gets its arrays: what the steps of one training run
    reuse, buffers by role and whatever a step derives from array shapes
    alone. A one-off call makes a workspace of its own.

    A stack's activations are large enough that allocating them afresh on
    every step costs more in page faults than the arithmetic they hold,
    and a step is dozens of numpy calls on small arrays, whose fixed cost
    every view cut and every array allocated per call adds to. So a
    workspace keeps
    - one buffer per role, grown to the largest shape asked of it, and
      the view of it that take hands out for each shape;
    - one gradient array per role, with its per-layer views (grad);
    - helpers bound to one array (bound): the class columns and result
      buffers of class_max and class_sum, and the flat view and run
      starts of a scatter, kept until another array asks for them, as a
      short batch does once per epoch;
    - one read-only zero array per shape (zeros), which relu reads.
    An array taken for a role is overwritten by the next pass that takes
    it, and a gradient by the next backward pass of its role: in a
    training run, by the next step.
    """

    def __init__(self):
        self._buffers = {}  # role -> flat buffer
        self._views = {}  # (role, shape, dtype) -> view of the role's buffer
        self._grads = {}  # role -> (array, its per-layer views, the layout they follow)
        self._bound = {}  # (make, *args) -> (array, make(array, *args))
        self._zeros = {}  # shape -> read-only zero array

    def take(self, role, shape: tuple, dtype=np.float64) -> np.ndarray:
        """The role's buffer as an array of shape, which the next take of
        the role overwrites. A role holds one dtype."""
        view = self._views.get((role, shape, dtype))
        if view is None:
            size = math.prod(shape)
            buf = self._buffers.get(role)
            if buf is not None and buf.dtype != dtype:
                raise TypeError(f"workspace role {role!r} holds {buf.dtype}, not {np.dtype(dtype)}")
            if buf is None or buf.size < size:
                buf = self._buffers[role] = np.empty(size, dtype)
                # the views of an outgrown buffer are not handed out again
                self._views = {key: v for key, v in self._views.items() if key[0] != role}
            view = self._views[role, shape, dtype] = buf[:size].reshape(shape)
        return view

    def grad(self, role, params: NetworkParams) -> tuple:
        """(array, per-layer views) in the layout of params.vector: the
        gradient of role, which the next backward pass of role overwrites."""
        entry = self._grads.get(role)
        if entry is None or entry[2] is not params._slots or entry[0].shape != params.vector.shape:
            g = np.empty_like(params.vector)
            entry = self._grads[role] = (g, params.split(g), params._slots)
        return entry[0], entry[1]

    def bound(self, make, array: np.ndarray, *args):
        """make(array, *args), made again only when another array asks."""
        key = (make, *args)
        entry = self._bound.get(key)
        if entry is None or entry[0] is not array:
            entry = self._bound[key] = (array, make(array, *args))
        return entry[1]

    def zeros(self, shape: tuple) -> np.ndarray:
        """A C-contiguous zero array of shape, made once per shape and
        read-only, so no write can leave it nonzero."""
        z = self._zeros.get(shape)
        if z is None:
            z = self._zeros[shape] = np.zeros(shape)
            z.flags.writeable = False
        return z


def _act(z: np.ndarray, name: str, work: Workspace) -> np.ndarray:
    """The activation of z, written over z. Relu takes the max against the
    workspace's zero array of z's shape, for the bits of a max against the
    scalar 0.0, whose loop numpy runs several times slower."""
    if name == "relu":
        return np.maximum(z, work.zeros(z.shape), out=z)
    return np.tanh(z, out=z)


def _delta_below(params: NetworkParams, i: int, delta, a, work: Workspace) -> np.ndarray:
    """The delta at the pre-activation of hidden layer i-1, written over its
    activation a = act(z) once a has been read: (delta @ W_i) * act'(z),
    where relu'(z) is a > 0 and tanh'(z) is 1 - a * a."""
    w = params.weights[i]
    if params.activation == "relu":
        mask = np.greater(a, 0, out=work.take(("mask", i), a.shape, bool))
        da = np.matmul(delta, w, out=a)
    else:
        mask = np.multiply(a, a, out=a)
        np.subtract(1.0, mask, out=mask)
        da = np.matmul(delta, w, out=work.take("delta", a.shape))
    return np.multiply(da, mask, out=a)


def _input_matrix(params: NetworkParams, inputs) -> np.ndarray:
    """inputs as float64 rows: (n, d) for one net, (S, n, d) for a stack of S."""
    X = np.asarray(inputs, dtype=np.float64)
    lead = params.vector.shape[:-1]
    if X.ndim != len(lead) + 2 or X.shape[:-2] != lead:
        raise ValidationError("inputs must form an (n, d) matrix per net")
    if X.shape[-1] != params.input_dim:
        raise ValidationError(
            f"input width {X.shape[-1]} does not match network input dim {params.input_dim}"
        )
    return X


def forward_cached(params: NetworkParams, inputs, work: Workspace) -> tuple:
    """Forward pass keeping activations; returns (logits, cache).

    The cache lists the input of every layer: the rows, then each hidden
    activation, which is applied in place to its pre-activation. For a
    stack every array gains the leading seed axis of params.vector. The
    logits and cache live in the workspace's arrays until the next forward
    pass through it.
    """
    X = _input_matrix(params, inputs)
    acts = [X]
    a = X
    last = len(params.weights) - 1
    for i, (w_t, b_row) in enumerate(zip(params._weights_t, params._bias_rows)):
        z = np.matmul(a, w_t, out=work.take(("layer", i), (*a.shape[:-1], w_t.shape[-1])))
        z += b_row
        if i < last:
            a = _act(z, params.activation, work)
            acts.append(a)
    return z, acts


def forward(params: NetworkParams, inputs) -> np.ndarray:
    """Class logits for the (n, d) rows of one net, as a fresh (n, k) array."""
    return forward_cached(params, inputs, Workspace())[0]


class _ClassMax:
    """class_max over one array, its class columns cut once."""

    def __init__(self, z: np.ndarray):
        cols = [z[..., j:j + 1] for j in range(z.shape[-1])]
        self.first, self.rest = cols[0], cols[1:]
        self.out = np.empty(self.first.shape, z.dtype)

    def __call__(self) -> np.ndarray:
        m = self.out
        np.copyto(m, self.first)
        for c in self.rest:
            np.maximum(m, c, out=m)
        return m


def class_max(z: np.ndarray, work: Workspace) -> np.ndarray:
    """z.max(axis=-1, keepdims=True), as one np.maximum per class column:
    over a handful of classes that is several times faster than a reduce
    along the short last axis, and the values are the same. The workspace
    binds the columns and the result to z once, and the next call on z
    overwrites the result."""
    return work.bound(_ClassMax, z)()


class _ClassSum:
    """class_sum's column arithmetic over one C-contiguous (..., k) array
    with 0 < k < 16, its columns and partial sums cut once."""

    def __init__(self, z: np.ndarray, keepdims: bool):
        k = z.shape[-1]
        cols = z.reshape(-1, k).T
        self.tree = k >= 8
        if self.tree:
            self.r = np.empty((4, cols.shape[1]))  # r0+r1, r2+r3, r4+r5, r6+r7
            self.even, self.odd = cols[0:8:2], cols[1:8:2]
            self.r_even, self.r_odd = self.r[0::2], self.r[1::2]
            self.s, rest = self.r[0], [self.r[2], *cols[8:]]
        else:
            self.s = np.empty(cols.shape[1])
            self.first, rest = cols[0], cols[1:]
        self.rest = list(rest)
        s = self.s.reshape(z.shape[:-1])
        self.result = s[..., None] if keepdims else s

    def __call__(self) -> np.ndarray:
        s = self.s
        if self.tree:
            np.add(self.even, self.odd, out=self.r)
            self.r_even += self.r_odd
        else:
            np.add(0.0, self.first, out=s)
        for c in self.rest:
            s += c
        if self.tree:
            s += 0.0
        return self.result


def class_sum(z: np.ndarray, work: Workspace, keepdims: bool = False) -> np.ndarray:
    """z.sum(axis=-1), bit for bit, as a few adds over whole class columns
    in the order numpy's reduce adds each row: a reduce along a short last
    axis costs more. Below 8 classes the reduce adds the entries one by one
    from 0.0; from 8 it sums 8 accumulators in the tree
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), adds the remaining entries one at
    a time and then joins its start value 0.0. Either way a -0.0 sum turns
    into +0.0. From 16 classes on the reduce's blocks of 8 cost more as
    columns than the reduce itself, so the reduce runs; so it does for an
    array that is not C-contiguous, which numpy may sum in another order.
    The workspace binds the columns and the result of the column adds to z
    once, and the next call on z overwrites the result.
    """
    k = z.shape[-1]
    if not 0 < k < 16 or not z.flags.c_contiguous:
        return z.sum(axis=-1, keepdims=keepdims)
    return work.bound(_ClassSum, z, keepdims)()


def _shifted_exp(logits, temperature: float, work: Workspace, out=None) -> np.ndarray:
    """exp(z - max z) per row, z = logits / temperature: softmax's numerators."""
    if not temperature > 0:
        raise ValidationError("temperature must be positive")
    z = np.asarray(logits, dtype=np.float64)
    if temperature != 1.0:
        z = z / temperature
    e = np.subtract(z, class_max(z, work), out=out)
    return np.exp(e, out=e)


def softmax(logits, work: Workspace, out=None) -> np.ndarray:
    """Row-wise softmax of logits, max-subtracted for stability.

    out, when given, receives the result and may be the logits array. The
    workspace binds the class max and class sum to the arrays they read.
    """
    e = _shifted_exp(logits, 1.0, work, out)
    e /= class_sum(e, work, keepdims=True)
    return e


def max_softmax(logits, temperature: float = 1.0, out=None) -> np.ndarray:
    """softmax(logits / temperature).max(axis=-1), bit for bit, as 1 / sum.

    The largest numerator is exp(0) = 1 exactly, and dividing every entry
    by the same sum is monotone, so no quotient rounds above 1 / sum. The
    sum is softmax's own reduction, whose order sets the bits. out, when
    given, holds the numerators and may be the logits array.
    """
    work = Workspace()
    return 1.0 / class_sum(_shifted_exp(logits, temperature, work, out), work)


def log_softmax(logits) -> np.ndarray:
    """Row-wise log of softmax(logits), as a fresh array; logits are only read."""
    work = Workspace()
    z = np.array(logits, dtype=np.float64)
    z -= class_max(z, work)
    z -= np.log(class_sum(np.exp(z), work, keepdims=True))
    return z


class _FlatIndex:
    """The flat view of one C-contiguous array read as runs of width
    entries, and the flat index of the first entry of every run."""

    def __init__(self, array: np.ndarray, width: int):
        self.flat = array.reshape(-1)
        self.starts = np.arange(0, array.size, width)
        self._at = np.empty_like(self.starts)

    def at(self, offsets: np.ndarray) -> np.ndarray:
        """The flat index of entry offsets[r] of every run r; the next call
        overwrites it."""
        return np.add(self.starts, offsets.ravel(), out=self._at)


def ce_logit_grad(logits, labels: np.ndarray, work: Workspace, out=None) -> np.ndarray:
    """softmax(logits) - one_hot(labels): the gradient of the summed
    cross-entropy with respect to the logits, as a fresh array or in out
    (which may be the logits array, and must be C-contiguous). The label
    entries are found through one flat index: row r's entry sits at
    r * k + labels[r] of the flattened rows. The workspace binds the class
    columns, the sum and max buffers and the row starts to out once."""
    return _minus_one_hot(softmax(logits, work, out), labels, work)


def _minus_one_hot(p: np.ndarray, labels: np.ndarray, work: Workspace) -> np.ndarray:
    """p - one_hot(labels), written over the C-contiguous rows p, whose
    entry labels[r] of row r sits at r * k + labels[r] of the flattened rows.
    The workspace binds that flat index to p once."""
    if not p.flags.c_contiguous:
        raise ValidationError("ce_logit_grad writes only into a C-contiguous array")
    rows = work.bound(_FlatIndex, p, p.shape[-1])
    rows.flat[rows.at(labels)] -= 1.0
    return p


def backward(params: NetworkParams, cache, dlogits, work: Workspace, *, role="grad") -> np.ndarray:
    """Parameter gradient from per-example gradients at the logits.

    dlogits is (n, k); a stack adds its seed axis in front. The caller
    bakes any 1/n factors into this upstream gradient; this routine only
    applies the chain rule. It uses up the cache: each hidden
    activation is overwritten by the delta below it once it has been read.
    Returns the workspace's gradient of role (Workspace.grad), in the
    layout of params.vector and valid until the next backward pass of that
    role. Two gradients that are summed need two roles.
    """
    out, views = work.grad(role, params)
    delta = np.asarray(dlogits, dtype=np.float64)
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), cache[i], out=views[2 * i])
        if delta.shape[-1] > 1:  # the rows in sequence, as the reduce adds them, in less time
            np.einsum("...nk->...k", delta, out=views[2 * i + 1])
        else:  # along one column the reduce sums pairwise, and einsum does not
            np.add.reduce(delta, axis=-2, out=views[2 * i + 1])
        if i > 0:
            delta = _delta_below(params, i, delta, cache[i], work)
    return out


def _check_batches(params: NetworkParams, lam, in_batch, oe_batch) -> float:
    """Reject a negative lam and batches the loss cannot use; returns lam
    as a float. The outlier batch is needed, and read, only when lam > 0."""
    lam = float(lam)
    if not lam >= 0:
        raise ValidationError("lam must be nonnegative")
    if in_batch is None:
        raise ValidationError("training needs an in-distribution batch")
    if in_batch.labels is None:
        raise ValidationError("training needs labels on the in-distribution batch")
    if np.any(in_batch.labels >= params.n_classes):
        raise ValidationError(f"class label out of range for {params.n_classes} classes")
    if lam > 0 and oe_batch is None:
        raise ValidationError("positive lam needs an outlier batch")
    return lam


def _objective_grad(params: NetworkParams, lam: float, X, y, oe_X, work: Workspace) -> np.ndarray:
    """The gradient behind grad and train_classifier, on checked rows.

    X, y and oe_X carry the seed axis of a stack when params is one; oe_X
    is read only when lam > 0. The inlier pass is done with the workspace
    before the outlier pass takes it. Inlier and outlier terms keep
    separate forward/backward passes whose gradients are summed with one
    +=: one pass over the concatenated rows would sum the weight gradients
    in another order and move the bits. Each term's logit gradient is
    written over its logits, in the operation order of
    lam * (softmax(logits) - 1 / k) / m for the outlier term. The gradient
    is the workspace's, valid until its next step.
    """
    logits, cache = forward_cached(params, X, work)
    dlog = ce_logit_grad(logits, y, work, out=logits)
    dlog /= X.shape[-2]
    g = backward(params, cache, dlog, work)
    if lam > 0:
        ologits, ocache = forward_cached(params, oe_X, work)
        dout = softmax(ologits, work, out=ologits)
        dout -= 1.0 / params.n_classes
        dout *= lam
        dout /= oe_X.shape[-2]
        g += backward(params, ocache, dout, work, role="outlier grad")
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
    oe_X = oe_batch.inputs if lam > 0 else None
    return _objective_grad(params, lam, in_batch.inputs, in_batch.labels, oe_X, Workspace())


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
        raise ValidationError("lr0 must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ValidationError("momentum must lie in [0, 1)")
    if weight_decay < 0:
        raise ValidationError("weight_decay must be nonnegative")
    if int(total_steps) < 1:
        raise ValidationError("total_steps must be positive")
    return OptimizerState(
        np.zeros_like(params.vector), 0, float(lr0), float(momentum), float(weight_decay), int(total_steps)
    )


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Half-cosine decay: lr0 * 0.5 * (1 + cos(pi * step / total_steps))."""
    if total_steps <= 0:
        raise ValidationError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValidationError("step outside the schedule range")
    if not lr0 > 0:
        raise ValidationError("lr0 must be positive")
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
        raise ValidationError("parameter, gradient, and velocity layouts differ")
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
    gradient, which may be the workspace's: sgd_step reads it before the
    next step overwrites it. Every step is followed by a finiteness check
    of the whole stack, which alone reports an overflow (numpy's float
    warnings are off inside the loop); the first non-finite parameter
    raises DivergenceError naming the step and epoch, with the stack
    position of the first net that diverged as its member.
    """
    if epochs < 1:
        raise ValidationError("epochs must be >= 1")
    seeds = list(seed) if np.ndim(seed) == 1 else []
    if params.vector.ndim != 2 or len(seeds) != params.vector.shape[0]:
        raise ValidationError("training takes an (S, P) stack of nets and a sequence of S shuffle seeds")
    net = params.copy()
    n_rows = data[0].shape[1]
    if n_rows < 1:
        raise ValidationError("training needs at least one inlier row")
    if oe is not None and oe.shape[1] < 1:
        raise ValidationError("exposure training needs a nonempty outlier set")
    if any(a.shape[:2] != (len(seeds), n_rows) for a in data) or (oe is not None and len(oe) != len(seeds)):
        raise ValidationError("training takes the same rows of every data array, and outliers, for every net")
    bs = min(int(batch_size), n_rows)
    steps_per_epoch = (n_rows + bs - 1) // bs
    state = init_optimizer(
        net, lr0, total_steps=epochs * steps_per_epoch, momentum=momentum, weight_decay=weight_decay
    )
    rngs = [np.random.default_rng(s) for s in seeds]
    # batches are gathered by flat row index: with the seed axis folded
    # into the rows, net s's row i is row s * n + i
    net_index = np.arange(len(seeds))[:, None]
    flat = [a.reshape(-1, *a.shape[2:]) for a in data]
    work = Workspace()
    oe_batch = None
    if oe is not None:
        n_oe = oe.shape[1]
        oe_flat = oe.reshape(-1, *oe.shape[2:])
        oe_order = np.stack([rng.permutation(n_oe) for rng in rngs])
        oe_order += net_index * n_oe
        # every net takes as many outliers per step as the others, so one
        # pointer tracks the cyclic position of the whole stack
        oe_ptr = 0
    # a step that overflows is reported by the check after it, not by numpy
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(epochs):
            perm = np.stack([rng.permutation(n_rows) for rng in rngs])
            perm += net_index * n_rows
            for step, start in enumerate(range(0, n_rows, bs)):
                idx = perm[:, start : start + bs]
                if oe is not None:
                    oe_batch = np.take(oe_flat, oe_order[:, (oe_ptr + np.arange(idx.shape[1])) % n_oe], axis=0)
                    oe_ptr = (oe_ptr + idx.shape[1]) % n_oe
                batch = [np.take(a, idx, axis=0) for a in flat]
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
    """The net save_params wrote to path; every refusal is a ValidationError naming the file."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read parameter file {path}: {exc.strerror or exc}") from exc
    try:
        if len(raw) < 12 or raw[:4] != PARAMS_MAGIC:
            raise ValidationError("not a parameter file (bad magic)")
        version, n_dims = struct.unpack_from("<II", raw, 4)
        if version != PARAMS_VERSION:
            raise ValidationError(f"unsupported parameter file version {version}")
        off = 12
        dims = list(struct.unpack_from(f"<{n_dims}I", raw, off))
        off += 4 * n_dims
        act_code, head_flag = struct.unpack_from("<BB", raw, off)
        off += 2
        if act_code not in _ACT_NAMES:
            raise ValidationError(f"unknown activation code {act_code}")
        if head_flag != 0:
            raise ValidationError(f"head flag {head_flag}; only head-less nets (flag 0) load")
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
        if len(raw) - off != 8 * size:
            raise ValidationError("trailing or missing bytes")
        vector = np.frombuffer(raw, dtype="<f8", count=size, offset=off).astype(np.float64)
        return NetworkParams(dims, vector, _ACT_NAMES[act_code]).validate()
    except (struct.error, ValidationError) as exc:  # struct raises on a truncated header
        raise ValidationError(f"bad parameter file {path}: {exc}") from exc
