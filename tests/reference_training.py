"""Reference training composition, kept to check nn_core.train_loop against.

This is how the workbench trained before it had one loop over a flat
parameter vector: parameters as separate per-layer arrays, gradients as
lists of fresh arrays summed by add_grads, a Nesterov step that copies
every array, and a Batch validated on every step. The loop must reproduce
it bit for bit, so nothing here may be "simplified" into the code under
test.
"""

import numpy as np

from oewb import density, nn_core


class RefNet:
    """Separate parameter arrays in the order w0, b0, w1, b1, ..."""

    def __init__(self, params: nn_core.NetworkParams):
        self.arrays = [a.copy() for a in params.arrays()]
        self.n_layers = len(params.weights)
        self.activation = params.activation

    def replaced(self, arrays) -> "RefNet":
        out = object.__new__(RefNet)
        out.__dict__.update(self.__dict__)
        out.arrays = arrays
        return out

    def weight(self, i):
        return self.arrays[2 * i]

    def bias(self, i):
        return self.arrays[2 * i + 1]


def softmax(logits):
    z = np.asarray(logits, dtype=np.float64) / 1.0
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits):
    z = np.asarray(logits, dtype=np.float64) / 1.0
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def one_hot(labels, k):
    out = np.zeros((labels.shape[0], k))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _act(z, name):
    return np.maximum(z, 0.0) if name == "relu" else np.tanh(z)


def _act_grad(z, name):
    if name == "relu":
        return (z > 0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def forward_cached(net: RefNet, X):
    acts, pres, a = [X], [], X
    for i in range(net.n_layers):
        z = a @ net.weight(i).T + net.bias(i)
        pres.append(z)
        if i < net.n_layers - 1:
            a = _act(z, net.activation)
            acts.append(a)
    return pres[-1], (acts, pres)


def backward(net: RefNet, cache, dlogits):
    acts, pres = cache
    n = net.n_layers
    gw, gb = [None] * n, [None] * n
    delta = np.asarray(dlogits, dtype=np.float64)
    for i in range(n - 1, -1, -1):
        gw[i] = delta.T @ acts[i]
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weight(i)) * _act_grad(pres[i - 1], net.activation)
    return [a for pair in zip(gw, gb) for a in pair]


def add_grads(a, b):
    return [x + y for x, y in zip(a, b)]


def grad(net: RefNet, lam, in_batch, oe_batch=None):
    """Gradient list of cross-entropy plus lam times uniform CE on outliers."""
    logits, cache = forward_cached(net, in_batch.inputs)
    k = logits.shape[1]
    dlog = (softmax(logits) - one_hot(in_batch.labels, k)) / len(in_batch)
    g = backward(net, cache, dlog)
    if lam > 0:
        ologits, ocache = forward_cached(net, oe_batch.inputs)
        doe = lam * (softmax(ologits) - 1.0 / k) / len(oe_batch)
        g = add_grads(g, backward(net, ocache, doe))
    return g


class RefOptimizer:
    def __init__(self, net, lr0, total_steps, momentum, weight_decay):
        self.velocity = [np.zeros_like(a) for a in net.arrays]
        self.step_count = 0
        self.lr0, self.total_steps = lr0, total_steps
        self.momentum, self.weight_decay = momentum, weight_decay


def sgd_step(net: RefNet, grads, state: RefOptimizer) -> RefNet:
    """Copying Nesterov step: fresh parameter and velocity arrays."""
    lr = nn_core.cosine_lr(state.step_count, state.total_steps, state.lr0)
    new_arrays, new_vel = [], []
    for p, g, v in zip(net.arrays, grads, state.velocity):
        gd = g + state.weight_decay * p
        vn = state.momentum * v + gd
        out = p.copy()
        out[...] = p - lr * (gd + state.momentum * vn)
        new_arrays.append(out)
        new_vel.append(vn)
    state.velocity = new_vel
    state.step_count += 1
    return net.replaced(new_arrays)


def train_classifier(params, lam, X, y, oe_X, *, epochs, batch_size, lr0, momentum,
                     weight_decay, seed):
    """Minibatch loop with a per-step Batch and a cyclic outlier pointer."""
    net = RefNet(params)
    n = X.shape[0]
    bs = min(batch_size, n)
    state = RefOptimizer(net, lr0, epochs * ((n + bs - 1) // bs), momentum, weight_decay)
    rng = np.random.default_rng(seed)
    if lam > 0:
        oe_order = rng.permutation(oe_X.shape[0])
        oe_ptr = 0
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, bs):
            idx = perm[start : start + bs]
            in_batch = nn_core.Batch(X[idx], y[idx])
            oe_batch = None
            if lam > 0:
                sel = (oe_ptr + np.arange(idx.size)) % oe_X.shape[0]
                oe_ptr = int((oe_ptr + idx.size) % oe_X.shape[0])
                oe_batch = nn_core.Batch(oe_X[oe_order[sel]])
            net = sgd_step(net, grad(net, lam, in_batch, oe_batch), state)
    return net


def nll_batch(net: RefNet, seqs, c, V):
    feats, targets = density.context_features(seqs, c, V)
    logits, _ = forward_cached(net, feats)
    lp = log_softmax(logits)
    return -lp[np.arange(targets.size), targets].reshape(seqs.shape).sum(axis=1)


def margin_grad(net: RefNet, a, b, c, V, margin, mle_weight, margin_weight):
    """Hinge gradient with the NLLs from their own forward passes."""
    n_pairs = a.shape[0]
    active = (margin + nll_batch(net, a, c, V) - nll_batch(net, b, c, V)) > 0
    w_in = np.repeat(mle_weight / (n_pairs * a.shape[1]) + margin_weight * active / n_pairs, a.shape[1])
    w_out = np.repeat(-margin_weight * active / n_pairs, b.shape[1])

    def weighted_backward(seqs, w):
        feats, targets = density.context_features(seqs, c, V)
        logits, cache = forward_cached(net, feats)
        return backward(net, cache, (softmax(logits) - one_hot(targets, V)) * w[:, None])

    return add_grads(weighted_backward(a, w_in), weighted_backward(b, w_out))


def train_density(model, seqs, *, epochs, batch_size, lr0, momentum, weight_decay, seed):
    """Maximum likelihood over position rows, one-hot built per step."""
    feats, targets = density.context_features(seqs, model.context_window, model.alphabet_size)
    net = RefNet(model.net)
    rows = feats.shape[0]
    bs = min(batch_size, rows)
    state = RefOptimizer(net, lr0, epochs * ((rows + bs - 1) // bs), momentum, weight_decay)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        perm = rng.permutation(rows)
        for start in range(0, rows, bs):
            idx = perm[start : start + bs]
            logits, cache = forward_cached(net, feats[idx])
            dlog = (softmax(logits) - one_hot(targets[idx], model.alphabet_size)) / idx.size
            net = sgd_step(net, backward(net, cache, dlog), state)
    return net


def finetune_density(model, a, b, *, margin, epochs, batch_size, lr0, momentum, weight_decay,
                     mle_weight, margin_weight, seed):
    """Paired margin fine-tuning with outliers drawn cyclically by position."""
    c, V = model.context_window, model.alphabet_size
    net = RefNet(model.net)
    n_in = a.shape[0]
    bs = min(batch_size, n_in)
    state = RefOptimizer(net, lr0, epochs * ((n_in + bs - 1) // bs), momentum, weight_decay)
    rng = np.random.default_rng(seed)
    oe_order = rng.permutation(b.shape[0])
    oe_ptr = 0
    for _ in range(epochs):
        perm = rng.permutation(n_in)
        for start in range(0, n_in, bs):
            idx = perm[start : start + bs]
            oe_idx = np.array([oe_order[(oe_ptr + j) % b.shape[0]] for j in range(idx.size)])
            oe_ptr = (oe_ptr + idx.size) % b.shape[0]
            g = margin_grad(net, a[idx], b[oe_idx], c, V, margin, mle_weight, margin_weight)
            net = sgd_step(net, g, state)
    return net
