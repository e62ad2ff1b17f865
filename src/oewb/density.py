"""Fixed-window autoregressive density model over small discrete alphabets.

The conditional p(x_t | previous c symbols) is a dense network applied to
the one-hot encoded window. Positions before the sequence start are padded
with a reserved start symbol (index V) that never appears in data, so the
chain-rule factorization is exact at every position and total probability
over the sequence space sums to one -- checkable by brute-force
enumeration for tiny alphabets.

A model is a plain nn_core.NetworkParams: its widths fix the window and
alphabet, with c*(V+1) one-hot input columns and V output logits, and
layout reads (c, V) back from them. Both trainers run on
nn_core.train_loop, which draws and gathers every batch: a stack of nets
(NetworkParams.stack) trains on (S, n, D) sequence arrays with one seed
per net. Each trainer supplies only the gradient of one step, which
writes its batch's one-hot rows into the run's workspace buffer, zeroed
and set to one at flat indices, and sums over classes and positions
with nn_core.class_sum, which keeps the bits of numpy's reduce. The
margin step calls nn_core's forward_cached and backward itself, weighting
each group's logit gradient per row in place.
"""

from __future__ import annotations

import numpy as np

from . import nn_core
from .errors import ValidationError

LN2 = float(np.log(2.0))


def layout(net: nn_core.NetworkParams) -> tuple[int, int]:
    """(context_window, alphabet_size) of a density net, read from its
    widths: input c*(V+1) for c >= 1, output V >= 2."""
    V = net.n_classes
    c, rest = divmod(net.input_dim, V + 1)
    if V < 2 or c < 1 or rest:
        raise ValidationError(
            f"layer widths {net.layer_dims} are not a density layout: the input width must be "
            f"a positive multiple of V + 1 for an output width V >= 2"
        )
    return c, V


def ar_layer_dims(alphabet_size, context_window, hidden_dims) -> list:
    """The widths of a density net over the window and alphabet (layout reads them back)."""
    return [int(context_window) * (int(alphabet_size) + 1), *[int(h) for h in hidden_dims], int(alphabet_size)]


def _as_seq_matrix(seqs, alphabet_size: int) -> np.ndarray:
    """(n, D) symbols, or (S, n, D) for a stack of nets. Integer arrays
    keep their dtype, so a compact stack is not widened; other values
    become int64 only when each is a whole number."""
    arr = np.asarray(seqs)
    if arr.ndim not in (2, 3) or arr.shape[-1] < 1:
        raise ValidationError("sequences must form a nonempty (n, D) integer matrix")
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.float64)
        if not np.all(arr == np.trunc(arr)):
            raise ValidationError("symbols must be whole numbers")
    if np.any(arr < 0) or np.any(arr >= alphabet_size):
        raise ValidationError("symbol outside the alphabet")
    return arr if arr.dtype.kind in "iu" else arr.astype(np.int64)


def context_windows(seqs, context_window: int, alphabet_size: int):
    """The c symbols before every position of every sequence, start-padded.

    Returns (windows of shape (n*D, c), next-symbol targets of shape
    (n*D,)); a stack's (S, n, D) sequences give (S, n*D, c) and (S, n*D).
    Row order is sequence-major, then position. This is the one symbol
    check of nll_batch and margin_grad (_as_seq_matrix).
    """
    arr = _as_seq_matrix(seqs, alphabet_size)
    *lead, length = arr.shape
    c, V = int(context_window), int(alphabet_size)
    start = np.full((*lead, c), V, dtype=np.result_type(arr.dtype, np.min_scalar_type(V)))
    padded = np.concatenate((start, arr), axis=-1)
    windows = padded[..., np.arange(length)[:, None] + np.arange(c)[None, :]]  # (..., n, D, c)
    return windows.reshape(*lead[:-1], -1, c), arr.reshape(*lead[:-1], -1)


def one_hot_windows(windows: np.ndarray, alphabet_size: int, work: nn_core.Workspace) -> np.ndarray:
    """float64 one-hot rows of shape (..., c*(V+1)) for (..., c) windows:
    symbol w at window slot j of row r sets flat entry (r*c + j)*(V+1) + w
    of a zeroed array, as indexing rows of np.eye(V + 1) would. The array
    is the workspace's one-hot buffer, zero-filled and written in place,
    which the next call overwrites."""
    width = int(alphabet_size) + 1
    out = work.take("one-hot", (*windows.shape[:-1], windows.shape[-1] * width))
    out.fill(0.0)
    runs = work.bound(nn_core._FlatIndex, out, width)
    runs.flat[runs.at(windows)] = 1.0
    return out


def context_features(seqs, context_window: int, alphabet_size: int, work: nn_core.Workspace):
    """One-hot context windows for every position of every sequence.

    Returns (features of shape (n*D, c*(V+1)), next-symbol targets of
    shape (n*D,)), with a leading seed axis for a stack's sequences. The
    features are the workspace's one-hot buffer (one_hot_windows).
    """
    windows, targets = context_windows(seqs, context_window, alphabet_size)
    return one_hot_windows(windows, alphabet_size, work), targets


def _sequence_nll(logits: np.ndarray, targets: np.ndarray, shape, work: nn_core.Workspace) -> tuple:
    """Per-sequence NLL in nats from the logits of every position row: the
    target entries of nn_core.log_softmax(logits), without forming it.

    Returns (nll, e, s): e is exp(z - max z) per row, written over logits,
    and s its class sums, softmax's numerators and denominators as
    nn_core.softmax forms them. The workspace binds the class max and sum
    to logits, and the next sum over them overwrites s."""
    z = np.subtract(logits, nn_core.class_max(logits, work), out=logits)
    tok = np.take_along_axis(z, targets[..., None], axis=-1)
    np.exp(z, out=z)
    s = nn_core.class_sum(z, work, keepdims=True)
    tok -= np.log(s)
    return -nn_core.class_sum(tok.reshape(shape), work), z, s


def nll_batch(net: nn_core.NetworkParams, seqs, work: nn_core.Workspace) -> np.ndarray:
    """Per-sequence negative log-likelihood in nats for equal-length
    sequences, as a fresh array; the forward runs through the workspace."""
    c, V = layout(net)
    feats, targets = context_features(seqs, c, V, work)
    logits = nn_core.forward(net, feats, work)
    return _sequence_nll(logits, targets, np.shape(seqs), work)[0]


def bits_per_dim_batch(net: nn_core.NetworkParams, seqs, work: nn_core.Workspace) -> np.ndarray:
    """Per-sequence nll_batch / (D * ln 2): average bits per symbol."""
    return nll_batch(net, seqs, work) / (np.shape(seqs)[-1] * LN2)


def train_density(net: nn_core.NetworkParams, data, **settings) -> nn_core.NetworkParams:
    """Maximum-likelihood training on inlier sequences; returns a new net.

    net is a stack (NetworkParams.stack) with (S, n, D) sequences and one
    seed per net. Minibatches are position rows of the context windows,
    one-hot encoded per step, trained with nn_core's cross-entropy
    gradient at lam = 0. settings are nn_core.train_loop's keyword
    arguments.
    """
    c, V = layout(net)

    def step_grad(net, batch, oe_batch, work):
        windows, targets = batch
        return nn_core._objective_grad(net, 0.0, one_hot_windows(windows, V, work), targets, None, work)

    return nn_core.train_loop(net, step_grad, context_windows(data, c, V), **settings)


def margin_grad(
    net: nn_core.NetworkParams,
    in_seqs,
    out_seqs,
    margin: float,
    work: nn_core.Workspace,
    mle_weight: float = 1.0,
    margin_weight: float = 1.0,
) -> np.ndarray:
    """Exact gradient of mle_weight * mean-position CE on inliers plus
    margin_weight * mean hinge max(0, margin + nll_in - nll_out), as an
    array in the layout of net.vector. A stack takes (S, n, D) batches and
    gives one gradient row per net.

    Pairs are matched by batch position, so both groups must have equal
    counts. Per active pair the hinge contributes +1 to every inlier
    position row and -1 to every outlier position row, scaled by 1/n_pairs.
    Only one group's activations are alive at a time: the outlier group
    runs forward for its NLL, the inlier group for its NLL and backward
    pass, and then the outlier group again for its backward pass, from
    the integer windows its first pass kept. The gradient is the
    workspace's, valid until its next step.
    """
    if not margin > 0:
        raise ValidationError("margin must be positive")
    c, V = layout(net)
    win_in, t_in = context_windows(in_seqs, c, V)
    win_out, t_out = context_windows(out_seqs, c, V)
    a, b = np.shape(in_seqs), np.shape(out_seqs)
    if a[:-1] != b[:-1]:
        raise ValidationError("margin pairs require equally sized inlier/outlier batches")
    n_pairs = a[-2]
    logits = nn_core.forward_cached(net, one_hot_windows(win_out, V, work), work)[0]
    nll_out = _sequence_nll(logits, t_out, b, work)[0]
    logits, cache = nn_core.forward_cached(net, one_hot_windows(win_in, V, work), work)
    nll_in, e_in, s_in = _sequence_nll(logits, t_in, a, work)
    active = (margin + nll_in - nll_out) > 0

    # per-row weights: the MLE mean over all inlier rows plus the hinge
    # share of each active pair, spread over that pair's position rows
    w_in_seq = mle_weight / (n_pairs * a[-1]) + margin_weight * active / n_pairs
    w_out_seq = -margin_weight * active / n_pairs
    w_in = np.repeat(w_in_seq, a[-1], axis=-1)
    w_out = np.repeat(w_out_seq, b[-1], axis=-1)
    # the inlier softmax is the nll pass's numerators over their sums,
    # divided as ce_logit_grad would
    e_in /= s_in
    dlog = nn_core._minus_one_hot(e_in, t_in, work)
    dlog *= w_in[..., None]
    g = nn_core.backward(net, cache, dlog, work)
    del cache  # the inlier rows go before the outlier pass runs again
    logits, cache = nn_core.forward_cached(net, one_hot_windows(win_out, V, work), work)
    dlog = nn_core.ce_logit_grad(logits, t_out, work, out=logits)
    dlog *= w_out[..., None]
    g += nn_core.backward(net, cache, dlog, work, role="outlier grad")
    return g


def finetune_density_oe(
    net: nn_core.NetworkParams,
    inlier_seqs,
    oe_seqs,
    *,
    margin: float | None = None,
    mle_weight: float = 1.0,
    margin_weight: float = 1.0,
    **settings,
) -> nn_core.NetworkParams:
    """Exposure fine-tuning of a trained density net with the paired
    margin loss (margin_grad).

    Epoch length follows the inlier set; outlier batches are drawn
    cyclically from a fixed seeded permutation and paired with inlier
    batches by position. margin defaults to the sequence length in nats.
    The stack takes (S, n, D) sequence arrays and one seed per net, as in
    train_density. settings are nn_core.train_loop's keyword arguments.
    """
    V = layout(net)[1]
    a = _as_seq_matrix(inlier_seqs, V)
    if margin is None:
        margin = float(a.shape[-1])

    def step_grad(net, batch, oe_batch, work):
        return margin_grad(net, batch[0], oe_batch, margin, work, mle_weight, margin_weight)

    return nn_core.train_loop(net, step_grad, (a,), _as_seq_matrix(oe_seqs, V), **settings)
