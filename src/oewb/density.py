"""Fixed-window autoregressive density model over small discrete alphabets.

The conditional p(x_t | previous c symbols) is a dense network applied to
the one-hot encoded window. Positions before the sequence start are padded
with a reserved start symbol (index V) that never appears in data, so the
chain-rule factorization is exact at every position and total probability
over the sequence space sums to one -- checkable by brute-force
enumeration for tiny alphabets.

Training runs on nn_core's stacked engine: a stack of models (ARModelParams
over a stacked net) trains on (S, n, D) sequence arrays with one seed per
model, and a single model trains as a stack of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn_core
from .errors import ConfigurationError, DataError, ParameterError

LN2 = float(np.log(2.0))


@dataclass
class ARModelParams:
    context_window: int
    alphabet_size: int
    net: nn_core.NetworkParams

    def validate(self) -> "ARModelParams":
        if self.context_window < 1:
            raise ConfigurationError("context_window must be >= 1")
        if self.alphabet_size < 2:
            raise ConfigurationError("alphabet_size must be >= 2")
        expected_in = self.context_window * (self.alphabet_size + 1)
        if self.net.input_dim != expected_in:
            raise ConfigurationError(
                f"network input dim {self.net.input_dim} != context_window * (V + 1) = {expected_in}"
            )
        if self.net.n_classes != self.alphabet_size:
            raise ConfigurationError("network output dim must equal the alphabet size")
        self.net.validate()
        return self

    def copy(self) -> "ARModelParams":
        return ARModelParams(self.context_window, self.alphabet_size, self.net.copy())

    @classmethod
    def stack(cls, models) -> "ARModelParams":
        """Models of one window and alphabet as one model over a stacked net."""
        c, V = models[0].context_window, models[0].alphabet_size
        if any((m.context_window, m.alphabet_size) != (c, V) for m in models):
            raise ConfigurationError("only models of one window and alphabet can be stacked")
        return cls(c, V, nn_core.NetworkParams.stack([m.net for m in models]))

    def unstack(self) -> list:
        return [ARModelParams(self.context_window, self.alphabet_size, net) for net in self.net.unstack()]


def init_ar_model(alphabet_size, context_window, hidden_dims, seed, activation="relu") -> ARModelParams:
    dims = [int(context_window) * (int(alphabet_size) + 1), *[int(h) for h in hidden_dims], int(alphabet_size)]
    net = nn_core.init_network(dims, seed, activation=activation)
    return ARModelParams(int(context_window), int(alphabet_size), net).validate()


def _as_seq_matrix(seqs, alphabet_size: int) -> np.ndarray:
    """(n, D) symbols, or (S, n, D) for a stack of models. Integer arrays
    keep their dtype, so a compact stack is not widened."""
    arr = np.asarray(seqs)
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.int64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim not in (2, 3) or arr.shape[-1] < 1:
        raise ConfigurationError("sequences must form a nonempty (n, D) integer matrix")
    if np.any(arr < 0) or np.any(arr >= alphabet_size):
        raise DataError("symbol outside the alphabet")
    return arr


def context_windows(seqs, context_window: int, alphabet_size: int):
    """The c symbols before every position of every sequence, start-padded.

    Returns (windows of shape (n*D, c), next-symbol targets of shape
    (n*D,)); a stack's (S, n, D) sequences give (S, n*D, c) and (S, n*D).
    Row order is sequence-major, then position.
    """
    arr = _as_seq_matrix(seqs, alphabet_size)
    *lead, length = arr.shape
    c, V = int(context_window), int(alphabet_size)
    start = np.full((*lead, c), V, dtype=np.result_type(arr.dtype, np.min_scalar_type(V)))
    padded = np.concatenate((start, arr), axis=-1)
    windows = padded[..., np.arange(length)[:, None] + np.arange(c)[None, :]]  # (..., n, D, c)
    return windows.reshape(*lead[:-1], -1, c), arr.reshape(*lead[:-1], -1)


def one_hot_windows(windows: np.ndarray, alphabet_size: int) -> np.ndarray:
    """float64 one-hot rows of shape (..., c*(V+1)) for (..., c) windows."""
    V = int(alphabet_size)
    return np.eye(V + 1, dtype=np.float64)[windows].reshape(*windows.shape[:-1], -1)


def context_features(seqs, context_window: int, alphabet_size: int):
    """One-hot context windows for every position of every sequence.

    Returns (features of shape (n*D, c*(V+1)), next-symbol targets of
    shape (n*D,)), with a leading seed axis for a stack's sequences.
    """
    windows, targets = context_windows(seqs, context_window, alphabet_size)
    return one_hot_windows(windows, alphabet_size), targets


def _sequence_nll(logits: np.ndarray, targets: np.ndarray, shape) -> np.ndarray:
    """Per-sequence NLL in nats from the logits of every position row: the
    target entries of nn_core.log_softmax(logits), without forming it."""
    z = logits - nn_core.class_max(logits)
    tok = np.take_along_axis(z, targets[..., None], axis=-1)
    np.exp(z, out=z)
    tok -= np.log(z.sum(axis=-1, keepdims=True))
    return -tok.reshape(shape).sum(axis=-1)


def nll_batch(model: ARModelParams, seqs) -> np.ndarray:
    """Per-sequence negative log-likelihood in nats for equal-length sequences."""
    arr = _as_seq_matrix(seqs, model.alphabet_size)
    feats, targets = context_features(arr, model.context_window, model.alphabet_size)
    logits = nn_core.forward(model.net, feats)
    return _sequence_nll(logits, targets, arr.shape)


def bits_per_dim_batch(model: ARModelParams, seqs) -> np.ndarray:
    """Per-sequence nll_batch / (D * ln 2): average bits per symbol."""
    arr = _as_seq_matrix(seqs, model.alphabet_size)
    return nll_batch(model, arr) / (arr.shape[1] * LN2)


def train_density(
    model: ARModelParams,
    data,
    *,
    epochs: int = 10,
    batch_size: int = 32,
    lr0: float = 0.1,
    momentum: float = 0.9,
    weight_decay: float = 5e-4,
    seed: int = 0,
) -> ARModelParams:
    """Maximum-likelihood training on inlier sequences; returns a new model.

    model is one model with (n, D) sequences and one seed, or a stack
    (ARModelParams.stack) with (S, n, D) sequences and one seed per model.
    Minibatches are position rows of the context windows, one-hot encoded
    per step, trained with nn_core's cross-entropy gradient at lam = 0.
    """
    c, V = model.context_window, model.alphabet_size
    windows, targets = nn_core.with_seed_axis(model.net, *context_windows(data, c, V))
    rows = np.arange(windows.shape[0])[:, None]
    work = nn_core.Workspace()

    def loss_grad(net, idx, oe_idx):
        feats = one_hot_windows(windows[rows, idx], V)
        return nn_core._objective_grad(net, 0.0, feats, targets[rows, idx], None, work)

    net = nn_core.train_loop(
        model.net, loss_grad, windows.shape[1], epochs=epochs, batch_size=batch_size,
        lr0=lr0, momentum=momentum, weight_decay=weight_decay, seed=seed,
    )
    return ARModelParams(c, V, net)


def _group_pass(model: ARModelParams, seqs: np.ndarray, work):
    """Forward pass over one group's position rows: (logits, targets, cache)."""
    feats, targets = context_features(seqs, model.context_window, model.alphabet_size)
    logits, cache = nn_core.forward_cached(model.net, feats, work)
    return logits, targets, cache


def _weighted_ce_backward(net, logits, cache, targets, w, work) -> np.ndarray:
    """The backward pass of per-row weighted cross-entropy; uses up logits."""
    dlog = nn_core.ce_logit_grad(logits, targets, out=logits)
    dlog *= w[..., None]
    return nn_core.backward(net, cache, dlog, work=work)


def margin_grad(
    model: ARModelParams,
    in_seqs,
    out_seqs,
    margin: float,
    mle_weight: float = 1.0,
    margin_weight: float = 1.0,
    work: nn_core.Workspace | None = None,
) -> np.ndarray:
    """Exact gradient of mle_weight * mean-position CE on inliers plus
    margin_weight * mean hinge max(0, margin + nll_in - nll_out), as an
    array in the layout of model.net.vector. A stacked model takes
    (S, n, D) batches and gives one gradient row per model.

    Pairs are matched by batch position, so both groups must have equal
    counts. Per active pair the hinge contributes +1 to every inlier
    position row and -1 to every outlier position row, scaled by 1/n_pairs.
    Only one group's activations are alive at a time: the outlier group
    runs forward for its NLL, the inlier group for its NLL and backward
    pass, and then the outlier group again for its backward pass.
    """
    if not margin > 0:
        raise ParameterError("margin must be positive")
    a = _as_seq_matrix(in_seqs, model.alphabet_size)
    b = _as_seq_matrix(out_seqs, model.alphabet_size)
    if a.shape[:-1] != b.shape[:-1]:
        raise ConfigurationError("margin pairs require equally sized inlier/outlier batches")
    n_pairs = a.shape[-2]
    logits, t_out = _group_pass(model, b, work)[:2]
    nll_out = _sequence_nll(logits, t_out, b.shape)
    logits, t_in, cache = _group_pass(model, a, work)
    nll_in = _sequence_nll(logits, t_in, a.shape)
    active = (margin + nll_in - nll_out) > 0

    # per-row weights: the MLE mean over all inlier rows plus the hinge
    # share of each active pair, spread over that pair's position rows
    w_in_seq = mle_weight / (n_pairs * a.shape[-1]) + margin_weight * active / n_pairs
    w_out_seq = -margin_weight * active / n_pairs
    w_in = np.repeat(w_in_seq, a.shape[-1], axis=-1)
    w_out = np.repeat(w_out_seq, b.shape[-1], axis=-1)
    g = _weighted_ce_backward(model.net, logits, cache, t_in, w_in, work)
    del cache  # the inlier rows go before the outlier pass runs again
    logits, _, cache = _group_pass(model, b, work)
    g += _weighted_ce_backward(model.net, logits, cache, t_out, w_out, work)
    return g


def finetune_density_oe(
    model: ARModelParams,
    inlier_seqs,
    oe_seqs,
    *,
    margin: float | None = None,
    epochs: int = 2,
    batch_size: int = 32,
    lr0: float = 1e-3,
    momentum: float = 0.9,
    weight_decay: float = 5e-4,
    mle_weight: float = 1.0,
    margin_weight: float = 1.0,
    seed: int = 0,
) -> ARModelParams:
    """Exposure fine-tuning of a trained density model with the paired
    margin loss (margin_grad).

    Epoch length follows the inlier set; outlier batches are drawn
    cyclically from a fixed seeded permutation and paired with inlier
    batches by position. margin defaults to the sequence length in nats.
    A stack takes (S, n, D) sequence arrays and one seed per model, as in
    train_density.
    """
    a = _as_seq_matrix(inlier_seqs, model.alphabet_size)
    b = _as_seq_matrix(oe_seqs, model.alphabet_size)
    if b.shape[-2] == 0:
        raise ConfigurationError("exposure fine-tuning needs a nonempty outlier set")
    if margin is None:
        margin = float(a.shape[-1])
    if not margin > 0:
        raise ParameterError("margin must be positive")
    c, V = model.context_window, model.alphabet_size
    a, b = nn_core.with_seed_axis(model.net, a, b)
    rows = np.arange(a.shape[0])[:, None]
    work = nn_core.Workspace()

    def loss_grad(net, idx, oe_idx):
        return margin_grad(
            ARModelParams(c, V, net), a[rows, idx], b[rows, oe_idx], margin, mle_weight, margin_weight, work
        )

    net = nn_core.train_loop(
        model.net, loss_grad, a.shape[1], n_oe=b.shape[1], epochs=epochs, batch_size=batch_size,
        lr0=lr0, momentum=momentum, weight_decay=weight_decay, seed=seed,
    )
    return ARModelParams(c, V, net)


def save_ar_model(model: ARModelParams, path) -> None:
    """Net parameters as the binary format plus a JSON sidecar for the
    window and alphabet."""
    path = Path(path)
    nn_core.save_params(model.net, path)
    meta = {"context_window": model.context_window, "alphabet_size": model.alphabet_size}
    path.with_suffix(path.suffix + ".meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")


def load_ar_model(path) -> ARModelParams:
    path = Path(path)
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    if not meta_path.exists():
        raise DataError(f"missing density model sidecar {meta_path}")
    try:
        meta = json.loads(meta_path.read_text())
        window, alphabet = int(meta["context_window"]), int(meta["alphabet_size"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad density model sidecar {meta_path}: {type(exc).__name__}: {exc}") from exc
    return ARModelParams(window, alphabet, nn_core.load_params(path)).validate()
