"""Fixed-window autoregressive density model over small discrete alphabets.

The conditional p(x_t | previous c symbols) is a dense network applied to
the one-hot encoded window. Positions before the sequence start are padded
with a reserved start symbol (index V) that never appears in data, so the
chain-rule factorization is exact at every position and total probability
over the sequence space sums to one -- checkable by brute-force
enumeration for tiny alphabets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn_core
from .errors import ConfigurationError, DataError, ParameterError
from .objectives import ObjectiveSpec

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


def init_ar_model(alphabet_size, context_window, hidden_dims, seed, activation="relu") -> ARModelParams:
    dims = [int(context_window) * (int(alphabet_size) + 1), *[int(h) for h in hidden_dims], int(alphabet_size)]
    net = nn_core.init_network(dims, seed, activation=activation)
    return ARModelParams(int(context_window), int(alphabet_size), net).validate()


def _as_seq_matrix(seqs, alphabet_size: int) -> np.ndarray:
    arr = np.asarray(seqs, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ConfigurationError("sequences must form a nonempty (n, D) integer matrix")
    if np.any(arr < 0) or np.any(arr >= alphabet_size):
        raise DataError("symbol outside the alphabet")
    return arr


def context_features(seqs, context_window: int, alphabet_size: int):
    """One-hot context windows for every position of every sequence.

    Returns (features of shape (n*D, c*(V+1)), next-symbol targets of
    shape (n*D,)). Row order is sequence-major, then position.
    """
    arr = _as_seq_matrix(seqs, alphabet_size)
    n, length = arr.shape
    c, V = int(context_window), int(alphabet_size)
    padded = np.concatenate((np.full((n, c), V, dtype=np.int64), arr), axis=1)
    windows = padded[:, np.arange(length)[:, None] + np.arange(c)[None, :]]  # (n, D, c)
    feats = np.eye(V + 1, dtype=np.float64)[windows].reshape(n * length, c * (V + 1))
    return feats, arr.reshape(n * length)


def _sequence_nll(logits: np.ndarray, targets: np.ndarray, shape) -> np.ndarray:
    """Per-sequence NLL in nats from the logits of every position row."""
    lp = nn_core.log_softmax(logits)
    tok = lp[np.arange(targets.size), targets]
    return -tok.reshape(shape).sum(axis=1)


def nll_batch(model: ARModelParams, seqs) -> np.ndarray:
    """Per-sequence negative log-likelihood in nats for equal-length sequences."""
    arr = _as_seq_matrix(seqs, model.alphabet_size)
    feats, targets = context_features(arr, model.context_window, model.alphabet_size)
    logits, _ = nn_core.forward(model.net, feats)
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

    Minibatches are position rows of the one-hot context windows, trained
    with the plain cross-entropy objective of nn_core.
    """
    arr = _as_seq_matrix(data, model.alphabet_size)
    feats, targets = context_features(arr, model.context_window, model.alphabet_size)
    net = nn_core.train_classifier(
        model.net, ObjectiveSpec("plain_ce"), nn_core.Batch(feats, targets),
        epochs=epochs, batch_size=batch_size, lr0=lr0, momentum=momentum,
        weight_decay=weight_decay, seed=seed,
    )
    return ARModelParams(model.context_window, model.alphabet_size, net)


def _weighted_ce_backward(net, logits, cache, targets, w) -> np.ndarray:
    dlog = nn_core.ce_logit_grad(logits, targets)
    dlog *= w[:, None]
    return nn_core.backward(net, cache, dlog)


def margin_grad(
    model: ARModelParams,
    in_seqs,
    out_seqs,
    margin: float,
    mle_weight: float = 1.0,
    margin_weight: float = 1.0,
) -> np.ndarray:
    """Exact gradient of mle_weight * mean-position CE on inliers plus
    margin_weight * mean hinge max(0, margin + nll_in - nll_out), as a
    vector in the layout of model.net.vector.

    Pairs are matched by batch position, so both groups must have equal
    counts. Per active pair the hinge contributes +1 to every inlier
    position row and -1 to every outlier position row, scaled by 1/n_pairs.
    Each group is featurized and run forward once; its NLL and its backward
    pass share those logits.
    """
    if not margin > 0:
        raise ParameterError("margin must be positive")
    a = _as_seq_matrix(in_seqs, model.alphabet_size)
    b = _as_seq_matrix(out_seqs, model.alphabet_size)
    if a.shape[0] != b.shape[0]:
        raise ConfigurationError("margin pairs require equally sized inlier/outlier batches")
    n_pairs = a.shape[0]
    c, V = model.context_window, model.alphabet_size
    feats_in, t_in = context_features(a, c, V)
    feats_out, t_out = context_features(b, c, V)
    logits_in, _, cache_in = nn_core.forward_cached(model.net, feats_in)
    logits_out, _, cache_out = nn_core.forward_cached(model.net, feats_out)
    nll_in = _sequence_nll(logits_in, t_in, a.shape)
    nll_out = _sequence_nll(logits_out, t_out, b.shape)
    active = (margin + nll_in - nll_out) > 0

    # per-row weights: the MLE mean over all inlier rows plus the hinge
    # share of each active pair, spread over that pair's position rows
    w_in_seq = mle_weight / (n_pairs * a.shape[1]) + margin_weight * active / n_pairs
    w_out_seq = -margin_weight * active / n_pairs
    w_in = np.repeat(w_in_seq, a.shape[1])
    w_out = np.repeat(w_out_seq, b.shape[1])
    g = _weighted_ce_backward(model.net, logits_in, cache_in, t_in, w_in)
    g += _weighted_ce_backward(model.net, logits_out, cache_out, t_out, w_out)
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
    margin objective (margin_grad).

    Epoch length follows the inlier set; outlier batches are drawn
    cyclically from a fixed seeded permutation and paired with inlier
    batches by position. margin defaults to the sequence length in nats.
    """
    a = _as_seq_matrix(inlier_seqs, model.alphabet_size)
    b = _as_seq_matrix(oe_seqs, model.alphabet_size)
    if b.shape[0] == 0:
        raise ConfigurationError("exposure fine-tuning needs a nonempty outlier set")
    if margin is None:
        margin = float(a.shape[1])
    if not margin > 0:
        raise ParameterError("margin must be positive")
    c, V = model.context_window, model.alphabet_size

    def loss_grad(net, idx, oe_idx):
        return margin_grad(ARModelParams(c, V, net), a[idx], b[oe_idx], margin, mle_weight, margin_weight)

    net = nn_core.train_loop(
        model.net, loss_grad, a.shape[0], n_oe=b.shape[0], epochs=epochs, batch_size=batch_size,
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
    meta = json.loads(meta_path.read_text())
    net = nn_core.load_params(path)
    return ARModelParams(int(meta["context_window"]), int(meta["alphabet_size"]), net).validate()
