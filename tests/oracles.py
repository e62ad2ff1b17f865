"""Brute-force reference implementations the tests compare against.

The metric references deliberately use plain Python loops over pairs and
thresholds; the library's vectorized rank/cumsum code must agree with them
exactly (not approximately) on every random score set the tests generate.
The forward reference runs every row through the net at once, one fresh
array per layer, as one whole-set pass does.
"""

import math

import numpy as np


def auroc_pairwise(in_scores, out_scores) -> float:
    """Mean over all (out, in) pairs of 1 / 0.5 / 0 for win / tie / loss."""
    wins = 0.0
    for o in out_scores:
        for i in in_scores:
            if o > i:
                wins += 1.0
            elif o == i:
                wins += 0.5
    return wins / (len(out_scores) * len(in_scores))


def _threshold_sweep(in_scores, out_scores):
    """(tp, fp) counts at every distinct score, descending, detection >= t."""
    thresholds = sorted(set(list(in_scores) + list(out_scores)), reverse=True)
    out = list(out_scores)
    inl = list(in_scores)
    counts = []
    for t in thresholds:
        tp = sum(1 for s in out if s >= t)
        fp = sum(1 for s in inl if s >= t)
        counts.append((tp, fp))
    return counts


def aupr_sweep(in_scores, out_scores) -> float:
    """Average precision over the descending threshold sweep."""
    n_out = len(out_scores)
    counts = _threshold_sweep(in_scores, out_scores)
    terms = []
    prev_recall = 0.0
    for tp, fp in counts:
        recall = tp / n_out
        precision = tp / (tp + fp)
        terms.append((recall - prev_recall) * precision)
        prev_recall = recall
    return math.fsum(terms)


def fpr_at_tpr_sweep(in_scores, out_scores, n_percent) -> float:
    """FPR at the ceil(N% * n_out)-th largest outlier score, detection >= t."""
    n_out = len(out_scores)
    k = math.ceil(n_percent * n_out / 100.0)
    t = sorted(out_scores, reverse=True)[k - 1]
    return sum(1 for s in in_scores if s >= t) / len(in_scores)


def roc_sweep(in_scores, out_scores):
    """(fpr, tpr) points per distinct threshold, with a leading (0, 0)."""
    n_out, n_in = len(out_scores), len(in_scores)
    pts = [(0.0, 0.0)]
    for tp, fp in _threshold_sweep(in_scores, out_scores):
        pts.append((fp / n_in, tp / n_out))
    return pts


def random_scored_pair(rng, max_size: int = 50):
    """Score sets with deliberate ties: dyadic rationals k/8 keep every
    intermediate of both the implementation and the oracles exact."""
    n_in = int(rng.integers(1, max_size + 1))
    n_out = int(rng.integers(1, max_size + 1))
    in_scores = rng.integers(-16, 17, size=n_in) / 8.0
    out_scores = rng.integers(-16, 17, size=n_out) / 8.0
    return in_scores, out_scores


def forward_per_layer(params, X):
    """A net's logits for the rows X in one pass: a @ w.T + b per layer,
    with the activation between layers."""
    a = np.asarray(X, dtype=np.float64)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if i > 0:
            a = np.maximum(a, 0.0) if params.activation == "relu" else np.tanh(a)
        a = a @ w.T + b
    return a
