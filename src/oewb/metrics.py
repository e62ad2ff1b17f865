"""Detection metrics with the outlier side as the positive class.

Scores follow the package-wide convention that higher means more
anomalous. Tie handling and threshold placement are pinned down exactly
so the vectorized implementations agree bit-for-bit with the brute-force
oracles in the test suite:

* AUROC: Mann-Whitney pairwise statistic; tied out/in pairs count 0.5.
* AUPR: average precision over the descending sweep of distinct score
  thresholds (step curve, no trapezoid interpolation).
* FPR@N: threshold at the ceil(N% * n_out)-th largest outlier score;
  detection means score >= threshold, ties included on the detect side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class ScoredSet:
    """Anomaly scores for in-distribution and outlier test examples."""

    in_scores: np.ndarray
    out_scores: np.ndarray

    def __post_init__(self):
        self.in_scores = np.asarray(self.in_scores, dtype=np.float64).ravel()
        self.out_scores = np.asarray(self.out_scores, dtype=np.float64).ravel()


@dataclass
class DetectionReport:
    auroc: float
    aupr: float
    fpr_at_n: float
    n_level: float
    base_rate: str


def _check(s: ScoredSet) -> None:
    if s.in_scores.size == 0 or s.out_scores.size == 0:
        raise InputError("both score lists must be nonempty")
    if not (np.all(np.isfinite(s.in_scores)) and np.all(np.isfinite(s.out_scores))):
        raise InputError("scores must be finite")


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of the ranks they cover."""
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    n = x.size
    edges = np.flatnonzero(sx[1:] != sx[:-1]) + 1
    starts = np.concatenate(([0], edges))
    stops = np.concatenate((edges, [n]))
    ranks = np.empty(n, dtype=np.float64)
    # the block [a, b) of sorted positions holds ranks a+1 .. b, mean 0.5 * (a + 1 + b)
    ranks[order] = np.repeat(0.5 * (starts + 1 + stops), stops - starts)
    return ranks


def auroc(s: ScoredSet) -> float:
    """Probability a random outlier outscores a random inlier (ties count half)."""
    _check(s)
    n_out = s.out_scores.size
    n_in = s.in_scores.size
    ranks = _average_ranks(np.concatenate((s.out_scores, s.in_scores)))
    r_out = float(ranks[:n_out].sum())
    return float((r_out - n_out * (n_out + 1) / 2.0) / (n_out * n_in))


def _sweep(s: ScoredSet):
    """Cumulative (tp, fp) counts at the end of each distinct-score block,
    in descending score order."""
    scores = np.concatenate((s.out_scores, s.in_scores))
    is_out = np.concatenate(
        (np.ones(s.out_scores.size, dtype=bool), np.zeros(s.in_scores.size, dtype=bool))
    )
    order = np.argsort(-scores, kind="mergesort")
    ss = scores[order]
    oo = is_out[order]
    block_end = np.flatnonzero(np.append(ss[1:] != ss[:-1], True))
    tp = np.cumsum(oo)[block_end]
    fp = np.cumsum(~oo)[block_end]
    return tp, fp


def aupr(s: ScoredSet) -> float:
    """Average precision of outlier retrieval over descending distinct thresholds."""
    _check(s)
    tp, fp = _sweep(s)
    recall = tp / s.out_scores.size
    precision = tp / (tp + fp)
    prev = np.concatenate(([0.0], recall[:-1]))
    return float(math.fsum((recall - prev) * precision))


def fpr_at_tpr(s: ScoredSet, n_percent: float) -> float:
    """False-positive rate at the threshold catching >= n_percent of outliers."""
    _check(s)
    if not 0 < n_percent <= 100:
        raise InputError("n_percent must lie in (0, 100]")
    n_out = s.out_scores.size
    k = math.ceil(n_percent * n_out / 100.0)
    t = np.sort(s.out_scores)[n_out - k]
    return float(np.count_nonzero(s.in_scores >= t) / s.in_scores.size)


def enforce_base_rate(in_scores, out_scores, ratio=(1, 5), seed=0) -> ScoredSet:
    """Seeded subsample to an exact out:in ratio, keeping as much of each pool
    as fits (floor rounding on whichever side is the constraint)."""
    a, b = int(ratio[0]), int(ratio[1])
    if a < 1 or b < 1:
        raise InputError("ratio parts must be positive integers")
    in_arr = np.asarray(in_scores, dtype=np.float64).ravel()
    out_arr = np.asarray(out_scores, dtype=np.float64).ravel()
    m = min(out_arr.size // a, in_arr.size // b)
    if m == 0:
        raise InputError(
            f"pools of {out_arr.size} out / {in_arr.size} in cannot realize ratio {a}:{b}"
        )
    n_out, n_in = m * a, m * b
    rng = np.random.default_rng(seed)
    if n_out < out_arr.size:
        out_arr = out_arr[np.sort(rng.choice(out_arr.size, size=n_out, replace=False))]
    if n_in < in_arr.size:
        in_arr = in_arr[np.sort(rng.choice(in_arr.size, size=n_in, replace=False))]
    return ScoredSet(in_arr, out_arr)


def ratio_label(n_out: int, n_in: int) -> str:
    g = math.gcd(int(n_out), int(n_in))
    return f"{n_out // g}:{n_in // g}"


def detection_report(s: ScoredSet, n_level: float = 95.0) -> DetectionReport:
    """AUROC / AUPR / FPR@N for one scored pair of test sets."""
    label = ratio_label(s.out_scores.size, s.in_scores.size)
    return DetectionReport(auroc(s), aupr(s), fpr_at_tpr(s, n_level), float(n_level), label)


def roc_points(s: ScoredSet):
    """(fpr, tpr) arrays over descending thresholds, starting from (0, 0)."""
    _check(s)
    tp, fp = _sweep(s)
    tpr = np.concatenate(([0.0], tp / s.out_scores.size))
    fpr = np.concatenate(([0.0], fp / s.in_scores.size))
    return fpr, tpr


def pr_points(s: ScoredSet):
    """(recall, precision) arrays over descending thresholds."""
    _check(s)
    tp, fp = _sweep(s)
    recall = tp / s.out_scores.size
    precision = tp / (tp + fp)
    return recall, precision
