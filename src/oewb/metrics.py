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

All three, and the ROC/PR curve points, are read off one sweep: a single
sort of the pool, giving the cumulative outlier (tp) and inlier (fp)
counts at the end of each block of tied scores. AUROC is the exact
integer Mann-Whitney count over those blocks, AUPR sums over them, and
FPR@N indexes the first block whose tp reaches ceil(N% * n_out).
detection_report sweeps each pool once for all three.

Pools are compared at a fixed out:in base rate. base_rate_rows draws the
rows such a pool keeps from the two set sizes and a seed alone, before
anything is scored; enforce_base_rate applies that draw to score lists.

Runs call only sweep, detection_report, base_rate_sizes and
base_rate_rows. auroc, aupr, fpr_at_tpr, roc_points, pr_points and
enforce_base_rate are library API that no run calls: one metric, or one
curve, or one pool of score lists at a time. They are kept for the
oracle tests and for bench/tracer.py, which traces them by name.
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


def sweep(s: ScoredSet):
    """Cumulative (tp, fp) counts at the end of each distinct-score block,
    in descending score order: one sort of the pool. The counts at a block's
    end do not depend on the order inside it, so the sort need not be
    stable. The last block holds every score, so tp[-1] and fp[-1] are the
    pool sizes."""
    _check(s)
    scores = np.concatenate((s.out_scores, s.in_scores))
    order = np.argsort(-scores)
    ss = scores[order]
    block_end = np.flatnonzero(np.append(ss[1:] != ss[:-1], True))
    tp = np.cumsum(order < s.out_scores.size)[block_end]  # outliers come first in scores
    return tp, block_end + 1 - tp


def _auroc(tp, fp) -> float:
    """The Mann-Whitney U over blocks, in integers: each of a block's fp_inc
    inliers is outscored by the tp_prev outliers of the blocks above and tied
    with the block's own tp_inc, so 2U = sum of fp_inc * (2 * tp_prev + tp_inc)
    = sum of fp_inc * (tp_prev + tp). U is an exact float (it stays far
    below 2**53), so only the final quotient rounds."""
    tp_prev = np.concatenate(([0], tp[:-1]))
    two_u = int(np.dot(np.diff(fp, prepend=0), tp_prev + tp))
    return (two_u / 2.0) / (int(tp[-1]) * int(fp[-1]))


def _aupr(tp, fp) -> float:
    recall = tp / tp[-1]
    precision = tp / (tp + fp)
    prev = np.concatenate(([0.0], recall[:-1]))
    return float(math.fsum((recall - prev) * precision))


def _fpr_at_tpr(tp, fp, n_percent: float) -> float:
    """The k-th largest outlier score, k = ceil(N% * n_out), closes the first
    block whose cumulative tp reaches k; fp counts the inliers at or above it."""
    if not 0 < n_percent <= 100:
        raise InputError("n_percent must lie in (0, 100]")
    k = math.ceil(n_percent * int(tp[-1]) / 100.0)
    return int(fp[np.searchsorted(tp, k)]) / int(fp[-1])


def auroc(s: ScoredSet) -> float:
    """Probability a random outlier outscores a random inlier (ties count half)."""
    return _auroc(*sweep(s))


def aupr(s: ScoredSet) -> float:
    """Average precision of outlier retrieval over descending distinct thresholds."""
    return _aupr(*sweep(s))


def fpr_at_tpr(s: ScoredSet, n_percent: float) -> float:
    """False-positive rate at the threshold catching >= n_percent of outliers."""
    return _fpr_at_tpr(*sweep(s), n_percent)


def base_rate_sizes(n_in: int, n_out: int, ratio=(1, 5)) -> tuple[int, int]:
    """(inliers, outliers) a pool of n_in inliers and n_out outliers keeps at
    an exact out:in ratio: as much of each as fits, with floor rounding on
    whichever side is the constraint."""
    a, b = int(ratio[0]), int(ratio[1])
    if a < 1 or b < 1:
        raise InputError("ratio parts must be positive integers")
    m = min(int(n_out) // a, int(n_in) // b)
    if m == 0:
        raise InputError(f"pools of {n_out} out / {n_in} in cannot realize ratio {a}:{b}")
    return m * b, m * a


def base_rate_rows(n_in: int, n_out: int, ratio=(1, 5), seed=0) -> tuple[np.ndarray, np.ndarray]:
    """The seeded draw behind enforce_base_rate, from the pool sizes alone:
    (inlier rows, outlier rows) that the pool keeps, each sorted.

    The outliers are drawn first, then the inliers, each by one rng.choice
    without replacement from one generator; a side kept whole is
    np.arange of its size and makes no draw.
    """
    keep_in, keep_out = base_rate_sizes(n_in, n_out, ratio)
    rng = np.random.default_rng(seed)

    def rows(n: int, keep: int) -> np.ndarray:
        return np.arange(n) if keep == n else np.sort(rng.choice(n, size=keep, replace=False))

    out_rows = rows(n_out, keep_out)  # before the inliers: the draw order sets the rows
    return rows(n_in, keep_in), out_rows


def enforce_base_rate(in_scores, out_scores, ratio=(1, 5), seed=0) -> ScoredSet:
    """Seeded subsample of two score lists to an exact out:in ratio: the
    rows of base_rate_rows, taken in order. The draw reads only the list
    sizes, so a caller that scores its rows later (the harness's
    evaluate_detector) draws with base_rate_rows first and scores only the
    rows the pool keeps."""
    in_arr = np.asarray(in_scores, dtype=np.float64).ravel()
    out_arr = np.asarray(out_scores, dtype=np.float64).ravel()
    in_rows, out_rows = base_rate_rows(in_arr.size, out_arr.size, ratio, seed)
    return ScoredSet(in_arr[in_rows], out_arr[out_rows])


def ratio_label(n_out: int, n_in: int) -> str:
    g = math.gcd(int(n_out), int(n_in))
    return f"{n_out // g}:{n_in // g}"


def detection_report(s: ScoredSet, n_level: float = 95.0) -> DetectionReport:
    """AUROC / AUPR / FPR@N for one scored pair of test sets."""
    label = ratio_label(s.out_scores.size, s.in_scores.size)
    tp, fp = sweep(s)
    return DetectionReport(_auroc(tp, fp), _aupr(tp, fp), _fpr_at_tpr(tp, fp, n_level), float(n_level), label)


def roc_points(s: ScoredSet):
    """(fpr, tpr) arrays over descending thresholds, starting from (0, 0)."""
    tp, fp = sweep(s)
    tpr = np.concatenate(([0.0], tp / s.out_scores.size))
    fpr = np.concatenate(([0.0], fp / s.in_scores.size))
    return fpr, tpr


def pr_points(s: ScoredSet):
    """(recall, precision) arrays over descending thresholds."""
    tp, fp = sweep(s)
    recall = tp / s.out_scores.size
    precision = tp / (tp + fp)
    return recall, precision
