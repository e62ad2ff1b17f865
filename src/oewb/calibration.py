"""Confidence calibration: adaptive equal-count binning, scalar
temperature fitting, posterior rescaling onto [0, 1], and one report of
RMS and MAD calibration errors and a soft F1 for mistake flagging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn_core
from .errors import ValidationError


@dataclass
class CalibrationReport:
    rms_error: float
    mad_error: float
    soft_f1: float
    temperature: float
    rescaled: bool
    bin_count: int
    soft_f1_degenerate: bool = False


def _predictions(confidence, correct):
    """Validated confidence array and 0/1 float correctness array; one
    record per position."""
    conf = np.asarray(confidence, dtype=np.float64).ravel()
    corr = np.asarray(correct).ravel()
    if conf.size == 0:
        raise ValidationError("no prediction records")
    if corr.shape != conf.shape:
        raise ValidationError("confidences and correctness flags must align")
    if not np.all((conf >= 0.0) & (conf <= 1.0)):  # also rejects NaN
        raise ValidationError("confidence must lie in [0, 1]")
    return conf, corr.astype(bool).astype(np.float64)


def adaptive_bins(confidence):
    """Split records, sorted by confidence, into contiguous near-equal-count bins.

    Bin count is max(1, round(n / 100)); bin sizes differ by at
    most one. Returns each bin as an array of record indices in ascending
    confidence order.
    """
    conf = np.asarray(confidence, dtype=np.float64).ravel()
    if conf.size == 0:
        raise ValidationError("no prediction records")
    n = conf.size
    order = np.argsort(conf, kind="mergesort")
    b = max(1, round(n / 100))
    base, rem = divmod(n, b)
    sizes = [base + (1 if i < rem else 0) for i in range(b)]
    return np.split(order, np.cumsum(sizes)[:-1])


def _nll_at(logits, top, picked, temps, work: nn_core.Workspace) -> np.ndarray:
    """Mean cross-entropy of logits[f] / t for every temperature t in row f
    of temps: the (F, T) losses of (F, n, k) logits, given top =
    class_max(logits) and picked, the (F, n) label logits.

    Bit-identical to objectives.ce_loss(logits[f] / t, labels[f]) while it
    computes only the label entries of the log-softmax: dividing by t > 0
    keeps the order, so max(z / t) is exactly max(z) / t, and a label
    entry is (picked / t - max) - log(sum exp(z / t - max)) as log_softmax
    forms it. Each mean reduces the negated entries along the last axis of
    a C-contiguous array, which sums every row as ce_loss's 1-D np.mean
    does.
    """
    n = logits.shape[1]
    out = np.empty(temps.shape)
    # temperatures per chunk: each (F, T, n, k) temporary stays within 2**15
    # entries (256 KiB), or one temperature per fit, so the batching adds no
    # visible peak memory
    chunk = max(1, 2**15 // logits.size)
    for start in range(0, temps.shape[1], chunk):
        t = temps[:, start : start + chunk, None]
        m = top[:, None, :, 0] / t
        z = logits[:, None, :, :] / t[..., None]
        z -= m[..., None]
        s = np.log(nn_core.class_sum(np.exp(z, out=z), work))
        lp = picked[:, None, :] / t
        lp -= m
        lp -= s
        # negate before the sum, as ce_loss does: a sum of zeros keeps no
        # sign, so -(sum of lp) can read -0.0 where ce_loss reads 0.0
        out[:, start : start + chunk] = np.add.reduce(np.negative(lp, out=lp), axis=-1) / n
    return out


def _libm(fn, x) -> np.ndarray:
    """fn (math.exp or math.log) of every entry: numpy's exp and log can
    round differently from libm's."""
    return np.array([fn(v) for v in x])


def tune_temperature(logits, labels) -> np.ndarray:
    """Scalar temperature minimizing cross-entropy of logits / T on a held-out set.

    Takes a stack of F fits, (F, n, k) logits and (F, n) labels, and
    returns their (F,) temperatures. Each fit searches a 200-point
    log-spaced grid over [0.01, 100] (with T = 1 included exactly) and
    refines between its best point's neighbors by 60 golden-section
    steps. The fits step in lockstep, each step probing the whole stack
    at once, but every fit's floats take the path of a search on its own.
    Non-finite logits are refused, naming the fit and its first bad row.
    Network parameters are untouched.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 3 or 0 in logits.shape[:2]:
        raise ValidationError("tuning needs a nonempty (F, n, k) stack of logit matrices")
    if labels.shape != logits.shape[:2]:
        raise ValidationError("labels must supply one class per row")
    if np.any(labels < 0) or np.any(labels >= logits.shape[2]):
        raise ValidationError("class label out of range")
    bad = ~np.isfinite(logits).all(axis=-1)
    if bad.any():
        fit, row = np.argwhere(bad)[0]
        raise ValidationError(f"fit {fit}: logits of row {row} are not all finite")

    work = nn_core.Workspace()
    top = nn_core.class_max(logits, work)
    picked = np.take_along_axis(logits, labels[..., None], axis=-1)[..., 0]

    def nll_at(t: np.ndarray) -> np.ndarray:
        return _nll_at(logits, top, picked, t[:, None], work)[:, 0]

    grid = np.unique(np.concatenate((np.logspace(-2.0, 2.0, 200), [1.0])))
    ces = _nll_at(logits, top, picked, np.broadcast_to(grid, (logits.shape[0], grid.size)), work)
    best = np.argmin(ces, axis=-1)
    a = _libm(math.log, grid[np.maximum(best - 1, 0)])
    b = _libm(math.log, grid[np.minimum(best + 1, grid.size - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = nll_at(_libm(math.exp, c)), nll_at(_libm(math.exp, d))
    for _ in range(60):
        # fc < fd keeps [a, d] and probes a new c; otherwise [c, b] and a new d
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = np.where(left, b - invphi * (b - a), d), np.where(left, c, a + invphi * (b - a))
        f = nll_at(_libm(math.exp, np.where(left, c, d)))
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
    refined = _libm(math.exp, (a + b) / 2.0)
    temps = np.where(nll_at(refined) < ces[np.arange(ces.shape[0]), best], refined, grid[best])
    return temps


def posterior_rescale(p_max, k: int):
    """(p - 1/k) / (1 - 1/k): maps the uniform floor to exactly 0 and full
    confidence to exactly 1, elementwise over max posteriors."""
    if int(k) < 2:
        raise ValidationError("k must be >= 2")
    floor = 1.0 / k
    p = np.asarray(p_max, dtype=np.float64)
    bad = ~((p >= floor) & (p <= 1.0))
    if np.any(bad):
        raise ValidationError(f"p_max = {p[bad].flat[0]} is impossible for a {k}-class posterior")
    return (p - floor) / (1.0 - floor)


def mixed_prediction_records(in_conf, in_correct, ood_conf, seed=0):
    """Equal-count evaluation pool as (confidence, correct) arrays: inliers
    keep their correctness flags, every out-of-distribution example counts
    as incorrect."""
    in_conf = np.asarray(in_conf, dtype=np.float64).ravel()
    in_correct = np.asarray(in_correct).ravel().astype(bool)
    ood_conf = np.asarray(ood_conf, dtype=np.float64).ravel()
    if in_conf.shape != in_correct.shape:
        raise ValidationError("in-distribution confidences and flags must align")
    m = min(in_conf.size, ood_conf.size)
    if m == 0:
        raise ValidationError("both pools must be nonempty")
    rng = np.random.default_rng(seed)
    if in_conf.size > m:
        keep = np.sort(rng.choice(in_conf.size, size=m, replace=False))
        in_conf, in_correct = in_conf[keep], in_correct[keep]
    if ood_conf.size > m:
        keep = np.sort(rng.choice(ood_conf.size, size=m, replace=False))
        ood_conf = ood_conf[keep]
    return np.concatenate((in_conf, ood_conf)), np.concatenate((in_correct, np.zeros(m, dtype=bool)))


def report_from_records(confidence, correct, temperature: float = 1.0, rescaled: bool = False) -> CalibrationReport:
    """Calibration errors and soft F1 of (confidence, correct) records.

    Over the adaptive bins B_b, with gap_b = accuracy_b - mean confidence_b,
    the RMS error is sqrt(sum_b (|B_b| / n) * gap_b^2) and the MAD error
    sum_b (|B_b| / n) * |gap_b|, which never exceeds it. Soft F1 scores
    mistake flagging with 1 - confidence as the flag strength; when every
    record is fully confident and correct there is nothing to flag, so it
    is 1 and soft_f1_degenerate is set.
    """
    conf, corr = _predictions(confidence, correct)
    bins = adaptive_bins(conf)
    weights = [idx.size / conf.size for idx in bins]
    gaps = [float(corr[idx].mean() - conf[idx].mean()) for idx in bins]
    anomaly, mistake = 1.0 - conf, 1.0 - corr
    den = float((anomaly + mistake).sum() / 2.0)
    degenerate = den == 0.0
    return CalibrationReport(
        float(math.sqrt(math.fsum(w * g * g for w, g in zip(weights, gaps)))),
        float(math.fsum(w * abs(g) for w, g in zip(weights, gaps))),
        1.0 if degenerate else float(anomaly @ mistake) / den,
        float(temperature), bool(rescaled), len(gaps), degenerate,
    )
