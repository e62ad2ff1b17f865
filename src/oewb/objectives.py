"""Loss values: cross-entropy, uniformity pressure on auxiliary outliers,
and the sequence-likelihood margin.

Losses are scalar batch means. The matching exact gradients live in
nn_core.grad and density.margin_grad, which keeps the value path and the
gradient path in separate code so finite-difference checks compare two
independent implementations.
"""

from __future__ import annotations

import numpy as np

from . import nn_core
from .errors import ConfigurationError, DataError, ParameterError

_PROB_FLOOR = 1e-12


def _log_probs(values, from_logits: bool) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 1:
        v = v[None, :]
    if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
        raise ConfigurationError("expected a nonempty (n, k) array")
    if from_logits:
        return nn_core.log_softmax(v)
    return np.log(np.clip(v, _PROB_FLOOR, None))


def ce_loss(values, labels, from_logits: bool = True) -> float:
    """Mean negative log-probability of the true class."""
    lp = _log_probs(values, from_logits)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (lp.shape[0],):
        raise ConfigurationError("labels must supply one class index per row")
    if np.any(labels < 0) or np.any(labels >= lp.shape[1]):
        raise DataError("class label out of range")
    return float(np.mean(-lp[np.arange(lp.shape[0]), labels]))


def uniform_ce(values, from_logits: bool = True) -> float:
    """Mean cross-entropy from the uniform class distribution to the posterior.

    Equals -(1/k) sum_i log p_i averaged over the batch; lower-bounded by
    log k, attained exactly at the uniform posterior.
    """
    lp = _log_probs(values, from_logits)
    if lp.shape[1] < 2:
        raise ConfigurationError("uniform cross-entropy needs k >= 2 classes")
    return float(np.mean(-lp.mean(axis=1)))


def multiclass_oe_loss(in_batch, oe_batch, params, lam: float) -> float:
    """Labeled cross-entropy plus lam * uniformity pressure on the outlier batch.

    At lam = 0 this is exactly the plain cross-entropy: the outlier term is
    skipped rather than multiplied away.
    """
    if lam < 0:
        raise ParameterError("lam must be nonnegative")
    if in_batch.labels is None:
        raise ConfigurationError("in-distribution batch needs labels")
    logits_in = nn_core.forward(params, in_batch)
    loss = ce_loss(logits_in, in_batch.labels)
    if lam > 0:
        if oe_batch is None or len(oe_batch) == 0:
            raise ConfigurationError("positive lam needs a nonempty outlier batch")
        if oe_batch.labels is not None:
            raise ConfigurationError("outlier batch must be unlabeled")
        logits_oe = nn_core.forward(params, oe_batch)
        loss += lam * uniform_ce(logits_oe)
    return float(loss)


def density_margin_loss(nll_in, nll_out, margin: float) -> float:
    """Mean hinge max(0, margin + nll_in - nll_out) over position-paired examples.

    Zero exactly when every outlier is at least `margin` nats less likely
    than its paired inlier.
    """
    a = np.asarray(nll_in, dtype=np.float64)
    b = np.asarray(nll_out, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ConfigurationError("paired nll arrays must be 1-d with equal length")
    if a.size == 0:
        raise ConfigurationError("empty nll batch")
    if not margin > 0:
        raise ParameterError("margin must be positive")
    return float(np.mean(np.maximum(0.0, margin + a - b)))
