"""Loss values: cross-entropy, uniformity pressure on auxiliary outliers,
and the sequence-likelihood margin.

Losses take logits and return scalar batch means. The matching exact
gradients live in nn_core.grad and density.margin_grad, which keeps the
value path and the gradient path in separate code so finite-difference
checks compare two independent implementations.
"""

from __future__ import annotations

import numpy as np

from . import nn_core
from .errors import ValidationError


def _log_probs(logits) -> np.ndarray:
    v = np.asarray(logits, dtype=np.float64)
    if v.ndim == 1:
        v = v[None, :]
    if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
        raise ValidationError("expected a nonempty (n, k) array")
    return nn_core.log_softmax(v, nn_core.Workspace())


def ce_loss(logits, labels) -> float:
    """Mean negative log-probability of the true class."""
    lp = _log_probs(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (lp.shape[0],):
        raise ValidationError("labels must supply one class index per row")
    if np.any(labels < 0) or np.any(labels >= lp.shape[1]):
        raise ValidationError("class label out of range")
    return float(np.mean(-lp[np.arange(lp.shape[0]), labels]))


def uniform_ce(logits) -> float:
    """Mean cross-entropy from the uniform class distribution to the posterior.

    Equals -(1/k) sum_i log p_i averaged over the batch; lower-bounded by
    log k, attained exactly at the uniform posterior.
    """
    lp = _log_probs(logits)
    if lp.shape[1] < 2:
        raise ValidationError("uniform cross-entropy needs k >= 2 classes")
    return float(np.mean(-lp.mean(axis=1)))


def multiclass_oe_loss(in_batch, oe_batch, params, lam: float) -> float:
    """Labeled cross-entropy plus lam * uniformity pressure on the outlier batch.

    At lam = 0 this is exactly the plain cross-entropy: the outlier term is
    skipped rather than multiplied away.
    """
    if lam < 0:
        raise ValidationError("lam must be nonnegative")
    if in_batch.labels is None:
        raise ValidationError("in-distribution batch needs labels")
    # the workspace owns the logits: the inlier loss is taken before the
    # outlier forward overwrites them
    work = nn_core.Workspace()
    logits_in = nn_core.forward(params, in_batch.inputs, work)
    loss = ce_loss(logits_in, in_batch.labels)
    if lam > 0:
        if oe_batch is None:
            raise ValidationError("positive lam needs an outlier batch")
        if oe_batch.labels is not None:
            raise ValidationError("outlier batch must be unlabeled")
        logits_oe = nn_core.forward(params, oe_batch.inputs, work)
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
        raise ValidationError("paired nll arrays must be 1-d with equal length")
    if a.size == 0:
        raise ValidationError("empty nll batch")
    if not margin > 0:
        raise ValidationError("margin must be positive")
    return float(np.mean(np.maximum(0.0, margin + a - b)))
