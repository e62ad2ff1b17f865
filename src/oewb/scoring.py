"""Anomaly scores. Convention everywhere: higher score = more anomalous.

The uniformity-based score negates the cross-entropy H(U; p). A uniform
posterior is the most anomalous signal a classifier can emit, so it gets
the maximal score -log k, while a confident one-hot posterior runs off
toward -inf. Keeping every detector oriented the same way means the
metrics module never needs per-detector sign flips.
"""

from __future__ import annotations

import numpy as np

from . import density as density_mod
from . import nn_core
from .errors import ConfigurationError

DETECTORS = ("msp", "uniform_ce", "density_bpp")


def score_dataset(model, kind: str, dataset) -> np.ndarray:
    """Per-example anomaly scores for a whole dataset, in input order."""
    if kind not in DETECTORS:
        raise ConfigurationError(f"unknown detector kind {kind!r}")
    if not isinstance(model, nn_core.NetworkParams):
        raise ConfigurationError(f"{kind} scoring needs network parameters")
    if kind == "density_bpp":
        seqs = np.asarray(dataset, dtype=np.int64)
        if seqs.size == 0:
            return np.zeros(0)
        return density_mod.bits_per_dim_batch(model, seqs)
    X = np.asarray(dataset, dtype=np.float64)
    if X.size == 0:
        return np.zeros(0)
    logits = nn_core.forward(model, X)
    if kind == "msp":
        return -nn_core.max_softmax(logits, out=logits)
    return nn_core.log_softmax(logits).mean(axis=1)
