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
from .errors import ValidationError

DETECTORS = ("msp", "uniform_ce", "density_bpp")

# The fewest forward rows from which choose_forward has a pool's kept rows
# scored alone. A row's logits depend on that row alone, but OpenBLAS runs
# small products through other gemm kernels, which can move a row's last
# bits against a whole-set pass. From this many rows on the kept rows keep
# those bits on SkylakeX and Sandybridge; on Haswell and Nehalem a row in
# a gemm's short last tile still moves (tests/test_blas_kernels.py).
ALONE_ROWS = 2048


def score_dataset(model, kind: str, dataset) -> np.ndarray:
    """Per-example anomaly scores for a whole dataset, in input order."""
    if kind not in DETECTORS:
        raise ValidationError(f"unknown detector kind {kind!r}")
    if not isinstance(model, nn_core.NetworkParams):
        raise ValidationError(f"{kind} scoring needs network parameters")
    if kind == "density_bpp":
        return density_mod.bits_per_dim_batch(model, dataset)
    logits = nn_core.forward(model, np.asarray(dataset, dtype=np.float64))
    if kind == "msp":
        return -nn_core.max_softmax(logits, out=logits)
    return nn_core.log_softmax(logits).mean(axis=1)


def choose_forward(kind: str, dataset, rows: np.ndarray) -> tuple:
    """What to forward to score the rows of dataset, an array of row
    indices, with the bits of score_dataset(model, kind, dataset)[rows]:
    (dataset[rows], None) for a proper subset whose forward has at least
    ALONE_ROWS rows (a density sequence runs D position rows), else
    (dataset, rows), the whole set and the index to take from its
    scores."""
    dataset = np.asarray(dataset)
    forward_rows = rows.size * (dataset.shape[1] if kind == "density_bpp" else 1)
    if rows.size < len(dataset) and forward_rows >= ALONE_ROWS:
        return dataset[rows], None
    return dataset, rows

