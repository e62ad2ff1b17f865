"""Anomaly scores. Convention everywhere: higher score = more anomalous.

The uniformity-based score negates the cross-entropy H(U; p). A uniform
posterior is the most anomalous signal a classifier can emit, so it gets
the maximal score -log k, while a confident one-hot posterior runs off
toward -inf. Keeping every detector oriented the same way means the
metrics module never needs per-detector sign flips.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from . import density as density_mod
from . import nn_core
from .errors import ConfigurationError, DataError

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
        return -nn_core.max_softmax(logits)
    return nn_core.log_softmax(logits).mean(axis=1)


def write_scores_csv(path, scores, is_ood) -> None:
    """Columns: example_id (the row index), score (repr precision), is_ood (0/1)."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    flags = np.asarray(is_ood).ravel().astype(int)
    if scores.shape != flags.shape:
        raise ConfigurationError("scores and is_ood flags must have equal length")
    n = scores.size
    cells = [None] * (3 * n)
    cells[0::3] = range(n)
    cells[1::3] = scores.tolist()
    cells[2::3] = flags.tolist()
    with Path(path).open("w", newline="") as fh:
        # one % formats every row in C; %r is repr
        fh.write("example_id,score,is_ood\n" + ("%d,%r,%d\n" * n) % tuple(cells))


def read_scores_csv(path):
    """Inverse of write_scores_csv; returns (ids, scores, is_ood)."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["example_id", "score", "is_ood"]:
            raise DataError(f"unexpected score file header {header!r}")
        ids, scores, flags = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise DataError(f"malformed score row at line {lineno}")
            try:
                ids.append(row[0])
                scores.append(float(row[1]))
                flags.append(bool(int(row[2])))
            except ValueError as exc:
                raise DataError(f"malformed score row at line {lineno}: {exc}") from exc
    return ids, np.asarray(scores), np.asarray(flags, dtype=bool)
