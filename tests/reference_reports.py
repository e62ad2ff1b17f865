"""Reference report writers, kept to check the fast ones against.

This is how the workbench wrote curve and score files before it formatted
whole files at once: a csv.writer row per point with repr(float(x)) cells
of the metrics module's curve arrays, and score and flag lists built by
hand. The current code must reproduce these bytes exactly, so nothing here
may be "simplified" into the code under test.
"""

import csv

import numpy as np

from oewb.metrics import pr_points, roc_points


def write_scores_csv(path, scores, is_ood, ids=None) -> None:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    flags = np.asarray(is_ood).ravel().astype(int)
    if ids is None:
        ids = range(scores.size)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["example_id", "score", "is_ood"])
        for i, sc, fl in zip(ids, scores, flags):
            w.writerow([i, repr(float(sc)), int(fl)])


def write_pool_scores(path, pool) -> None:
    scores = list(pool.in_scores) + list(pool.out_scores)
    flags = [0] * pool.in_scores.size + [1] * pool.out_scores.size
    write_scores_csv(path, scores, flags)


def write_curves(out_dir, exp) -> None:
    curve_dir = out_dir / "curves"
    curve_dir.mkdir(parents=True, exist_ok=True)
    for sr in exp.seed_results:
        for name, pool in sr.pools.items():
            for stem, (xs, ys), cols in (
                ("roc", roc_points(pool), ("fpr", "tpr")),
                ("pr", pr_points(pool), ("recall", "precision")),
            ):
                path = curve_dir / f"{stem}_{name}_seed{sr.seed}.csv"
                with path.open("w", newline="") as fh:
                    w = csv.writer(fh, lineterminator="\n")
                    w.writerow(cols)
                    for a, b in zip(xs, ys):
                        w.writerow([repr(float(a)), repr(float(b))])


def write_score_files(out_dir, exp) -> None:
    score_dir = out_dir / "scores"
    score_dir.mkdir(parents=True, exist_ok=True)
    for sr in exp.seed_results:
        for name, pool in sr.pools.items():
            write_pool_scores(score_dir / f"{name}_seed{sr.seed}.csv", pool)
