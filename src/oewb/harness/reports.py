"""Report emission: per-seed CSVs, mean-over-seeds summaries, curve points.

Everything written here is a pure function of the experiment result, with
fixed row order, repr-formatted floats, and "\n" line endings, so a rerun
of the same config produces byte-identical files. Display rounding (one
decimal of a percent, saturating at "100.") is applied only in the
rendered table; CSV and JSON keep full precision.

Curve and score files are formatted whole. A pool's ROC and PR files come
from one metrics.sweep: fpr, tpr and recall are counts over a pool size,
so their strings are a per-run table of repr(k / n) indexed by count, and
only precision is repr'd, once per block of tied scores (one curve point;
two blocks may share a value, and each is repr'd).
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..metrics import ScoredSet, sweep
from .config import save_config, write_json
from .pipeline import ExperimentResult


def display_percent(value: float) -> str:
    """Fraction -> table cell: one decimal of a percent, half-up, and
    anything reaching 100.0 renders as "100." exactly."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"display_percent expects a fraction, got {value}")
    tenths = math.floor(value * 1000.0 + 0.5)
    if tenths >= 1000:
        return "100."
    return f"{tenths // 10}.{tenths % 10}"


_CSV_FIELDS = ["auroc", "aupr", "fpr_at_n", "n_level", "base_rate"]


def _per_seed_rows(exp: ExperimentResult):
    cfg = exp.config
    for sr in exp.seed_results:
        for phase in ("baseline", "final"):
            for spec in cfg.d_out_test:
                rep = sr.reports[phase][spec.name]
                yield [
                    sr.seed, phase, cfg.d_in.name, spec.name, cfg.detector, cfg.pipeline,
                    repr(rep.auroc), repr(rep.aupr), repr(rep.fpr_at_n),
                    repr(rep.n_level), rep.base_rate,
                ]


def write_per_seed_csv(path, exp: ExperimentResult) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["seed", "phase", "d_in", "d_out", "detector", "pipeline", *_CSV_FIELDS])
        for row in _per_seed_rows(exp):
            w.writerow(row)


def write_summary_csv(path, exp: ExperimentResult) -> None:
    cfg = exp.config
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["phase", "d_in", "d_out", "detector", "pipeline",
                    "auroc", "aupr", "fpr_at_n", "n_level", "base_rate", "n_seeds"])
        for phase in ("baseline", "final"):
            for spec in cfg.d_out_test:
                cell = exp.summary[phase][spec.name]
                w.writerow([
                    phase, cfg.d_in.name, spec.name, cfg.detector, cfg.pipeline,
                    repr(cell["auroc"]), repr(cell["aupr"]), repr(cell["fpr_at_n"]),
                    repr(cell["n_level"]), cell["base_rate"], cell["n_seeds"],
                ])


def summary_payload(exp: ExperimentResult) -> dict:
    cfg = exp.config
    per_seed = []
    for sr in exp.seed_results:
        entry = {
            "seed": sr.seed,
            "reports": {
                phase: {name: asdict(rep) for name, rep in phase_reports.items()}
                for phase, phase_reports in sr.reports.items()
            },
        }
        if sr.train_accuracy is not None:
            entry["train_accuracy"] = sr.train_accuracy
        if sr.calibration is not None:
            entry["calibration"] = {k: asdict(v) for k, v in sr.calibration.items()}
        per_seed.append(entry)
    return {"config": cfg.to_dict(), "summary": exp.summary, "per_seed": per_seed}


def render_table(exp: ExperimentResult) -> str:
    cfg = exp.config
    lines = [
        f"{cfg.name}: detector={cfg.detector} pipeline={cfg.pipeline} "
        f"seeds={len(cfg.seeds)} base_rate={cfg.base_rate[0]}:{cfg.base_rate[1]}",
        f"{'phase':<9} {'d_out':<22} {'AUROC':>6} {'AUPR':>6} {'FPR@' + repr(cfg.n_level):>9}",
    ]
    for phase in ("baseline", "final"):
        for spec in cfg.d_out_test:
            cell = exp.summary[phase][spec.name]
            lines.append(
                f"{phase:<9} {spec.name:<22} "
                f"{display_percent(cell['auroc']):>6} "
                f"{display_percent(cell['aupr']):>6} "
                f"{display_percent(cell['fpr_at_n']):>9}"
            )
    return "\n".join(lines) + "\n"


def _rate_strings(n: int, tables: dict) -> list:
    """[repr(k / n) for k = 0..n], built once per pool size. numpy's int64
    count / n and Python's k / n are both correctly rounded, so a rate's
    string is this table indexed by its count."""
    if n not in tables:
        tables[n] = [repr(k / n) for k in range(n + 1)]
    return tables[n]


def _csv(cols, xs, ys) -> str:
    return ",".join(cols) + "\n" + "\n".join(map(",".join, zip(xs, ys))) + "\n"


def write_curves(out_dir: Path, exp: ExperimentResult) -> None:
    """ROC and PR files from one sweep per pool. fpr, tpr and recall are
    counts over a pool size, so their strings come from _rate_strings;
    precision strings are repr'd once per block of tied scores."""
    curve_dir = out_dir / "curves"
    curve_dir.mkdir(parents=True, exist_ok=True)
    tables = {}
    for sr in exp.seed_results:
        for name, pool in sr.pools.items():
            tp, fp = sweep(pool)
            by_out = _rate_strings(pool.out_scores.size, tables)
            by_in = _rate_strings(pool.in_scores.size, tables)
            recall = list(map(by_out.__getitem__, tp.tolist()))
            fpr = list(map(by_in.__getitem__, fp.tolist()))
            precision = list(map(repr, (tp / (tp + fp)).tolist()))
            for stem, text in (
                ("roc", _csv(("fpr", "tpr"), [by_in[0], *fpr], [by_out[0], *recall])),
                ("pr", _csv(("recall", "precision"), recall, precision)),
            ):
                with (curve_dir / f"{stem}_{name}_seed{sr.seed}.csv").open("w", newline="") as fh:
                    fh.write(text)


def _score_rows(scores: np.ndarray, first_id: int, is_ood: int) -> str:
    """Score-file rows "example_id,score,is_ood" for scores, with ids
    counting from first_id; one % formats every row in C, and %r is repr."""
    n = scores.size
    cells = [None] * (2 * n)
    cells[0::2] = range(first_id, first_id + n)
    cells[1::2] = scores.tolist()
    return (f"%d,%r,{is_ood}\n" * n) % tuple(cells)


def write_pool_scores(path, pool: ScoredSet, inlier_rows: dict | None = None) -> None:
    """A pool's score file: columns example_id (the row index), score (repr
    precision) and is_ood, with its inlier rows (0), then its outlier rows (1).

    inlier_rows, when given, maps the bytes of an in_scores array to its
    rows, so pools that share their inliers format them once; a pool whose
    inliers were drawn differently has other bytes and gets its own rows."""
    key = pool.in_scores.tobytes()
    cache = {} if inlier_rows is None else inlier_rows
    if key not in cache:
        cache[key] = _score_rows(pool.in_scores, 0, 0)
    with Path(path).open("w", newline="") as fh:
        fh.write("example_id,score,is_ood\n" + cache[key] + _score_rows(pool.out_scores, pool.in_scores.size, 1))


def write_score_files(out_dir: Path, exp: ExperimentResult) -> None:
    score_dir = out_dir / "scores"
    score_dir.mkdir(parents=True, exist_ok=True)
    for sr in exp.seed_results:
        inlier_rows = {}  # one seed's pools share its inlier scores
        for name, pool in sr.pools.items():
            write_pool_scores(score_dir / f"{name}_seed{sr.seed}.csv", pool, inlier_rows)


def write_reports(out_dir, exp: ExperimentResult) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_per_seed_csv(out / "per_seed.csv", exp)
    write_summary_csv(out / "summary.csv", exp)
    write_json(out / "summary.json", summary_payload(exp))
    save_config(exp.config, out / "config_resolved.json")
    (out / "table.txt").write_text(render_table(exp))
    write_curves(out, exp)
    write_score_files(out, exp)
    for sr in exp.seed_results:
        if sr.calibration is not None:
            write_json(out / f"calibration_seed{sr.seed}.json", {k: asdict(v) for k, v in sr.calibration.items()})
