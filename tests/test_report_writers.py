"""Curve and score files against the reference writers in
reference_reports.py: the same bytes, on pools built to hit the formatting
edge cases."""

import csv
import math

import numpy as np
import pytest

from oewb.harness import reports
from oewb.harness.pipeline import ExperimentResult, SeedResult
from oewb.metrics import ScoredSet

import reference_reports as ref

EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.5, 1.0 / 3.0, 1e16, 1e-5)


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _pools(seed):
    rng = np.random.default_rng(seed)
    return {
        "ties": ScoredSet([0.5, 0.5, 0.25, 0.5, 1.0], [0.5, 1.0, 1.0]),
        "zeros": ScoredSet([0.0, -0.0, -0.0, 1.0], [-0.0, 0.0, 0.0]),
        "extremes": ScoredSet([5e-324, -5e-324, 1e300, 0.0], [1e300, -1e300, 5e-324, 1e16]),
        # two continuous pools of one size share their curve rates k/n
        "wide": ScoredSet(rng.normal(size=300), rng.normal(1.0, size=200)),
        "wide_again": ScoredSet(rng.normal(size=300), rng.normal(0.5, size=200)),
        "coarse": ScoredSet(rng.integers(0, 4, size=60) / 4.0, rng.integers(2, 6, size=40) / 4.0),
        # eval-sized pools whose sizes differ between seeds, so the per-run
        # rate tables serve several pool sizes
        "large": ScoredSet(rng.normal(size=3000), rng.normal(0.7, size=3000 - 1000 * seed)),
        "large_ties": ScoredSet(np.round(rng.normal(size=2000 + 1000 * seed), 1),
                                np.round(rng.normal(0.5, size=3000), 1)),
    }


def _experiment():
    seeds = [SeedResult(seed, {}, _pools(seed)) for seed in (0, 1)]
    return ExperimentResult(None, seeds)


def test_curve_files_match_the_reference_bytes(tmp_path):
    exp = _experiment()
    new, old = tmp_path / "new", tmp_path / "old"
    reports.write_curves(new, exp)
    ref.write_curves(old, exp)
    got, want = _tree(new), _tree(old)
    assert set(got) == set(want) and len(got) == 2 * 2 * 8
    assert got == want
    assert all(got[rel].startswith(b"fpr,tpr\n0.0,0.0\n") for rel in got if rel.startswith("curves/roc_"))


@pytest.mark.parametrize("n", [1, 3, 3000, 2**20 + 1])
def test_rate_table_holds_the_repr_of_every_count_over_n(n):
    # the writer indexes the table by numpy's int64 counts: count / n in
    # numpy must have the bits of k / n in Python for every k
    tables = {}
    table = reports._rate_strings(n, tables)
    python_rates = [k / n for k in range(n + 1)]
    assert table == list(map(repr, python_rates))
    assert np.array_equal((np.arange(n + 1) / n).view(np.int64), np.array(python_rates).view(np.int64))
    assert reports._rate_strings(n, tables) is table


def test_score_files_match_the_reference_bytes(tmp_path):
    exp = _experiment()
    new, old = tmp_path / "new", tmp_path / "old"
    reports.write_score_files(new, exp)
    ref.write_score_files(old, exp)
    got, want = _tree(new), _tree(old)
    assert set(got) == set(want) and len(got) == 2 * 8
    assert got == want
    assert b"\n1,-0.0,0\n" in got["scores/zeros_seed0.csv"]
    assert b"\n1,-5e-324,0\n" in got["scores/extremes_seed0.csv"]


def test_pools_sharing_their_inliers_format_them_once_per_seed(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    inliers = rng.normal(size=500)
    pools = {
        "shared": ScoredSet(inliers, rng.normal(size=400)),
        "shared_again": ScoredSet(inliers.copy(), rng.normal(size=300)),
        # inliers subsampled differently get their own rows
        "reordered": ScoredSet(inliers[::-1], rng.normal(size=500)),
        "halved": ScoredSet(inliers[:250], rng.normal(size=250)),
    }
    exp = ExperimentResult(None, [SeedResult(seed, {}, pools) for seed in (0, 1)])
    flags = []
    score_rows = reports._score_rows
    monkeypatch.setattr(reports, "_score_rows", lambda *args: flags.append(args[2]) or score_rows(*args))
    new, old = tmp_path / "new", tmp_path / "old"
    reports.write_score_files(new, exp)
    ref.write_score_files(old, exp)
    assert _tree(new) == _tree(old)
    assert flags.count(0) == 2 * 3 and flags.count(1) == 2 * 4


def test_write_pool_scores_matches_the_reference_bytes(tmp_path):
    values = np.array(EDGE_VALUES * 3)
    for n_in in (0, 1, 15, 30):
        pool = ScoredSet(values[:n_in], values[n_in:])
        reports.write_pool_scores(tmp_path / "new.csv", pool)
        ref.write_pool_scores(tmp_path / "old.csv", pool)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    reports.write_pool_scores(tmp_path / "new.csv", ScoredSet([], []))
    assert (tmp_path / "new.csv").read_bytes() == b"example_id,score,is_ood\n"


def _read_score_file(path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["example_id", "score", "is_ood"]
    return [r[0] for r in rows[1:]], np.array([float(r[1]) for r in rows[1:]]), [r[2] for r in rows[1:]]


def test_pool_score_file_holds_ids_scores_and_flags(tmp_path):
    reports.write_pool_scores(tmp_path / "scores.csv", ScoredSet([0.25, 3.75], [-1.5, 0.1]))
    ids, scores, flags = _read_score_file(tmp_path / "scores.csv")
    assert ids == ["0", "1", "2", "3"]
    assert np.array_equal(scores, [0.25, 3.75, -1.5, 0.1])
    assert flags == ["0", "0", "1", "1"]


def test_pool_score_file_keeps_full_float_precision(tmp_path):
    values = np.array([1.0 / 3.0, math.pi, -1e-17, 5e-324])
    reports.write_pool_scores(tmp_path / "scores.csv", ScoredSet(values[:1], values[1:]))
    _, scores, _ = _read_score_file(tmp_path / "scores.csv")
    assert np.array_equal(scores.view(np.int64), values.view(np.int64))
