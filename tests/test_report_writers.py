"""Curve and score files, and tie ranks, against the reference
implementations in reference_reports.py: the same bytes and the same
values, on pools built to hit the formatting edge cases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oewb import metrics, scoring
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
    assert set(got) == set(want) and len(got) == 2 * 2 * 6
    assert got == want
    assert all(got[rel].startswith(b"fpr,tpr\n0.0,0.0\n") for rel in got if rel.startswith("curves/roc_"))


def test_curve_rates_keep_their_own_strings():
    # the memo is keyed by bit pattern, so -0.0 can never stand in for 0.0
    memo = {}
    assert reports._reprs(np.array([0.0, -0.0, 0.0, -0.0]), memo) == ["0.0", "-0.0", "0.0", "-0.0"]
    assert reports._reprs(np.array(EDGE_VALUES), memo) == [repr(x) for x in EDGE_VALUES]


def test_score_files_match_the_reference_bytes(tmp_path):
    exp = _experiment()
    new, old = tmp_path / "new", tmp_path / "old"
    reports.write_score_files(new, exp)
    ref.write_score_files(old, exp)
    got, want = _tree(new), _tree(old)
    assert set(got) == set(want) and len(got) == 2 * 6
    assert got == want
    assert b"\n1,-0.0,0\n" in got["scores/zeros_seed0.csv"]
    assert b"\n1,-5e-324,0\n" in got["scores/extremes_seed0.csv"]


def test_write_scores_csv_matches_the_reference_bytes(tmp_path):
    scores = np.array(EDGE_VALUES * 3)
    for flags in ([True, False] * 15, np.arange(30) % 2, np.zeros(30, dtype=bool)):
        scoring.write_scores_csv(tmp_path / "new.csv", scores, flags)
        ref.write_scores_csv(tmp_path / "old.csv", scores, flags)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    scoring.write_scores_csv(tmp_path / "new.csv", [], [])
    ref.write_scores_csv(tmp_path / "old.csv", [], [])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes() == b"example_id,score,is_ood\n"


@given(st.lists(st.sampled_from(EDGE_VALUES + (2.0, 2.0, 2.0, -1.0)), min_size=1, max_size=300))
@settings(max_examples=300, deadline=None)
def test_tie_ranks_equal_the_per_block_loop(values):
    x = np.array(values)
    assert np.array_equal(metrics._average_ranks(x), ref.average_ranks(x))


@given(
    st.integers(0, 3).flatmap(
        lambda k: st.lists(st.integers(0, k), min_size=1, max_size=2000)
    )
)
@settings(max_examples=100, deadline=None)
def test_tie_ranks_equal_the_loop_on_few_distinct_values(levels):
    x = np.array(levels, dtype=np.float64)
    assert np.array_equal(metrics._average_ranks(x), ref.average_ranks(x))
