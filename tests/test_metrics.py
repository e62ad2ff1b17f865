"""Detection metrics against brute-force pairwise and threshold-sweep oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oewb import metrics
from oewb.errors import InputError

import oracles


def _ss(in_scores, out_scores):
    return metrics.ScoredSet(in_scores, out_scores)


class TestAuroc:
    def test_perfect_separation(self):
        assert metrics.auroc(_ss([0.0, 1.0], [2.0, 3.0])) == 1.0

    def test_identical_lists_score_exactly_half(self):
        x = np.random.default_rng(0).normal(size=50)
        assert metrics.auroc(_ss(x, x)) == 0.5

    def test_three_of_four_pairs(self):
        assert metrics.auroc(_ss([1.0, 3.0], [2.0, 4.0])) == 0.75

    def test_ties_earn_half_credit(self):
        assert metrics.auroc(_ss([1.0], [1.0])) == 0.5
        assert metrics.auroc(_ss([1.0, 1.0], [1.0, 2.0])) == 0.75

    def test_empty_side_rejected(self):
        with pytest.raises(InputError):
            metrics.auroc(_ss([], [1.0]))
        with pytest.raises(InputError):
            metrics.auroc(_ss([1.0], []))

    def test_non_finite_scores_rejected(self):
        with pytest.raises(InputError):
            metrics.auroc(_ss([np.nan], [1.0]))
        with pytest.raises(InputError):
            metrics.auroc(_ss([1.0], [np.inf]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            ins, outs = oracles.random_scored_pair(rng)
            base = metrics.auroc(_ss(ins, outs))
            affine = metrics.auroc(_ss(2.0 * ins + 128.0, 2.0 * outs + 128.0))
            curved = metrics.auroc(_ss(np.arctan(ins), np.arctan(outs)))
            assert affine == base
            assert curved == base

    def test_swap_symmetry_on_tie_free_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ins = rng.normal(size=int(rng.integers(1, 40)))
            outs = rng.normal(size=int(rng.integers(1, 40)))
            a = metrics.auroc(_ss(ins, outs))
            b = metrics.auroc(_ss(outs, ins))
            assert a + b == pytest.approx(1.0, abs=1e-12)


class TestAupr:
    def test_perfect_separation_any_base_rate(self):
        assert metrics.aupr(_ss([0.0] * 50, [1.0, 2.0])) == 1.0

    def test_four_threshold_sweep(self):
        s = _ss([1.0, 3.0], [2.0, 4.0])
        assert metrics.aupr(s) == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert metrics.aupr(s) == oracles.aupr_sweep([1.0, 3.0], [2.0, 4.0])

    def test_random_scores_approach_the_base_rate(self):
        rng = np.random.default_rng(0)
        n_out, n_in = 2000, 10000
        s = _ss(rng.normal(size=n_in), rng.normal(size=n_out))
        base_rate = n_out / (n_out + n_in)
        assert metrics.aupr(s) == pytest.approx(base_rate, abs=0.02)

    def test_empty_side_rejected(self):
        with pytest.raises(InputError):
            metrics.aupr(_ss([], [1.0]))


class TestFprAtTpr:
    def test_perfect_separation_is_zero_at_any_level(self):
        s = _ss([0.0, 1.0, 2.0], [5.0, 6.0])
        for n in (10.0, 50.0, 95.0, 100.0):
            assert metrics.fpr_at_tpr(s, n) == 0.0

    def test_identical_distinct_lists_at_95(self):
        x = np.arange(100, dtype=np.float64)
        assert metrics.fpr_at_tpr(_ss(x, x), 95.0) == 0.95

    def test_half_detection_uses_the_second_largest_outlier(self):
        # threshold = ceil(0.5 * 2) = 1st largest out score = 8; no inlier
        # reaches it
        assert metrics.fpr_at_tpr(_ss([1.0, 3.0, 5.0, 7.0], [4.0, 8.0]), 50.0) == 0.0
        # at 100% the threshold drops to 4 and half the inliers alarm
        assert metrics.fpr_at_tpr(_ss([1.0, 3.0, 5.0, 7.0], [4.0, 8.0]), 100.0) == 0.5

    def test_level_bounds(self):
        s = _ss([1.0], [2.0])
        with pytest.raises(InputError):
            metrics.fpr_at_tpr(s, 0.0)
        with pytest.raises(InputError):
            metrics.fpr_at_tpr(s, 100.5)
        assert metrics.fpr_at_tpr(s, 100.0) == 0.0

    def test_nonincreasing_as_the_level_drops(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ins, outs = oracles.random_scored_pair(rng)
            s = _ss(ins, outs)
            vals = [metrics.fpr_at_tpr(s, n) for n in (100.0, 95.0, 75.0, 50.0, 25.0, 5.0)]
            assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestEnforceBaseRate:
    def test_already_matching_pools_untouched(self):
        rng = np.random.default_rng(0)
        out_pool = rng.normal(size=100)
        in_pool = rng.normal(size=500)
        s = metrics.enforce_base_rate(in_pool, out_pool, ratio=(1, 5), seed=0)
        assert np.array_equal(s.out_scores, out_pool)
        assert np.array_equal(s.in_scores, in_pool)

    def test_oversized_outlier_pool_subsampled(self):
        rng = np.random.default_rng(0)
        out_pool = rng.normal(size=1000)
        in_pool = rng.normal(size=500)
        s = metrics.enforce_base_rate(in_pool, out_pool, ratio=(1, 5), seed=0)
        assert s.out_scores.size == 100
        assert s.in_scores.size == 500
        assert set(s.out_scores).issubset(set(out_pool))

    def test_one_to_one_on_equal_pools_is_identity(self):
        x = np.arange(40, dtype=np.float64)
        s = metrics.enforce_base_rate(x, x + 100, ratio=(1, 1), seed=0)
        assert np.array_equal(s.in_scores, x)
        assert np.array_equal(s.out_scores, x + 100)

    def test_impossible_ratio_rejected(self):
        with pytest.raises(InputError):
            metrics.enforce_base_rate([1.0, 2.0], [3.0], ratio=(1, 5), seed=0)
        with pytest.raises(InputError):
            metrics.enforce_base_rate([1.0], [1.0], ratio=(0, 5), seed=0)

    def test_seeded_subsampling_reproducible(self):
        rng = np.random.default_rng(1)
        out_pool = rng.normal(size=300)
        in_pool = rng.normal(size=900)
        a = metrics.enforce_base_rate(in_pool, out_pool, ratio=(1, 5), seed=7)
        b = metrics.enforce_base_rate(in_pool, out_pool, ratio=(1, 5), seed=7)
        c = metrics.enforce_base_rate(in_pool, out_pool, ratio=(1, 5), seed=8)
        assert np.array_equal(a.out_scores, b.out_scores)
        assert not np.array_equal(a.out_scores, c.out_scores)


def _enforce_base_rate_rows_reference(n_in, n_out, ratio, seed):
    """The rows the single-body enforce_base_rate kept before its draw was
    split out: the outliers drawn first, then the inliers, each only when
    cut, by one generator; applied here to the row numbers themselves."""
    a, b = ratio
    m = min(n_out // a, n_in // b)
    rng = np.random.default_rng(seed)
    in_rows, out_rows = np.arange(n_in), np.arange(n_out)
    if m * a < n_out:
        out_rows = out_rows[np.sort(rng.choice(n_out, size=m * a, replace=False))]
    if m * b < n_in:
        in_rows = in_rows[np.sort(rng.choice(n_in, size=m * b, replace=False))]
    return in_rows, out_rows


class TestBaseRateRows:
    @settings(max_examples=200, deadline=None)
    @given(
        n_in=st.integers(1, 400),
        n_out=st.integers(1, 400),
        ratio=st.one_of(st.sampled_from([(1, 1), (1, 5), (5, 1)]), st.tuples(st.integers(1, 7), st.integers(1, 7))),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_in=500, n_out=1000, ratio=(1, 5), seed=0)  # outliers cut
    @example(n_in=400, n_out=300, ratio=(1, 1), seed=3)  # inliers cut
    @example(n_in=40, n_out=40, ratio=(1, 1), seed=0)  # equal pools: no draw
    @example(n_in=500, n_out=100, ratio=(1, 5), seed=9)  # already at the ratio
    @example(n_in=103, n_out=211, ratio=(5, 2), seed=1)  # both cut
    def test_draw_keeps_the_rows_enforce_base_rate_kept(self, n_in, n_out, ratio, seed):
        a, b = ratio
        if min(n_out // a, n_in // b) == 0:
            with pytest.raises(InputError):
                metrics.base_rate_rows(n_in, n_out, ratio, seed)
            return
        want_in, want_out = _enforce_base_rate_rows_reference(n_in, n_out, ratio, seed)
        in_rows, out_rows = metrics.base_rate_rows(n_in, n_out, ratio, seed)
        assert np.array_equal(in_rows, want_in) and np.array_equal(out_rows, want_out)
        # enforce_base_rate keeps the same rows of score lists that name their row
        pool = metrics.enforce_base_rate(np.arange(n_in) + 0.5, -np.arange(n_out) - 0.5, ratio, seed)
        assert np.array_equal(pool.in_scores, want_in + 0.5)
        assert np.array_equal(pool.out_scores, -want_out - 0.5)

    def test_sizes_follow_the_constraint_side(self):
        assert metrics.base_rate_sizes(500, 1000, (1, 5)) == (500, 100)
        assert metrics.base_rate_sizes(400, 300, (1, 1)) == (300, 300)
        assert metrics.base_rate_sizes(103, 211, (5, 2)) == (84, 210)
        with pytest.raises(InputError, match="pools of 3 out / 180 in cannot realize ratio 5:1"):
            metrics.base_rate_sizes(180, 3, (5, 1))


class TestRatioLabel:
    def test_reduces_by_gcd(self):
        assert metrics.ratio_label(100, 500) == "1:5"
        assert metrics.ratio_label(3, 9) == "1:3"
        assert metrics.ratio_label(7, 11) == "7:11"


class TestDetectionReport:
    def test_fields_and_default_label(self):
        s = _ss(np.zeros(500), np.ones(100))
        r = metrics.detection_report(s, n_level=95.0)
        assert r.auroc == 1.0
        assert r.aupr == 1.0
        assert r.fpr_at_n == 0.0
        assert r.n_level == 95.0
        assert r.base_rate == "1:5"

    @given(
        ins=st.lists(st.integers(-4, 4), min_size=1, max_size=60),
        outs=st.lists(st.integers(-4, 4), min_size=1, max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_sweep_equals_the_oracles_on_heavy_ties(self, ins, outs):
        # nine dyadic levels over up to 120 scores: most blocks mix both sides
        a = np.array(ins) / 8.0
        b = np.array(outs) / 8.0
        for n_level in (1.0, 50.0, 95.0, 100.0):
            r = metrics.detection_report(_ss(a, b), n_level)
            assert r.auroc == oracles.auroc_pairwise(a, b)
            assert r.aupr == oracles.aupr_sweep(a, b)
            assert r.fpr_at_n == oracles.fpr_at_tpr_sweep(a, b, n_level)

    def test_sweep_ends_at_the_pool_sizes(self):
        tp, fp = metrics.sweep(_ss([0.5, 0.5, 0.25, 1.0], [0.5, 1.0, 2.0]))
        assert tp.tolist() == [1, 2, 3, 3] and fp.tolist() == [0, 1, 3, 4]

    def test_n_level_out_of_range_rejected(self):
        for n_level in (0.0, 100.5):
            with pytest.raises(InputError, match="n_percent"):
                metrics.detection_report(_ss([0.0], [1.0]), n_level)


class TestCurvePoints:
    def test_roc_matches_sweep_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            ins, outs = oracles.random_scored_pair(rng, max_size=30)
            fpr, tpr = metrics.roc_points(_ss(ins, outs))
            expected = oracles.roc_sweep(ins, outs)
            assert len(fpr) == len(expected)
            for (ex_f, ex_t), f, t in zip(expected, fpr, tpr):
                assert f == ex_f and t == ex_t
            assert (fpr[0], tpr[0]) == (0.0, 0.0)
            assert (fpr[-1], tpr[-1]) == (1.0, 1.0)

    def test_pr_endpoints(self):
        recall, precision = metrics.pr_points(_ss([1.0, 3.0], [2.0, 4.0]))
        assert recall[-1] == 1.0
        assert recall[0] == 0.5 and precision[0] == 1.0


class TestOracleEquivalence:
    def test_exact_match_on_random_tied_sets(self):
        rng = np.random.default_rng(2024)
        levels = (5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 100.0)
        for _ in range(300):
            ins, outs = oracles.random_scored_pair(rng)
            s = _ss(ins, outs)
            assert metrics.auroc(s) == oracles.auroc_pairwise(ins, outs)
            assert metrics.aupr(s) == oracles.aupr_sweep(ins, outs)
            n = levels[int(rng.integers(0, len(levels)))]
            assert metrics.fpr_at_tpr(s, n) == oracles.fpr_at_tpr_sweep(ins, outs, n)

    @given(
        ins=st.lists(st.integers(-16, 16), min_size=1, max_size=50),
        outs=st.lists(st.integers(-16, 16), min_size=1, max_size=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_auroc_equals_pairwise_oracle(self, ins, outs):
        a = np.array(ins) / 8.0
        b = np.array(outs) / 8.0
        assert metrics.auroc(_ss(a, b)) == oracles.auroc_pairwise(a, b)
