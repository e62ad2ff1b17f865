"""Adaptive-bin calibration errors and soft F1 (one report), temperature fitting, rescaling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oewb import calibration as cal
from oewb import nn_core, objectives
from oewb.errors import ValidationError


def _records(confs, corrects):
    return np.asarray(confs, dtype=np.float64), np.asarray(corrects, dtype=bool)


def _random_records(rng, n):
    conf = rng.random(n)
    correct = rng.random(n) < conf
    return conf, correct


class TestPredictionRecord:
    def test_validation(self):
        cal.report_from_records([0.5], [True])
        for bad in (1.5, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match=r"confidence must lie in \[0, 1\]"):
                cal.report_from_records([0.5, bad], [True, True])
        with pytest.raises(ValidationError, match="confidences and correctness flags must align"):
            cal.report_from_records([0.5, 0.5], [True])
        with pytest.raises(ValidationError, match="no prediction records"):
            cal.report_from_records([], [])


class TestAdaptiveBins:
    def test_exactly_one_hundred_records_one_bin(self):
        conf, _ = _random_records(np.random.default_rng(0), 100)
        bins = cal.adaptive_bins(conf)
        assert len(bins) == 1
        assert len(bins[0]) == 100

    def test_two_hundred_fifty_records(self):
        conf, _ = _random_records(np.random.default_rng(1), 250)
        bins = cal.adaptive_bins(conf)
        assert len(bins) == round(250 / 100)
        sizes = [len(b) for b in bins]
        assert sum(sizes) == 250
        assert max(sizes) - min(sizes) <= 1

    def test_single_record(self):
        bins = cal.adaptive_bins([0.5])
        assert len(bins) == 1 and len(bins[0]) == 1

    def test_sizes_within_one_for_many_counts(self):
        rng = np.random.default_rng(2)
        for n in (1, 7, 99, 101, 149, 151, 320, 1000):
            conf, _ = _random_records(rng, n)
            bins = cal.adaptive_bins(conf)
            sizes = [len(b) for b in bins]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1
            assert len(bins) == max(1, round(n / 100))
            assert np.array_equal(np.sort(np.concatenate(bins)), np.arange(n))

    def test_bins_are_contiguous_in_confidence(self):
        conf, _ = _random_records(np.random.default_rng(3), 500)
        bins = cal.adaptive_bins(conf)
        for a, b in zip(bins, bins[1:]):
            assert conf[a].max() <= conf[b].min()

    def test_empty_records_rejected(self):
        with pytest.raises(ValidationError, match="no prediction records"):
            cal.adaptive_bins([])


def _rms(*recs):
    return cal.report_from_records(*recs).rms_error


def _mad(*recs):
    return cal.report_from_records(*recs).mad_error


def _soft_f1(*recs):
    return cal.report_from_records(*recs).soft_f1


def _binned_errors(conf, correct):
    """(RMS, MAD) by a plain loop over the adaptive bins."""
    rms = mad = 0.0
    for idx in cal.adaptive_bins(conf):
        gap = np.mean(correct[idx]) - np.mean(conf[idx])
        rms += idx.size / conf.size * gap * gap
        mad += idx.size / conf.size * abs(gap)
    return math.sqrt(rms), mad


class TestRmsError:
    def test_perfectly_calibrated_single_bin(self):
        recs = _records([0.7] * 10, [True] * 7 + [False] * 3)
        assert _rms(*recs) == pytest.approx(0.0, abs=1e-15)

    def test_fully_confident_half_correct(self):
        recs = _records([1.0] * 10, [True, False] * 5)
        assert _rms(*recs) == pytest.approx(0.5, abs=1e-15)

    def test_fully_confident_all_correct(self):
        recs = _records([1.0] * 10, [True] * 10)
        assert _rms(*recs) == 0.0


class TestMadError:
    def test_matches_rms_on_the_boundary_cases(self):
        half = _records([1.0] * 10, [True, False] * 5)
        assert _mad(*half) == pytest.approx(0.5, abs=1e-15)
        cal_recs = _records([0.7] * 10, [True] * 7 + [False] * 3)
        assert _mad(*cal_recs) == pytest.approx(0.0, abs=1e-15)

    def test_never_exceeds_rms_on_random_sets(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(1, 400))
            r = cal.report_from_records(*_random_records(rng, n))
            assert r.mad_error <= r.rms_error + 1e-15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        conf, correct = _random_records(rng, 437)
        perm = rng.permutation(conf.size)
        shuffled = conf[perm], correct[perm]
        assert _rms(*shuffled) == _rms(conf, correct)
        assert _mad(*shuffled) == _mad(conf, correct)


class TestSoftF1:
    def test_two_record_example(self):
        recs = _records([0.3, 0.9], [False, True])
        assert _soft_f1(*recs) == pytest.approx(0.7 / 0.9, abs=1e-12)

    def test_perfect_anomaly_flagging(self):
        recs = _records([0.0] * 5, [False] * 5)
        assert _soft_f1(*recs) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_all_confident_correct(self):
        recs = _records([1.0] * 5, [True] * 5)
        report = cal.report_from_records(*recs)
        assert report.soft_f1 == 1.0
        assert report.soft_f1_degenerate

    def test_normal_case_not_flagged(self):
        recs = _records([0.3, 0.9], [False, True])
        assert not cal.report_from_records(*recs).soft_f1_degenerate


def _calibrated_logits(rng, n, k, scale=1.0):
    """Logit rows whose labels are drawn from their own softmax; dividing by
    `scale` recovers a calibrated model, so tuning should find T = scale."""
    z = rng.normal(size=(n, k)) * 2.0
    p = nn_core.softmax(z, nn_core.Workspace())
    labels = np.array([rng.choice(k, p=row) for row in p])
    return z * scale, labels


def _scalar_loop_temperature(logits, labels, grid_points=200):
    """tune_temperature as one objectives.ce_loss call per temperature."""

    def nll_at(t):
        return objectives.ce_loss(logits / t, labels)

    grid = np.unique(np.concatenate((np.logspace(-2.0, 2.0, grid_points), [1.0])))
    ces = np.array([nll_at(t) for t in grid])
    best = int(np.argmin(ces))
    a = math.log(grid[max(best - 1, 0)])
    b = math.log(grid[min(best + 1, grid.size - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = nll_at(math.exp(c)), nll_at(math.exp(d))
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = nll_at(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = nll_at(math.exp(d))
    refined = math.exp((a + b) / 2.0)
    return float(refined) if nll_at(refined) < ces[best] else float(grid[best])


def _solo_temperature(logits, labels) -> float:
    """The temperature of one fit, tuned as a stack of one."""
    [t] = cal.tune_temperature(logits[None], labels[None])
    return float(t)


class TestTuneTemperature:
    def test_recovers_unit_temperature(self):
        rng = np.random.default_rng(6)
        logits, labels = _calibrated_logits(rng, 4000, 4)
        t = _solo_temperature(logits, labels)
        assert 0.9 < t < 1.1

    def test_recovers_scaled_temperature(self):
        rng = np.random.default_rng(7)
        logits, labels = _calibrated_logits(rng, 4000, 4, scale=5.0)
        t = _solo_temperature(logits, labels)
        assert abs(t - 5.0) / 5.0 < 0.10

    def test_never_worse_than_unit_temperature(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            logits = rng.normal(size=(200, 5)) * 3
            labels = rng.integers(0, 5, size=200)
            t = _solo_temperature(logits, labels)
            assert objectives.ce_loss(logits / t, labels) <= objectives.ce_loss(logits, labels) + 1e-12

    def test_input_validation(self):
        with pytest.raises(ValidationError, match=r"tuning needs a nonempty \(F, n, k\) stack of logit matrices"):
            cal.tune_temperature(np.zeros((0, 4, 3)), np.zeros((0, 4), dtype=int))
        with pytest.raises(ValidationError, match=r"tuning needs a nonempty \(F, n, k\) stack of logit matrices"):
            cal.tune_temperature(np.zeros((1, 0, 3)), np.zeros((1, 0), dtype=int))
        with pytest.raises(ValidationError, match=r"tuning needs a nonempty \(F, n, k\) stack of logit matrices"):
            cal.tune_temperature(np.zeros(3), np.zeros(1, dtype=int))
        with pytest.raises(ValidationError, match="labels must supply one class per row"):
            cal.tune_temperature(np.zeros((2, 4, 3)), np.zeros(4, dtype=int))
        with pytest.raises(ValidationError, match="labels must supply one class per row"):
            cal.tune_temperature(np.zeros((1, 4, 3)), np.zeros((1, 2), dtype=int))
        with pytest.raises(ValidationError, match="class label out of range"):
            cal.tune_temperature(np.zeros((1, 2, 3)), np.array([[0, 3]]))
        with pytest.raises(ValidationError, match="class label out of range"):
            cal.tune_temperature(np.zeros((1, 2, 3)), np.array([[-1, 0]]))

    def test_an_unstacked_logit_matrix_is_refused(self):
        # one fit is a stack of one: (n, k) logits are not a stack
        with pytest.raises(ValidationError, match=r"^tuning needs a nonempty \(F, n, k\) stack of logit matrices$"):
            cal.tune_temperature(np.zeros((4, 3)), np.zeros(4, dtype=int))

    def test_equals_scalar_loop_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n, k = int(rng.integers(1, 300)), int(rng.integers(2, 12))
            logits = rng.normal(size=(n, k)) * rng.uniform(0.1, 20.0)
            labels = rng.integers(0, k, size=n)
            assert _solo_temperature(logits, labels) == _scalar_loop_temperature(logits, labels)

    @staticmethod
    def _assert_probe_is_ce_loss(logits, labels, temps):
        # logits (F, n, k), labels (F, n), temps (F, T): every fit at every one of its temperatures
        temps = np.asarray(temps, dtype=np.float64)
        work = nn_core.Workspace()
        top = nn_core.class_max(logits, work)
        picked = np.take_along_axis(logits, labels[..., None], axis=-1)[..., 0]
        got = cal._nll_at(logits, top, picked, temps, work)
        want = np.array([[objectives.ce_loss(z / t, y) for t in ts] for z, y, ts in zip(logits, labels, temps)])
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @given(
        data=st.data(),
        fits=st.integers(1, 3),
        n=st.integers(1, 40),
        k=st.integers(2, 20),
        n_temps=st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_probe_equals_ce_loss_bit_for_bit(self, data, fits, n, k, n_temps):
        # values from a small pool give tied maxima and tied label logits
        pool = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6))
        size = fits * n * k
        logits = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)))
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=fits * n, max_size=fits * n)))
        temps = data.draw(st.lists(st.floats(0.01, 100.0), min_size=fits * n_temps, max_size=fits * n_temps))
        self._assert_probe_is_ce_loss(
            logits.reshape(fits, n, k), labels.reshape(fits, n), np.reshape(temps, (fits, n_temps))
        )

    def test_probe_equals_ce_loss_across_temperature_chunks(self):
        # two fits of 9,000 x 4 logits leave one temperature per chunk; of
        # 1,000 x 4, four, so five temperatures end on a short chunk
        rng = np.random.default_rng(13)
        temps = [[0.01, 0.37, 1.0, 5.5, 100.0], [2.0, 0.05, 1.0, 71.0, 0.6]]
        for n in (9000, 1000):
            logits = np.round(rng.normal(size=(2, n, 4)) * 8.0, 1)
            labels = rng.integers(0, 4, size=(2, n))
            self._assert_probe_is_ce_loss(logits, labels, temps)

    def test_probe_keeps_the_sign_of_a_zero_loss(self):
        # log(1 + exp(-37)) rounds to 0, so the first fit's loss is a signed
        # zero; the second fit's is not
        logits = np.array([[[0.0, -37.0]], [[0.0, 1.0]]])
        self._assert_probe_is_ce_loss(logits, np.array([[0], [0]]), [[1.0], [1.0]])

    @staticmethod
    def _stack_case(rng, fits, n, k):
        """A stack of fits at n x k, each at its own scale; some are perfectly
        separated or anti-separated, which pins them at a grid endpoint."""
        logits = rng.normal(size=(fits, n, k))
        labels = rng.integers(0, k, size=(fits, n))
        for f in range(fits):
            kind = rng.integers(0, 4)
            if kind == 1:
                labels[f] = np.argmax(logits[f], axis=-1)
            elif kind == 2:
                labels[f] = np.argmin(logits[f], axis=-1)
            logits[f] *= rng.uniform(0.1, 20.0)
        return logits, labels

    def test_each_fit_of_a_stack_equals_its_solo_fit_bit_for_bit(self):
        rng = np.random.default_rng(14)
        grid = np.unique(np.concatenate((np.logspace(-2.0, 2.0, 200), [1.0])))
        endpoints = 0
        for _ in range(25):
            fits, n, k = int(rng.integers(1, 25)), int(rng.integers(1, 301)), int(rng.integers(2, 12))
            logits, labels = self._stack_case(rng, fits, n, k)
            got = cal.tune_temperature(logits, labels)
            assert isinstance(got, np.ndarray) and got.shape == (fits,)
            solo = np.array([_solo_temperature(z, y) for z, y in zip(logits, labels)])
            np.testing.assert_array_equal(got.view(np.int64), solo.view(np.int64))
            endpoints += int(np.isin(got, grid[[0, -1]]).sum())
        assert endpoints > 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_logits_are_refused_naming_fit_and_row(self, bad):
        rng = np.random.default_rng(16)
        logits = rng.normal(size=(50, 4))
        labels = rng.integers(0, 4, size=50)
        logits[17, 2] = bad
        with pytest.raises(ValidationError, match=r"^fit 0: logits of row 17 are not all finite$"):
            cal.tune_temperature(logits[None], labels[None])
        stack = np.stack([rng.normal(size=(50, 4)), rng.normal(size=(50, 4)), logits])
        stack[2, 30, 0] = bad
        with pytest.raises(ValidationError, match=r"^fit 2: logits of row 17 are not all finite$"):
            cal.tune_temperature(stack, np.stack([labels] * 3))

    def test_scaling_preserves_argmax(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(100, 6)) * 4
        for t in (0.07, 1.0, 31.0):
            assert np.array_equal(
                np.argmax(nn_core.softmax(z / t, nn_core.Workspace()), axis=1), np.argmax(z, axis=1)
            )


class TestPosteriorRescale:
    def test_endpoints_exact(self):
        for k in (2, 4, 10, 1000):
            assert abs(cal.posterior_rescale(1.0 / k, k) - 0.0) <= 1e-15
            assert abs(cal.posterior_rescale(1.0, k) - 1.0) <= 1e-15

    def test_interior_value(self):
        assert cal.posterior_rescale(0.4, 4) == pytest.approx(0.2, abs=1e-12)

    def test_impossible_confidence_rejected(self):
        with pytest.raises(ValidationError, match="p_max = 0.2 is impossible for a 4-class posterior"):
            cal.posterior_rescale(0.2, 4)
        with pytest.raises(ValidationError, match="p_max = 1.2 is impossible for a 4-class posterior"):
            cal.posterior_rescale(1.2, 4)
        with pytest.raises(ValidationError, match="p_max = 0.2 is impossible for a 4-class posterior"):
            cal.posterior_rescale(np.array([0.5, 0.2, float("nan")]), 4)
        with pytest.raises(ValidationError, match="k must be >= 2"):
            cal.posterior_rescale(0.9, 1)

    def test_strictly_increasing(self):
        k = 5
        ps = np.linspace(1.0 / k, 1.0, 50)
        vals = [cal.posterior_rescale(p, k) for p in ps]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert np.array_equal(cal.posterior_rescale(ps, k), vals)


class TestMixedRecords:
    def test_equal_counts_and_ood_marked_incorrect(self):
        rng = np.random.default_rng(10)
        in_conf = rng.random(120)
        in_correct = rng.random(120) < 0.9
        ood_conf = rng.random(80)
        conf, correct = cal.mixed_prediction_records(in_conf, in_correct, ood_conf, seed=0)
        assert conf.shape == correct.shape == (160,)
        assert not correct[80:].any()
        assert np.array_equal(conf[80:], ood_conf)

    def test_subsampling_is_seeded(self):
        rng = np.random.default_rng(11)
        in_conf = rng.random(200)
        in_correct = np.ones(200, dtype=bool)
        ood_conf = rng.random(50)
        a, _ = cal.mixed_prediction_records(in_conf, in_correct, ood_conf, seed=3)
        b, _ = cal.mixed_prediction_records(in_conf, in_correct, ood_conf, seed=3)
        assert np.array_equal(a, b)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError, match="both pools must be nonempty"):
            cal.mixed_prediction_records([], [], [0.5], seed=0)
        with pytest.raises(ValidationError, match="in-distribution confidences and flags must align"):
            cal.mixed_prediction_records([0.5, 0.5], [True], [0.5], seed=0)


class TestReport:
    def test_fields_filled(self):
        recs = _random_records(np.random.default_rng(12), 300)
        r = cal.report_from_records(*recs, temperature=2.5, rescaled=True)
        assert r.bin_count == 3
        assert r.temperature == 2.5
        assert r.rescaled
        rms, mad = _binned_errors(*recs)
        assert r.rms_error == pytest.approx(rms, rel=1e-12)
        assert r.mad_error == pytest.approx(mad, rel=1e-12)
        assert r.mad_error <= r.rms_error + 1e-15
        assert 0.0 <= r.soft_f1 <= 1.0
