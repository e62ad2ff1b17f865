"""Loss functions: cross-entropy, uniformity pressure and the margin term."""

import math

import numpy as np
import pytest

from oewb import nn_core, objectives
from oewb.errors import ValidationError

LN2 = math.log(2.0)
LN10 = math.log(10.0)


class TestCeLoss:
    def test_uniform_two_class(self):
        assert objectives.ce_loss([[0.0, 0.0]], [0]) == pytest.approx(LN2, abs=1e-15)

    def test_confident_correct_logits_drive_loss_to_zero(self):
        assert objectives.ce_loss([[40.0, -40.0]], [0]) < 1e-12

    def test_quarter_split(self):
        expected = -math.log(0.75)  # 0.2876820724517809
        assert objectives.ce_loss(np.log([[0.75, 0.25]]), [0]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.2876820724517809, abs=1e-15)

    def test_batch_mean(self):
        v = objectives.ce_loss(np.log([[0.75, 0.25], [0.5, 0.5]]), [0, 1])
        assert v == pytest.approx((-math.log(0.75) - math.log(0.5)) / 2, abs=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="class label out of range"):
            objectives.ce_loss([[0.0, 0.0]], [2])
        with pytest.raises(ValidationError, match="labels must supply one class index per row"):
            objectives.ce_loss([[0.0, 0.0]], [0, 1])

    def test_finite_when_the_true_class_probability_underflows(self):
        # softmax gives the true class exactly 0.0 here; the loss is the logit gap
        assert nn_core.softmax(np.array([[-800.0, 800.0]]), nn_core.Workspace())[0, 0] == 0.0
        assert objectives.ce_loss([[-800.0, 800.0]], [0]) == 1600.0


class TestUniformCe:
    def test_uniform_is_log_k(self):
        assert objectives.uniform_ce([[0.0, 0.0]]) == pytest.approx(LN2, abs=1e-15)
        assert objectives.uniform_ce([3.0] * 10) == pytest.approx(LN10, abs=1e-12)

    def test_quarter_split(self):
        expected = -(math.log(0.75) + math.log(0.25)) / 2  # 0.8369882167858357
        assert objectives.uniform_ce(np.log([[0.75, 0.25]])) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8369882167858357, abs=1e-15)

    def test_lower_bounded_by_log_k(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            z = rng.normal(size=(1, k)) * 3
            assert objectives.uniform_ce(z) >= math.log(k) - 1e-12

    def test_gradient_descent_minimum_is_log_k(self):
        # H(U; softmax(z)) has gradient softmax(z) - 1/k; descending from a
        # random start must approach log k, the global minimum at uniform
        rng = np.random.default_rng(42)
        work = nn_core.Workspace()
        for k in (2, 5, 10):
            z = rng.normal(size=k) * 2
            for _ in range(3000):
                z -= 1.0 * (nn_core.softmax(z[None, :], work)[0] - 1.0 / k)
            assert objectives.uniform_ce(z[None, :]) - math.log(k) < 1e-6

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="uniform cross-entropy needs k >= 2 classes"):
            objectives.uniform_ce([[1.0]])


def _batches(seed=0):
    rng = np.random.default_rng(seed)
    inb = nn_core.Batch(rng.normal(size=(8, 2)), labels=rng.integers(0, 3, size=8))
    oe = nn_core.Batch(rng.uniform(-4, 4, size=(6, 2)))
    return inb, oe


class TestMulticlassOeLoss:
    def test_lam_zero_reduces_to_plain_ce(self):
        inb, oe = _batches()
        p = nn_core.init_network([2, 6, 3], seed=1)
        logits = nn_core.forward(p, inb.inputs)
        assert objectives.multiclass_oe_loss(inb, oe, p, lam=0.0) == objectives.ce_loss(
            logits, inb.labels
        )

    def test_linear_combination_of_components(self):
        inb, oe = _batches()
        p = nn_core.init_network([2, 6, 3], seed=1)
        logits_in = nn_core.forward(p, inb.inputs)
        logits_oe = nn_core.forward(p, oe.inputs)
        expected = objectives.ce_loss(logits_in, inb.labels) + 0.5 * objectives.uniform_ce(logits_oe)
        assert objectives.multiclass_oe_loss(inb, oe, p, lam=0.5) == pytest.approx(expected, abs=1e-12)

    def test_half_weight_on_unit_components(self):
        # identity net fed logits engineered so ce = uniform_ce = 1 exactly;
        # the combined loss must then read 1 + 0.5 * 1 = 1.5
        p = nn_core.init_network([2, 2], seed=0)
        p.weights[0][...] = np.eye(2)
        p.biases[0][...] = 0.0
        p_true = math.exp(-1.0)  # -log p = 1
        a = (1.0 + math.sqrt(1.0 - 4.0 * math.exp(-2.0))) / 2.0  # -(log a + log(1-a))/2 = 1
        inb = nn_core.Batch([[math.log(p_true / (1 - p_true)), 0.0]], labels=[0])
        oe = nn_core.Batch([[math.log(a / (1 - a)), 0.0]])
        assert objectives.ce_loss(nn_core.forward(p, inb.inputs), [0]) == pytest.approx(1.0, abs=1e-12)
        assert objectives.uniform_ce(nn_core.forward(p, oe.inputs)) == pytest.approx(1.0, abs=1e-12)
        assert objectives.multiclass_oe_loss(inb, oe, p, lam=0.5) == pytest.approx(1.5, abs=1e-12)

    def test_monotone_nondecreasing_in_lam(self):
        inb, oe = _batches()
        p = nn_core.init_network([2, 6, 3], seed=1)
        vals = [objectives.multiclass_oe_loss(inb, oe, p, lam=l) for l in (0.0, 0.25, 0.5, 1.0, 2.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_positive_lam_needs_outlier_batch(self):
        inb, _ = _batches()
        p = nn_core.init_network([2, 6, 3], seed=1)
        with pytest.raises(ValidationError, match="positive lam needs an outlier batch"):
            objectives.multiclass_oe_loss(inb, None, p, lam=0.5)

    def test_labeled_outlier_batch_rejected(self):
        inb, _ = _batches()
        p = nn_core.init_network([2, 6, 3], seed=1)
        with pytest.raises(ValidationError, match="outlier batch must be unlabeled"):
            objectives.multiclass_oe_loss(inb, inb, p, lam=0.5)

    def test_negative_lam_rejected(self):
        inb, oe = _batches()
        p = nn_core.init_network([2, 6, 3], seed=1)
        with pytest.raises(ValidationError, match="lam must be nonnegative"):
            objectives.multiclass_oe_loss(inb, oe, p, lam=-1.0)


class TestDensityMarginLoss:
    def test_satisfied_margin_is_zero(self):
        assert objectives.density_margin_loss([100.0], [300.0], margin=64.0) == 0.0

    def test_partially_violated_margin(self):
        assert objectives.density_margin_loss([100.0], [120.0], margin=64.0) == pytest.approx(
            44.0, abs=1e-12
        )

    def test_equal_nll_sits_at_margin(self):
        for m in (1.0, 16.0, 64.0):
            assert objectives.density_margin_loss([7.0, 3.0], [7.0, 3.0], margin=m) == pytest.approx(
                m, abs=1e-12
            )

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.normal(size=5) * 50 + 100
            b = rng.normal(size=5) * 50 + 100
            assert objectives.density_margin_loss(a, b, margin=16.0) >= 0.0

    def test_subgradient_wrt_nll_out_is_zero_or_minus_one_over_n(self):
        # central differences at points safely away from the hinge kink
        rng = np.random.default_rng(1)
        n, m, h = 6, 16.0, 1e-6
        nll_in = rng.uniform(50, 150, size=n)
        nll_out = nll_in + np.where(rng.random(n) < 0.5, m + 5.0, m - 5.0)
        for j in range(n):
            up = nll_out.copy()
            up[j] += h
            down = nll_out.copy()
            down[j] -= h
            d = (
                objectives.density_margin_loss(nll_in, up, m)
                - objectives.density_margin_loss(nll_in, down, m)
            ) / (2 * h)
            active = m + nll_in[j] - nll_out[j] > 0
            assert d == pytest.approx(-1.0 / n if active else 0.0, abs=1e-6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="paired nll arrays must be 1-d with equal length"):
            objectives.density_margin_loss([1.0, 2.0], [1.0], margin=4.0)
        with pytest.raises(ValidationError, match="empty nll batch"):
            objectives.density_margin_loss([], [], margin=4.0)
        with pytest.raises(ValidationError, match="margin must be positive"):
            objectives.density_margin_loss([1.0], [2.0], margin=0.0)


class TestExposureTrainingEffect:
    def test_one_exposure_epoch_decreases_held_out_uniform_ce(self):
        rng = np.random.default_rng(7)
        n = 40
        X = np.vstack(
            (
                rng.normal(size=(n, 2)) * 0.3 + [-2.0, 0.0],
                rng.normal(size=(n, 2)) * 0.3 + [2.0, 0.0],
            )
        )
        y = np.concatenate((np.zeros(n, dtype=int), np.ones(n, dtype=int)))
        inb = nn_core.Batch(X, labels=y)
        oe_train = nn_core.Batch(rng.uniform(-6, 6, size=(64, 2)))
        oe_held = nn_core.Batch(rng.uniform(-6, 6, size=(64, 2)))

        p = nn_core.init_network([2, 16, 2], seed=7)
        state = nn_core.init_optimizer(p, lr0=0.2, total_steps=60, weight_decay=0.0)
        for _ in range(60):
            nn_core.sgd_step(p, nn_core.grad(p, 0.0, inb), state)

        def held_out_uce(q):
            return objectives.uniform_ce(nn_core.forward(q, oe_held.inputs))

        before = held_out_uce(p)
        state = nn_core.init_optimizer(p, lr0=0.05, total_steps=8, weight_decay=0.0)
        order = np.random.default_rng(0).permutation(len(inb))
        for start in range(0, len(inb), 10):
            idx = order[start : start + 10]
            sub = nn_core.Batch(inb.inputs[idx], labels=inb.labels[idx])
            osub = nn_core.Batch(oe_train.inputs[start % 54 : start % 54 + 10])
            nn_core.sgd_step(p, nn_core.grad(p, 0.5, sub, osub), state)
        after = held_out_uce(p)
        assert after < before
