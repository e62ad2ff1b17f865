"""Dense network forward/backward, optimizer, schedule, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oewb import nn_core, objectives
from oewb.errors import ConfigurationError, DataError, ParameterError

import fd


def _zeroed(dims, activation="relu"):
    p = nn_core.init_network(dims, seed=0, activation=activation)
    for a in p.arrays():
        a[...] = 0.0
    return p


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        p = _zeroed([3, 4, 2])
        logits = nn_core.forward(p, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.array_equal(logits, np.zeros((5, 2)))

    def test_single_identity_layer_passes_input_through(self):
        p = _zeroed([3, 3])
        p.weights[0][...] = np.eye(3)
        x = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(nn_core.forward(p, x), x)

    def test_matches_explicit_matrix_arithmetic(self):
        # straight-line oracle for a 2-4-3 relu net on a fixed input
        p = nn_core.init_network([2, 4, 3], seed=7)
        x = np.array([[0.3, -1.2], [2.0, 0.5]])
        h = np.maximum(x @ p.weights[0].T + p.biases[0], 0.0)
        expected = h @ p.weights[1].T + p.biases[1]
        logits = nn_core.forward(p, x)
        assert np.max(np.abs(logits - expected)) < 1e-12

    def test_tanh_variant_matches_oracle(self):
        p = nn_core.init_network([2, 4, 3], seed=7, activation="tanh")
        x = np.array([[0.3, -1.2]])
        h = np.tanh(x @ p.weights[0].T + p.biases[0])
        expected = h @ p.weights[1].T + p.biases[1]
        logits = nn_core.forward(p, x)
        assert np.max(np.abs(logits - expected)) < 1e-12

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize(
        "dims,as_batch",
        [([3, 2], False), ([3, 16, 4], False), ([3, 16, 4], True), ([3, 16, 8, 4], False),
         ([3, 16, 8, 4], True)],
    )
    def test_equals_forward_cached_bit_for_bit(self, activation, dims, as_batch):
        # forward takes a Batch or the raw rows
        p = nn_core.init_network(dims, seed=5, activation=activation)
        x = np.random.default_rng(1).normal(size=(257, 3)) * 3.0
        logits = nn_core.forward(p, nn_core.Batch(x) if as_batch else x)
        cached_logits, _ = nn_core.forward_cached(p, x)
        assert np.array_equal(logits, cached_logits)

    def test_dimension_mismatch_rejected(self):
        p = nn_core.init_network([2, 4, 3], seed=0)
        with pytest.raises(ConfigurationError):
            nn_core.forward(p, np.zeros((1, 5)))
        with pytest.raises(ConfigurationError):
            nn_core.forward_cached(p, np.zeros((1, 5)))
        with pytest.raises(ConfigurationError):
            nn_core.forward(p, np.zeros(2))

    def test_batch_validation(self):
        with pytest.raises(ConfigurationError):
            nn_core.Batch(np.zeros((0, 2)))
        with pytest.raises(DataError):
            nn_core.Batch(np.array([[np.nan, 0.0]]))
        with pytest.raises(ConfigurationError):
            nn_core.Batch(np.zeros((2, 2)), labels=[0])
        with pytest.raises(DataError):
            nn_core.Batch(np.zeros((1, 2)), labels=[-1])


class TestSoftmax:
    def test_symmetric_pair(self):
        assert np.allclose(nn_core.softmax([[0.0, 0.0]]), [[0.5, 0.5]], atol=1e-15)

    def test_constant_row_any_temperature(self):
        for c in (-3.0, 0.0, 17.5):
            for t in (0.5, 1.0, 4.0):
                p = nn_core.softmax([[c, c, c]], temperature=t)
                assert np.allclose(p, 1.0 / 3.0, atol=1e-15)

    def test_temperature_rescales_logits(self):
        a = nn_core.softmax([[2.0, 0.0]], temperature=2.0)
        b = nn_core.softmax([[1.0, 0.0]], temperature=1.0)
        assert np.allclose(a, b, atol=1e-15)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_nonpositive_temperature_rejected(self, t):
        with pytest.raises(ParameterError):
            nn_core.softmax([[1.0, 2.0]], temperature=t)
        with pytest.raises(ParameterError):
            nn_core.log_softmax([[1.0, 2.0]], temperature=t)

    @given(
        rows=st.lists(
            st.lists(st.floats(-50, 50), min_size=2, max_size=6),
            min_size=1,
            max_size=5,
        ).filter(lambda r: len({len(x) for x in r}) == 1),
        shift=st.floats(-100, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_sum_to_one_and_shift_invariance(self, rows, shift):
        z = np.array(rows)
        p = nn_core.softmax(z)
        assert np.all(p >= 0)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(nn_core.softmax(z + shift) - p)) < 1e-12

    def test_log_softmax_agrees_with_log_of_softmax(self):
        z = np.random.default_rng(1).normal(size=(4, 5)) * 3
        assert np.max(np.abs(nn_core.log_softmax(z) - np.log(nn_core.softmax(z)))) < 1e-12

    def test_log_softmax_stable_at_extreme_logits(self):
        lp = nn_core.log_softmax([[1000.0, 0.0]])
        assert np.all(np.isfinite(lp))
        assert abs(lp[0, 0]) < 1e-12


def _labeled_batch(rng, n, d, k):
    return nn_core.Batch(rng.normal(size=(n, d)), labels=rng.integers(0, k, size=n))


class TestGrad:
    def test_lam_zero_oe_equals_plain_ce_exactly(self):
        rng = np.random.default_rng(11)
        p = nn_core.init_network([3, 6, 4], seed=11)
        batch = _labeled_batch(rng, 8, 3, 4)
        oe = nn_core.Batch(rng.normal(size=(5, 3)))
        # at lam = 0 the outlier batch is not read
        g_oe = nn_core.grad(p, 0.0, batch, oe)
        g_ce = nn_core.grad(p, 0.0, batch)
        assert np.array_equal(g_oe, g_ce)

    def test_missing_oe_batch_rejected(self):
        rng = np.random.default_rng(0)
        p = nn_core.init_network([3, 6, 4], seed=0)
        batch = _labeled_batch(rng, 4, 3, 4)
        with pytest.raises(ConfigurationError):
            nn_core.grad(p, 0.5, batch, None)

    def test_negative_lam_rejected(self):
        rng = np.random.default_rng(0)
        p = nn_core.init_network([3, 6, 4], seed=0)
        batch = _labeled_batch(rng, 4, 3, 4)
        oe = nn_core.Batch(rng.normal(size=(4, 3)))
        with pytest.raises(ParameterError):
            nn_core.grad(p, -0.1, batch, oe)
        with pytest.raises(ParameterError):
            nn_core.train_classifier(p, -0.1, batch, oe, epochs=1, batch_size=4, lr0=0.1)

    def test_matches_finite_differences_on_2_8_3_net(self):
        rng = np.random.default_rng(5)
        p = nn_core.init_network([2, 8, 3], seed=5, activation="tanh")
        batch = _labeled_batch(rng, 6, 2, 3)
        oe = nn_core.Batch(rng.normal(size=(4, 2)))
        analytic = nn_core.grad(p, 0.5, batch, oe)

        def loss(q):
            return objectives.multiclass_oe_loss(batch, oe, q, lam=0.5)

        numeric = fd.fd_gradient(p, loss)
        assert fd.max_rel_err(analytic, numeric) < 1e-4

    def test_first_order_flatness_orthogonal_to_gradient(self):
        # moving orthogonally to the gradient changes the loss only at
        # second order: |delta| = O(eps^2), against |g| * eps along it
        rng = np.random.default_rng(3)
        p = nn_core.init_network([2, 6, 3], seed=3, activation="tanh")
        batch = _labeled_batch(rng, 8, 2, 3)
        g = nn_core.grad(p, 0.0, batch)

        def loss(q):
            return objectives.ce_loss(nn_core.forward(q, batch.inputs), batch.labels)

        d = rng.normal(size=g.size)
        d -= (d @ g) / (g @ g) * g
        d /= np.linalg.norm(d)
        eps = 1e-4
        base = p.vector
        f0 = loss(p)
        ortho = abs(loss(fd.with_vector(p, base + eps * d)) - f0)
        gdir = g / np.linalg.norm(g)
        along = abs(loss(fd.with_vector(p, base + eps * gdir)) - f0)
        assert ortho < 1e-6
        assert ortho < along / 100.0


class TestSgdStep:
    def test_plain_sgd_without_momentum_or_decay(self):
        p = nn_core.init_network([2, 3], seed=1)
        before = p.copy()
        g = np.ones_like(p.vector)
        state = nn_core.init_optimizer(p, lr0=0.5, total_steps=10, momentum=0.0, weight_decay=0.0)
        nn_core.sgd_step(p, g, state)
        assert np.allclose(p.weights[0], before.weights[0] - 0.5, atol=1e-15)
        assert np.allclose(p.biases[0], before.biases[0] - 0.5, atol=1e-15)
        assert state.step_count == 1
        # the gradient is only read
        assert np.array_equal(g, np.ones_like(p.vector))

    def test_zero_gradient_zero_velocity_is_a_fixed_point(self):
        p = nn_core.init_network([2, 3], seed=1)
        before = p.vector.copy()
        state = nn_core.init_optimizer(p, lr0=0.5, total_steps=10, momentum=0.9, weight_decay=0.0)
        nn_core.sgd_step(p, np.zeros_like(p.vector), state)
        assert np.array_equal(p.vector, before)
        assert np.array_equal(state.velocity, np.zeros_like(before))

    def test_two_steps_match_hand_unrolled_recurrence(self):
        p = nn_core.init_network([1, 1], seed=0)
        p.weights[0][...] = 2.0
        p.biases[0][...] = 0.0
        g = np.array([0.25, 0.0])  # layout: w0 (1x1), b0 (1,)
        mu, wd, lr0, total = 0.9, 0.01, 0.1, 4
        state = nn_core.init_optimizer(p, lr0=lr0, total_steps=total, momentum=mu, weight_decay=wd)

        w, v = 2.0, 0.0
        for step in range(2):
            lr = lr0 * 0.5 * (1.0 + np.cos(np.pi * step / total))
            gd = 0.25 + wd * w
            v = mu * v + gd
            w = w - lr * (gd + mu * v)

        nn_core.sgd_step(p, g, state)
        nn_core.sgd_step(p, g, state)
        assert abs(p.weights[0][0, 0] - w) < 1e-15

    def test_shape_mismatch_rejected(self):
        p = nn_core.init_network([2, 3], seed=1)
        state = nn_core.init_optimizer(p, lr0=0.1, total_steps=1)
        with pytest.raises(ConfigurationError):
            nn_core.sgd_step(p, np.zeros(p.vector.size - 1), state)

    def test_optimizer_hyperparameter_validation(self):
        p = nn_core.init_network([2, 3], seed=1)
        with pytest.raises(ParameterError):
            nn_core.init_optimizer(p, lr0=0.0, total_steps=1)
        with pytest.raises(ParameterError):
            nn_core.init_optimizer(p, lr0=0.1, total_steps=1, momentum=1.0)
        with pytest.raises(ParameterError):
            nn_core.init_optimizer(p, lr0=0.1, total_steps=1, weight_decay=-0.1)
        with pytest.raises(ParameterError):
            nn_core.init_optimizer(p, lr0=0.1, total_steps=0)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert nn_core.cosine_lr(0, 100, 0.3) == pytest.approx(0.3, abs=1e-15)
        assert nn_core.cosine_lr(100, 100, 0.3) == pytest.approx(0.0, abs=1e-15)
        assert nn_core.cosine_lr(50, 100, 0.3) == pytest.approx(0.15, abs=1e-15)

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            nn_core.cosine_lr(0, 0, 0.1)
        with pytest.raises(ParameterError):
            nn_core.cosine_lr(-1, 10, 0.1)
        with pytest.raises(ParameterError):
            nn_core.cosine_lr(11, 10, 0.1)
        with pytest.raises(ParameterError):
            nn_core.cosine_lr(1, 10, 0.0)

    def test_monotone_nonincreasing(self):
        vals = [nn_core.cosine_lr(s, 20, 1.0) for s in range(21)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def _separable_2class(rng, n=60):
    x0 = rng.normal(size=(n, 2)) * 0.3 + np.array([-2.0, 0.0])
    x1 = rng.normal(size=(n, 2)) * 0.3 + np.array([2.0, 0.0])
    X = np.vstack((x0, x1))
    y = np.concatenate((np.zeros(n, dtype=int), np.ones(n, dtype=int)))
    return nn_core.Batch(X, labels=y)


def _full_batch_epochs(seed, epochs=50):
    rng = np.random.default_rng(seed)
    batch = _separable_2class(rng)
    p = nn_core.init_network([2, 8, 2], seed=seed)
    state = nn_core.init_optimizer(p, lr0=0.05, total_steps=epochs, weight_decay=0.0)
    losses = []
    for _ in range(epochs):
        lp = nn_core.log_softmax(nn_core.forward(p, batch.inputs))
        losses.append(float(np.mean(-lp[np.arange(len(batch)), batch.labels])))
        nn_core.sgd_step(p, nn_core.grad(p, 0.0, batch), state)
    return p, losses


class TestTrainingBehaviour:
    def test_loss_decreases_nearly_monotonically_on_separable_data(self):
        _, losses = _full_batch_epochs(seed=0)
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        assert violations <= 2
        assert losses[-1] < losses[0] / 2

    def test_identical_seed_gives_bitwise_identical_parameters(self):
        p1, _ = _full_batch_epochs(seed=4)
        p2, _ = _full_batch_epochs(seed=4)
        for a, b in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)

    def test_different_seeds_give_different_parameters(self):
        p1, _ = _full_batch_epochs(seed=4)
        p2, _ = _full_batch_epochs(seed=5)
        assert any(not np.array_equal(a, b) for a, b in zip(p1.arrays(), p2.arrays()))


class TestSerialization:
    def test_round_trip_is_bitwise(self, tmp_path):
        p = nn_core.init_network([3, 5, 4], seed=2, activation="tanh")
        path = tmp_path / "net.bin"
        nn_core.save_params(p, path)
        q = nn_core.load_params(path)
        assert q.layer_dims == p.layer_dims
        assert q.activation == p.activation
        for a, b in zip(p.arrays(), q.arrays()):
            assert np.array_equal(a, b)

    def test_round_trip_without_branch(self, tmp_path):
        # the head-flag byte after the dims and activation code is always 0
        p = nn_core.init_network([2, 3], seed=0)
        path = tmp_path / "net.bin"
        nn_core.save_params(p, path)
        assert path.read_bytes()[12 + 4 * 2 + 1] == 0
        q = nn_core.load_params(path)
        assert np.array_equal(q.vector, p.vector)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataError):
            nn_core.load_params(path)

    def test_truncated_file_rejected(self, tmp_path):
        p = nn_core.init_network([3, 5, 4], seed=2)
        path = tmp_path / "net.bin"
        nn_core.save_params(p, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(DataError):
            nn_core.load_params(path)

    def test_arrays_are_views_of_the_parameter_vector(self):
        p = nn_core.init_network([3, 5, 4], seed=2)
        arrays = p.arrays()
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), p.vector)
        assert all(np.shares_memory(a, p.vector) for a in arrays)
        p.vector[-1] = 3.5  # the last slot is the last bias
        assert p.biases[-1][-1] == 3.5
        q = p.copy()
        assert not np.shares_memory(q.vector, p.vector)
        assert np.array_equal(q.vector, p.vector)
        q.weights[0][0, 0] += 1.0
        assert q.vector[0] == p.vector[0] + 1.0

    def test_stack_rows_are_the_nets_and_views_share_the_matrix(self):
        nets = [nn_core.init_network([3, 5, 4], seed=s) for s in range(3)]
        stack = nn_core.NetworkParams.stack(nets)
        assert stack.vector.shape == (3, nets[0].vector.size)
        assert all(np.shares_memory(a, stack.vector) for a in stack.arrays())
        assert stack.weights[0].shape == (3, 5, 3) and stack.biases[1].shape == (3, 4)
        stack.weights[1][2, 0, 0] = 7.0
        back = stack.unstack()
        assert back[2].weights[1][0, 0] == 7.0
        assert not np.shares_memory(back[2].vector, stack.vector)
        for net, got in zip(nets[:2], back[:2]):
            assert np.array_equal(net.vector, got.vector)
        with pytest.raises(ConfigurationError):
            nn_core.NetworkParams.stack([nets[0], nn_core.init_network([3, 6, 4], seed=0)])


class TestInit:
    def test_glorot_scale_bound_and_zero_biases(self):
        p = nn_core.init_network([10, 20, 5], seed=0)
        for w, (fi, fo) in zip(p.weights, [(10, 20), (20, 5)]):
            s = np.sqrt(6.0 / (fi + fo))
            assert np.all(np.abs(w) <= s)
        for b in p.biases:
            assert np.array_equal(b, np.zeros_like(b))

    def test_invalid_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            nn_core.init_network([4], seed=0)
        with pytest.raises(ConfigurationError):
            nn_core.init_network([4, 0, 2], seed=0)
        with pytest.raises(ConfigurationError):
            nn_core.init_network([4, 3, 2], seed=0, activation="gelu")
