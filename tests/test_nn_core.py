"""Dense network forward/backward, optimizer, schedule, and serialization."""

import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oewb import density, nn_core, objectives, scoring
from oewb.errors import ValidationError
from oewb.harness import pipeline

import fd
import oracles
import reference_training as ref


def _zeroed(dims, activation="relu"):
    p = nn_core.init_network(dims, seed=0, activation=activation)
    for a in p.arrays():
        a[...] = 0.0
    return p


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        p = _zeroed([3, 4, 2])
        logits = nn_core.forward(p, np.random.default_rng(0).normal(size=(5, 3)), nn_core.Workspace())
        assert np.array_equal(logits, np.zeros((5, 2)))

    def test_single_identity_layer_passes_input_through(self):
        p = _zeroed([3, 3])
        p.weights[0][...] = np.eye(3)
        x = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(nn_core.forward(p, x, nn_core.Workspace()), x)

    def test_matches_explicit_matrix_arithmetic(self):
        # straight-line oracle for a 2-4-3 relu net on a fixed input
        p = nn_core.init_network([2, 4, 3], seed=7)
        x = np.array([[0.3, -1.2], [2.0, 0.5]])
        h = np.maximum(x @ p.weights[0].T + p.biases[0], 0.0)
        expected = h @ p.weights[1].T + p.biases[1]
        logits = nn_core.forward(p, x, nn_core.Workspace())
        assert np.max(np.abs(logits - expected)) < 1e-12

    def test_tanh_variant_matches_oracle(self):
        p = nn_core.init_network([2, 4, 3], seed=7, activation="tanh")
        x = np.array([[0.3, -1.2]])
        h = np.tanh(x @ p.weights[0].T + p.biases[0])
        expected = h @ p.weights[1].T + p.biases[1]
        logits = nn_core.forward(p, x, nn_core.Workspace())
        assert np.max(np.abs(logits - expected)) < 1e-12

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("dims", [[3, 2], [3, 16, 4], [3, 16, 8, 4]])
    def test_equals_forward_cached_bit_for_bit(self, activation, dims):
        p = nn_core.init_network(dims, seed=5, activation=activation)
        x = np.random.default_rng(1).normal(size=(257, 3)) * 3.0
        cached_logits, _ = nn_core.forward_cached(p, x, nn_core.Workspace())
        assert np.array_equal(nn_core.forward(p, x, nn_core.Workspace()), cached_logits)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("dims", [[3, 16, 4], [3, 16, 8, 4]])
    @pytest.mark.parametrize("n", [1, 37, 4095, 4096, 4097, 8193, 20000])
    def test_keeps_the_bits_of_a_plain_per_layer_pass(self, activation, dims, n):
        p = nn_core.init_network(dims, seed=5, activation=activation)
        x = np.random.default_rng(n).normal(size=(n, 3)) * 3.0
        got, want = nn_core.forward(p, x, nn_core.Workspace()), oracles.forward_per_layer(p, x)
        assert got.shape == want.shape == (n, dims[-1])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_consecutive_calls_return_unaliased_logits(self):
        p = nn_core.init_network([3, 16, 8, 4], seed=5)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(5000, 3)), rng.normal(size=(5000, 3))
        first = nn_core.forward(p, x, nn_core.Workspace())
        kept = first.copy()
        second = nn_core.forward(p, y, nn_core.Workspace())
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    def test_dimension_mismatch_rejected(self):
        p = nn_core.init_network([2, 4, 3], seed=0)
        with pytest.raises(ValidationError, match="input width 5 does not match network input dim 2"):
            nn_core.forward(p, np.zeros((1, 5)), nn_core.Workspace())
        with pytest.raises(ValidationError, match="input width 5 does not match network input dim 2"):
            nn_core.forward_cached(p, np.zeros((1, 5)), nn_core.Workspace())
        with pytest.raises(ValidationError, match=r"inputs must form an \(n, d\) matrix per net"):
            nn_core.forward(p, np.zeros(2), nn_core.Workspace())

    def test_batch_validation(self):
        with pytest.raises(ValidationError, match=r"batch inputs must form a nonempty \(n, d\) matrix"):
            nn_core.Batch(np.zeros((0, 2)))
        with pytest.raises(ValidationError, match="batch inputs contain non-finite values"):
            nn_core.Batch(np.array([[np.nan, 0.0]]))
        with pytest.raises(ValidationError, match="labels must supply one class index per example"):
            nn_core.Batch(np.zeros((2, 2)), labels=[0])
        with pytest.raises(ValidationError, match="negative class label"):
            nn_core.Batch(np.zeros((1, 2)), labels=[-1])


@st.composite
def _logit_rows(draw):
    """(n, k) logits, k in {4, 8}; each row is plain, has a tied maximum, or
    is saturated (every other entry more than 800 below its maximum)."""
    k = draw(st.sampled_from([4, 8]))
    n = draw(st.integers(1, 30))
    z = np.array(draw(st.lists(st.floats(-60, 60), min_size=n * k, max_size=n * k))).reshape(n, k)
    for row in z:
        top = int(np.argmax(row))
        kind = draw(st.sampled_from(["plain", "tie", "saturated"]))
        if kind == "tie":
            row[draw(st.integers(0, k - 1).filter(lambda j: j != top))] = row[top]
        elif kind == "saturated":
            gap = draw(st.floats(800.5, 5000.0))
            row -= gap
            row[top] += gap
    return z


# signed zeros, subnormals, infinities and magnitudes whose sums overflow
_SUM_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf, 1e308, -1.7e308, 1.0, -3.5]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _sum_rows(rng, shape):
    """(..., 40, k) rows of every kind of sum: a row of -0.0, a row of
    signed zeros, plain normal rows, whose last bits depend on the order
    of the adds, rows over twenty orders of magnitude, and rows sprinkled
    with the edge values."""
    z = rng.standard_normal(shape)
    z[..., 14:27, :] *= 10.0 ** rng.integers(-10, 10, size=z[..., 14:27, :].shape)
    edge = rng.choice(_SUM_EDGE_VALUES, size=z[..., 27:, :].shape)
    z[..., 27:, :] = np.where(rng.random(edge.shape) < 0.3, edge, z[..., 27:, :])
    z[..., 0, :] = -0.0
    z[..., 1, :] = rng.choice([0.0, -0.0], size=shape[-1])
    return z


class TestClassSum:
    @given(
        data=st.data(),
        lead=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        k=st.integers(1, 130),
        keepdims=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_the_last_axis_sum_bit_for_bit(self, data, lead, k, keepdims):
        values = st.one_of(st.sampled_from(_SUM_EDGE_VALUES), st.floats(allow_nan=False))
        z = data.draw(hnp.arrays(np.float64, (*lead, k), elements=values))
        with np.errstate(over="ignore", invalid="ignore"):
            got = nn_core.class_sum(z, nn_core.Workspace(), keepdims=keepdims)
            want = z.sum(axis=-1, keepdims=keepdims)
        assert _same_bits(got, want)

    @pytest.mark.parametrize("k", [8, 9, 15, 16, 17, 24, 127, 128, 129, 200, 300])
    def test_block_boundaries_bit_for_bit(self, k):
        # the 8-accumulator tree starts at 8 and the reduce takes over at
        # 16; numpy's reduce adds a second block at 16 and halves above 128.
        # One workspace sums a full, a short and a full batch in turn, as at
        # the end of an epoch; the last is summed twice, so its columns and
        # result buffers are bound once and then reused.
        rng = np.random.default_rng(k)
        work = nn_core.Workspace()
        for n in (40, 33, 40, 40):
            z = work.take("rows", (3, n, k))
            z[...] = _sum_rows(rng, (3, n, k))
            with np.errstate(over="ignore", invalid="ignore"):
                want = z.sum(axis=-1)
                assert _same_bits(nn_core.class_sum(z, work), want)
                assert _same_bits(nn_core.class_sum(z, work, keepdims=True), want[..., None])

    @pytest.mark.parametrize("k", [3, 9, 20])
    def test_a_non_contiguous_array_sums_as_its_reduce_does(self, k):
        z = np.random.default_rng(k).standard_normal((k, 50)).T * 1e3
        assert _same_bits(nn_core.class_sum(z, nn_core.Workspace()), z.sum(axis=-1))

    def test_a_row_of_negative_zeros_sums_to_positive_zero(self):
        for k in (3, 8, 17):
            got = nn_core.class_sum(np.full((1, k), -0.0), nn_core.Workspace())
            assert got.view(np.int64).tolist() == [0]


class TestSoftmax:
    @given(z=_logit_rows(), t=st.sampled_from([0.01, 1.0, 37.5, 100.0]))
    @settings(max_examples=300, deadline=None)
    def test_max_softmax_is_the_softmax_max_bit_for_bit(self, z, t):
        z = np.asarray(z) / t
        got = nn_core.max_softmax(z, nn_core.Workspace())
        want = nn_core.softmax(z, nn_core.Workspace()).max(axis=-1)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # written over the logits, as scoring does
        in_place = nn_core.max_softmax(z, nn_core.Workspace(), out=z)
        assert np.array_equal(in_place.view(np.int64), want.view(np.int64))

    def test_max_softmax_of_a_saturated_row_is_one(self):
        assert nn_core.max_softmax([[900.0, 0.0, -5.0, 1.0]], nn_core.Workspace()).tolist() == [1.0]

    def test_symmetric_pair(self):
        assert np.allclose(nn_core.softmax([[0.0, 0.0]], nn_core.Workspace()), [[0.5, 0.5]], atol=1e-15)

    def test_constant_row_any_temperature(self):
        for c in (-3.0, 0.0, 17.5):
            assert np.allclose(nn_core.softmax([[c, c, c]], nn_core.Workspace()), 1.0 / 3.0, atol=1e-15)
            for t in (0.5, 1.0, 4.0):
                assert np.allclose(nn_core.max_softmax(np.array([[c, c, c]]) / t, nn_core.Workspace()), 1.0 / 3.0,
                                   atol=1e-15)

    def test_temperature_rescales_logits(self):
        a = nn_core.max_softmax(np.array([[2.0, 0.0]]) / 2.0, nn_core.Workspace())
        b = nn_core.max_softmax(np.array([[1.0, 0.0]]) / 1.0, nn_core.Workspace())
        assert np.allclose(a, b, atol=1e-15)

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
        work = nn_core.Workspace()
        p = nn_core.softmax(z, work)
        assert np.all(p >= 0)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(nn_core.softmax(z + shift, work) - p)) < 1e-12

    def test_log_softmax_agrees_with_log_of_softmax(self):
        z = np.random.default_rng(1).normal(size=(4, 5)) * 3
        before = z.copy()
        lp = nn_core.log_softmax(z, nn_core.Workspace())
        # a fresh array; the logits are only read
        assert not np.shares_memory(lp, z) and np.array_equal(z, before)
        assert np.max(np.abs(lp - np.log(nn_core.softmax(z, nn_core.Workspace())))) < 1e-12

    def test_log_softmax_stable_at_extreme_logits(self):
        lp = nn_core.log_softmax([[1000.0, 0.0]], nn_core.Workspace())
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
        with pytest.raises(ValidationError, match="positive lam needs an outlier batch"):
            nn_core.grad(p, 0.5, batch, None)

    def test_negative_lam_rejected(self):
        rng = np.random.default_rng(0)
        p = nn_core.init_network([3, 6, 4], seed=0)
        batch = _labeled_batch(rng, 4, 3, 4)
        oe = nn_core.Batch(rng.normal(size=(4, 3)))
        with pytest.raises(ValidationError, match="lam must be nonnegative"):
            nn_core.grad(p, -0.1, batch, oe)
        with pytest.raises(ValidationError, match="lam must be nonnegative"):
            nn_core.train_classifier(p, -0.1, batch.inputs, batch.labels, oe.inputs, epochs=1, batch_size=4, lr0=0.1)

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
            return objectives.ce_loss(nn_core.forward(q, batch.inputs, nn_core.Workspace()), batch.labels)

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


def _vector(arrays):
    """Per-layer arrays of one net as one vector in the layout of NetworkParams.vector."""
    return np.concatenate([a.ravel() for a in arrays])


def _indexed_ce_logit_grad(logits, labels):
    """softmax(logits) - one_hot(labels) with the labels set through np.indices."""
    out = nn_core.softmax(logits, nn_core.Workspace())
    out[(*np.indices(labels.shape, sparse=True), labels)] -= 1.0
    return out


class TestLogitGradients:
    @pytest.mark.parametrize("lead", [(7,), (3, 7)])
    @pytest.mark.parametrize("k", [2, 4, 8, 9])
    @pytest.mark.parametrize("label_dtype", [np.int64, np.uint8])
    def test_ce_logit_grad_equals_the_indexed_form_bit_for_bit(self, lead, k, label_dtype):
        rng = np.random.default_rng(k)
        logits = rng.standard_normal((*lead, k)) * 30.0
        labels = rng.integers(0, k, size=lead).astype(label_dtype)
        want = _indexed_ce_logit_grad(logits, labels)
        assert _same_bits(nn_core.ce_logit_grad(logits, labels, nn_core.Workspace()), want)
        # written over the logits, as the training step does
        own = logits.copy()
        assert nn_core.ce_logit_grad(own, labels, nn_core.Workspace(), out=own) is own
        assert _same_bits(own, want)

    @pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 15, 16, 17])
    def test_ce_logit_grad_through_a_workspace_keeps_the_bits(self, k):
        # the workspace binds class columns, max and sum buffers and row
        # starts to the logits it hands out; k crosses class_sum's one-by-one
        # columns (below 8), its 8-accumulator tree (8 to 15) and the reduce
        # (16 on). A full batch and a short one take turns, as at the end of
        # an epoch.
        rng = np.random.default_rng(k)
        work = nn_core.Workspace()
        for n in (40, 40, 13, 40, 13):
            logits = work.take("logits", (3, n, k))
            logits[...] = _sum_rows(rng, (3, n, k)) if n == 40 else rng.standard_normal((3, n, k)) * 30.0
            labels = rng.integers(0, k, size=(3, n))
            with np.errstate(over="ignore", invalid="ignore"):
                want = _indexed_ce_logit_grad(logits, labels)
                assert nn_core.ce_logit_grad(logits, labels, work, out=logits) is logits
            assert _same_bits(logits, want)

    def test_ce_logit_grad_refuses_a_strided_out(self):
        logits = np.zeros((4, 6))
        with pytest.raises(ValidationError, match="ce_logit_grad writes only into a C-contiguous array"):
            nn_core.ce_logit_grad(logits[:, ::2], np.zeros(4, dtype=np.int64), nn_core.Workspace(), out=logits[:, ::2])

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.7])
    @pytest.mark.parametrize("workspace", ["fresh", "reused"])
    def test_objective_grad_equals_the_expression_form_bit_for_bit(self, stacked, lam, workspace):
        # the reference composition, one net at a time: the inlier term as
        # softmax - one_hot, the outlier term as lam * (softmax(logits) -
        # 1 / k) / m, each on fresh arrays, summed per layer
        rng = np.random.default_rng(21)
        nets = [nn_core.init_network([3, 6, 5], seed=s) for s in range(3 if stacked else 1)]
        p = nn_core.NetworkParams.stack(nets) if stacked else nets[0]
        lead = (3,) if stacked else ()
        X = rng.standard_normal((*lead, 9, 3)) * 2.0
        y = rng.integers(0, 5, size=(*lead, 9))
        oe_X = rng.standard_normal((*lead, 7, 3)) * 4.0
        Xs, ys, oes = X.reshape(-1, 9, 3), y.reshape(-1, 9), oe_X.reshape(-1, 7, 3)
        want = np.stack([_vector(ref.grad(ref.RefNet(net), lam, nn_core.Batch(Xs[s], ys[s]), nn_core.Batch(oes[s])))
                         for s, net in enumerate(nets)]).reshape(p.vector.shape)
        work = nn_core.Workspace()
        if workspace == "reused":  # a workspace that has served a pass of another shape
            nn_core._objective_grad(p, lam, X[..., :4, :], y[..., :4], oe_X[..., :2, :], work)
        for _ in range(2):  # a workspace gives the same bits on its second use
            assert _same_bits(nn_core._objective_grad(p, lam, X, y, oe_X, work), want)


# quiet and signaling NaNs of both signs, each with a payload
_NAN_PAYLOADS = np.array([0x7FF8000000000001, 0xFFF80000DEADBEEF, 0x7FF0000000000ABC, 0xFFF4000000000000],
                         dtype=np.uint64).view(np.float64)


class TestVectorLoops:
    """Relu against a zero array and bias rows by einsum, against the
    scalar-operand maximum and the reduce they replace."""

    @pytest.mark.parametrize("shape", [(7,), (40, 3), (3, 40, 32), (2, 5, 1)])
    @pytest.mark.parametrize("workspace", ["fresh", "reused"])
    def test_relu_gives_the_bytes_of_a_max_against_scalar_zero(self, shape, workspace):
        # a full, a short and a full batch in turn through one workspace; a
        # reused one has already served a pass of another shape
        rng = np.random.default_rng(len(shape))
        work = nn_core.Workspace()
        if workspace == "reused":
            nn_core._act(np.ones((*shape[:-1], shape[-1] + 1)), "relu", work)
        short = (*shape[:-2], max(1, shape[-2] // 3), shape[-1]) if len(shape) > 1 else (shape[0] // 2,)
        for s in (shape, short, shape):
            z = rng.standard_normal(s)
            pick = rng.random(s) < 0.6
            z[pick] = rng.choice(np.concatenate([_SUM_EDGE_VALUES, _NAN_PAYLOADS]), size=int(pick.sum()))
            want = np.maximum(z, 0.0)
            for _ in range(2):  # the workspace's zero array, made and then reused
                got = z.copy()
                assert nn_core._act(got, "relu", work) is got
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("S", [None, 1, 2, 5, 10], ids=["single", "S1", "S2", "S5", "S10"])
    def test_bias_rows_equal_the_row_reduce_bit_for_bit(self, S):
        # width 1 takes the reduce itself, every other width einsum
        lead = () if S is None else (S,)
        rng = np.random.default_rng(S or 0)
        work = nn_core.Workspace()
        for k in [1, *range(2, 20), 31, 32, 33, 64]:
            nets = [nn_core.init_network([1, k], seed=s) for s in range(S or 1)]
            p = nets[0] if S is None else nn_core.NetworkParams.stack(nets)
            for n in (1, 2, 3, 7, 8, 9, 16, 17, 63, 64, 65, 1024):
                delta = rng.standard_normal((*lead, n, k)) * 10.0 ** rng.integers(-8, 8, size=(*lead, n, k))
                bias = p.split(nn_core.backward(p, [np.ones((*lead, n, 1))], delta, work))[1]
                assert _same_bits(bias, np.add.reduce(delta, axis=-2)), (k, n)

    @pytest.mark.parametrize("k", [1, 2, 5, 32])
    def test_non_finite_bias_rows_stay_non_finite_in_the_same_places(self, k):
        rng = np.random.default_rng(k)
        p = nn_core.NetworkParams.stack([nn_core.init_network([1, k], seed=s) for s in range(3)])
        delta = rng.standard_normal((3, 17, k))
        pick = rng.random(delta.shape) < 0.05
        delta[pick] = rng.choice([np.inf, -np.inf, np.nan, *_NAN_PAYLOADS], size=int(pick.sum()))
        with np.errstate(invalid="ignore"):
            bias = p.split(nn_core.backward(p, [np.ones((3, 17, 1))], delta, nn_core.Workspace()))[1]
            want = np.add.reduce(delta, axis=-2)
        assert np.array_equal(np.isnan(bias), np.isnan(want))
        finite = ~np.isnan(want)
        assert _same_bits(bias[finite], want[finite])  # the NaN payloads may differ

    def test_two_passes_of_one_shape_read_one_read_only_zero_array(self, monkeypatch):
        p = nn_core.NetworkParams.stack([nn_core.init_network([5, 16, 8, 4], seed=s) for s in range(3)])
        work = nn_core.Workspace()
        seen = []
        zeros = work.zeros
        monkeypatch.setattr(work, "zeros", lambda shape: seen.append(zeros(shape)) or seen[-1])
        rng = np.random.default_rng(0)
        for n in (32, 32, 9):
            nn_core.forward_cached(p, rng.standard_normal((3, n, 5)), work)
        assert [z.shape for z in seen] == [(3, 32, 16), (3, 32, 8)] * 2 + [(3, 9, 16), (3, 9, 8)]
        assert seen[0] is seen[2] and seen[1] is seen[3]
        assert all(z.flags.c_contiguous and not z.flags.writeable for z in seen)

    def test_zero_arrays_stay_zero_through_a_training_run(self):
        # the run's zero arrays are read by every relu of every step; one
        # write to them would move every later activation
        rng = np.random.default_rng(4)
        nets = [nn_core.init_network([2, 8, 8, 3], seed=s) for s in range(3)]
        X = rng.standard_normal((3, 53, 2))
        y = rng.integers(0, 3, size=(3, 53))
        oe_X = rng.uniform(-6.0, 6.0, size=(3, 23, 2))
        works = []

        def step_grad(net, batch, oe_batch, work):
            works.append(work)
            return nn_core._objective_grad(net, 0.5, *batch, oe_batch, work)

        nn_core.train_loop(nn_core.NetworkParams.stack(nets), step_grad, (X, y), oe_X, epochs=3, batch_size=16,
                           lr0=0.1, seed=[0, 1, 2])
        work = works[0]
        assert all(w is work for w in works)
        # full and short batches of inliers and outliers through two hidden
        # layers, as views of one zero buffer
        zeros = {key[1]: view for key, view in work._views.items() if key[0] is nn_core._ZEROS}
        assert sorted(zeros) == [(3, 5, 8), (3, 16, 8)]
        assert all(np.shares_memory(z, work._buffers[nn_core._ZEROS]) for z in zeros.values())
        assert not work._buffers[nn_core._ZEROS].view(np.int64).any()


class TestWorkspace:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_forward_and_backward_keep_their_bits(self, activation, stacked):
        nets = [nn_core.init_network([5, 16, 8, 4], seed=s, activation=activation) for s in range(3)]
        p = nn_core.NetworkParams.stack(nets) if stacked else nets[0]
        lead = (3,) if stacked else ()
        rng = np.random.default_rng(7)
        work = nn_core.Workspace()
        members = [ref.RefNet(net) for net in (nets if stacked else nets[:1])]
        for n in (32, 32, 9, 32, 9):  # full and short batches in turn
            X = rng.standard_normal((*lead, n, 5)) * 2.0
            dlog = rng.standard_normal((*lead, n, 4))
            # the reference composition, one net at a time on fresh arrays
            passes = [ref.forward_cached(r, x) for r, x in zip(members, X.reshape(-1, n, 5))]
            want_logits = np.stack([z for z, _ in passes]).reshape(*lead, n, 4)
            want = np.stack([_vector(ref.backward(r, cache, d))
                             for r, (_, cache), d in zip(members, passes, dlog.reshape(-1, n, 4))])
            logits, cache = nn_core.forward_cached(p, X, work)
            assert _same_bits(logits, want_logits)
            assert _same_bits(nn_core.backward(p, cache, dlog, work), want.reshape(p.vector.shape))

    def test_a_gradient_lasts_until_the_next_backward_pass_of_its_role(self):
        p = nn_core.init_network([3, 6, 4], seed=0)
        rng = np.random.default_rng(0)
        work = nn_core.Workspace()

        def grad(role):
            logits, cache = nn_core.forward_cached(p, rng.standard_normal((5, 3)), work)
            return nn_core.backward(p, cache, rng.standard_normal((5, 4)), work, role=role)

        first = grad("grad")
        kept = first.copy()
        other = grad("outlier grad")
        assert not np.shares_memory(first, other)
        assert np.array_equal(first, kept)
        assert grad("grad") is first

    def test_no_pass_takes_a_default_workspace(self):
        # every pass gets its arrays from a workspace its caller passes; none
        # falls back to fresh arrays when the workspace is left out
        defaults = {f"{module.__name__}.{name}": inspect.signature(fn).parameters["work"].default
                    for module in (nn_core, density, scoring, pipeline) for name, fn in vars(module).items()
                    if inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and "work" in inspect.signature(fn).parameters}
        passes = {"forward_cached", "forward", "backward", "_objective_grad", "class_max", "class_sum",
                  "_shifted_exp", "softmax", "max_softmax", "log_softmax", "ce_logit_grad", "_minus_one_hot",
                  "_act", "_delta_below"}
        assert {f"oewb.nn_core.{name}" for name in passes} <= set(defaults)
        assert {f"oewb.density.{name}" for name in ("one_hot_windows", "context_features", "_sequence_nll",
                                                   "nll_batch", "bits_per_dim_batch", "margin_grad")} <= set(defaults)
        assert "oewb.scoring.score_dataset" in defaults
        # every forward of a run after training takes the run's workspace
        assert {f"oewb.harness.pipeline.{name}" for name in (
            "train_models", "fit_temperatures", "classifier_accuracy", "evaluate_detector", "calibration_eval",
            "run_seed")} <= set(defaults)
        assert {name for name, default in defaults.items() if default is not inspect.Parameter.empty} == set()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_one_workspace_serves_forwards_of_every_size(self, activation):
        # an evaluation runs forwards of many sizes through one workspace;
        # each keeps the bits of a forward through a fresh one
        p = nn_core.init_network([2, 32, 32, 4], seed=3, activation=activation)
        rng = np.random.default_rng(2)
        work = nn_core.Workspace()
        for n in (14000, 3000, 14000):
            x = rng.normal(scale=4.0, size=(n, 2))
            got = nn_core.forward(p, x, work)
            assert _same_bits(got, nn_core.forward(p, x, nn_core.Workspace()))
        # the workspace owns the logits: the next forward overwrites them
        assert np.shares_memory(got, nn_core.forward(p, x[:3000], work))

    def test_zero_views_stay_zero_and_read_only_when_the_buffer_grows(self):
        work = nn_core.Workspace()
        small = work.zeros((3000, 32))
        assert work.zeros((3000, 32)) is small
        large = work.zeros((14000, 32))  # outgrows the buffer
        again = work.zeros((3000, 32))
        assert again is not small and np.shares_memory(again, large)
        assert np.shares_memory(work.zeros((2, 5)), large)  # any smaller shape views the one buffer
        for z in (small, large, again):
            assert z.flags.c_contiguous and not z.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                z[0, 0] = 1.0
            assert not z.view(np.int64).any()

    def test_take_hands_out_one_view_per_shape_of_one_buffer(self):
        work = nn_core.Workspace()
        small = work.take("role", (2, 3))
        assert work.take("role", (2, 3)) is small
        assert np.shares_memory(work.take("role", (3, 2)), small)
        large = work.take("role", (4, 5))  # outgrows the buffer
        again = work.take("role", (2, 3))
        assert again is not small and np.shares_memory(again, large)
        assert work.take("mask", (2, 3), bool).dtype == bool

    def test_a_role_holds_one_dtype(self):
        work = nn_core.Workspace()
        work.take("role", (2, 3))
        for shape in ((2, 3), (1, 3), (4, 5)):
            with pytest.raises(TypeError, match="holds float64, not bool"):
                work.take("role", shape, bool)
        assert work.take("role", (2, 3)).dtype == np.float64


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

    @pytest.mark.parametrize("momentum, weight_decay", [(0.9, 5e-4), (0.0, 5e-4), (0.9, 0.0), (0.0, 0.0)])
    def test_equals_the_three_line_update_bit_for_bit(self, momentum, weight_decay):
        # gd = g + wd * p; v = m * v + gd; p -= lr * (gd + m * v), over a
        # stack, with gradients of many magnitudes and signed zeros
        rng = np.random.default_rng(3)
        p = nn_core.NetworkParams.stack([nn_core.init_network([3, 5, 2], seed=s) for s in range(3)])
        state = nn_core.init_optimizer(p, lr0=0.3, total_steps=20, momentum=momentum, weight_decay=weight_decay)
        want_p, want_v = p.vector.copy(), np.zeros_like(p.vector)
        for step in range(20):
            g = rng.standard_normal(p.vector.shape) * 10.0 ** rng.integers(-8, 3, size=p.vector.shape)
            g[rng.random(g.shape) < 0.1] = -0.0
            given_g = g.copy()
            lr = nn_core.cosine_lr(step, 20, 0.3)
            gd = g + weight_decay * want_p
            want_v *= momentum
            want_v += gd
            want_p -= lr * (gd + momentum * want_v)
            nn_core.sgd_step(p, g, state)
            assert _same_bits(p.vector, want_p)
            assert _same_bits(state.velocity, want_v)
            assert _same_bits(g, given_g)

    def test_shape_mismatch_rejected(self):
        p = nn_core.init_network([2, 3], seed=1)
        state = nn_core.init_optimizer(p, lr0=0.1, total_steps=1)
        with pytest.raises(ValidationError, match="parameter, gradient, and velocity layouts differ"):
            nn_core.sgd_step(p, np.zeros(p.vector.size - 1), state)

    def test_optimizer_hyperparameter_validation(self):
        p = nn_core.init_network([2, 3], seed=1)
        with pytest.raises(ValidationError, match="lr0 must be positive"):
            nn_core.init_optimizer(p, lr0=0.0, total_steps=1)
        with pytest.raises(ValidationError, match=r"momentum must lie in \[0, 1\)"):
            nn_core.init_optimizer(p, lr0=0.1, total_steps=1, momentum=1.0)
        with pytest.raises(ValidationError, match="weight_decay must be nonnegative"):
            nn_core.init_optimizer(p, lr0=0.1, total_steps=1, weight_decay=-0.1)
        with pytest.raises(ValidationError, match="total_steps must be positive"):
            nn_core.init_optimizer(p, lr0=0.1, total_steps=0)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert nn_core.cosine_lr(0, 100, 0.3) == pytest.approx(0.3, abs=1e-15)
        assert nn_core.cosine_lr(100, 100, 0.3) == pytest.approx(0.0, abs=1e-15)
        assert nn_core.cosine_lr(50, 100, 0.3) == pytest.approx(0.15, abs=1e-15)

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError, match="total_steps must be positive"):
            nn_core.cosine_lr(0, 0, 0.1)
        with pytest.raises(ValidationError, match="step outside the schedule range"):
            nn_core.cosine_lr(-1, 10, 0.1)
        with pytest.raises(ValidationError, match="step outside the schedule range"):
            nn_core.cosine_lr(11, 10, 0.1)
        with pytest.raises(ValidationError, match="lr0 must be positive"):
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
        lp = nn_core.log_softmax(nn_core.forward(p, batch.inputs, nn_core.Workspace()), nn_core.Workspace())
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
        with pytest.raises(ValidationError, match=r"not a parameter file \(bad magic\)"):
            nn_core.load_params(path)

    def test_truncated_file_rejected(self, tmp_path):
        p = nn_core.init_network([3, 5, 4], seed=2)
        path = tmp_path / "net.bin"
        nn_core.save_params(p, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(ValidationError, match="trailing or missing bytes"):
            nn_core.load_params(path)

    @pytest.mark.parametrize("case", ["magic", "version", "activation", "truncated", "trailing"])
    def test_every_refusal_names_the_file(self, tmp_path, case):
        path = tmp_path / "net.bin"
        nn_core.save_params(nn_core.init_network([3, 5, 4], seed=2), path)
        blob = bytearray(path.read_bytes())
        if case == "magic":
            blob[:4] = b"NOPE"
        elif case == "version":
            blob[4] = 9
        elif case == "activation":
            blob[12 + 4 * 3] = 7  # the byte after the three dims
        elif case == "truncated":
            blob = blob[:-9]
        else:
            blob += b"\x00"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match=f"^bad parameter file {re.escape(str(path))}: "):
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
        with pytest.raises(ValidationError, match="only single nets of one layout can be stacked"):
            nn_core.NetworkParams.stack([nets[0], nn_core.init_network([3, 6, 4], seed=0)])
        # the widths fix the vector's length
        with pytest.raises(ValidationError, match=r"layer widths \[3, 5, 4\] need 44 parameters per net, got an "
                                                  r"array of shape \(43,\)"):
            nn_core.NetworkParams([3, 5, 4], nets[0].vector[:-1])


class TestInit:
    def test_glorot_scale_bound_and_zero_biases(self):
        p = nn_core.init_network([10, 20, 5], seed=0)
        for w, (fi, fo) in zip(p.weights, [(10, 20), (20, 5)]):
            s = np.sqrt(6.0 / (fi + fo))
            assert np.all(np.abs(w) <= s)
        for b in p.biases:
            assert np.array_equal(b, np.zeros_like(b))

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValidationError, match="layer_dims needs at least two positive entries"):
            nn_core.init_network([4], seed=0)
        with pytest.raises(ValidationError, match="layer_dims needs at least two positive entries"):
            nn_core.init_network([4, 0, 2], seed=0)
        with pytest.raises(ValidationError, match="unknown activation 'gelu'"):
            nn_core.init_network([4, 3, 2], seed=0, activation="gelu")
