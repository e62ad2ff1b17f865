"""Fixed-window autoregressive density model: exact likelihoods, training,
and margin-based exposure fine-tuning."""

import math

import numpy as np
import pytest

from oewb import density, metrics, nn_core
from oewb.errors import ValidationError

import fd


def _solo(train, net, *seqs, seed=0, **settings):
    """train (train_density or finetune_density_oe) of one net as a stack of one: the trained net."""
    stack = train(nn_core.NetworkParams.stack([net]), *(np.asarray(a)[None] for a in seqs), seed=[seed], **settings)
    return stack.unstack()[0]


LN2 = math.log(2.0)


def _uniform_model(V, c=2, hidden=(4,)):
    m = nn_core.init_network(density.ar_layer_dims(V, c, hidden), 0)
    m.vector[...] = 0.0
    return m


def _walks(rng, n, length, V, p_step=0.9, starts=None):
    """Cyclic +1 walks with occasional uniform jumps; strongly non-uniform."""
    out = np.empty((n, length), dtype=np.int64)
    for i in range(n):
        s = int(rng.choice(starts)) if starts is not None else int(rng.integers(0, V))
        for t in range(length):
            out[i, t] = s
            s = (s + 1) % V if rng.random() < p_step else int(rng.integers(0, V))
    return out


class TestDiscreteSequence:
    def test_validation(self):
        m = _uniform_model(V=4)
        with pytest.raises(ValidationError, match=r"sequences must form a nonempty \(n, D\) integer matrix"):
            density.nll_batch(m, np.zeros((2, 0), dtype=np.int64), nn_core.Workspace())
        with pytest.raises(ValidationError, match=r"layer widths \[4, 4, 1\] are not a density layout"):
            density.layout(nn_core.init_network(density.ar_layer_dims(1, 2, (4,)), 0))
        with pytest.raises(ValidationError, match="symbol outside the alphabet"):
            density.nll_batch(m, [[0, 4]], nn_core.Workspace())
        with pytest.raises(ValidationError, match=r"nonempty \(n, D\) integer matrix"):
            density.nll_batch(m, [0, 1, 2], nn_core.Workspace())  # one sequence is a (1, D) matrix
        assert density.nll_batch(m, [[0, 1, 2]], nn_core.Workspace()).shape == (1,)

    def test_model_shape_validation(self):
        assert density.layout(nn_core.init_network(density.ar_layer_dims(3, 2, (4,)), 0)) == (2, 3)
        assert density.layout(nn_core.init_network([15, 4, 4], seed=0)) == (3, 4)
        # input 5 is no positive multiple of V + 1 = 4; input 3 < V + 1;
        # an output width of 1 is no alphabet
        for dims in ([5, 4, 3], [3, 4, 3], [6, 4, 1]):
            net = nn_core.init_network(dims, seed=0)
            with pytest.raises(ValidationError, match="not a density layout"):
                density.layout(net)
            with pytest.raises(ValidationError, match="not a density layout"):
                density.nll_batch(net, [[0, 0]], nn_core.Workspace())


class TestOneHotWindows:
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("V", [2, 3, 8, 10])
    def test_equals_rows_of_the_identity_bit_for_bit(self, stacked, dtype, c, V):
        # window symbols run over the alphabet and the start symbol V. One
        # workspace writes a full, a short and a full batch in turn, so each
        # pass must clear the ones a wider pass left in its buffer; the last
        # batch repeats the shape before it and reuses the bound flat index.
        rng = np.random.default_rng(V * 10 + c)
        work = nn_core.Workspace()
        for n in (11, 4, 11, 11):
            windows = rng.integers(0, V + 1, size=(3, n, c) if stacked else (n, c)).astype(dtype)
            want = np.eye(V + 1, dtype=np.float64)[windows].reshape(*windows.shape[:-1], -1)
            got = density.one_hot_windows(windows, V, work)
            assert got.dtype == np.float64
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestNll:
    def test_uniform_model_gives_d_log_v(self):
        m = _uniform_model(V=5)
        seq = [[0, 3, 1, 4, 2, 2, 0]]
        assert density.nll_batch(m, seq, nn_core.Workspace())[0] == pytest.approx(7 * math.log(5), abs=1e-12)

    def test_single_position_half_probability(self):
        m = _uniform_model(V=2)
        assert np.allclose(density.nll_batch(m, [[0], [1]], nn_core.Workspace()), LN2, rtol=0, atol=1e-15)

    def test_matches_per_step_chain_rule_oracle(self):
        V, c = 4, 3
        m = nn_core.init_network(density.ar_layer_dims(V, c, (6,)), 13)
        rng = np.random.default_rng(5)
        seq = rng.integers(0, V, size=10)
        # explicit chain rule: pad with the start symbol V, one step at a time
        padded = np.concatenate((np.full(c, V), seq))
        total = 0.0
        eye = np.eye(V + 1)
        for t in range(seq.size):
            window = padded[t : t + c]
            feat = eye[window].reshape(1, -1)
            logits = nn_core.forward(m, feat, nn_core.Workspace())
            p = nn_core.softmax(logits, nn_core.Workspace())[0]
            total += -math.log(p[seq[t]])
        got = density.nll_batch(m, seq[None], nn_core.Workspace())[0]
        assert got == pytest.approx(total, abs=1e-10)
        assert got >= 0.0

    def test_batch_matches_singles(self):
        V = 3
        m = nn_core.init_network(density.ar_layer_dims(V, 2, (5,)), 1)
        seqs = np.random.default_rng(2).integers(0, V, size=(6, 7))
        batch = density.nll_batch(m, seqs, nn_core.Workspace())
        singles = np.array([density.nll_batch(m, s[None], nn_core.Workspace())[0] for s in seqs])
        assert np.max(np.abs(batch - singles)) < 1e-12

    def test_symbol_outside_alphabet_rejected(self):
        m = _uniform_model(V=3)
        with pytest.raises(ValidationError, match="symbol outside the alphabet"):
            density.nll_batch(m, [[0, 3]], nn_core.Workspace())
        with pytest.raises(ValidationError, match="symbol outside the alphabet"):
            density.nll_batch(m, [[-1]], nn_core.Workspace())

    def test_symbols_that_are_not_whole_numbers_rejected(self):
        m = _uniform_model(V=3)
        for bad in (0.5, 2.5, -0.5, float("nan")):
            with pytest.raises(ValidationError, match="symbols must be whole numbers"):
                density.nll_batch(m, np.full((2, 3), bad), nn_core.Workspace())
        with pytest.raises(ValidationError, match="symbol outside the alphabet"):  # inf is whole, and too large
            density.nll_batch(m, np.full((2, 3), float("inf")), nn_core.Workspace())
        # whole numbers held as floats score as the integers they equal
        work = nn_core.Workspace()
        assert np.array_equal(density.nll_batch(m, np.full((2, 3), 2.0), work),
                              density.nll_batch(m, np.full((2, 3), 2), work))


class TestBitsPerDim:
    def test_exact_nats_to_bits_conversion(self):
        m = nn_core.init_network(density.ar_layer_dims(4, 2, (6,)), 3)
        seqs = np.random.default_rng(0).integers(0, 4, size=(5, 9))
        work = nn_core.Workspace()
        assert np.array_equal(density.bits_per_dim_batch(m, seqs, work), density.nll_batch(m, seqs, work) / (9 * LN2))

    def test_uniform_model_gives_log2_v(self):
        m = _uniform_model(V=8)
        assert density.bits_per_dim_batch(m, [[0, 1, 2, 3]], nn_core.Workspace())[0] == pytest.approx(3.0, abs=1e-12)

    def test_byte_alphabet_uniform_is_eight_bits(self):
        m = _uniform_model(V=256, c=1, hidden=(2,))
        seq = [[0, 17, 255, 128]]
        assert density.bits_per_dim_batch(m, seq, nn_core.Workspace())[0] == pytest.approx(8.0, abs=1e-12)

    def test_batch_variant_agrees(self):
        m = nn_core.init_network(density.ar_layer_dims(4, 2, (6,)), 3)
        seqs = np.random.default_rng(0).integers(0, 4, size=(5, 9))
        batch = density.bits_per_dim_batch(m, seqs, nn_core.Workspace())
        singles = [density.bits_per_dim_batch(m, s[None], nn_core.Workspace())[0] for s in seqs]
        assert np.max(np.abs(batch - np.array(singles))) < 1e-12


class TestTrainDensity:
    def test_constant_sequences_drive_nll_toward_zero(self):
        data = np.zeros((50, 8), dtype=np.int64)
        m = nn_core.init_network(density.ar_layer_dims(2, 2, (8,)), 0)
        before = np.mean(density.nll_batch(m, data, nn_core.Workspace()))
        trained = _solo(density.train_density, m, data, epochs=30, batch_size=32, lr0=0.5, seed=0)
        after = np.mean(density.nll_batch(trained, data, nn_core.Workspace()))
        assert after < before
        assert after < 0.05

    def test_uniform_data_converges_to_log2_v_bits(self):
        V = 4
        data = np.random.default_rng(1).integers(0, V, size=(400, 12))
        m = nn_core.init_network(density.ar_layer_dims(V, 2, (8,)), 1)
        trained = _solo(density.train_density, m, data, epochs=15, batch_size=32, lr0=0.2, seed=1)
        bpp = float(np.mean(density.bits_per_dim_batch(trained, data, nn_core.Workspace())))
        assert abs(bpp - math.log2(V)) < 0.1

    def test_structured_inliers_priced_below_held_out_outliers(self):
        V = 6
        rng = np.random.default_rng(4)
        train = _walks(rng, 300, 12, V)
        held_in = _walks(rng, 80, 12, V)
        held_out = rng.integers(0, V, size=(80, 12))
        m = nn_core.init_network(density.ar_layer_dims(V, 2, (16,)), 4)
        trained = _solo(density.train_density, m, train, epochs=10, batch_size=32, lr0=0.2, seed=4)
        bpp_in = float(np.mean(density.bits_per_dim_batch(trained, held_in, nn_core.Workspace())))
        bpp_out = float(np.mean(density.bits_per_dim_batch(trained, held_out, nn_core.Workspace())))
        assert bpp_in < bpp_out

    def test_training_is_deterministic(self):
        data = np.random.default_rng(1).integers(0, 3, size=(40, 6))
        m = nn_core.init_network(density.ar_layer_dims(3, 2, (6,)), 2)
        a = _solo(density.train_density, m, data, epochs=3, batch_size=32, lr0=0.1, seed=9)
        b = _solo(density.train_density, m, data, epochs=3, batch_size=32, lr0=0.1, seed=9)
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_epoch_validation(self):
        m = _uniform_model(V=2)
        with pytest.raises(ValidationError, match="epochs must be >= 1"):
            _solo(density.train_density, m, np.zeros((2, 3), dtype=np.int64), epochs=0, batch_size=32, lr0=0.1)


class TestMarginGrad:
    def test_matches_finite_differences(self):
        V, c, D = 3, 2, 5
        m = nn_core.init_network(density.ar_layer_dims(V, c, (6,)), 21, activation="tanh")
        rng = np.random.default_rng(8)
        a = rng.integers(0, V, size=(4, D))
        b = rng.integers(0, V, size=(4, D))
        nll_in = density.nll_batch(m, a, nn_core.Workspace())
        nll_out = density.nll_batch(m, b, nn_core.Workspace())
        # pick a positive margin well away from every hinge kink, sitting
        # between gaps so both active and inactive pairs are exercised
        gaps = np.sort(nll_out - nll_in)
        mids = [float(x) for x in (gaps[:-1] + gaps[1:]) / 2] + [float(gaps[-1] + 1.0)]
        margin = next(m_ for m_ in mids if m_ > 0 and np.min(np.abs(m_ - gaps)) >= 0.1)
        active = (margin + nll_in - nll_out) > 0
        assert active.any() and not active.all()
        mw, gw = 1.0, 0.7

        analytic = density.margin_grad(m, a, b, margin, nn_core.Workspace(), mle_weight=mw, margin_weight=gw)

        def loss(q):
            work = nn_core.Workspace()  # nll_batch returns fresh arrays
            mle = float(np.mean(density.nll_batch(q, a, work) / D))
            hinge = float(
                np.mean(np.maximum(0.0, margin + density.nll_batch(q, a, work) - density.nll_batch(q, b, work)))
            )
            return mw * mle + gw * hinge

        numeric = fd.fd_gradient(m, loss)
        assert fd.max_rel_err(analytic, numeric) < 1e-4

    def test_satisfied_margin_leaves_only_the_mle_term(self):
        V = 4
        rng = np.random.default_rng(3)
        m = nn_core.init_network(density.ar_layer_dims(V, 2, (8,)), 3)
        train = np.zeros((60, 8), dtype=np.int64)
        m = _solo(density.train_density, m, train, epochs=20, batch_size=32, lr0=0.5, seed=3)
        a = np.zeros((5, 8), dtype=np.int64)
        b = rng.integers(1, V, size=(5, 8))
        slack = density.nll_batch(m, b, nn_core.Workspace()) - density.nll_batch(m, a, nn_core.Workspace())
        margin = float(np.min(slack) / 2)
        assert margin > 0  # the setup must actually satisfy the hinge

        with_hinge = density.margin_grad(m, a, b, margin, nn_core.Workspace(), mle_weight=1.0, margin_weight=1.0)
        mle_only = density.margin_grad(m, a, b, margin, nn_core.Workspace(), mle_weight=1.0, margin_weight=0.0)
        assert np.array_equal(with_hinge, mle_only)

    def test_identical_pairs_have_cancelling_hinge_gradient(self):
        # with in == out the hinge sits exactly at the margin and its
        # gradient halves cancel; only the MLE term can move parameters
        V = 3
        m = nn_core.init_network(density.ar_layer_dims(V, 2, (6,)), 5)
        seqs = np.random.default_rng(0).integers(0, V, size=(6, 7))
        g = density.margin_grad(m, seqs, seqs, 4.0, nn_core.Workspace(), mle_weight=0.0, margin_weight=1.0)
        assert np.max(np.abs(g)) < 1e-14

    def test_unequal_batch_sizes_rejected(self):
        m = _uniform_model(V=3)
        with pytest.raises(ValidationError, match="margin pairs require equally sized inlier/outlier batches"):
            density.margin_grad(m, np.zeros((2, 4), dtype=np.int64), np.zeros((3, 4), dtype=np.int64), 4.0,
                                nn_core.Workspace())
        with pytest.raises(ValidationError, match="margin must be positive"):
            density.margin_grad(m, np.zeros((2, 4), dtype=np.int64), np.zeros((2, 4), dtype=np.int64), 0.0,
                                nn_core.Workspace())


class TestFinetune:
    def _setup(self, seed=0):
        # outliers here are MORE predictable than the noisy inlier walks, so
        # the baseline model prices them below inliers; only exposure to the
        # near-periodic family can push their likelihood down
        V, D = 6, 12
        rng = np.random.default_rng(seed)
        train_in = _walks(rng, 250, D, V, p_step=0.7)
        oe = _walks(rng, 150, D, V, p_step=0.97, starts=[1, 3, 5])
        test_in = _walks(rng, 60, D, V, p_step=0.7)
        test_out = _walks(rng, 60, D, V, p_step=1.0, starts=[0, 2, 4])
        m = nn_core.init_network(density.ar_layer_dims(V, 2, (16,)), seed)
        base = _solo(density.train_density, m, train_in, epochs=8, batch_size=32, lr0=0.2, seed=seed)
        return base, train_in, oe, test_in, test_out

    def test_auroc_strictly_increases_after_finetuning(self):
        base, train_in, oe, test_in, test_out = self._setup()
        tuned = _solo(density.finetune_density_oe, base, train_in, oe, epochs=2, batch_size=32, lr0=0.05, seed=0)

        def auroc_of(model):
            return metrics.auroc(
                metrics.ScoredSet(
                    density.bits_per_dim_batch(model, test_in, nn_core.Workspace()),
                    density.bits_per_dim_batch(model, test_out, nn_core.Workspace()),
                )
            )

        assert auroc_of(tuned) > auroc_of(base)

    def test_margin_gap_widens_on_held_out_data(self):
        base, train_in, oe, test_in, test_out = self._setup(seed=1)
        tuned = _solo(density.finetune_density_oe, base, train_in, oe, epochs=2, batch_size=32, lr0=0.05, seed=1)

        def gap(model):
            work = nn_core.Workspace()
            return float(
                np.mean(density.nll_batch(model, test_out, work)) - np.mean(density.nll_batch(model, test_in, work))
            )

        assert gap(tuned) > gap(base)

    def test_empty_outlier_set_rejected(self):
        m = _uniform_model(V=3)
        with pytest.raises(ValidationError, match="needs a nonempty outlier set"):
            _solo(density.finetune_density_oe, m, np.zeros((4, 5), dtype=np.int64), np.zeros((0, 5), dtype=np.int64),
                  epochs=2, batch_size=32, lr0=1e-3)

    def test_nonpositive_margin_rejected(self):
        m = _uniform_model(V=3)
        seqs = np.zeros((4, 5), dtype=np.int64)
        with pytest.raises(ValidationError, match="margin must be positive"):
            _solo(density.finetune_density_oe, m, seqs, seqs, margin=-1.0, epochs=2, batch_size=32, lr0=1e-3)

    def test_mle_loss_interference_bounded_per_step(self):
        # each fine-tune step may raise the training MLE loss by at most the
        # magnitude of the margin term it is trading against
        V, D = 4, 8
        rng = np.random.default_rng(6)
        a = _walks(rng, 40, D, V)
        b = rng.integers(0, V, size=(40, D))
        m = nn_core.init_network(density.ar_layer_dims(V, 2, (8,)), 6)
        m = _solo(density.train_density, m, a, epochs=5, batch_size=32, lr0=0.2, seed=6)
        state = nn_core.init_optimizer(m, lr0=1e-3, total_steps=20)
        margin = float(D)
        for _ in range(20):
            work = nn_core.Workspace()
            mle_before = np.mean(density.nll_batch(m, a, work)) / D
            hinge = float(
                np.mean(np.maximum(0.0, margin + density.nll_batch(m, a, work) - density.nll_batch(m, b, work)))
            )
            g = density.margin_grad(m, a, b, margin, nn_core.Workspace())
            nn_core.sgd_step(m, g, state)
            mle_after = np.mean(density.nll_batch(m, a, nn_core.Workspace())) / D
            assert mle_after - mle_before <= abs(hinge) + 1e-12


class TestNormalization:
    def test_predictive_rows_sum_to_one(self):
        m = nn_core.init_network(density.ar_layer_dims(5, 3, (7,)), 11)
        seqs = np.random.default_rng(1).integers(0, 5, size=(4, 6))
        feats, _ = density.context_features(seqs, *density.layout(m), nn_core.Workspace())
        work = nn_core.Workspace()
        logits, _ = nn_core.forward_cached(m, feats, work)
        p = nn_core.softmax(logits, work)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("D", [1, 3, 5, 8])
    def test_brute_force_sequence_space_sums_to_one(self, D):
        # sum of exp(-nll) over every binary sequence of length D must be 1
        m = nn_core.init_network(density.ar_layer_dims(2, 2, (6,)), 17)
        grid = np.array(np.meshgrid(*[[0, 1]] * D, indexing="ij")).reshape(D, -1).T
        total = float(np.sum(np.exp(-density.nll_batch(m, grid, nn_core.Workspace()))))
        assert abs(total - 1.0) < 1e-9

    def test_brute_force_after_training_still_normalized(self):
        data = np.random.default_rng(0).integers(0, 2, size=(50, 6))
        m = nn_core.init_network(density.ar_layer_dims(2, 2, (6,)), 0)
        m = _solo(density.train_density, m, data, epochs=5, batch_size=32, lr0=0.1, seed=0)
        grid = np.array(np.meshgrid(*[[0, 1]] * 6, indexing="ij")).reshape(6, -1).T
        total = float(np.sum(np.exp(-density.nll_batch(m, grid, nn_core.Workspace()))))
        assert abs(total - 1.0) < 1e-9


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        m = nn_core.init_network(density.ar_layer_dims(5, 2, (8, 4)), 9, activation="tanh")
        path = tmp_path / "density.bin"
        nn_core.save_params(m, path)
        q = nn_core.load_params(path)
        assert density.layout(q) == (2, 5)
        assert q.activation == "tanh"
        for x, y in zip(m.arrays(), q.arrays()):
            assert np.array_equal(x, y)

    def test_scores_survive_round_trip(self, tmp_path):
        m = nn_core.init_network(density.ar_layer_dims(3, 2, (4,)), 2)
        seqs = np.random.default_rng(3).integers(0, 3, size=(5, 6))
        path = tmp_path / "density.bin"
        nn_core.save_params(m, path)
        q = nn_core.load_params(path)
        work = nn_core.Workspace()
        assert np.array_equal(density.nll_batch(m, seqs, work), density.nll_batch(q, seqs, work))
