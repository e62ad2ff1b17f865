"""Anomaly score orientation and dataset-level scoring plumbing."""

import math

import numpy as np
import pytest

from oewb import density, nn_core, scoring
from oewb.errors import ValidationError


def _identity_net(k):
    """One linear layer whose logits equal its inputs, so each row of X is
    scored as the logit vector it is."""
    p = nn_core.init_network([k, k], seed=0)
    p.weights[0][...] = np.eye(k)
    return p


def _logit_scores(kind, logits):
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    return scoring.score_dataset(_identity_net(logits.shape[1]), kind, logits)


def _uniform_density(V, c=2, hidden=(4,)):
    m = nn_core.init_network(density.ar_layer_dims(V, c, hidden), 0)
    m.vector[...] = 0.0
    return m


class TestMspScore:
    def test_one_hot_is_least_anomalous(self):
        assert _logit_scores("msp", [50.0, 0.0, 0.0])[0] == -1.0

    def test_uniform_is_most_anomalous(self):
        # uniform logits give msp = -1/k
        for k in (2, 3, 10):
            assert _logit_scores("msp", np.zeros(k))[0] == pytest.approx(-1.0 / k, abs=1e-15)

    def test_direct_read(self):
        assert _logit_scores("msp", np.log([0.9, 0.1]))[0] == pytest.approx(-0.9, abs=1e-15)

    def test_equals_the_negated_softmax_max_bit_for_bit(self):
        net = nn_core.init_network([2, 16, 4], seed=1)
        X = np.random.default_rng(3).normal(scale=4.0, size=(500, 2))
        got = scoring.score_dataset(net, "msp", X)
        want = -nn_core.softmax(nn_core.forward(net, X), nn_core.Workspace()).max(axis=1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestUniformCeScore:
    def test_uniform_posterior_attains_the_maximum(self):
        # uniform logits give uniform_ce = -log k
        v = _logit_scores("uniform_ce", np.zeros(10))[0]
        assert v == pytest.approx(-math.log(10), abs=1e-12)
        z = np.random.default_rng(0).normal(size=(100, 10)) * 2
        assert np.all(_logit_scores("uniform_ce", z) <= v + 1e-12)

    def test_confident_posterior_runs_toward_minus_infinity(self):
        assert _logit_scores("uniform_ce", [30.0, -30.0])[0] < -25.0

    def test_quarter_split(self):
        assert _logit_scores("uniform_ce", np.log([0.75, 0.25]))[0] == pytest.approx(
            -0.8369882167858357, abs=1e-12
        )


class TestBppScore:
    def test_delegates_to_bits_per_dim(self):
        m = nn_core.init_network(density.ar_layer_dims(4, 2, (6,)), 0)
        seqs = np.random.default_rng(0).integers(0, 4, size=(5, 9))
        assert np.array_equal(
            scoring.score_dataset(m, "density_bpp", seqs), density.bits_per_dim_batch(m, seqs)
        )

    def test_zero_weight_model_gives_log2_v(self):
        for V in (2, 5, 8):
            seqs = np.random.default_rng(V).integers(0, V, size=(3, 6))
            got = scoring.score_dataset(_uniform_density(V), "density_bpp", seqs)
            assert np.max(np.abs(got - math.log2(V))) < 1e-12


class TestOrientation:
    def test_every_detector_ranks_the_obvious_outlier_higher(self):
        # uniform posterior vs one-hot
        assert _logit_scores("msp", [0.0] * 4)[0] > _logit_scores("msp", [20.0, 0.0, 0.0, 0.0])[0]
        assert _logit_scores("uniform_ce", [0.0, 0.0])[0] > _logit_scores("uniform_ce", [20.0, -20.0])[0]
        # improbable sequence vs the training pattern
        data = np.zeros((50, 8), dtype=np.int64)
        m = nn_core.init_network(density.ar_layer_dims(2, 2, (8,)), 0)
        m = density.train_density(
            nn_core.NetworkParams.stack([m]), data[None], epochs=20, batch_size=32, lr0=0.5, seed=[0]
        ).unstack()[0]
        pattern = np.zeros(8, dtype=np.int64)
        weird = np.array([0, 1] * 4, dtype=np.int64)
        scores = scoring.score_dataset(m, "density_bpp", np.stack([weird, pattern]))
        assert scores[0] > scores[1]


class TestTwoClassRankEquivalence:
    def test_msp_and_uniform_ce_order_identically_when_k_is_two(self):
        rng = np.random.default_rng(3)
        p = np.unique(rng.uniform(0.5, 1.0 - 1e-6, size=200))
        logits = np.log(np.stack([p, 1 - p], axis=1))
        msp = _logit_scores("msp", logits)
        uce = _logit_scores("uniform_ce", logits)
        assert np.array_equal(np.argsort(msp), np.argsort(uce))


def _classifier():
    return nn_core.init_network([2, 6, 3], seed=5)


class TestScoreDataset:
    def test_empty_dataset_gives_empty_scores(self):
        p = _classifier()
        assert scoring.score_dataset(p, "msp", np.zeros((0, 2))).size == 0
        m = nn_core.init_network(density.ar_layer_dims(3, 2, (4,)), 0)
        assert scoring.score_dataset(m, "density_bpp", np.zeros((0, 5), dtype=np.int64)).size == 0

    def test_singleton_matches_pointwise_ops(self):
        p = _classifier()
        x = np.array([[0.4, -1.3]])
        z = nn_core.forward(p, x)[0]
        probs = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        assert scoring.score_dataset(p, "msp", x)[0] == pytest.approx(-probs.max(), abs=1e-12)
        assert scoring.score_dataset(p, "uniform_ce", x)[0] == pytest.approx(
            np.mean(np.log(probs)), abs=1e-12
        )
        m = nn_core.init_network(density.ar_layer_dims(3, 2, (4,)), 1)
        seq = np.array([[0, 2, 1, 0]], dtype=np.int64)
        assert scoring.score_dataset(m, "density_bpp", seq)[0] == pytest.approx(
            density.nll_batch(m, seq)[0] / (4 * math.log(2.0)), abs=1e-12
        )

    def test_permutation_equivariance(self):
        p = _classifier()
        X = np.random.default_rng(1).normal(size=(20, 2))
        perm = np.random.default_rng(2).permutation(20)
        direct = scoring.score_dataset(p, "msp", X)[perm]
        permuted = scoring.score_dataset(p, "msp", X[perm])
        assert np.array_equal(direct, permuted)

    def test_density_scores_refuse_symbols_that_are_not_whole_numbers(self):
        # the symbols reach the density model as the caller gave them, so a
        # fraction is refused rather than truncated to a symbol
        m = nn_core.init_network(density.ar_layer_dims(3, 2, (4,)), 0)
        with pytest.raises(ValidationError, match="whole numbers"):
            scoring.score_dataset(m, "density_bpp", np.full((2, 3), 0.5))
        whole = scoring.score_dataset(m, "density_bpp", np.full((2, 3), 2.0))
        assert np.array_equal(whole, scoring.score_dataset(m, "density_bpp", np.full((2, 3), 2)))

    def test_incompatible_model_detector_pairings_rejected(self):
        p = _classifier()
        m = nn_core.init_network(density.ar_layer_dims(3, 2, (4,)), 0)
        X = np.zeros((2, 2))
        seqs = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(ValidationError, match=r"layer widths \[2, 6, 3\] are not a density layout"):
            scoring.score_dataset(p, "density_bpp", X)
        with pytest.raises(ValidationError, match="input width 4 does not match network input dim 8"):
            scoring.score_dataset(m, "msp", seqs)
        with pytest.raises(ValidationError, match="unknown detector kind 'mahalanobis'"):
            scoring.score_dataset(p, "mahalanobis", X)


def _score_rows(net, kind, dataset, rows):
    """The scores of the rows of dataset as evaluation takes them: the
    forward choose_forward picks, scored, then narrowed by its index."""
    forward, index = scoring.choose_forward(kind, dataset, rows)
    scores = scoring.score_dataset(net, kind, forward)
    return scores if index is None else scores[index]


class TestScoreRows:
    """Scoring what choose_forward picks equals whole-set scoring followed
    by indexing, bit for bit, on both sides of its size rule: kept rows
    whose forward reaches scoring.ALONE_ROWS rows are scored alone, fewer
    within the set."""

    @staticmethod
    def _spy(monkeypatch):
        seen = []
        original = scoring.score_dataset

        def spy(model, kind, dataset):
            seen.append(len(dataset))
            return original(model, kind, dataset)

        monkeypatch.setattr(scoring, "score_dataset", spy)
        return original, seen

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("kind", ["msp", "uniform_ce"])
    @pytest.mark.parametrize("n", [2048, 4097, 20000])
    @pytest.mark.parametrize("kept", [2047, 2048])
    def test_kept_rows_keep_the_whole_set_bits(self, monkeypatch, activation, kind, n, kept):
        assert scoring.ALONE_ROWS == 2048
        rng = np.random.default_rng(n + kept)
        net = nn_core.init_network([2, 32, 32, 4], seed=kept, activation=activation)
        X = rng.normal(scale=4.0, size=(n, 2))
        rows = np.sort(rng.choice(n, size=kept, replace=False))
        original, seen = self._spy(monkeypatch)
        got = _score_rows(net, kind, X, rows)
        whole = original(net, kind, X)
        assert np.array_equal(got.view(np.int64), whole[rows].view(np.int64))
        alone = kept >= 2048 and kept < n
        assert seen == [kept if alone else n]

    @pytest.mark.parametrize("kept", [127, 128])
    def test_density_counts_position_rows(self, monkeypatch, kept):
        # 16 position rows per sequence: 128 sequences make a 2,048-row forward
        net = nn_core.init_network(density.ar_layer_dims(8, 2, (32,)), 3)
        seqs = np.random.default_rng(4).integers(0, 8, size=(300, 16))
        rows = np.sort(np.random.default_rng(5).choice(300, size=kept, replace=False))
        original, seen = self._spy(monkeypatch)
        got = _score_rows(net, "density_bpp", seqs, rows)
        whole = original(net, "density_bpp", seqs)
        assert np.array_equal(got.view(np.int64), whole[rows].view(np.int64))
        assert seen == [128 if kept == 128 else 300]

    def test_every_row_is_scored_whole(self, monkeypatch):
        X = np.random.default_rng(6).normal(size=(3000, 2))
        original, seen = self._spy(monkeypatch)
        got = _score_rows(_classifier(), "msp", X, np.arange(3000))
        assert np.array_equal(got, original(_classifier(), "msp", X))
        assert seen == [3000]
