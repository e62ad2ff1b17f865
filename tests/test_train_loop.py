"""The single training loop against the reference composition, bit for bit."""

import numpy as np
import pytest

import reference_training as ref
from oewb import density, nn_core
from oewb.errors import DivergenceError

SETTINGS = dict(epochs=2, batch_size=16, lr0=0.2, momentum=0.9, weight_decay=5e-4, seed=7)


def _assert_same(trained: nn_core.NetworkParams, reference: ref.RefNet):
    arrays = trained.arrays()
    assert len(arrays) == len(reference.arrays)
    for a, b in zip(arrays, reference.arrays):
        assert np.array_equal(a, b)


def _classifier_data():
    rng = np.random.default_rng(3)
    # 53 rows in batches of 16 leave a short last batch; 23 outliers make
    # the cyclic outlier pointer wrap mid-batch
    X = rng.normal(size=(53, 2)) * 2.0
    y = rng.integers(0, 3, size=53)
    oe_X = rng.uniform(-6.0, 6.0, size=(23, 2))
    return X, y, oe_X


# plain cross-entropy (lam = 0) and exposure at lam = 0.5, named by the loss
LOSSES = [
    pytest.param(0.0, "relu", id="plain_ce-0.0-relu"),
    pytest.param(0.5, "relu", id="multiclass_oe-0.5-relu"),
    pytest.param(0.5, "tanh", id="multiclass_oe-0.5-tanh"),
]


@pytest.mark.parametrize("lam, activation", LOSSES)
def test_classifier_loop_matches_reference(lam, activation):
    X, y, oe_X = _classifier_data()
    params = nn_core.init_network([2, 8, 8, 3], seed=5, activation=activation)
    before = params.vector.tobytes()
    trained = nn_core.train_classifier(params, lam, nn_core.Batch(X, y), nn_core.Batch(oe_X), **SETTINGS)
    reference = ref.train_classifier(params, lam, X, y, oe_X, **SETTINGS)
    _assert_same(trained, reference)
    assert params.vector.tobytes() == before


def _sequences():
    rng = np.random.default_rng(11)
    inliers = (np.arange(9)[None, :] + rng.integers(0, 5, size=(37, 1))) % 5
    noisy = rng.random(inliers.shape) < 0.2
    inliers[noisy] = rng.integers(0, 5, size=int(noisy.sum()))
    outliers = rng.integers(0, 5, size=(13, 9))
    return inliers, outliers


def test_density_mle_loop_matches_reference():
    seqs, _ = _sequences()
    model = density.init_ar_model(5, 2, (8,), seed=2)
    before = model.net.vector.tobytes()
    trained = density.train_density(model, seqs, **SETTINGS)
    _assert_same(trained.net, ref.train_density(model, seqs, **SETTINGS))
    assert model.net.vector.tobytes() == before


def test_density_margin_finetune_matches_reference():
    inliers, outliers = _sequences()
    model = density.train_density(density.init_ar_model(5, 2, (8,), seed=2), inliers, **SETTINGS)
    before = model.net.vector.tobytes()
    extra = dict(margin=9.0, mle_weight=1.0, margin_weight=0.7)
    trained = density.finetune_density_oe(model, inliers, outliers, **extra, **SETTINGS)
    _assert_same(trained.net, ref.finetune_density(model, inliers, outliers, **extra, **SETTINGS))
    assert model.net.vector.tobytes() == before


def test_divergence_names_the_epoch():
    X, y, _ = _classifier_data()
    params = nn_core.init_network([2, 8, 3], seed=0)
    settings = {**SETTINGS, "lr0": 1e100, "epochs": 3}
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError, match="epoch 1 of 3"):
        nn_core.train_classifier(params, 0.0, nn_core.Batch(X, y), **settings)


# Stacks: three nets that differ in seed, data and initialisation train in
# lockstep, and each must come out exactly as it does alone.
STACK_SEEDS = (7, 8, 9)


def _stack_settings():
    return {**SETTINGS, "seed": STACK_SEEDS}


def _classifier_data_for(member):
    rng = np.random.default_rng(30 + member)
    # the shapes of _classifier_data: a short last batch and an outlier
    # pointer that wraps mid-batch
    X = rng.normal(size=(53, 2)) * (1.5 + member)
    y = rng.integers(0, 3, size=53)
    oe_X = rng.uniform(-6.0, 6.0, size=(23, 2))
    return X, y, oe_X


@pytest.mark.parametrize("lam, activation", LOSSES)
def test_stacked_classifier_loop_matches_reference_per_member(lam, activation):
    data = [_classifier_data_for(m) for m in range(3)]
    nets = [nn_core.init_network([2, 8, 8, 3], seed=40 + m, activation=activation) for m in range(3)]
    stack = nn_core.NetworkParams.stack(nets)
    before = stack.vector.copy()
    X, y, oe_X = (np.stack(parts) for parts in zip(*data))
    trained = nn_core.train_classifier(
        stack, lam, nn_core.Batch(X, y), nn_core.Batch(oe_X), **_stack_settings()
    )
    assert np.array_equal(stack.vector, before)
    assert trained.vector.shape == before.shape
    for net, (Xm, ym, oe_m), seed, got in zip(nets, data, STACK_SEEDS, trained.unstack()):
        _assert_same(got, ref.train_classifier(net, lam, Xm, ym, oe_m, **{**SETTINGS, "seed": seed}))


def _sequences_for(member):
    rng = np.random.default_rng(50 + member)
    inliers = (np.arange(9)[None, :] + rng.integers(0, 5, size=(37, 1))) % 5
    noisy = rng.random(inliers.shape) < 0.1 + 0.1 * member
    inliers[noisy] = rng.integers(0, 5, size=int(noisy.sum()))
    outliers = rng.integers(0, 5, size=(13, 9))
    return inliers, outliers


def test_stacked_density_mle_matches_reference_per_member():
    seqs = [_sequences_for(m)[0] for m in range(3)]
    models = [density.init_ar_model(5, 2, (8,), seed=60 + m) for m in range(3)]
    stack = density.ARModelParams.stack(models)
    before = stack.net.vector.copy()
    trained = density.train_density(stack, np.stack(seqs), **_stack_settings())
    assert np.array_equal(stack.net.vector, before)
    for model, s, seed, got in zip(models, seqs, STACK_SEEDS, trained.unstack()):
        _assert_same(got.net, ref.train_density(model, s, **{**SETTINGS, "seed": seed}))


def test_stacked_density_margin_finetune_matches_reference_per_member():
    pairs = [_sequences_for(m) for m in range(3)]
    models = [
        density.train_density(density.init_ar_model(5, 2, (8,), seed=60 + m), pairs[m][0], **SETTINGS)
        for m in range(3)
    ]
    stack = density.ARModelParams.stack(models)
    before = stack.net.vector.copy()
    inliers, outliers = (np.stack(parts) for parts in zip(*pairs))
    extra = dict(margin=9.0, mle_weight=1.0, margin_weight=0.7)
    trained = density.finetune_density_oe(stack, inliers, outliers, **extra, **_stack_settings())
    assert np.array_equal(stack.net.vector, before)
    for model, (a, b), seed, got in zip(models, pairs, STACK_SEEDS, trained.unstack()):
        _assert_same(got.net, ref.finetune_density(model, a, b, **extra, **{**SETTINGS, "seed": seed}))


def test_divergence_names_the_member_and_its_step():
    data = [_classifier_data_for(m) for m in range(3)]
    nets = [nn_core.init_network([2, 8, 3], seed=m) for m in range(3)]
    for w in nets[1].weights:
        w[...] = 1e200
    X, y, _ = (np.stack(parts) for parts in zip(*data))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
        nn_core.train_classifier(
            nn_core.NetworkParams.stack(nets), 0.0, nn_core.Batch(X, y), **_stack_settings()
        )
    assert err.value.member == 1
    assert str(err.value) == "parameters became non-finite in step 1 of 4 of epoch 1 of 2"
