"""The single training loop against the reference composition, bit for bit."""

import numpy as np
import pytest

import reference_training as ref
from oewb import density, nn_core
from oewb.errors import ConfigurationError, DivergenceError

SETTINGS = dict(epochs=2, batch_size=16, lr0=0.2, momentum=0.9, weight_decay=5e-4, seed=7)
# the same run for a stack of one, whose seed is a sequence of one
SOLO = {**SETTINGS, "seed": [SETTINGS["seed"]]}


def _ar_net(seed):
    return nn_core.init_network(density.ar_layer_dims(5, 2, (8,)), seed)


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
    stack = nn_core.NetworkParams.stack([params])
    trained = nn_core.train_classifier(stack, lam, nn_core.Batch(X[None], y[None]), nn_core.Batch(oe_X[None]), **SOLO)
    assert np.array_equal(stack.vector[0], params.vector)
    _assert_same(trained.unstack()[0], ref.train_classifier(params, lam, X, y, oe_X, **SETTINGS))


def _sequences():
    rng = np.random.default_rng(11)
    inliers = (np.arange(9)[None, :] + rng.integers(0, 5, size=(37, 1))) % 5
    noisy = rng.random(inliers.shape) < 0.2
    inliers[noisy] = rng.integers(0, 5, size=int(noisy.sum()))
    outliers = rng.integers(0, 5, size=(13, 9))
    return inliers, outliers


def test_density_mle_loop_matches_reference():
    seqs, _ = _sequences()
    model = _ar_net(2)
    stack = nn_core.NetworkParams.stack([model])
    trained = density.train_density(stack, seqs[None], **SOLO)
    assert np.array_equal(stack.vector[0], model.vector)
    _assert_same(trained.unstack()[0], ref.train_density(model, seqs, **SETTINGS))


def test_density_margin_finetune_matches_reference():
    inliers, outliers = _sequences()
    stack = density.train_density(nn_core.NetworkParams.stack([_ar_net(2)]), inliers[None], **SOLO)
    before = stack.vector.copy()
    extra = dict(margin=9.0, mle_weight=1.0, margin_weight=0.7)
    trained = density.finetune_density_oe(stack, inliers[None], outliers[None], **extra, **SOLO)
    assert np.array_equal(stack.vector, before)
    model = stack.unstack()[0]
    _assert_same(trained.unstack()[0], ref.finetune_density(model, inliers, outliers, **extra, **SETTINGS))


def test_divergence_names_the_epoch():
    X, y, _ = _classifier_data()
    params = nn_core.NetworkParams.stack([nn_core.init_network([2, 8, 3], seed=0)])
    settings = {**SOLO, "lr0": 1e100, "epochs": 3}
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError, match="epoch 1 of 3"):
        nn_core.train_classifier(params, 0.0, nn_core.Batch(X[None], y[None]), **settings)


def _no_step(net, batch, oe_batch, work):
    raise AssertionError("no step may run")


def test_an_empty_outlier_array_is_refused_before_any_step():
    X, y, _ = _classifier_data()
    params = nn_core.NetworkParams.stack([nn_core.init_network([2, 8, 3], seed=0)])
    with pytest.raises(ConfigurationError, match="needs a nonempty outlier set"):
        nn_core.train_loop(params, _no_step, (X[None], y[None]), np.empty((1, 0, 2)), **SOLO)


@pytest.mark.parametrize("stacked, seed", [
    (False, [7]), (False, 7), (True, 7), (True, [7]), (True, [7, 8, 9]),
], ids=["single-net", "single-net-scalar-seed", "scalar-seed", "one-seed-for-two", "three-seeds-for-two"])
def test_only_a_stack_with_one_seed_per_net_trains(stacked, seed):
    X, y, _ = _classifier_data()
    nets = [nn_core.init_network([2, 8, 3], seed=m) for m in range(2)]
    params = nn_core.NetworkParams.stack(nets) if stacked else nets[0]
    data = (np.stack([X, X]), np.stack([y, y])) if stacked else (X, y)
    with pytest.raises(ConfigurationError, match=r"an \(S, P\) stack of nets and a sequence of S shuffle seeds"):
        nn_core.train_loop(params, _no_step, data, **{**SETTINGS, "seed": seed})


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
    models = [_ar_net(60 + m) for m in range(3)]
    stack = nn_core.NetworkParams.stack(models)
    before = stack.vector.copy()
    trained = density.train_density(stack, np.stack(seqs), **_stack_settings())
    assert np.array_equal(stack.vector, before)
    for model, s, seed, got in zip(models, seqs, STACK_SEEDS, trained.unstack()):
        _assert_same(got, ref.train_density(model, s, **{**SETTINGS, "seed": seed}))


def test_stacked_density_margin_finetune_matches_reference_per_member():
    pairs = [_sequences_for(m) for m in range(3)]
    stack = density.train_density(
        nn_core.NetworkParams.stack([_ar_net(60 + m) for m in range(3)]), np.stack([a for a, _ in pairs]),
        **_stack_settings(),
    )
    models = stack.unstack()
    before = stack.vector.copy()
    inliers, outliers = (np.stack(parts) for parts in zip(*pairs))
    extra = dict(margin=9.0, mle_weight=1.0, margin_weight=0.7)
    trained = density.finetune_density_oe(stack, inliers, outliers, **extra, **_stack_settings())
    assert np.array_equal(stack.vector, before)
    for model, (a, b), seed, got in zip(models, pairs, STACK_SEEDS, trained.unstack()):
        _assert_same(got, ref.finetune_density(model, a, b, **extra, **{**SETTINGS, "seed": seed}))


def _train_classifier(stack, data, **settings):
    X, y, oe_X = (np.stack(parts) for parts in zip(*data))
    return nn_core.train_classifier(stack, 0.5, nn_core.Batch(X, y), nn_core.Batch(oe_X), **settings)


def _train_density(stack, data, **settings):
    return density.train_density(stack, np.stack([a for a, _ in data]), **settings)


def _finetune_density(stack, data, **settings):
    inliers, outliers = (np.stack(parts) for parts in zip(*data))
    return density.finetune_density_oe(stack, inliers, outliers, margin=9.0, **settings)


@pytest.mark.parametrize("train, net, data", [
    (_train_classifier, lambda m: nn_core.init_network([2, 8, 8, 3], seed=40 + m), _classifier_data_for),
    (_train_density, _ar_net, _sequences_for),
    (_finetune_density, _ar_net, _sequences_for),
], ids=["classifier", "density_mle", "density_margin"])
def test_each_member_of_a_stack_trains_as_a_stack_of_one(train, net, data):
    nets, data = [net(m) for m in range(3)], [data(m) for m in range(3)]
    trained = train(nn_core.NetworkParams.stack(nets), data, **_stack_settings())
    for m, seed in enumerate(STACK_SEEDS):
        alone = train(nn_core.NetworkParams.stack([nets[m]]), data[m : m + 1], **{**SETTINGS, "seed": [seed]})
        assert trained.vector[m].tobytes() == alone.vector[0].tobytes()


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
