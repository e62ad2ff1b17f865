"""Seeded experiment execution: data preparation, training, scoring, summaries.

Seeds are fully independent; every random draw inside one seed flows from
np.random.SeedSequence([seed, *role]) with a fixed role id per purpose, so
any stage can be recomputed in isolation and reruns are bit-identical.
A seed's DataBundle carries that seed and the widths of the nets that read
its data, and the stages take both from it, so its pools and calibration
mix come from the seed that built it. prepare_data expects a validated
config, which run_experiment (validating once) and the CLI commands give.

run_experiment goes stage by stage across the seeds. It prepares every
seed's data (refusing, before anything trains, sets the nets cannot read,
auxiliary outliers that reappear in a test set and test sets too small
for the base rate), trains all baselines in lockstep as one stack of
nets, then fine-tunes (or trains scratch_oe) all of them in lockstep.
When the config calibrates, one calibration.tune_temperature call then
fits every seed's baseline and final temperatures on its validation
split, kept from data preparation for that.
Finally run_seed evaluates and calibrates one seed at a time, and
summarize takes every metric's mean over the seeds. run_experiment returns
that ExperimentResult and prints and writes nothing; the run command hands
it to reports, which imports this module and not the other way round.
Every detector's model is a plain nn_core.NetworkParams, a classifier or
a density net (density.layout), so one stack serves both kinds.
A seed's models are bit-identical to the ones it would train alone, as a
stack of one, which is how the train and finetune commands train them; its
temperatures are bit-identical to a fit of its two models alone.
Test outlier sets influence nothing upstream of final evaluation but
that size check. The validation outlier sets (d_out_val) are materialized
only by validation_sets, for make-data; no stage of a run reads them.

Every dataset has its params.n rows, or else its role's default, which
the stages pass to datasets.materialize: none for d_in (a mixture then
draws n_per_cluster rows per class), 2,000 for the auxiliary outliers and
200 for each test and validation set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .. import calibration as calib_mod
from .. import density as density_mod
from .. import metrics as metrics_mod
from .. import nn_core
from .. import scoring as scoring_mod
from ..errors import ConfigurationError, DataError, DivergenceError, InputError
from .config import ExperimentConfig
from .datasets import Dataset, check_disjoint, materialize

# Role ids for seed derivation. Never renumber: stored artifacts depend on them.
ROLE_DIN = 0
ROLE_SPLIT = 1
ROLE_OE = 3
ROLE_TEST = 4
ROLE_VAL = 5
ROLE_INIT = 10
ROLE_TRAIN_SHUFFLE = 11
ROLE_FINETUNE_SHUFFLE = 12
ROLE_SCRATCH_SHUFFLE = 13
ROLE_BASE_RATE = 20
ROLE_CALIBRATION = 30


def _ss(seed: int, *role) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed)] + [int(r) for r in role])


@dataclass
class DataBundle:
    """One seed's data, the seed that built them, and the layer widths of
    the nets that read them (a classifier's last width is its class count)."""

    seed: int
    din_train: Dataset
    din_val: Dataset
    din_test: Dataset
    oe: Dataset | None
    tests: dict  # test outlier set name -> Dataset
    layer_dims: list


def _check_kind(config: ExperimentConfig, din, named) -> None:
    """Refuse datasets the nets cannot read: of the wrong kind (sequence vs
    vector) for the detector, or unlike d_in's rows din, vectors of another
    width or sequences with symbols past its alphabet."""
    wants_sequences = config.detector == "density_bpp"
    for name, data in [("d_in", din), *named]:
        if (data.alphabet_size is not None) != wants_sequences:
            kind = "sequence" if wants_sequences else "vector"
            raise ConfigurationError(f"detector {config.detector!r} needs {kind} data, but {name!r} is not")
        if not wants_sequences and data.dim != din.dim:
            raise ConfigurationError(f"dataset {name!r} has {data.dim} columns, but the nets read "
                                     f"the {din.dim} of d_in {config.d_in.name!r}")
        if wants_sequences and data.rows.max() >= din.alphabet_size:
            raise ConfigurationError(f"dataset {name!r} has symbol {data.rows.max()}, outside the "
                                     f"{din.alphabet_size}-symbol alphabet of d_in {config.d_in.name!r}")


def prepare_data(config: ExperimentConfig, seed: int) -> DataBundle:
    """Materialize and split every dataset the config names. Refuses to
    continue if an outlier set is one the nets cannot read (_check_kind),
    if a test outlier set and the inlier test split cannot form a pool at
    the config's base rate, if any auxiliary outlier row reappears in a
    test outlier set, if a classifier detector's d_in rows have no
    labels, or if d_in gives the nets fewer than two outputs (one class,
    or an alphabet of one symbol). config must be validated."""
    din = materialize(config.d_in, n=None, seed=_ss(seed, ROLE_DIN))
    n = din.n
    order = np.random.default_rng(_ss(seed, ROLE_SPLIT)).permutation(n)
    n_train = int(round(0.7 * n))
    n_val = int(round(0.15 * n))
    if n_train == 0 or n_val == 0 or n_train + n_val >= n:
        raise DataError(f"{n} in-distribution rows are too few to split")
    din_train = din.subset(order[:n_train])
    din_val = din.subset(order[n_train : n_train + n_val])
    din_test = din.subset(order[n_train + n_val :])

    oe = None
    if config.d_out_oe is not None:
        oe = materialize(config.d_out_oe, n=2000, seed=_ss(seed, ROLE_OE), dim=din.dim)
    tests = {spec.name: materialize(spec, n=200, seed=_ss(seed, ROLE_TEST, i), dim=din.dim)
             for i, spec in enumerate(config.d_out_test)}
    _check_kind(config, din, (tests if oe is None else {config.d_out_oe.name: oe, **tests}).items())
    for name, test in tests.items():
        try:
            metrics_mod.base_rate_sizes(din_test.n, test.n, config.base_rate)
        except InputError as exc:
            raise InputError(f"seed {seed}, test set {name!r}: {exc}") from exc
        if oe is not None:
            check_disjoint(oe, test, config.d_out_oe.name, name)

    if config.detector == "density_bpp":
        dims = density_mod.ar_layer_dims(din.alphabet_size, config.model.context_window, config.model.hidden_dims)
    else:
        if din.labels is None:
            raise ConfigurationError(f"detector {config.detector!r} trains a classifier, which needs labeled "
                                     f"rows, but d_in {config.d_in.name!r} has no labels")
        dims = [din.dim, *config.model.hidden_dims, int(din.labels.max()) + 1]
    if dims[-1] < 2:  # the nets' output width: d_in's class count or alphabet_size
        what = f"{dims[-1]} class" if din.alphabet_size is None else f"alphabet_size {dims[-1]}"
        raise ConfigurationError(f"detector {config.detector!r} needs at least two classes or symbols, but "
                                 f"d_in {config.d_in.name!r} has {what}")
    return DataBundle(int(seed), din_train, din_val, din_test, oe, tests, dims)


def validation_sets(config: ExperimentConfig, bundle: DataBundle) -> dict:
    """The validation outlier sets (d_out_val) of the bundle's seed, by name.

    Each is seeded by its own ROLE_VAL index and takes its width from the
    bundle's training split, so it does not depend on which other sets are
    built."""
    vals = {
        spec.name: materialize(spec, n=200, seed=_ss(bundle.seed, ROLE_VAL, i), dim=bundle.din_train.dim)
        for i, spec in enumerate(config.d_out_val)
    }
    _check_kind(config, bundle.din_train, vals.items())
    return vals


# ---------------------------------------------------------------------------
# Training. Every stage trains the seeds of a TrainingSet in lockstep, as one
# stack of nets on nn_core's engine, and returns one model per seed.


@dataclass
class TrainingSet:
    """What training reads of every bundle, stacked along a leading seed axis:
    its seed, training split and auxiliary outliers, and the nets' widths.
    validation holds each seed's validation split when temperatures are fitted."""

    seeds: list
    rows: np.ndarray  # (S, n, d) features or (S, n, D) symbol sequences
    labels: np.ndarray | None  # (S, n) class labels of vector data
    oe_rows: np.ndarray | None  # (S, m, ...) auxiliary outliers
    layer_dims: list
    validation: list | None = None  # one din_val dataset per seed


def training_set(bundles, validation: bool = False) -> TrainingSet:
    """Stack the training part of one bundle per seed, in bundle order.

    bundles may be a generator: only the training part of each bundle (and
    with validation, its validation split) is kept once the next one is
    drawn. Symbol sequences are stacked in the smallest unsigned dtype that
    holds their alphabet.
    """
    kept = [(b.seed, b.din_train, b.oe, b.din_val if validation else None, b.layer_dims) for b in bundles]
    seeds, dins, oes, vals, dims = zip(*kept)
    alphabet = dins[0].alphabet_size
    dtype = np.float64 if alphabet is None else np.min_scalar_type(alphabet)
    return TrainingSet(
        list(seeds),
        np.stack([d.rows for d in dins]).astype(dtype, copy=False),
        None if dins[0].labels is None else np.stack([d.labels for d in dins]),
        None if oes[0] is None else np.stack([o.rows for o in oes]).astype(dtype, copy=False),
        dims[0],
        list(vals) if validation else None,
    )


def _initial_stack(config: ExperimentConfig, train: TrainingSet) -> nn_core.NetworkParams:
    """Every seed's freshly initialised net, as one stack."""
    nets = [nn_core.init_network(train.layer_dims, _ss(s, ROLE_INIT), config.model.activation) for s in train.seeds]
    return nn_core.NetworkParams.stack(nets)


def _fit(config: ExperimentConfig, stack, train: TrainingSet, stage: str, role: int, *,
         exposed: bool, epochs: int, lr0: float) -> list:
    """One training stage of a stack over every seed's whole training split,
    one model per seed. Each seed shuffles by its own (seed, role) stream.

    exposed adds the auxiliary outliers: a classifier's outlier term at
    weight λ, or a density net's margin loss. A divergence is re-raised
    naming the seed and stage.
    """
    m = config.model
    density = config.detector == "density_bpp"
    if exposed and (density or config.lam > 0) and train.oe_rows is None:
        raise ConfigurationError("exposure training needs auxiliary outlier data")
    settings = dict(epochs=epochs, batch_size=m.batch_size, lr0=lr0, momentum=m.momentum,
                    weight_decay=m.weight_decay, seed=[_ss(s, role) for s in train.seeds])
    try:
        if density and exposed:
            stack = density_mod.finetune_density_oe(
                stack, train.rows, train.oe_rows, margin=m.margin,
                mle_weight=m.mle_weight, margin_weight=m.margin_weight, **settings,
            )
        elif density:
            stack = density_mod.train_density(stack, train.rows, **settings)
        else:
            lam = config.lam if exposed else 0.0
            oe_batch = nn_core.Batch(train.oe_rows) if lam > 0 else None
            stack = nn_core.train_classifier(
                stack, lam, nn_core.Batch(train.rows, train.labels), oe_batch, **settings
            )
    except DivergenceError as exc:
        raise DivergenceError(f"seed {train.seeds[exc.member]}, stage {stage}: {exc}", exc.member) from exc
    return stack.unstack()


def train_baseline(config: ExperimentConfig, train: TrainingSet) -> list:
    """In-distribution-only training (λ = 0) of every seed, one model per
    seed; the starting point every exposure pipeline shares."""
    return _fit(config, _initial_stack(config, train), train, "train_baseline", ROLE_TRAIN_SHUFFLE,
                exposed=False, epochs=config.epochs, lr0=config.model.lr0)


def finetune_oe(config: ExperimentConfig, train: TrainingSet, baselines) -> list:
    """Exposure fine-tuning of every seed's trained baseline at the
    fine-tune rate, one model per seed."""
    if config.finetune_epochs == 0:
        return list(baselines)
    return _fit(config, nn_core.NetworkParams.stack(baselines), train, "finetune_oe", ROLE_FINETUNE_SHUFFLE,
                exposed=True, epochs=config.finetune_epochs, lr0=config.model.finetune_lr0)


def train_scratch_oe(config: ExperimentConfig, train: TrainingSet) -> list:
    """Exposure training of every seed's classifier from random init for the
    full epoch budget, one model per seed."""
    return _fit(config, _initial_stack(config, train), train, "train_scratch_oe", ROLE_SCRATCH_SHUFFLE,
                exposed=True, epochs=config.epochs + config.finetune_epochs, lr0=config.model.lr0)


class SeedModels(NamedTuple):
    """One seed's trained models and, when the config calibrates, their
    (baseline, final) temperatures."""

    baseline: nn_core.NetworkParams
    final: nn_core.NetworkParams
    temperatures: tuple | None = None


def fit_temperatures(pairs, validation) -> list:
    """The (baseline, final) temperatures of every seed's (baseline, final)
    models on its validation split, all fitted in one tune_temperature call
    over a stack of two fits per seed."""
    logits = np.stack([nn_core.forward(m, v.rows) for pair, v in zip(pairs, validation) for m in pair])
    labels = np.stack([v.labels for v in validation for _ in range(2)])
    temps = calib_mod.tune_temperature(logits, labels).tolist()
    return list(zip(temps[0::2], temps[1::2]))


def train_models(config: ExperimentConfig) -> list:
    """SeedModels of every seed of the config, each stage trained in
    lockstep across the seeds, and with calibration every seed's
    temperatures in one fit.

    Every seed's data are prepared, and checked for auxiliary-outlier
    overlap, before any training starts; only their training set (and with
    calibration, their validation split) is kept.
    """
    train = training_set((prepare_data(config, s) for s in config.seeds), validation=config.calibration)
    baselines = train_baseline(config, train)
    if config.pipeline == "finetune_oe":
        finals = finetune_oe(config, train, baselines)
    elif config.pipeline == "scratch_oe":
        finals = train_scratch_oe(config, train)
    else:
        finals = baselines
    pairs = list(zip(baselines, finals))
    temps = fit_temperatures(pairs, train.validation) if config.calibration else [None] * len(pairs)
    return [SeedModels(b, f, t) for (b, f), t in zip(pairs, temps)]


def classifier_accuracy(params: nn_core.NetworkParams, data: Dataset) -> float:
    logits = nn_core.forward(params, data.rows)
    return float(np.mean(np.argmax(logits, axis=1) == data.labels))


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_detector(model, config: ExperimentConfig, bundle: DataBundle):
    """Scored base-rate pools and detection reports for every test outlier set.

    Returns (reports, pools) keyed by set name. Each set's pool rows are
    drawn first, from the set sizes alone (metrics.base_rate_rows, seeded
    per set from the bundle's seed), so baseline and fine-tuned models are
    compared on identical example pools. Then only what the pools read is scored: the inlier test
    split once, whole, and of each outlier set the rows its pool keeps
    (scoring.score_rows, which gives them the bits of a whole-set pass).
    """
    din = bundle.din_test
    in_scores = scoring_mod.score_dataset(model, config.detector, din.rows)
    reports, pools = {}, {}
    for i, (name, data) in enumerate(bundle.tests.items()):
        in_rows, out_rows = metrics_mod.base_rate_rows(
            din.n, data.n, ratio=config.base_rate, seed=_ss(bundle.seed, ROLE_BASE_RATE, i)
        )
        out_scores = scoring_mod.score_rows(model, config.detector, data.rows, out_rows)
        pool = metrics_mod.ScoredSet(in_scores[in_rows], out_scores)
        reports[name] = metrics_mod.detection_report(pool, config.n_level)
        pools[name] = pool
    return reports, pools


def _confidences(params, data: Dataset, temperature: float):
    logits = nn_core.forward(params, data.rows)
    conf = nn_core.max_softmax(logits, temperature)
    correct = np.argmax(logits, axis=1) == data.labels
    return conf, correct


def calibration_eval(config: ExperimentConfig, bundle: DataBundle, baseline, final, temperatures) -> dict:
    """Mixed-pool calibration comparison: baseline model at its tuned
    temperature, exposure-trained model at its own, and the latter after
    rescaling confidences to the [1/k, 1] -> [0, 1] posterior range.
    temperatures is the (baseline, final) pair from fit_temperatures. The
    pool mixes in-distribution test rows with pooled test outliers at equal
    counts, drawn from the bundle's seed; outliers count as incorrect."""
    k = bundle.layer_dims[-1]
    ood_rows = np.concatenate([d.rows for d in bundle.tests.values()], axis=0)
    out = {}
    for tag, model, temp in zip(("baseline", "final"), (baseline, final), temperatures):
        conf_in, correct_in = _confidences(model, bundle.din_test, temp)
        ood_logits = nn_core.forward(model, ood_rows)
        conf_ood = nn_core.max_softmax(ood_logits, temp)
        conf, correct = calib_mod.mixed_prediction_records(
            conf_in, correct_in, conf_ood, seed=_ss(bundle.seed, ROLE_CALIBRATION)
        )
        out[f"{tag}_temp"] = calib_mod.report_from_records(conf, correct, temperature=temp)
        if tag == "final":
            out["final_temp_rescaled"] = calib_mod.report_from_records(
                calib_mod.posterior_rescale(conf, k), correct, temperature=temp, rescaled=True
            )
    return out


# ---------------------------------------------------------------------------
# Per-seed and whole-experiment drivers


@dataclass
class SeedResult:
    seed: int
    reports: dict  # phase -> {set name -> DetectionReport}
    pools: dict  # set name -> ScoredSet for the final phase
    calibration: dict | None = None
    train_accuracy: float | None = None


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    seed_results: list
    summary: dict = field(default_factory=dict)


def run_seed(config: ExperimentConfig, seed: int, models: SeedModels) -> SeedResult:
    """Evaluation, calibration and accuracy of one seed's SeedModels from
    train_models. The seed's data are rebuilt here, so a run holds test sets
    for one seed at a time."""
    baseline, final, temps = models
    bundle = prepare_data(config, seed)
    base_reports, _ = evaluate_detector(baseline, config, bundle)
    final_reports, pools = evaluate_detector(final, config, bundle)
    cal = calibration_eval(config, bundle, baseline, final, temps) if config.calibration else None
    acc = None
    if config.detector != "density_bpp":
        acc = classifier_accuracy(final, bundle.din_train)
    return SeedResult(seed, {"baseline": base_reports, "final": final_reports}, pools, cal, acc)


def summarize(config: ExperimentConfig, seed_results) -> dict:
    """Arithmetic mean over seeds of every reported metric, per phase and
    outlier set, plus the per-seed raw values the mean was taken from."""
    summary = {}
    for phase in ("baseline", "final"):
        phase_tab = {}
        for spec in config.d_out_test:
            name = spec.name
            rows = [sr.reports[phase][name] for sr in seed_results]
            phase_tab[name] = {
                "auroc": float(np.mean([r.auroc for r in rows])),
                "aupr": float(np.mean([r.aupr for r in rows])),
                "fpr_at_n": float(np.mean([r.fpr_at_n for r in rows])),
                "n_level": config.n_level,
                "base_rate": rows[0].base_rate,
                "n_seeds": len(rows),
            }
        summary[phase] = phase_tab
    return summary


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Every seed trained, evaluated and summarized; nothing is printed or
    written (the run command writes the report tree)."""
    config.validate()
    trained = train_models(config)
    results = [run_seed(config, s, models) for s, models in zip(config.seeds, trained)]
    return ExperimentResult(config, results, summarize(config, results))
