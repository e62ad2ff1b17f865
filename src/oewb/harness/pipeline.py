"""Seeded experiment execution: data preparation, training, scoring, summaries.

Seeds are fully independent; every random draw inside one seed flows from
np.random.SeedSequence([seed, *role]) with a fixed role id per purpose, so
any stage can be recomputed in isolation and reruns are bit-identical.
A seed's DataBundle carries that seed and the widths of the nets that read
its data, and the stages take both from it, so its pools and calibration
mix come from the seed that built it. prepare_data expects a validated
config, which run_experiment (validating once) and the CLI commands give.

run_experiment goes stage by stage across the seeds. prepare_run prepares
every seed's data once, as it does the one seed of the train, finetune and
eval commands (refusing, before anything trains, sets the nets cannot read,
auxiliary outliers that reappear in a test set and test sets too small for
the base rate). Of each seed it keeps the stacked training part
and an EvalRecord: the inlier test split, every test set's base-rate pool
rows and the outlier rows scoring forwards for them (and, when the config
calibrates, the validation split and the whole test sets). All baselines
train in lockstep as one stack of nets, then all fine-tune (finetune_oe)
or all train anew with exposure (scratch_oe), and each classifier's
accuracy is taken on its training split.
With calibration, one calibration.tune_temperature call fits every seed's
baseline and final temperatures on the EvalRecords' validation splits.
Finally run_seed evaluates and calibrates one seed at a time from its
EvalRecord, and summarize takes every metric's mean over the seeds. Every
forward after training, from the temperature fit and accuracy to the last
calibration pool, runs through one nn_core.Workspace, which
run_experiment makes and drops before it returns.
run_experiment returns that ExperimentResult and prints and writes nothing;
the run command hands it to reports, which imports this module and not the
other way round.
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
from ..errors import DivergenceError, ValidationError
from .config import ExperimentConfig
from .datasets import Dataset, check_disjoint, check_size, materialize

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
            raise ValidationError(f"detector {config.detector!r} needs {kind} data, but {name!r} is not")
        if not wants_sequences and data.dim != din.dim:
            raise ValidationError(f"dataset {name!r} has {data.dim} columns, but the nets read "
                                  f"the {din.dim} of d_in {config.d_in.name!r}")
        if wants_sequences and data.rows.max() >= din.alphabet_size:
            raise ValidationError(f"dataset {name!r} has symbol {data.rows.max()}, outside the "
                                  f"{din.alphabet_size}-symbol alphabet of d_in {config.d_in.name!r}")


def prepare_data(config: ExperimentConfig, seed: int) -> DataBundle:
    """Materialize and split every dataset the config names. Refuses to
    continue if an outlier set is one the nets cannot read (_check_kind),
    if a test outlier set and the inlier test split cannot form a pool at
    the config's base rate, if any auxiliary outlier row reappears in a
    test outlier set, if a classifier detector's d_in rows have no
    labels, or if d_in gives the nets fewer than two outputs or more
    parameters than numpy can hold. config must be validated."""
    din = materialize(config.d_in, n=None, seed=_ss(seed, ROLE_DIN))
    n = din.n
    order = np.random.default_rng(_ss(seed, ROLE_SPLIT)).permutation(n)
    n_train = int(round(0.7 * n))
    n_val = int(round(0.15 * n))
    if n_train == 0 or n_val == 0 or n_train + n_val >= n:
        raise ValidationError(f"{n} in-distribution rows are too few to split")
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
        except ValidationError as exc:
            raise ValidationError(f"seed {seed}, test set {name!r}: {exc}") from exc
        if oe is not None:
            check_disjoint(oe, test, config.d_out_oe.name, name)

    if config.detector == "density_bpp":
        dims = density_mod.ar_layer_dims(din.alphabet_size, config.model.context_window, config.model.hidden_dims)
    else:
        if din.labels is None:
            raise ValidationError(f"detector {config.detector!r} trains a classifier, which needs labeled "
                                  f"rows, but d_in {config.d_in.name!r} has no labels")
        dims = [din.dim, *config.model.hidden_dims, int(din.labels.max()) + 1]
    if dims[-1] < 2:  # the nets' output width: d_in's class count or alphabet_size
        what = f"{dims[-1]} class" if din.alphabet_size is None else f"alphabet_size {dims[-1]}"
        raise ValidationError(f"detector {config.detector!r} needs at least two classes or symbols, but "
                              f"d_in {config.d_in.name!r} has {what}")
    keys = "model.hidden_dims, model.context_window" if config.detector == "density_bpp" else "model.hidden_dims"
    check_size(f"nets of layer widths {dims} (d_in {config.d_in.name!r}, {keys})",
               sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:])))
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


@dataclass
class TrainingSet:
    """What training reads of every bundle, stacked along a leading seed axis:
    its seed, training split and auxiliary outliers, and the nets' widths."""

    seeds: list
    rows: np.ndarray  # (S, n, d) features or (S, n, D) symbol sequences
    labels: np.ndarray | None  # (S, n) class labels of vector data, narrowed
    oe_rows: np.ndarray | None  # (S, m, ...) auxiliary outliers
    layer_dims: list


class PoolRows(NamedTuple):
    """One test set's base-rate pool: the inlier test rows it keeps, and
    the (forward, index) pair from scoring.choose_forward for its outlier
    rows."""

    in_rows: np.ndarray
    forward: np.ndarray
    index: np.ndarray | None


@dataclass
class EvalRecord:
    """What evaluation and calibration read of one seed's DataBundle: its
    seed, inlier test split and every test set's PoolRows by name, and
    only when the config calibrates, the validation split that
    fit_temperatures fits on and the whole test sets, which
    calibration_eval pools."""

    seed: int
    din_test: Dataset
    pools: dict  # test outlier set name -> PoolRows
    din_val: Dataset | None = None
    tests: dict | None = None


def prepare_run(config: ExperimentConfig, seeds) -> tuple:
    """(TrainingSet, EvalRecord list) of the seeds, in order: all that a
    command which trains or evaluates reads. Each seed's DataBundle is
    dropped before the next is prepared: its training part is copied into
    stacks allocated at the first bundle's shapes (symbols and class labels
    in the smallest unsigned dtype that holds them, which training keeps),
    and of its test sets its EvalRecord keeps the pool rows, drawn
    once from the set sizes (metrics.base_rate_rows, seeded per set) so that
    baseline and final models share them, and the outlier rows scoring
    forwards for them."""
    count, records = len(seeds), []
    for i, seed in enumerate(seeds):
        bundle = prepare_data(config, seed)
        din = bundle.din_train
        if i == 0:
            dtype = np.float64 if din.alphabet_size is None else np.min_scalar_type(din.alphabet_size)
            train = TrainingSet(
                [int(s) for s in seeds],
                np.empty((count, *din.rows.shape), dtype),
                None if din.labels is None else np.empty((count, din.n), np.min_scalar_type(bundle.layer_dims[-1])),
                None if bundle.oe is None else np.empty((count, *bundle.oe.rows.shape), dtype),
                bundle.layer_dims,
            )
        train.rows[i] = din.rows
        if train.labels is not None:
            train.labels[i] = din.labels  # each in [0, class count), as prepare_data checked
        if train.oe_rows is not None:
            train.oe_rows[i] = bundle.oe.rows
        pools = {}
        for j, (name, data) in enumerate(bundle.tests.items()):
            in_rows, out_rows = metrics_mod.base_rate_rows(bundle.din_test.n, data.n, ratio=config.base_rate,
                                                           seed=_ss(bundle.seed, ROLE_BASE_RATE, j))
            in_rows = in_rows.astype(np.min_scalar_type(bundle.din_test.n))  # every record outlasts training
            pools[name] = PoolRows(in_rows, *scoring_mod.choose_forward(config.detector, data.rows, out_rows))
        kept = (bundle.din_val, bundle.tests) if config.calibration else ()
        records.append(EvalRecord(bundle.seed, bundle.din_test, pools, *kept))
        del bundle, din, data  # freed before the next seed's bundle is built
    return train, records


# ---------------------------------------------------------------------------
# Training. Every stage trains the seeds of a TrainingSet in lockstep, as one
# stack of nets on nn_core's engine, and returns one model per seed.


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
            stack = nn_core.train_classifier(
                stack, config.lam if exposed else 0.0, train.rows, train.labels, train.oe_rows, **settings
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
    """One seed's trained models, when the config calibrates their
    (baseline, final) temperatures, and for a classifier the final net's
    accuracy on the seed's training split."""

    baseline: nn_core.NetworkParams
    final: nn_core.NetworkParams
    temperatures: tuple | None = None
    train_accuracy: float | None = None


def fit_temperatures(pairs, records, work: nn_core.Workspace) -> list:
    """The (baseline, final) temperatures of every seed's (baseline, final)
    models on the validation split of its EvalRecord, all fitted in one
    tune_temperature call over a stack of two fits per seed. Each forward
    runs through the workspace and is copied into the stack before the
    next one overwrites it."""
    fits = [(m, r.din_val.rows) for pair, r in zip(pairs, records) for m in pair]
    logits = np.empty((len(fits), len(fits[0][1]), fits[0][0].n_classes))
    for row, (model, rows) in zip(logits, fits):
        row[...] = nn_core.forward(model, rows, work)
    labels = np.stack([r.din_val.labels for r in records for _ in range(2)])
    temps = calib_mod.tune_temperature(logits, labels).tolist()
    return list(zip(temps[0::2], temps[1::2]))


def train_models(config: ExperimentConfig, work: nn_core.Workspace) -> tuple:
    """(SeedModels, EvalRecord) lists over the seeds of the config: each
    stage trained in lockstep across the seeds, with calibration every
    seed's temperatures in one fit, and every seed's EvalRecord.

    prepare_run prepares every seed's data once, and checks it for
    auxiliary-outlier overlap, before any training starts. A classifier's
    training accuracy reads its seed's row of the stacked training set.
    The forwards after training (temperatures, accuracy) run through the
    workspace.
    """
    train, records = prepare_run(config, config.seeds)
    baselines = train_baseline(config, train)
    if config.pipeline == "scratch_oe":
        finals = train_scratch_oe(config, train)
    else:
        finals = finetune_oe(config, train, baselines)
    pairs = list(zip(baselines, finals))
    temps = fit_temperatures(pairs, records, work) if config.calibration else [None] * len(pairs)
    accs = [None] * len(pairs) if train.labels is None else [
        classifier_accuracy(f, rows, labels, work) for f, rows, labels in zip(finals, train.rows, train.labels)
    ]
    return [SeedModels(b, f, t, a) for (b, f), t, a in zip(pairs, temps, accs)], records


def classifier_accuracy(params: nn_core.NetworkParams, rows: np.ndarray, labels: np.ndarray,
                        work: nn_core.Workspace) -> float:
    """The share of rows whose largest logit is at their label; the forward
    runs through the workspace."""
    logits = nn_core.forward(params, rows, work)
    return float(np.mean(np.argmax(logits, axis=1) == labels))


# ---------------------------------------------------------------------------
# Evaluation


def _refuse_non_finite(where: str, what: str, *arrays) -> None:
    bad = sum(int(np.count_nonzero(~np.isfinite(a))) for a in arrays)
    if bad:
        raise ValidationError(f"{where}: {bad} of {sum(a.size for a in arrays)} {what} are not finite")


def evaluate_detector(model, name: str, config: ExperimentConfig, record: EvalRecord, work: nn_core.Workspace):
    """Scored base-rate pools and detection reports for every test outlier set.

    Returns (reports, pools) keyed by set name. Only what the pools read is
    scored: the inlier test split once, whole, and of each outlier set what
    its PoolRows forward, whose scores the index (if any) narrows to the
    kept rows, with the bits of a whole-set pass (scoring.choose_forward).
    The forwards run with numpy's float warnings off: a pool score that
    overflowed to inf or NaN is refused, naming the seed, the model (name)
    and the test set. Every forward runs through the workspace.
    """
    reports, pools = {}, {}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        in_scores = scoring_mod.score_dataset(model, config.detector, record.din_test.rows, work)
        for set_name, (in_rows, forward, index) in record.pools.items():
            out_scores = scoring_mod.score_dataset(model, config.detector, forward, work)
            pool = metrics_mod.ScoredSet(in_scores[in_rows], out_scores if index is None else out_scores[index])
            _refuse_non_finite(f"seed {record.seed}, {name}, test set {set_name!r}", "scores",
                               pool.in_scores, pool.out_scores)
            reports[set_name] = metrics_mod.detection_report(pool, config.n_level)
            pools[set_name] = pool
    return reports, pools


def calibration_eval(config: ExperimentConfig, record: EvalRecord, baseline, final, temperatures,
                     work: nn_core.Workspace) -> dict:
    """Mixed-pool calibration comparison: baseline model at its tuned
    temperature, exposure-trained model at its own, and the latter after
    rescaling confidences to the [1/k, 1] -> [0, 1] posterior range.
    temperatures is the (baseline, final) pair from fit_temperatures, each
    positive, and a model's confidences are max_softmax of its logits / T.
    The pool mixes in-distribution test rows with pooled test outliers at
    equal counts, drawn from the record's seed; outliers count as
    incorrect. The record must hold the whole test sets (prepare_run under
    a calibrating config). The forwards run with numpy's float warnings
    off: a pool confidence that overflowed to NaN is refused, naming the
    seed and the model. Every forward runs through the workspace."""
    k = final.n_classes
    ood_rows = np.concatenate([d.rows for d in record.tests.values()], axis=0)
    out = {}
    for tag, model, temp in zip(("baseline", "final"), (baseline, final), temperatures):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            logits = nn_core.forward(model, record.din_test.rows, work)
            conf_in = nn_core.max_softmax(logits / temp, work)
            correct_in = np.argmax(logits, axis=1) == record.din_test.labels
            conf_ood = nn_core.max_softmax(nn_core.forward(model, ood_rows, work) / temp, work)
        conf, correct = calib_mod.mixed_prediction_records(
            conf_in, correct_in, conf_ood, seed=_ss(record.seed, ROLE_CALIBRATION)
        )
        _refuse_non_finite(f"seed {record.seed}, {tag} model, calibration pool", "confidences", conf)
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


def run_seed(config: ExperimentConfig, seed: int, models: SeedModels, record: EvalRecord,
             work: nn_core.Workspace) -> SeedResult:
    """Evaluation and calibration of one seed's SeedModels on its
    EvalRecord, both from train_models, with every forward through the
    workspace; no data are prepared here."""
    baseline, final, temps, acc = models
    base_reports, _ = evaluate_detector(baseline, "baseline model", config, record, work)
    final_reports, pools = evaluate_detector(final, "final model", config, record, work)
    cal = calibration_eval(config, record, baseline, final, temps, work) if config.calibration else None
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
    written (the run command writes the report tree).

    Every forward after training runs through one Workspace, whose buffers
    fit the largest of them. It is dropped when this returns, so it does
    not add to the peak memory of report writing."""
    config.validate()
    work = nn_core.Workspace()
    trained, records = train_models(config, work)
    results = [run_seed(config, s, models, record, work)
               for s, models, record in zip(config.seeds, trained, records)]
    return ExperimentResult(config, results, summarize(config, results))
