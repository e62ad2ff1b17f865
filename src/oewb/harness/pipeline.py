"""Seeded experiment execution: data preparation, training, scoring, reports.

Seeds are fully independent; every random draw inside one seed flows from
np.random.SeedSequence([seed, *role]) with a fixed role id per purpose, so
any stage can be recomputed in isolation and reruns are bit-identical.
Test outlier sets influence nothing upstream of final evaluation. The
validation outlier sets (d_out_val) are materialized only by
validation_sets, for make-data and gen-outliers; no stage of a run reads
them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .. import calibration as calib_mod
from .. import density as density_mod
from .. import metrics as metrics_mod
from .. import nn_core
from .. import scoring as scoring_mod
from ..errors import ConfigurationError, DataError, DivergenceError
from ..objectives import ObjectiveSpec
from .config import ExperimentConfig
from .datasets import SequenceDataset, VectorDataset, check_disjoint, materialize

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
    din_train: object
    din_val: object
    din_test: object
    oe: object | None
    tests: dict
    n_classes: int | None = None


def _spec_n(spec, default: int = 200) -> int:
    return int(spec.params.get("n", default))


def _check_kind(config: ExperimentConfig, named) -> None:
    """Refuse datasets of the wrong kind (sequence vs vector) for the detector."""
    wants_sequences = config.detector == "density_bpp"
    for name, data in named:
        if data is None:
            continue
        if isinstance(data, SequenceDataset) != wants_sequences:
            kind = "sequence" if wants_sequences else "vector"
            raise ConfigurationError(f"detector {config.detector!r} needs {kind} data, but {name!r} is not")


def prepare_data(config: ExperimentConfig, seed: int) -> DataBundle:
    """Materialize and split every dataset the config names, then refuse to
    continue if any auxiliary outlier row reappears in a test outlier set."""
    config.validate()
    din = materialize(config.d_in, n=config.d_in.params.get("n"), seed=_ss(seed, ROLE_DIN))
    n = din.n
    order = np.random.default_rng(_ss(seed, ROLE_SPLIT)).permutation(n)
    n_train = int(round(0.7 * n))
    n_val = int(round(0.15 * n))
    if n_train == 0 or n_val == 0 or n_train + n_val >= n:
        raise DataError(f"{n} in-distribution rows are too few to split")
    din_train = din.subset(order[:n_train])
    din_val = din.subset(order[n_train : n_train + n_val])
    din_test = din.subset(order[n_train + n_val :])

    dim = None if isinstance(din, SequenceDataset) else din.dim
    oe = None
    if config.d_out_oe is not None:
        oe = materialize(
            config.d_out_oe, n=_spec_n(config.d_out_oe, 2000), seed=_ss(seed, ROLE_OE),
            dim=dim, din=din_train,
        )
    tests = {}
    for i, spec in enumerate(config.d_out_test):
        tests[spec.name] = materialize(
            spec, n=_spec_n(spec), seed=_ss(seed, ROLE_TEST, i), dim=dim, din=din_train
        )
        if oe is not None:
            check_disjoint(oe, tests[spec.name], config.d_out_oe.name, spec.name)
    _check_kind(config, [("d_in", din), ("d_out_oe", oe), *tests.items()])

    n_classes = None
    if isinstance(din, VectorDataset) and din.labels is not None:
        n_classes = int(din.labels.max()) + 1
        if n_classes < 2:
            raise ConfigurationError("classification needs at least two classes")
    return DataBundle(din_train, din_val, din_test, oe, tests, n_classes)


def validation_sets(config: ExperimentConfig, bundle: DataBundle, seed: int) -> dict:
    """The validation outlier sets (d_out_val) of one seed, keyed by name.

    Each is seeded by its own ROLE_VAL index and drawn against the bundle's
    training split, so it does not depend on which other sets are built."""
    din = bundle.din_train
    dim = None if isinstance(din, SequenceDataset) else din.dim
    vals = {
        spec.name: materialize(spec, n=_spec_n(spec), seed=_ss(seed, ROLE_VAL, i), dim=dim, din=din)
        for i, spec in enumerate(config.d_out_val)
    }
    _check_kind(config, vals.items())
    return vals


# ---------------------------------------------------------------------------
# Training


def _classifier_objective(config: ExperimentConfig, *, exposed: bool) -> ObjectiveSpec:
    if config.detector == "confidence_branch":
        return ObjectiveSpec("confidence_branch_oe", lam=config.lam if exposed else 0.0)
    return ObjectiveSpec("multiclass_oe", lam=config.lam if exposed else 0.0)


def _train_classifier(
    params: nn_core.NetworkParams,
    train_data: VectorDataset,
    oe_data,
    objective: ObjectiveSpec,
    *,
    epochs: int,
    lr0: float,
    model_settings,
    shuffle_seed,
) -> nn_core.NetworkParams:
    """nn_core.train_classifier over the whole training and outlier sets."""
    if train_data.labels is None:
        raise DataError("classifier training needs labeled in-distribution data")
    oe_batch = None
    if objective.lam > 0:
        if oe_data is None:
            raise ConfigurationError("exposure training needs auxiliary outlier data")
        oe_batch = nn_core.Batch(oe_data.features)
    return nn_core.train_classifier(
        params, objective, nn_core.Batch(train_data.features, train_data.labels), oe_batch,
        epochs=epochs, batch_size=model_settings.batch_size, lr0=lr0,
        momentum=model_settings.momentum, weight_decay=model_settings.weight_decay,
        seed=shuffle_seed,
    )


@contextmanager
def _stage(name: str, seed: int):
    """Name the seed and stage in a divergence raised by the training loop."""
    try:
        yield
    except DivergenceError as exc:
        raise DivergenceError(f"seed {seed}, stage {name}: {exc}") from exc


def _init_classifier(config: ExperimentConfig, bundle: DataBundle, seed: int) -> nn_core.NetworkParams:
    dims = (bundle.din_train.dim, *config.model.hidden_dims, bundle.n_classes)
    return nn_core.init_network(
        dims, seed=_ss(seed, ROLE_INIT), activation=config.model.activation,
        with_branch=config.detector == "confidence_branch",
    )


def train_baseline(config: ExperimentConfig, bundle: DataBundle, seed: int):
    """In-distribution-only training (λ = 0); the starting point every
    exposure pipeline shares."""
    with _stage("train_baseline", seed):
        if config.detector == "density_bpp":
            model = density_mod.init_ar_model(
                bundle.din_train.alphabet_size, config.model.context_window,
                config.model.hidden_dims, seed=_ss(seed, ROLE_INIT), activation=config.model.activation,
            )
            return density_mod.train_density(
                model, bundle.din_train.sequences,
                epochs=config.epochs, batch_size=config.model.batch_size, lr0=config.model.lr0,
                momentum=config.model.momentum, weight_decay=config.model.weight_decay,
                seed=_ss(seed, ROLE_TRAIN_SHUFFLE),
            )
        params = _init_classifier(config, bundle, seed)
        return _train_classifier(
            params, bundle.din_train, None, _classifier_objective(config, exposed=False),
            epochs=config.epochs, lr0=config.model.lr0, model_settings=config.model,
            shuffle_seed=_ss(seed, ROLE_TRAIN_SHUFFLE),
        )


def finetune_oe(config: ExperimentConfig, bundle: DataBundle, baseline, seed: int):
    """Exposure fine-tuning from a trained baseline at the fine-tune rate."""
    if config.finetune_epochs == 0:
        return baseline
    with _stage("finetune_oe", seed):
        if config.detector == "density_bpp":
            return density_mod.finetune_density_oe(
                baseline, bundle.din_train.sequences, bundle.oe.sequences,
                margin=config.model.margin, epochs=config.finetune_epochs,
                batch_size=config.model.batch_size, lr0=config.model.finetune_lr0,
                momentum=config.model.momentum, weight_decay=config.model.weight_decay,
                mle_weight=config.model.mle_weight, margin_weight=config.model.margin_weight,
                seed=_ss(seed, ROLE_FINETUNE_SHUFFLE),
            )
        return _train_classifier(
            baseline, bundle.din_train, bundle.oe, _classifier_objective(config, exposed=True),
            epochs=config.finetune_epochs, lr0=config.model.finetune_lr0,
            model_settings=config.model, shuffle_seed=_ss(seed, ROLE_FINETUNE_SHUFFLE),
        )


def train_scratch_oe(config: ExperimentConfig, bundle: DataBundle, seed: int):
    """Exposure training from random init for the full epoch budget."""
    with _stage("train_scratch_oe", seed):
        total_epochs = config.epochs + config.finetune_epochs
        if config.detector == "density_bpp":
            model = density_mod.init_ar_model(
                bundle.din_train.alphabet_size, config.model.context_window,
                config.model.hidden_dims, seed=_ss(seed, ROLE_INIT), activation=config.model.activation,
            )
            # The paired margin objective already carries the MLE term, so
            # training it from scratch is the simultaneous form.
            return density_mod.finetune_density_oe(
                model, bundle.din_train.sequences, bundle.oe.sequences,
                margin=config.model.margin, epochs=total_epochs,
                batch_size=config.model.batch_size, lr0=config.model.lr0,
                momentum=config.model.momentum, weight_decay=config.model.weight_decay,
                mle_weight=config.model.mle_weight, margin_weight=config.model.margin_weight,
                seed=_ss(seed, ROLE_SCRATCH_SHUFFLE),
            )
        params = _init_classifier(config, bundle, seed)
        return _train_classifier(
            params, bundle.din_train, bundle.oe, _classifier_objective(config, exposed=True),
            epochs=total_epochs, lr0=config.model.lr0, model_settings=config.model,
            shuffle_seed=_ss(seed, ROLE_SCRATCH_SHUFFLE),
        )


def classifier_accuracy(params: nn_core.NetworkParams, data: VectorDataset) -> float:
    logits, _ = nn_core.forward(params, data.features)
    return float(np.mean(np.argmax(logits, axis=1) == data.labels))


# ---------------------------------------------------------------------------
# Evaluation


def _raw(data) -> np.ndarray:
    return data.sequences if isinstance(data, SequenceDataset) else data.features


def evaluate_detector(model, config: ExperimentConfig, bundle: DataBundle, seed: int):
    """Scored base-rate pools and detection reports for every test outlier set.

    Returns (reports, pools) keyed by set name; the subsample that fixes
    the out:in ratio is seeded per set, so baseline and fine-tuned models
    are compared on identical example pools.
    """
    in_scores = scoring_mod.score_dataset(model, config.detector, _raw(bundle.din_test))
    reports, pools = {}, {}
    for i, (name, data) in enumerate(bundle.tests.items()):
        out_scores = scoring_mod.score_dataset(model, config.detector, _raw(data))
        pool = metrics_mod.enforce_base_rate(
            in_scores, out_scores, ratio=config.base_rate, seed=_ss(seed, ROLE_BASE_RATE, i)
        )
        reports[name] = metrics_mod.detection_report(pool, config.n_level)
        pools[name] = pool
    return reports, pools


def _confidences(params, data: VectorDataset, temperature: float):
    logits, _ = nn_core.forward(params, data.features)
    probs = nn_core.softmax(logits, temperature=temperature)
    conf = probs.max(axis=1)
    correct = np.argmax(logits, axis=1) == data.labels
    return conf, correct


def calibration_eval(config: ExperimentConfig, bundle: DataBundle, baseline, final, seed: int) -> dict:
    """Mixed-pool calibration comparison: baseline model with a tuned
    temperature, exposure-trained model with its own tuned temperature,
    and the latter after rescaling confidences to the [1/k, 1] -> [0, 1]
    posterior range. The pool mixes in-distribution test rows with pooled
    test outliers at equal counts; outliers count as incorrect."""
    if bundle.din_val.labels is None or bundle.din_test.labels is None:
        raise DataError("calibration needs labeled in-distribution splits")
    k = bundle.n_classes
    ood_rows = np.concatenate([_raw(d) for d in bundle.tests.values()], axis=0)
    out = {}
    for tag, model in (("baseline", baseline), ("final", final)):
        val_logits, _ = nn_core.forward(model, bundle.din_val.features)
        temp = calib_mod.tune_temperature(val_logits, bundle.din_val.labels)
        conf_in, correct_in = _confidences(model, bundle.din_test, temp)
        ood_logits, _ = nn_core.forward(model, ood_rows)
        conf_ood = nn_core.softmax(ood_logits, temperature=temp).max(axis=1)
        conf, correct = calib_mod.mixed_prediction_records(
            conf_in, correct_in, conf_ood, seed=_ss(seed, ROLE_CALIBRATION)
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


def run_seed(config: ExperimentConfig, seed: int) -> SeedResult:
    bundle = prepare_data(config, seed)
    baseline = train_baseline(config, bundle, seed)
    if config.pipeline == "finetune_oe":
        final = finetune_oe(config, bundle, baseline, seed)
    elif config.pipeline == "scratch_oe":
        final = train_scratch_oe(config, bundle, seed)
    else:
        final = baseline
    base_reports, _ = evaluate_detector(baseline, config, bundle, seed)
    final_reports, pools = evaluate_detector(final, config, bundle, seed)
    cal = None
    if config.calibration:
        cal = calibration_eval(config, bundle, baseline, final, seed)
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


def run_experiment(config: ExperimentConfig, out_dir=None, quiet: bool = False) -> ExperimentResult:
    config.validate()
    results = [run_seed(config, s) for s in config.seeds]
    summary = summarize(config, results)
    exp = ExperimentResult(config, results, summary)
    if out_dir is not None:
        from .reports import write_reports

        write_reports(out_dir, exp)
    if not quiet:
        from .reports import render_table

        print(render_table(exp), end="")
    return exp
