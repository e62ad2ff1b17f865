"""Acceptance gate: one test and one printed PASS/FAIL line per guarantee.

Each criterion is self-contained, carries its own wall-clock budget where
one is stated, and prints a single summary line past pytest's capture so
the suite transcript doubles as the sign-off sheet. The expensive preset
runs are shared through module fixtures; their cost is charged to the
first criterion that needs them.
"""

import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fd
import oracles
from oewb import density, metrics, nn_core, objectives
from oewb.calibration import posterior_rescale
from oewb.harness import pipeline
from oewb.harness.config import DETECTORS, PIPELINES, REFUSED_PAIRS, DatasetSpec, save_config
from oewb.harness.datasets import materialize
from oewb.harness.presets import get_preset


def _report(capsys, num: int, ok: bool, detail: str, elapsed: float) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail} ({elapsed:.1f}s)"
    with capsys.disabled():
        print(line)
    assert ok, line


def _timed_run(**preset_overrides):
    name = preset_overrides.pop("preset", "preset_2d")
    t0 = time.perf_counter()
    exp = pipeline.run_experiment(get_preset(name, **preset_overrides))
    return exp, time.perf_counter() - t0


@pytest.fixture(scope="module")
def msp_run():
    return _timed_run(calibration=True)


@pytest.fixture(scope="module")
def uce_run():
    return _timed_run(detector="uniform_ce")


@pytest.fixture(scope="module")
def scratch_run():
    return _timed_run(pipeline="scratch_oe")


@pytest.fixture(scope="module")
def uce_scratch_run():
    return _timed_run(detector="uniform_ce", pipeline="scratch_oe")


@pytest.fixture(scope="module")
def density_run():
    return _timed_run(preset="preset_density")


# ---------------------------------------------------------------------------
# 1: analytic gradients vs central finite differences


def _classifier_case(rng, kind: str, lam: float):
    k = int(rng.integers(2, 6))
    d = int(rng.integers(2, 5))
    hidden = tuple(int(rng.integers(3, 7)) for _ in range(int(rng.integers(1, 3))))
    act = "relu" if rng.random() < 0.4 else "tanh"
    n_in = int(rng.integers(2, 6))
    n_oe = int(rng.integers(2, 6))
    X = rng.standard_normal((n_in, d))
    y = rng.integers(0, k, size=n_in)
    Xoe = rng.standard_normal((n_oe, d))
    for attempt in range(60):
        params = nn_core.init_network((d, *hidden, k), seed=int(rng.integers(0, 2**31)), activation=act)
        if act == "tanh":
            break
        gap = fd.min_hidden_preact_gap(params, np.concatenate([X, Xoe]))
        if gap > 1e-3:  # keep the finite-difference step off the relu kink
            break
    else:
        raise AssertionError("could not find a kink-free relu configuration")

    batch = nn_core.Batch(X, y)
    oe = nn_core.Batch(Xoe)
    if kind == "plain_ce":
        analytic = nn_core.grad(params, 0.0, batch)

        def loss(p):
            return objectives.ce_loss(nn_core.forward(p, X), y)

    else:  # multiclass_oe
        analytic = nn_core.grad(params, lam, batch, oe if lam > 0 else None)

        def loss(p):
            return objectives.multiclass_oe_loss(batch, oe if lam > 0 else None, p, lam=lam)

    numeric = fd.fd_gradient(params, loss)
    return fd.max_rel_err(analytic, numeric)


def _density_case(rng):
    V = int(rng.integers(2, 5))
    c = int(rng.integers(1, 3))
    D = int(rng.integers(3, 6))
    n = int(rng.integers(2, 5))
    model = nn_core.init_network(
        density.ar_layer_dims(V, c, (int(rng.integers(3, 6)),)), int(rng.integers(0, 2**31)), activation="tanh"
    )
    a = rng.integers(0, V, size=(n, D))
    b = rng.integers(0, V, size=(n, D))
    gaps = np.sort(density.nll_batch(model, b) - density.nll_batch(model, a))
    mids = [float(x) for x in (gaps[:-1] + gaps[1:]) / 2]
    mids += [float(gaps[-1] + 1.0), float(np.abs(gaps).max() + 1.0)]
    margin = next(m for m in mids if m > 0 and np.min(np.abs(m - gaps)) >= 0.1)
    mw, gw = 1.0, 0.7
    analytic = density.margin_grad(model, a, b, margin, nn_core.Workspace(), mle_weight=mw, margin_weight=gw)

    def loss(q):
        mle = float(np.mean(density.nll_batch(q, a) / D))
        hinge = float(
            np.mean(np.maximum(0.0, margin + density.nll_batch(q, a) - density.nll_batch(q, b)))
        )
        return mw * mle + gw * hinge

    numeric = fd.fd_gradient(model, loss)
    return fd.max_rel_err(analytic, numeric)


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    cases = (
        ("plain_ce", 0.0),
        ("multiclass_oe", 0.0),
        ("multiclass_oe", 0.5),
        ("multiclass_oe", 1.0),
        ("density_margin", 0.0),
    )
    worst = 0.0
    for i in range(100):
        kind, lam = cases[i % len(cases)]
        if kind == "density_margin":
            err = _density_case(rng)
        else:
            err = _classifier_case(rng, kind, lam)
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _report(
        capsys, 1, ok,
        f"every loss's analytic gradient matches central differences over "
        f"100 random configurations, max relative error {worst:.2e}",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 2: metric implementations vs brute-force oracles


def test_criterion_2_metric_oracles(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(1000):
        ins, outs = oracles.random_scored_pair(rng)
        s = metrics.ScoredSet(ins, outs)
        if metrics.auroc(s) != oracles.auroc_pairwise(ins, outs):
            mismatches += 1
        if metrics.aupr(s) != oracles.aupr_sweep(ins, outs):
            mismatches += 1
        for level in (50.0, 80.0, 95.0, 100.0):
            if metrics.fpr_at_tpr(s, level) != oracles.fpr_at_tpr_sweep(ins, outs, level):
                mismatches += 1
    flat = metrics.auroc(
        metrics.ScoredSet(rng.standard_normal(10_000), rng.standard_normal(10_000))
    )
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and abs(flat - 0.5) <= 0.02 and elapsed < 10.0
    _report(
        capsys, 2, ok,
        f"AUROC/AUPR/FPR@N equal the brute-force oracles exactly on 1000 random "
        f"score sets; identical-distribution AUROC {flat:.4f}",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 3: exposure improves detection on every held-out set, for every accepted
# classifier pair (density_bpp is criterion 5's)

EXPOSURE_PAIRS = [
    (d, p) for d in DETECTORS for p in PIPELINES
    if d != "density_bpp" and p != "baseline_only" and (d, p) not in REFUSED_PAIRS
]
RUN_FIXTURES = {
    ("msp", "finetune_oe"): "msp_run",
    ("uniform_ce", "finetune_oe"): "uce_run",
    ("msp", "scratch_oe"): "scratch_run",
    ("uniform_ce", "scratch_oe"): "uce_scratch_run",
}


@pytest.mark.parametrize("detector,pipe", EXPOSURE_PAIRS)
def test_criterion_3_exposure_improves_detection(capsys, request, detector, pipe):
    # a pair without a run fixture fails here: every accepted pair is gated
    exp, elapsed = request.getfixturevalue(RUN_FIXTURES[detector, pipe])
    gains, fpr_drops = {}, {}
    for name in exp.summary["final"]:
        base = exp.summary["baseline"][name]
        fin = exp.summary["final"][name]
        gains[name] = fin["auroc"] - base["auroc"]
        fpr_drops[name] = base["fpr_at_n"] - fin["fpr_at_n"]
    ok = (
        all(g >= 0.05 for g in gains.values())
        and all(d > 0 for d in fpr_drops.values())
        and elapsed < 120.0
    )
    worst = min(gains, key=gains.get)
    _report(
        capsys, 3, ok,
        f"{detector} x {pipe}: mean AUROC over 10 seeds rises >= 5 points on every test set "
        f"(smallest gain {100 * gains[worst]:.1f} on {worst}) and FPR95 falls on all",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 4: the uniform-CE score keeps pace with MSP


def test_criterion_4_uniform_ce_vs_msp(capsys, msp_run, uce_run):
    msp_exp, _ = msp_run
    uce_exp, elapsed = uce_run
    margins = {
        name: uce_exp.summary["final"][name]["auroc"] - msp_exp.summary["final"][name]["auroc"]
        for name in msp_exp.summary["final"]
    }
    ok = all(m >= -0.005 for m in margins.values())
    worst = min(margins, key=margins.get)
    _report(
        capsys, 4, ok,
        f"exposure-trained uniform-CE mean AUROC stays within 0.5 points of MSP "
        f"on every test set (worst margin {100 * margins[worst]:+.2f} on {worst})",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 5: margin fine-tuning rescues the density detector


def test_criterion_5_density_oe(capsys, density_run):
    exp, elapsed = density_run
    name = next(iter(exp.summary["final"]))
    base = exp.summary["baseline"][name]["auroc"]
    fin = exp.summary["final"][name]["auroc"]
    ok = fin > base and (fin - base) >= 0.05 and elapsed < 120.0
    _report(
        capsys, 5, ok,
        f"mean BPP AUROC over 5 seeds rises {100 * base:.1f} -> {100 * fin:.1f} "
        f"after margin fine-tuning",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 6: calibration improves with exposure, then with posterior rescaling


def test_criterion_6_calibration(capsys, msp_run):
    exp, _ = msp_run
    t0 = time.perf_counter()
    base = [sr.calibration["baseline_temp"].rms_error for sr in exp.seed_results]
    fin = [sr.calibration["final_temp"].rms_error for sr in exp.seed_results]
    res = [sr.calibration["final_temp_rescaled"].rms_error for sr in exp.seed_results]
    mad_ok = all(
        rep.mad_error <= rep.rms_error + 1e-15
        for sr in exp.seed_results
        for rep in sr.calibration.values()
    )
    endpoint_ok = all(
        abs(posterior_rescale(1.0 / k, k)) <= 1e-15
        and abs(posterior_rescale(1.0, k) - 1.0) <= 1e-15
        for k in (2, 4, 10, 1000)
    )
    ordering_ok = np.mean(fin) < np.mean(base) and np.mean(res) < np.mean(fin)
    elapsed = time.perf_counter() - t0
    ok = ordering_ok and mad_ok and endpoint_ok
    _report(
        capsys, 6, ok,
        f"mean RMS calibration error {np.mean(base):.3f} (temp) -> {np.mean(fin):.3f} "
        f"(OE+temp) -> {np.mean(res):.3f} (rescaled); mad <= rms on every run; "
        f"rescale endpoints exact",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 7: training with exposure from scratch matches fine-tuning


def test_criterion_7_scratch_vs_finetune(capsys, msp_run, scratch_run):
    msp_exp, _ = msp_run
    scratch_exp, elapsed = scratch_run
    fin = np.mean([cell["auroc"] for cell in msp_exp.summary["final"].values()])
    scratch = np.mean([cell["auroc"] for cell in scratch_exp.summary["final"].values()])
    diff = scratch - fin
    ok = diff >= -0.02
    _report(
        capsys, 7, ok,
        f"scratch-exposure mean AUROC {100 * scratch:.1f} vs fine-tuned "
        f"{100 * fin:.1f} ({100 * diff:+.1f} points, threshold -2.0)",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 8: repeated CLI runs are byte-identical


def test_criterion_8_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    config = get_preset("preset_2d", seeds=(0, 1), calibration=True)
    cfg_path = tmp_path / "cfg.json"
    save_config(config, cfg_path)
    dirs = (tmp_path / "r1", tmp_path / "r2")
    for out in dirs:
        proc = subprocess.run(
            [sys.executable, "-m", "oewb", "run", "-c", str(cfg_path), "-o", str(out), "-q"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    files1 = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
    identical = files1 == files2 and all(
        (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes() for rel in files1
    )
    elapsed = time.perf_counter() - t0
    ok = identical and len(files1) > 0
    _report(
        capsys, 8, ok,
        f"two CLI runs of the same config produced byte-identical trees "
        f"({len(files1)} report files)",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 9: generator invariants and exact density normalization


def _noise(generator: str, n: int, dim: int, **params) -> np.ndarray:
    spec = DatasetSpec("generator", generator, {"generator": generator, **params})
    return materialize(spec, n=n, seed=3, dim=dim).rows


def _generator_battery() -> list:
    failures = []
    gauss = _noise("gaussian", 10_000, 8)
    if abs(float(gauss.mean())) > 5.0 / np.sqrt(gauss.size):
        failures.append("gaussian mean")
    clipped = _noise("gaussian", 2_000, 4, value_range=[0.0, 1.0])
    if clipped.min() < 0.0 or clipped.max() > 1.0:
        failures.append("gaussian range")
    rad = _noise("rademacher", 500, 6)
    if not set(np.unique(rad)) <= {-1.0, 1.0}:
        failures.append("rademacher support")
    bern = _noise("bernoulli", 2000, 10, p=0.3)
    if abs(float(bern.mean()) - 0.3) > 5.0 * 0.5 / np.sqrt(bern.size):
        failures.append("bernoulli rate")
    return failures


def test_criterion_9_generators_and_normalization(capsys):
    t0 = time.perf_counter()
    failures = _generator_battery()

    V = 2
    worst_gap = 0.0
    for D in (1, 3, 5, 8):
        model = nn_core.init_network(density.ar_layer_dims(V, 2, (6,)), D)
        if D == 8:  # also exercise a trained model, not just a random one
            seqs = np.random.default_rng(0).integers(0, V, size=(1, 40, D))
            stack = nn_core.NetworkParams.stack([model])
            train = density.train_density(stack, seqs, epochs=5, batch_size=32, lr0=0.1, seed=[0]).unstack()[0]
            models = (model, train)
        else:
            models = (model,)
        space = np.array(list(itertools.product(range(V), repeat=D)), dtype=np.int64)
        for m in models:
            total = float(np.sum(np.exp(-density.nll_batch(m, space))))
            worst_gap = max(worst_gap, abs(total - 1.0))
    if worst_gap > 1e-9:
        failures.append(f"normalization gap {worst_gap:.2e}")

    elapsed = time.perf_counter() - t0
    ok = not failures
    _report(
        capsys, 9, ok,
        "noise generator range/distribution invariants hold and the sequence "
        f"model's probabilities sum to 1 over every V^D space (max gap {worst_gap:.1e})"
        + (f"; failures: {failures}" if failures else ""),
        elapsed,
    )


# ---------------------------------------------------------------------------
# 10: the auxiliary set's coverage matters more than its size

# Smallest gain in mean final AUROC of the wide sparse box over the narrow
# dense one that the gate accepts, per test set: half the smallest gain of
# any 10-seed mean over held-out seeds 10-59, which were 54.8 (ring), 76.0
# (shifted_gaussian) and 26.6 (scaled_gaussian) points. The wide box won
# on every one of those 50 seeds and every set.
COVERAGE_GAINS = {"ring": 0.27, "shifted_gaussian": 0.38, "scaled_gaussian": 0.13}


def _run_with_box(half_width: float, n: int):
    config = get_preset("preset_2d")
    config.d_out_oe = DatasetSpec(
        "generator", "box_noise", {"generator": "uniform_box", "low": -half_width, "high": half_width, "n": n}
    )
    t0 = time.perf_counter()
    exp = pipeline.run_experiment(config.validate())
    return exp.summary["final"], time.perf_counter() - t0


def test_criterion_10_auxiliary_coverage_beats_size(capsys):
    wide, t_wide = _run_with_box(8.0, 50)
    narrow, t_narrow = _run_with_box(4.0, 2000)
    gains = {name: wide[name]["auroc"] - narrow[name]["auroc"] for name in COVERAGE_GAINS}
    ok = set(wide) == set(COVERAGE_GAINS) and all(gains[name] >= COVERAGE_GAINS[name] for name in gains)
    _report(
        capsys, 10, ok,
        "msp x finetune_oe over 10 seeds: 50 auxiliary rows from a +-8 box beat 2,000 from a +-4 box "
        "on every test set, mean AUROC "
        + ", ".join(f"{name} {100 * wide[name]['auroc']:.1f} vs {100 * narrow[name]['auroc']:.1f}"
                    for name in COVERAGE_GAINS),
        t_wide + t_narrow,
    )


# ---------------------------------------------------------------------------
# 11: exposure keeps the classifier

# Largest fall of mean final inlier test accuracy below the baseline's that
# the gate accepts. Over held-out seeds 10-19 and 20-29 the largest fall of
# a 10-seed mean, for either pipeline, was 0.0033, and of one seed 0.022.
ACCURACY_DROP = 0.02


@pytest.mark.parametrize("pipe", ["finetune_oe", "scratch_oe"])
def test_criterion_11_exposure_keeps_the_classifier(capsys, pipe):
    t0 = time.perf_counter()
    config = get_preset("preset_2d", pipeline=pipe)
    trained, _ = pipeline.train_models(config)
    tests = [pipeline.prepare_data(config, s).din_test for s in config.seeds]
    acc = np.array([[pipeline.classifier_accuracy(m, test.rows, test.labels)
                     for m in (models.baseline, models.final)] for test, models in zip(tests, trained)])
    base, final = acc.mean(axis=0)
    # the detector only scores, so uniform_ce trains the nets msp trains
    uce = pipeline.train_models(get_preset("preset_2d", pipeline=pipe, detector="uniform_ce", seeds=(0,)))[0][0]
    same = all(np.array_equal(a.vector, b.vector) for a, b in zip(uce[:2], trained[0][:2]))
    elapsed = time.perf_counter() - t0
    ok = same and final >= base - ACCURACY_DROP
    _report(
        capsys, 11, ok,
        f"msp and uniform_ce x {pipe}: mean inlier test accuracy over 10 seeds {100 * base:.1f} (baseline) "
        f"-> {100 * final:.1f} (final), threshold {-100 * ACCURACY_DROP:.1f} points; "
        f"uniform_ce {'trains' if same else 'does not train'} msp's nets",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 12: what makes an auxiliary set work: spread, not reach or size alone

# Each auxiliary set holds 2,000 rows that lie well past the inlier
# clusters: a gaussian of scale 6 spread in every direction, one cluster
# at (-6, 0), and only the four points (+-6, +-6). Over held-out seeds 10-59, five 10-seed means, the
# spread set's smallest gain over the baseline on any test set was 34.0
# points (scaled_gaussian); the gate takes half of it. The narrow and the
# few-point set each left a test set below chance: the largest such
# worst-set mean was 7.2 (narrow) and 21.3 (few-point) points, and the
# spread set's smallest 79.2. The ceiling is chance, which lies between.
AUX_SETS = {
    "spread": {"generator": "gaussian", "scale": 6.0, "n": 2000},
    "narrow": {"generator": "shifted_gaussian", "mean": [-6.0, 0.0], "n": 2000},
    "few_point": {"generator": "rademacher", "scale": 6.0, "n": 2000},
}
SPREAD_GAIN = 0.17
FAILING_CEILING = 0.5


def test_criterion_12_auxiliary_spread_matters(capsys):
    t0 = time.perf_counter()
    summaries = {}
    for tag, params in AUX_SETS.items():
        config = get_preset("preset_2d")
        config.d_out_oe = DatasetSpec("generator", tag, params)
        summaries[tag] = pipeline.run_experiment(config.validate()).summary
    base = {name: cell["auroc"] for name, cell in summaries["spread"]["baseline"].items()}
    final = {tag: {name: cell["auroc"] for name, cell in s["final"].items()} for tag, s in summaries.items()}
    spread_ok = all(final["spread"][name] >= base[name] + SPREAD_GAIN for name in base)
    worst = {tag: min(final[tag].values()) for tag in ("narrow", "few_point")}
    ok = spread_ok and all(w < FAILING_CEILING for w in worst.values())
    _report(
        capsys, 12, ok,
        "msp x finetune_oe over 10 seeds, 2,000 auxiliary rows: a spread gaussian lifts every test set by "
        f"{100 * SPREAD_GAIN:.0f}+ points (" + ", ".join(
            f"{name} {100 * base[name]:.1f} -> {100 * final['spread'][name]:.1f}" for name in base)
        + f"); a narrow and a 4-point set each leave one under {100 * FAILING_CEILING:.0f} ("
        + ", ".join(f"{tag} {100 * w:.1f}" for tag, w in worst.items()) + ")",
        time.perf_counter() - t0,
    )
