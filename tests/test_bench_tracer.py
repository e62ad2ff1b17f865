"""The benchmark's per-layer tracer (bench/tracer.py) still works around
`oewb run`: it finds the functions it swaps, sees training and temperature
calls, and leaves the report tree byte-identical. Every row it reports,
but a named set of rows no run reaches, reads nonzero on one of the traced
runs. bench/ is only imported here."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from oewb import calibration, nn_core
from oewb.harness import cli, pipeline
from oewb.harness.config import load_config
from oewb.harness.presets import get_preset

BENCH_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("oewb_bench_tracer", BENCH_TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _one_seed_config(tmp_path: Path, preset: str, **over) -> Path:
    config = get_preset(preset, **over)
    config.seeds = config.seeds[:1]
    if preset == "preset_2d":
        config.epochs = 1
        config.finetune_epochs = 1
    path = tmp_path / f"{preset}.json"
    path.write_text(json.dumps(config.to_dict()))
    return path


def _traced_run(tmp_path: Path, config: Path):
    """The tracer after a traced run of config, once the run's report tree
    is checked against an untraced run's and the swapped functions are back."""
    tracer = _load_tracer()
    untraced, traced = tmp_path / "untraced", tmp_path / "traced"
    assert cli.main(["run", "-c", str(config), "-o", str(untraced), "-q"]) == 0

    originals = (nn_core.sgd_step, nn_core.forward_cached, calibration.tune_temperature)
    t = tracer.Tracer()
    t.install()
    try:
        rc = cli.main(["run", "-c", str(config), "-o", str(traced), "-q"])
    finally:
        t.uninstall()

    assert rc == 0
    assert (nn_core.sgd_step, nn_core.forward_cached, calibration.tune_temperature) == originals
    assert _tree(traced) == _tree(untraced)
    return t


# the traced runs the tests below read: (preset, config overrides)
RUNS = {
    "preset_2d": ("preset_2d", {}),
    "preset_density": ("preset_density", {}),
    "calibrated": ("preset_2d", {"calibration": True}),
}
# Rows no run reaches. nn_core.grad, nn_core.Batch and objectives.ce_loss
# serve the finite-difference checks and the loss-value path (training
# takes plain arrays); the metrics wrappers are library surface that only
# tests call (runs go through metrics.sweep and metrics.base_rate_rows).
KNOWN_DEAD = {
    "nn_core.grad", "nn_core.Batch", "nn_core.Batch.rows", "objectives.ce_loss", "metrics.auroc", "metrics.aupr",
    "metrics.fpr_at_tpr", "metrics.roc_points", "metrics.pr_points", "metrics.enforce_base_rate",
    "metrics.enforce_base_rate.rows",
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The tracer after the traced run of RUNS[name], made once per module."""
    done = {}

    def run(name):
        if name not in done:
            preset, over = RUNS[name]
            tmp = tmp_path_factory.mktemp(name)
            done[name] = _traced_run(tmp, _one_seed_config(tmp, preset, **over))
        return done[name]

    return run


@pytest.mark.parametrize("preset", ["preset_2d", "preset_density"])
def test_traced_run_records_training_and_matches_untraced(traced, preset):
    t = traced(preset)
    assert t.calls["nn_core.sgd_step"] > 0
    assert t.calls["nn_core.forward_cached"] > 0
    assert t.calls["calibration.tune_temperature"] == 0


def _step_calls(config: Path) -> dict:
    """The step functions' calls in a one-seed run of config: one
    forward_cached, backward and sgd_step per training step, with two
    forward and backward passes per exposure step (inliers and outliers;
    the margin loss runs the outlier group forward twice), and one forward
    per scoring pass."""
    cfg = load_config(config)
    bundle = pipeline.prepare_data(cfg, cfg.seeds[0])
    n, bs = bundle.din_train.n, cfg.model.batch_size
    density = cfg.detector == "density_bpp"
    mle_rows = n * bundle.din_train.rows.shape[1] if density else n  # a density step takes position rows
    base = cfg.epochs * math.ceil(mle_rows / bs)
    tune = cfg.finetune_epochs * math.ceil(n / bs)
    # baseline and final score the inlier test split and every test set;
    # a classifier's final net also scores its training split for accuracy
    scoring = 2 * (1 + len(bundle.tests)) + (0 if density else 1)
    return {
        "nn_core.sgd_step": base + tune,
        "nn_core.backward": base + 2 * tune,
        "nn_core.forward_cached": base + (3 if density else 2) * tune + scoring,
    }


@pytest.mark.parametrize("preset", ["preset_2d", "preset_density"])
def test_every_step_goes_through_the_traced_step_functions(traced, tmp_path, preset):
    # a step routed around these functions would leave their per-layer rows stale
    t = traced(preset)
    want = _step_calls(_one_seed_config(tmp_path, preset))
    assert {name: t.calls[name] for name in want} == want


def test_traced_calibrated_run_records_one_temperature_search(traced):
    t = traced("calibrated")
    assert t.calls["calibration.tune_temperature"] == 1
    assert t.calls["harness.pipeline.calibration_eval"] == 1
    assert t.calls["nn_core.sgd_step"] > 0


def test_every_traced_row_but_the_known_dead_is_reached(traced):
    # a call or counter row that no run reaches measures nothing: a function
    # the program stopped calling by its traced name shows up here
    runs = [traced(name) for name in RUNS]
    rows = [*runs[0].calls, *runs[0].counts]
    dead = {row for row in rows if not any(t.calls.get(row) or t.counts.get(row) for t in runs)}
    assert dead == KNOWN_DEAD
