"""The benchmark's per-layer tracer (bench/tracer.py) still works around
`oewb run`: it finds the functions it swaps, sees training and temperature
calls, and leaves the report tree byte-identical. bench/ is only imported
here."""

import importlib.util
import json
from pathlib import Path

import pytest

from oewb import calibration, nn_core
from oewb.harness import cli
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


@pytest.mark.parametrize("preset", ["preset_2d", "preset_density"])
def test_traced_run_records_training_and_matches_untraced(tmp_path, preset):
    t = _traced_run(tmp_path, _one_seed_config(tmp_path, preset))
    assert t.calls["nn_core.sgd_step"] > 0
    assert t.calls["nn_core.forward_cached"] > 0
    assert t.calls["calibration.tune_temperature"] == 0


def test_traced_calibrated_run_records_one_temperature_search(tmp_path):
    t = _traced_run(tmp_path, _one_seed_config(tmp_path, "preset_2d", calibration=True))
    assert t.calls["calibration.tune_temperature"] == 1
    assert t.calls["harness.pipeline.calibration_eval"] == 1
    assert t.calls["nn_core.sgd_step"] > 0
