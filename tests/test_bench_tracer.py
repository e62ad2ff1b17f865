"""The benchmark's per-layer tracer (bench/tracer.py) still works around
`oewb run`: it finds the functions it swaps, sees training calls, and
leaves the report tree byte-identical. bench/ is only imported here."""

import importlib.util
import json
from pathlib import Path

import pytest

from oewb import nn_core
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


def _one_seed_config(tmp_path: Path, preset: str) -> Path:
    config = get_preset(preset)
    config.seeds = config.seeds[:1]
    if preset == "preset_2d":
        config.epochs = 1
        config.finetune_epochs = 1
    path = tmp_path / f"{preset}.json"
    path.write_text(json.dumps(config.to_dict()))
    return path


@pytest.mark.parametrize("preset", ["preset_2d", "preset_density"])
def test_traced_run_records_training_and_matches_untraced(tmp_path, preset):
    tracer = _load_tracer()
    config = _one_seed_config(tmp_path, preset)
    untraced, traced = tmp_path / "untraced", tmp_path / "traced"
    assert cli.main(["run", "-c", str(config), "-o", str(untraced), "-q"]) == 0

    originals = (nn_core.sgd_step, nn_core.forward_cached)
    t = tracer.Tracer()
    t.install()
    try:
        rc = cli.main(["run", "-c", str(config), "-o", str(traced), "-q"])
    finally:
        t.uninstall()

    assert rc == 0
    assert t.calls["nn_core.sgd_step"] > 0
    assert t.calls["nn_core.forward_cached"] > 0
    assert (nn_core.sgd_step, nn_core.forward_cached) == originals
    assert _tree(traced) == _tree(untraced)
