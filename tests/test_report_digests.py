"""Report trees of `oewb run` stay byte-identical to the digests the
benchmark recorded in bench/digests.json: every recorded seed of every
workload, built with bench/workloads.py and digested with bench/checks.py.
bench/ is only read here."""

import importlib.util
import json
from pathlib import Path

import pytest

from oewb.harness import cli
from test_blas_kernels import corename

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"oewb_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORDED = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize(
    "workload, seed", [(workload, seed) for workload, seeds in RECORDED.items() for seed in sorted(seeds)]
)
def test_report_tree_matches_recorded_digests(tmp_path, workload, seed):
    workloads, checks = _load("workloads"), _load("checks")
    recorded = RECORDED[workload][seed]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.make_config(workload, int(seed))))
    out = tmp_path / "out"
    assert cli.main(["run", "-c", str(config), "-o", str(out), "-q"]) == 0
    got = checks.tree_digests(out)
    mismatched = sorted(rel for rel in set(got) | set(recorded) if got.get(rel) != recorded.get(rel))
    assert not mismatched, (f"report files differ from bench/digests.json, which holds SkylakeX bytes, under "
                            f"the OpenBLAS kernel {corename()!r}: {mismatched}")
