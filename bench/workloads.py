"""Experiment configs for the benchmark workloads, generated from a seed.

Each workload is a preset-shaped `oewb run` config whose experiment seeds
come from the benchmark's --seed argument, so the same seed always gives
the same inputs and different seeds give different data, initialisations
and evaluation pools at the same shapes.
"""

from __future__ import annotations

from oewb.harness.config import DatasetSpec, ExperimentConfig
from oewb.harness.presets import preset_2d, preset_density

# Why each workload exists; BENCHMARK.json and README.md repeat these.
WHY = {
    "oe2d": "preset_2d with calibration: bound by 5,600 tiny Nesterov steps and the temperature search",
    "density_seq": "preset_density: the same nn_core step at a one-hot sequence shape plus every density.* path",
    "eval_large": "preset_2d geometry scaled up with 1 epoch each: bound by scoring, metrics, check_disjoint and report writes",
}

# Rows of the forward passes in the host probe (host.numpy_probe). The probe
# uses OpenBLAS threads as the workload does: eval_large scores 20,000-row
# test sets; the others score a few hundred rows and spend their time on
# tiny batches, which OpenBLAS runs on one thread.
PROBE_SCORE_ROWS = {"oe2d": 0, "density_seq": 0, "eval_large": 20_000}


def experiment_seeds(seed: int, count: int) -> tuple:
    """`count` distinct experiment seeds owned by benchmark seed `seed`."""
    return tuple(int(seed) * 1000 + i for i in range(count))


def _oe2d(seed: int) -> ExperimentConfig:
    cfg = preset_2d(seeds=experiment_seeds(seed, 10), calibration=True)
    cfg.name = "bench_oe2d"
    return cfg


def _density_seq(seed: int) -> ExperimentConfig:
    cfg = preset_density(seeds=experiment_seeds(seed, 5))
    cfg.name = "bench_density_seq"
    return cfg


def _eval_large(seed: int) -> ExperimentConfig:
    cfg = preset_2d(seeds=experiment_seeds(seed, 10))
    cfg.name = "bench_eval_large"
    cfg.d_in.params["n_per_cluster"] = 5000
    for spec in cfg.d_out_test:
        spec.params["n"] = 20000
    cfg.d_out_val = []
    cfg.base_rate = (1, 1)
    cfg.epochs = 1
    cfg.finetune_epochs = 1
    return cfg.validate()


BUILDERS = {"oe2d": _oe2d, "density_seq": _density_seq, "eval_large": _eval_large}


def make_config(workload: str, seed: int) -> dict:
    """The workload's experiment config for `seed`, as `oewb run` JSON."""
    return BUILDERS[workload](seed).to_dict()
