"""Config-driven experiment harness: datasets, pipelines, reports, CLI."""

from .config import DatasetSpec, ExperimentConfig, ModelSettings, load_config, save_config
from .datasets import Dataset, check_disjoint, materialize
from .pipeline import (
    DataBundle,
    ExperimentResult,
    SeedResult,
    prepare_data,
    run_experiment,
    run_seed,
)
from .presets import PRESET_NAMES, get_preset, preset_2d, preset_density
from .reports import display_percent, render_table, write_reports

__all__ = [
    "DatasetSpec",
    "ExperimentConfig",
    "ModelSettings",
    "load_config",
    "save_config",
    "Dataset",
    "check_disjoint",
    "materialize",
    "DataBundle",
    "ExperimentResult",
    "SeedResult",
    "prepare_data",
    "run_experiment",
    "run_seed",
    "PRESET_NAMES",
    "get_preset",
    "preset_2d",
    "preset_density",
    "display_percent",
    "render_table",
    "write_reports",
]
