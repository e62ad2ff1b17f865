"""Built-in experiment presets.

preset_2d: four unit-variance Gaussian clusters on a circle in the plane,
exposed to uniform box noise that blankets the far field; the held-out
test outliers (a wide ring, a displaced cluster, an inflated Gaussian)
live in regions the box covers but the clusters do not.

preset_density: cyclic-walk symbol sequences. Inliers advance with
p = 0.7; test outliers are perfectly periodic walks, which a model fit to
the inliers prices BELOW typical inlier sequences, so the raw
bits-per-dim detector starts out worse than chance. Exposure sequences
are near-periodic walks from the odd start symbols, keeping them
row-disjoint from the even-start test outliers.
"""

from __future__ import annotations

from .config import DatasetSpec, ExperimentConfig, ModelSettings

PRESET_NAMES = ("preset_2d", "preset_density")


def preset_2d(
    detector: str = "msp",
    pipeline: str = "finetune_oe",
    seeds=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
    lam: float = 0.5,
    calibration: bool = False,
) -> ExperimentConfig:
    d_in = DatasetSpec(
        kind="synthetic_gaussian_mixture",
        name="clusters2d",
        params={"k": 4, "n_per_cluster": 300, "dim": 2, "separation": 4.0},
    )
    d_out_oe = DatasetSpec(
        kind="generator",
        name="box_noise",
        params={"generator": "uniform_box", "low": -8.0, "high": 8.0, "n": 2000},
    )
    d_out_test = [
        DatasetSpec(
            kind="generator",
            name="ring",
            params={"generator": "ring", "radius": 6.0, "width": 0.3, "n": 200},
        ),
        DatasetSpec(
            kind="generator",
            name="shifted_gaussian",
            params={"generator": "shifted_gaussian", "mean": [6.0, 0.0], "n": 200},
        ),
        DatasetSpec(
            kind="generator",
            name="scaled_gaussian",
            params={"generator": "scaled_gaussian", "sigma": 4.0, "n": 200},
        ),
    ]
    d_out_val = [
        DatasetSpec(
            kind="generator",
            name="val_shifted_gaussian",
            params={"generator": "shifted_gaussian", "mean": [0.0, -6.0], "n": 200},
        ),
    ]
    return ExperimentConfig(
        name="preset_2d",
        d_in=d_in,
        d_out_oe=d_out_oe,
        d_out_test=d_out_test,
        d_out_val=d_out_val,
        detector=detector,
        pipeline=pipeline,
        lam=lam,
        seeds=tuple(seeds),
        epochs=30,
        finetune_epochs=10,
        calibration=calibration,
        # Fine-tuning restarts the cosine schedule at the full base rate:
        # nets this small need the far field reshaped, not nudged.
        model=ModelSettings(hidden_dims=(32, 32), lr0=0.1, finetune_lr0=0.1),
    ).validate()


def preset_density(seeds=(0, 1, 2, 3, 4)) -> ExperimentConfig:
    length, alphabet = 16, 8
    d_in = DatasetSpec(
        kind="generator",
        name="walks_p70",
        params={
            "generator": "markov_chain",
            "length": length,
            "alphabet_size": alphabet,
            "p_step": 0.7,
            "p_stay": 0.15,
            "starts": [0, 2, 4, 6],
            "n": 900,
        },
    )
    d_out_oe = DatasetSpec(
        kind="generator",
        name="near_periodic_odd",
        params={
            "generator": "markov_chain",
            "length": length,
            "alphabet_size": alphabet,
            "p_step": 0.95,
            "p_stay": 0.05,
            "starts": [1, 3, 5, 7],
            "n": 600,
        },
    )
    d_out_test = [
        DatasetSpec(
            kind="generator",
            name="periodic_even",
            params={
                "generator": "markov_chain",
                "length": length,
                "alphabet_size": alphabet,
                "p_step": 1.0,
                "p_stay": 0.0,
                "starts": [0, 2, 4, 6],
                "n": 150,
            },
        ),
    ]
    return ExperimentConfig(
        name="preset_density",
        d_in=d_in,
        d_out_oe=d_out_oe,
        d_out_test=d_out_test,
        detector="density_bpp",
        lam=1.0,
        seeds=tuple(seeds),
        epochs=10,
        finetune_epochs=2,
        model=ModelSettings(hidden_dims=(32,), lr0=0.1, finetune_lr0=0.05, context_window=2),
    ).validate()


def get_preset(name: str, **overrides) -> ExperimentConfig:
    if name == "preset_2d":
        return preset_2d(**overrides)
    if name == "preset_density":
        return preset_density(**overrides)
    raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
