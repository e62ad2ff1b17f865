"""Experiment harness: configs, dataset plumbing, pipelines, reports, CLI."""

import argparse
import copy
import dataclasses
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from oewb import density, metrics, nn_core
from oewb.errors import DivergenceError, ValidationError
from oewb.harness import cli, datasets, pipeline, reports
from oewb.harness.config import (
    DETECTORS,
    PIPELINES,
    REFUSED_PAIRS,
    DatasetSpec,
    ExperimentConfig,
    ModelSettings,
    load_config,
    save_config,
)
from oewb.harness.presets import PRESET_NAMES, get_preset

import reference_reports


# one byte past the limit on the names files are named after, in 101 characters
LONG_NAME = "\u00e9" * 100 + "x"
# a lone UTF-16 surrogate, which JSON can spell ("\ud800") but UTF-8 cannot
SURROGATE_NAME = "ring\ud800"
# why a name that is no file or directory name is refused, by name
WHY = {LONG_NAME: "is longer than 200 UTF-8 bytes", SURROGATE_NAME: "is not UTF-8 text"}


def _tiny_config(**over):
    """Three well-separated 2D clusters, one ring test set, one val set.

    Small enough that a full multi-seed run finishes in well under a second.
    """
    base = dict(
        name="tiny",
        d_in=DatasetSpec(
            "synthetic_gaussian_mixture",
            "blobs",
            {"k": 3, "n_per_cluster": 40, "dim": 2, "separation": 6.0},
        ),
        d_out_oe=DatasetSpec(
            "generator", "box", {"generator": "uniform_box", "low": -8.0, "high": 8.0, "n": 120}
        ),
        d_out_test=[
            DatasetSpec(
                "generator", "ring", {"generator": "ring", "radius": 6.0, "width": 0.2, "n": 60}
            )
        ],
        d_out_val=[
            DatasetSpec(
                "generator",
                "val_shift",
                {"generator": "shifted_gaussian", "mean": [5.0, 5.0], "n": 60},
            )
        ],
        detector="msp",
        pipeline="finetune_oe",
        lam=0.5,
        seeds=(0,),
        epochs=3,
        finetune_epochs=2,
        model=ModelSettings(hidden_dims=(8,), lr0=0.1, finetune_lr0=0.05, batch_size=32),
    )
    base.update(over)
    return ExperimentConfig(**base).validate()


def _tiny_density_config(**over):
    base = dict(
        name="tiny_density",
        d_in=DatasetSpec(
            "generator",
            "walks",
            {
                "generator": "markov_chain",
                "length": 8,
                "alphabet_size": 4,
                "p_step": 0.7,
                "p_stay": 0.15,
                "starts": [0, 2],
                "n": 160,
            },
        ),
        d_out_oe=DatasetSpec(
            "generator",
            "odd_walks",
            {
                "generator": "markov_chain",
                "length": 8,
                "alphabet_size": 4,
                "p_step": 0.95,
                "p_stay": 0.05,
                "starts": [1, 3],
                "n": 80,
            },
        ),
        d_out_test=[
            DatasetSpec(
                "generator",
                "periodic",
                {
                    "generator": "markov_chain",
                    "length": 8,
                    "alphabet_size": 4,
                    "p_step": 1.0,
                    "p_stay": 0.0,
                    "starts": [0, 2],
                    "n": 40,
                },
            )
        ],
        detector="density_bpp",
        pipeline="finetune_oe",
        lam=1.0,
        seeds=(0,),
        epochs=2,
        finetune_epochs=1,
        model=ModelSettings(hidden_dims=(8,), lr0=0.1, finetune_lr0=0.05, context_window=2),
    )
    base.update(over)
    return ExperimentConfig(**base).validate()


def _first_seed(trained):
    """(SeedModels, EvalRecord) of the first seed, from train_models."""
    models, records = trained
    return models[0], records[0]


def _train(config, seed):
    """The TrainingSet of one seed, as the train and finetune commands build it."""
    return pipeline.prepare_run(config, [seed])[0]


def _evaluate(model, config, seed):
    """evaluate_detector on the EvalRecord of one seed, as the eval command builds it."""
    _, [record] = pipeline.prepare_run(config, [seed])
    return pipeline.evaluate_detector(model, "model", config, record, nn_core.Workspace())


class TestConfigValidation:
    def test_tiny_config_is_valid(self):
        cfg = _tiny_config()
        assert cfg.detector == "msp"

    def test_unknown_detector(self):
        for name in ("energy", "confidence_branch"):
            with pytest.raises(ValidationError, match=f"unknown detector '{name}'"):
                _tiny_config(detector=name)

    def test_unknown_pipeline(self):
        with pytest.raises(ValidationError, match="pipeline"):
            _tiny_config(pipeline="distill")

    def test_negative_lambda(self):
        for lam in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="lambda"):
                _tiny_config(lam=lam)

    def test_empty_seeds(self):
        with pytest.raises(ValidationError, match="seeds"):
            _tiny_config(seeds=())

    def test_duplicate_seeds(self):
        with pytest.raises(ValidationError, match="distinct"):
            _tiny_config(seeds=(0, 1, 0))

    def test_negative_seed(self):
        with pytest.raises(ValidationError, match="seeds must be nonnegative, got -1"):
            _tiny_config(seeds=(0, -1))

    def test_a_name_that_is_no_utf8_text_is_refused(self):
        # one rule for every name a file or directory is named after
        name = SURROGATE_NAME
        with pytest.raises(ValidationError, match=re.escape(f"experiment name {name!r} is not UTF-8 text")):
            _tiny_config(name=name)
        with pytest.raises(ValidationError, match=re.escape(f"dataset name {name!r} is not UTF-8 text")):
            DatasetSpec("generator", name, {"generator": "uniform_box"}).validate()

    def test_seed_too_long_for_a_file_name(self):
        _tiny_config(seeds=(2**64 - 1,))
        with pytest.raises(ValidationError, match=f"seeds must be below 2\\*\\*64, got {2**64}"):
            _tiny_config(seeds=(0, 2**64))

    @pytest.mark.parametrize(
        "key, value",
        [("seeds", "012"), ("seeds", [0, 1.0]), ("seeds", [True]), ("hidden_dims", "32"), ("hidden_dims", [8, "4"])],
    )
    def test_integer_lists_refuse_strings_and_non_integers(self, key, value):
        d = _tiny_config().to_dict()
        (d["model"] if key == "hidden_dims" else d)[key] = value
        with pytest.raises(ValidationError, match=f"{key} must be a list of integers"):
            ExperimentConfig.from_dict(d)

    def test_context_window_below_one(self):
        # validation runs before prepare_data builds any dataset
        with pytest.raises(ValidationError, match="context_window must be >= 1"):
            _tiny_density_config(model=ModelSettings(hidden_dims=(8,), context_window=0))

    def test_epoch_ranges(self):
        with pytest.raises(ValidationError, match="epoch"):
            _tiny_config(epochs=0)
        with pytest.raises(ValidationError, match="epoch"):
            _tiny_config(finetune_epochs=-1)
        _tiny_config(finetune_epochs=0)

    def test_base_rate_shape(self):
        with pytest.raises(ValidationError, match="base_rate"):
            _tiny_config(base_rate=(1, 0))
        with pytest.raises(ValidationError, match="base_rate"):
            _tiny_config(base_rate=(1, 2, 3))

    def test_n_level_bounds(self):
        with pytest.raises(ValidationError, match="n_level"):
            _tiny_config(n_level=0.0)
        with pytest.raises(ValidationError, match="n_level"):
            _tiny_config(n_level=100.5)
        _tiny_config(n_level=100.0)

    def test_duplicate_test_names(self):
        ring = DatasetSpec(
            "generator", "ring", {"generator": "ring", "radius": 6.0, "width": 0.2, "n": 60}
        )
        other = DatasetSpec("generator", "ring", {"generator": "ring", "radius": 7.0, "n": 60})
        with pytest.raises(ValidationError, match="unique"):
            _tiny_config(d_out_test=[ring, other])

    def test_oe_name_clash_with_test(self):
        oe = DatasetSpec("generator", "ring", {"generator": "uniform_box", "n": 50})
        with pytest.raises(ValidationError, match="outlier spec name 'ring' is used more than once"):
            _tiny_config(d_out_oe=oe)

    def test_oe_fingerprint_clash_with_test(self):
        # Different name, byte-identical recipe: still refused.
        oe = DatasetSpec(
            "generator", "ring_copy", {"generator": "ring", "radius": 6.0, "width": 0.2, "n": 60}
        )
        with pytest.raises(ValidationError, match="disjoint"):
            _tiny_config(d_out_oe=oe)

    @pytest.mark.parametrize("spelled_out", [{"scale": 1.0}, {"scale": 1, "offset": 0.0}])
    def test_oe_copy_of_a_test_spec_with_defaults_spelled_out_is_refused(self, spelled_out):
        # the recipes are compared once resolved, so a default written out is no difference
        params = {"generator": "ring", "radius": 6.0, "width": 0.2, "n": 60, **spelled_out}
        with pytest.raises(ValidationError, match="auxiliary outlier spec must be disjoint from test spec 'ring'"):
            _tiny_config(d_out_oe=DatasetSpec("generator", "ring_copy", params))

    def test_oe_file_spec_naming_a_test_file_with_its_default_label_column_is_refused(self):
        with pytest.raises(ValidationError, match="disjoint from test spec 'rows'"):
            _tiny_config(d_out_oe=DatasetSpec("file", "rows_copy", {"label_column": "label"}, path="rows.csv"),
                         d_out_test=[DatasetSpec("file", "rows", path="rows.csv")])

    def test_a_path_on_a_spec_that_is_not_a_file_is_refused(self):
        # only file datasets read path, so anywhere else it would be silently ignored
        spec = DatasetSpec("generator", "ring", {"generator": "ring", "radius": 6.0, "n": 60}, path="x.csv")
        message = "dataset 'ring' \\(ring\\) does not read path; only file datasets do"
        with pytest.raises(ValidationError, match=message):
            spec.validate()
        with pytest.raises(ValidationError, match=message):
            datasets.materialize(spec, n=None, seed=0, dim=2)

    def test_exposure_pipeline_needs_oe_spec(self):
        with pytest.raises(ValidationError, match="auxiliary"):
            _tiny_config(d_out_oe=None)
        # lam == 0 never touches the auxiliary set, so it may be omitted.
        cfg = _tiny_config(d_out_oe=None, lam=0.0)
        assert cfg.d_out_oe is None

    def test_calibration_needs_classifier(self):
        with pytest.raises(ValidationError, match="calibration"):
            _tiny_density_config(calibration=True)

    def test_model_settings_validation(self):
        with pytest.raises(ValidationError, match="learning rates must be finite and positive"):
            _tiny_config(model=ModelSettings(lr0=0.0))
        with pytest.raises(ValidationError, match="batch_size must be positive"):
            _tiny_config(model=ModelSettings(batch_size=0))
        with pytest.raises(ValidationError, match="unknown activation 'gelu'"):
            _tiny_config(model=ModelSettings(activation="gelu"))
        with pytest.raises(ValidationError, match="hidden_dims must be positive"):
            _tiny_config(model=ModelSettings(hidden_dims=(8, 0)))
        with pytest.raises(ValidationError, match="margin must be finite and positive when given"):
            _tiny_config(model=ModelSettings(margin=-1.0))

    @pytest.mark.parametrize(
        "key, value",
        [("momentum", -0.1), ("momentum", 1.0), ("momentum", float("nan")),
         ("weight_decay", -1e-4), ("weight_decay", float("inf")),
         ("lr0", float("inf")), ("finetune_lr0", float("nan")),
         ("mle_weight", -1.0), ("mle_weight", float("inf")),
         ("margin_weight", -0.5), ("margin_weight", float("nan")), ("margin", float("inf"))],
    )
    def test_model_numbers_training_would_misuse_are_refused(self, key, value):
        # refused by validate, which runs before prepare_data builds anything
        with pytest.raises(ValidationError, match="learning rates" if "lr0" in key else key):
            _tiny_density_config(model=ModelSettings(hidden_dims=(8,), **{key: value}))

    def test_dataset_spec_validation(self):
        with pytest.raises(ValidationError, match="unknown dataset kind 'parquet'"):
            DatasetSpec("parquet", "x").validate()
        with pytest.raises(ValidationError, match="dataset spec needs a name"):
            DatasetSpec("generator", "", {"generator": "uniform_box"}).validate()
        with pytest.raises(ValidationError, match="file dataset 'x' needs a path"):
            DatasetSpec("file", "x").validate()
        with pytest.raises(ValidationError, match=r"generator dataset 'x' needs params\['generator'\] as a string"):
            DatasetSpec("generator", "x", {}).validate()

    @pytest.mark.parametrize("name", ["../x", "ring/x", "/abs", "back\\slash", "nul\0"])
    def test_a_dataset_name_that_cannot_be_a_file_name_is_refused(self, name):
        with pytest.raises(ValidationError, match=re.escape(f"dataset name {name!r} holds a path separator")):
            DatasetSpec("generator", name, {"generator": "uniform_box"}).validate()

    @pytest.mark.parametrize("name", ["..", "a..b,c", "x y"])
    def test_a_dataset_name_without_a_separator_is_accepted(self, name):
        DatasetSpec("generator", name, {"generator": "uniform_box"}).validate()

    @pytest.mark.parametrize("name", ["", ".", "..", "../x", "runs/x", "/abs", "back\\slash", "nul\0"])
    def test_an_experiment_name_that_is_no_directory_name_is_refused(self, name):
        with pytest.raises(ValidationError, match=re.escape(f"experiment name {name!r} is no directory name")):
            _tiny_config(name=name)

    @pytest.mark.parametrize("name", ["...", "a..b,c", "x y", ".hidden"])
    def test_an_experiment_name_of_one_directory_is_accepted(self, name):
        assert _tiny_config(name=name).name == name

    def test_unknown_top_level_key_rejected(self):
        d = _tiny_config().to_dict()
        d["lamda"] = 1.0
        with pytest.raises(ValidationError, match="lamda"):
            ExperimentConfig.from_dict(d)

    def test_unknown_model_key_rejected(self):
        d = _tiny_config().to_dict()
        d["model"]["learning_rate"] = 0.1
        with pytest.raises(ValidationError, match="learning_rate"):
            ExperimentConfig.from_dict(d)

    def test_unknown_dataset_spec_key_rejected(self):
        d = _tiny_config().to_dict()
        d["d_in"]["generator"] = "ring"
        with pytest.raises(ValidationError, match="dataset spec"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("detector,pipe", [("density_bpp", "scratch_oe")])
    def test_refused_detector_pipeline_pairs(self, detector, pipe):
        with pytest.raises(ValidationError, match=f"detector '{detector}' with pipeline '{pipe}'"):
            _tiny_density_config(detector=detector, pipeline=pipe)

    @pytest.mark.parametrize(
        "detector,pipe",
        [(d, p) for d in DETECTORS for p in PIPELINES if (d, p) not in REFUSED_PAIRS],
    )
    def test_every_other_pair_is_accepted(self, detector, pipe):
        if detector == "density_bpp":
            assert _tiny_density_config(pipeline=pipe).pipeline == pipe
        else:
            assert _tiny_config(detector=detector, pipeline=pipe).detector == detector


class TestConfigSerialization:
    def test_to_dict_uses_wire_names(self):
        d = _tiny_config().to_dict()
        assert d["lambda"] == 0.5
        assert "lam" not in d
        assert d["base_rate"] == "1:5"
        assert d["model"]["hidden_dims"] == [8]

    def test_dict_round_trip(self):
        cfg = _tiny_config(seeds=(3, 7), base_rate=(2, 9), n_level=80.0)
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back.to_dict() == cfg.to_dict()
        assert back.seeds == (3, 7)
        assert back.base_rate == (2, 9)

    def test_every_field_survives_a_round_trip(self):
        # every field of the three dataclasses differs from its default, so
        # a field that from_dict drops or to_dict omits fails the comparison
        spec = DatasetSpec(kind="file", name="rows", params={"label_column": "y"}, path="rows.csv")
        cfg = ExperimentConfig(
            name="all_fields",
            d_in=spec,
            d_out_oe=DatasetSpec("generator", "box", {"generator": "uniform_box", "n": 50}),
            d_out_test=[DatasetSpec("generator", "ring", {"generator": "ring", "radius": 6.0})],
            d_out_val=[DatasetSpec("generator", "shift", {"generator": "shifted_gaussian"})],
            detector="uniform_ce",
            pipeline="scratch_oe",
            lam=0.25,
            seeds=(4, 2),
            epochs=7,
            finetune_epochs=3,
            base_rate=(2, 3),
            n_level=90.0,
            calibration=True,
            model=ModelSettings(
                hidden_dims=(5, 6), activation="tanh", lr0=0.2, finetune_lr0=0.02, batch_size=16,
                momentum=0.5, weight_decay=1e-3, context_window=3, mle_weight=0.5,
                margin_weight=2.0, margin=4.0,
            ),
        ).validate()
        for obj, cls in ((cfg, ExperimentConfig), (cfg.model, ModelSettings), (spec, DatasetSpec)):
            for f in dataclasses.fields(cls):
                default = f.default_factory() if f.default_factory is not dataclasses.MISSING else f.default
                assert getattr(obj, f.name) != default, f"{cls.__name__}.{f.name} is at its default"
        wire = json.loads(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_dict(wire) == cfg
        assert ExperimentConfig.from_dict(wire).to_dict() == cfg.to_dict()

    def test_absent_fields_take_the_dataclass_defaults(self):
        d = _tiny_config().to_dict()
        for key in ("name", "d_out_val", "seeds", "base_rate", "calibration", "lambda"):
            del d[key]
        d["model"] = {}
        cfg = ExperimentConfig.from_dict(d)
        assert (cfg.name, cfg.d_out_val, cfg.seeds, cfg.base_rate, cfg.calibration, cfg.lam) == (
            "experiment", [], (0,), (1, 5), False, 0.5
        )
        assert cfg.model == ModelSettings()

    def test_file_round_trip(self, tmp_path):
        cfg = _tiny_config(calibration=True)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        back = load_config(path)
        assert back.to_dict() == cfg.to_dict()

    def test_base_rate_string_forms(self):
        d = _tiny_config().to_dict()
        d["base_rate"] = "3"
        with pytest.raises(ValidationError, match="base_rate"):
            ExperimentConfig.from_dict(d)
        d["base_rate"] = [2, 5]
        assert ExperimentConfig.from_dict(d).base_rate == (2, 5)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ValidationError, match="exist"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            load_config(p)

    # a repeated key, spliced in ahead of its first spelling, at each level
    # a config nests objects: the top, the model and a dataset's params
    @pytest.mark.parametrize("opening, key", [
        ("{", "epochs"), ('"model": {', "lr0"), ('"params": {', "n_per_cluster"),
    ], ids=["top", "model", "params"])
    def test_a_repeated_key_is_refused_by_name(self, tmp_path, capsys, opening, key):
        p = tmp_path / "cfg.json"
        save_config(_tiny_config(), p)
        text = p.read_text()
        assert text.count(f'"{key}"') == 1
        p.write_text(text.replace(opening, f'{opening}"{key}": 1, ', 1))
        with pytest.raises(ValidationError, match=f"{p}: key '{key}' appears more than once"):
            load_config(p)
        assert cli.main(["run", "-c", str(p), "-o", str(tmp_path / "out"), "-q"]) == 1
        assert f"key '{key}' appears more than once" in capsys.readouterr().err

    def test_a_config_with_a_byte_order_mark_loads(self, tmp_path):
        p = tmp_path / "cfg.json"
        save_config(_tiny_config(), p)
        p.write_text(p.read_text(), encoding="utf-8-sig")
        assert load_config(p).to_dict() == _tiny_config().to_dict()

    def test_presets_validate(self):
        for name in PRESET_NAMES:
            cfg = get_preset(name)
            assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()
        with pytest.raises(KeyError):
            get_preset("preset_3d")


def _mixture(seed, **params) -> datasets.Dataset:
    return datasets.materialize(DatasetSpec("synthetic_gaussian_mixture", "m", params), n=None, seed=seed)


def _walks(n, seed, **params) -> datasets.Dataset:
    return datasets.materialize(DatasetSpec("generator", "w", {"generator": "markov_chain", **params}), n=n, seed=seed)


class TestSyntheticData:
    @pytest.mark.parametrize("k, dim", [(2, 1), (2, 2), (3, 2), (4, 3), (4, 6), (7, 6), (11, 10)])
    def test_cluster_means_form_simplex(self, k, dim):
        # a regular simplex centred on the origin, in the first k - 1 coordinates
        means = datasets._cluster_means(k, dim, separation=3.0)
        assert means.shape == (k, dim)
        for i in range(k):
            for j in range(i + 1, k):
                d = np.linalg.norm(means[i] - means[j])
                assert abs(d - 3.0) < 1e-9
        assert np.abs(means.sum(axis=0)).max() < 1e-9
        assert not means[:, k - 1:].any()

    def test_cluster_means_circle_adjacent(self):
        means = datasets._cluster_means(8, 2, separation=2.0)
        for i in range(8):
            d = np.linalg.norm(means[i] - means[(i + 1) % 8])
            assert abs(d - 2.0) < 1e-9

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"k": 1}, "params.k must be at least 2, got 1"),
            ({"n_per_cluster": 0}, "params.n_per_cluster must be positive, got 0"),
            ({"class_subset": []}, "params.class_subset must be nonempty classes in [0, 4), got []"),
            ({"class_subset": [1, -1]}, "params.class_subset must be nonempty classes in [0, 4), got [1, -1]"),
        ],
        ids=["one_cluster", "empty_clusters", "empty_subset", "negative_class"],
    )
    def test_mixture_validation(self, params, message):
        spec = DatasetSpec("synthetic_gaussian_mixture", "m", params)
        with pytest.raises(ValidationError) as info:
            datasets.check_params(spec)
        assert str(info.value) == f"dataset 'm' (synthetic_gaussian_mixture) {message}"

    def test_mixture_labels_and_reproducibility(self):
        a = _mixture(11, k=3, n_per_cluster=50, dim=2, separation=4.0)
        b = _mixture(11, k=3, n_per_cluster=50, dim=2, separation=4.0)
        c = _mixture(12, k=3, n_per_cluster=50, dim=2, separation=4.0)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.rows, c.rows)
        assert sorted(set(a.labels.tolist())) == [0, 1, 2]
        assert np.bincount(a.labels).tolist() == [50, 50, 50]

    def test_mixture_class_subset(self):
        d = _mixture(0, k=4, n_per_cluster=20, dim=2, separation=4.0, class_subset=[1, 3])
        assert sorted(set(d.labels.tolist())) == [1, 3]
        with pytest.raises(ValidationError, match=r"params.class_subset must be nonempty classes in \[0, 4\)"):
            _mixture(0, k=4, n_per_cluster=20, dim=2, separation=4.0, class_subset=[4])

    def test_empirical_means_match_centers(self):
        d = _mixture(5, k=2, n_per_cluster=4000, dim=2, separation=6.0)
        means = datasets._cluster_means(2, 2, 6.0)
        for c in (0, 1):
            emp = d.rows[d.labels == c].mean(axis=0)
            assert np.linalg.norm(emp - means[c]) < 0.1

    def test_markov_shapes_and_determinism(self):
        a = _walks(30, 3, length=12, alphabet_size=5, p_step=0.8, p_stay=0.1)
        b = _walks(30, 3, length=12, alphabet_size=5, p_step=0.8, p_stay=0.1)
        assert a.rows.shape == (30, 12)
        assert a.alphabet_size == 5
        assert np.array_equal(a.rows, b.rows)
        assert a.rows.min() >= 0 and a.rows.max() < 5

    def test_markov_periodic_walk(self):
        d = _walks(10, 0, length=9, alphabet_size=4, p_step=1.0, p_stay=0.0, starts=[2])
        assert np.all(d.rows[:, 0] == 2)
        steps = (d.rows[:, 1:] - d.rows[:, :-1]) % 4
        assert np.all(steps == 1)

    def test_markov_starts_honored(self):
        d = _walks(200, 1, length=2, alphabet_size=6, p_step=0.5, p_stay=0.3, starts=[1, 4])
        assert set(d.rows[:, 0].tolist()) <= {1, 4}

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"p_step": 0.8, "p_stay": 0.3},
             "params.p_step and params.p_stay must be probabilities summing to <= 1, got 0.8 and 0.3"),
            ({"p_step": -0.1}, "params.p_step and params.p_stay must be probabilities summing to <= 1, got -0.1 and 0.1"),
            ({"alphabet_size": 2, "p_step": 0.5, "p_stay": 0.2},
             "params.p_step and params.p_stay must sum to 1 on a binary alphabet, which leaves no symbol to jump "
             "to, got 0.5 and 0.2"),
            ({"alphabet_size": 1, "p_step": 0.5, "p_stay": 0.5}, "params.alphabet_size must be at least 2, got 1"),
            ({"length": 0}, "params.length must be positive, got 0"),
            ({"starts": [5]}, "params.starts must be nonempty symbols in [0, 5), got [5]"),
            ({"starts": []}, "params.starts must be nonempty symbols in [0, 5), got []"),
        ],
        ids=["sum_past_one", "negative_step", "binary_no_jump_target", "one_symbol", "empty_walk", "start_out_of_range",
             "no_starts"],
    )
    def test_markov_validation(self, params, message):
        spec = DatasetSpec("generator", "w", {"generator": "markov_chain", "length": 8, "alphabet_size": 5, **params})
        with pytest.raises(ValidationError) as info:
            datasets.check_params(spec)
        assert str(info.value) == f"dataset 'w' (markov_chain) {message}"


class TestDatasetFiles:
    def _vectors(self, labeled=True):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((7, 3))
        feats[0, 0] = 1.0 / 3.0  # exercise full-precision round trip
        labels = np.array([0, 1, 2, 0, 1, 2, 0], dtype=np.int64) if labeled else None
        return datasets.Dataset(feats, labels)

    def test_vector_csv_round_trip_labeled(self, tmp_path):
        data = self._vectors()
        p = tmp_path / "d.csv"
        datasets.write_csv(p, data)
        back = datasets.read_csv(p)
        assert np.array_equal(back.rows, data.rows)
        assert np.array_equal(back.labels, data.labels)

    def test_vector_csv_round_trip_unlabeled(self, tmp_path):
        data = self._vectors(labeled=False)
        p = tmp_path / "d.csv"
        datasets.write_csv(p, data)
        back = datasets.read_csv(p)
        assert back.labels is None
        assert np.array_equal(back.rows, data.rows)

    def test_vector_csv_errors(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ValidationError, match="d.csv: empty dataset file"):
            datasets.read_csv(p)
        p.write_text("x0,x1\n")
        with pytest.raises(ValidationError, match="no rows"):
            datasets.read_csv(p)
        p.write_text("x0,x1\n1.0,2.0\n3.0\n")
        with pytest.raises(ValidationError, match="d.csv:3: expected 2 fields, got 1"):
            datasets.read_csv(p)
        p.write_text("x0,x1\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValidationError, match="d.csv:3: could not convert string to float: 'oops'"):
            datasets.read_csv(p)
        with pytest.raises(ValidationError, match="missing.csv does not exist"):
            datasets.read_csv(tmp_path / "missing.csv")

    def test_a_byte_order_mark_is_not_part_of_the_first_column_name(self, tmp_path):
        # spreadsheet tools write one; read into the name, it would make the
        # label column a feature column
        p = tmp_path / "d.csv"
        p.write_text("label,x0,x1\n0,1.0,2.0\n2,3.0,4.0\n", encoding="utf-8-sig")
        back = datasets.read_csv(p)
        assert np.array_equal(back.rows, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(back.labels, [0, 2])

    def test_sequence_csv_round_trip(self, tmp_path):
        data = _walks(9, 2, length=6, alphabet_size=4, p_step=0.8, p_stay=0.1)
        p = tmp_path / "s.csv"
        datasets.write_csv(p, data)
        back = datasets.read_csv(p, alphabet_size=4)
        assert np.array_equal(back.rows, data.rows)
        assert back.alphabet_size == 4

    def test_check_disjoint(self):
        rng = np.random.default_rng(0)
        a = datasets.Dataset(rng.standard_normal((5, 2)))
        b = datasets.Dataset(rng.standard_normal((5, 2)))
        datasets.check_disjoint(a, b, "oe", "test")
        shared = np.concatenate([b.rows[:1], rng.standard_normal((3, 2))])
        c = datasets.Dataset(shared)
        with pytest.raises(ValidationError, match="share"):
            datasets.check_disjoint(c, b, "oe", "test")

    def test_check_disjoint_sequences(self):
        a = _walks(20, 0, length=6, alphabet_size=4, p_step=1.0, p_stay=0.0, starts=[0])
        b = _walks(20, 1, length=6, alphabet_size=4, p_step=1.0, p_stay=0.0, starts=[1])
        datasets.check_disjoint(a, b, "oe", "test")
        with pytest.raises(ValidationError, match="share"):
            datasets.check_disjoint(a, a, "oe", "test")

    def test_check_disjoint_same_first_column_is_not_shared(self):
        a = datasets.Dataset([[1.0, 2.0], [3.0, 4.0]])
        b = datasets.Dataset([[1.0, 2.5], [3.0, -4.0], [5.0, 4.0]])
        datasets.check_disjoint(a, b, "oe", "test")

    def test_check_disjoint_signed_zeros_differ(self):
        a = datasets.Dataset([[0.0, 1.0], [2.0, 0.0]])
        b = datasets.Dataset([[-0.0, 1.0], [2.0, -0.0]])
        datasets.check_disjoint(a, b, "oe", "test")
        with pytest.raises(ValidationError, match="shares 1 row"):
            datasets.check_disjoint(a, datasets.Dataset([[-0.0, 1.0], [2.0, 0.0]]), "oe", "test")

    def test_check_disjoint_counts_distinct_shared_rows(self):
        a = datasets.Dataset([[1.0, 2.0], [1.0, 2.0], [7.0, 8.0], [9.0, 9.0]])
        b = datasets.Dataset([[1.0, 2.0], [7.0, 8.0], [7.0, 8.0], [1.0, 3.0]])
        with pytest.raises(ValidationError) as info:
            datasets.check_disjoint(a, b, "box", "ring")
        assert "'box' shares 2 row(s) with test outlier set 'ring'" in str(info.value)

    def test_check_disjoint_one_column(self):
        a = datasets.Dataset([[1.0], [2.0], [2.0]])
        datasets.check_disjoint(a, datasets.Dataset([[3.0], [-1.0]]), "oe", "test")
        with pytest.raises(ValidationError, match="shares 1 row"):
            datasets.check_disjoint(a, datasets.Dataset([[3.0], [2.0]]), "oe", "test")

    def test_check_disjoint_sequences_sharing_a_start(self):
        a = datasets.Dataset([[0, 1, 2], [0, 1, 1], [2, 2, 2]], alphabet_size=3)
        b = datasets.Dataset([[0, 2, 2], [0, 1, 0], [2, 2, 1]], alphabet_size=3)
        datasets.check_disjoint(a, b, "oe", "test")
        c = datasets.Dataset([[0, 2, 2], [2, 2, 2], [0, 1, 1], [0, 1, 1]], alphabet_size=3)
        with pytest.raises(ValidationError, match="shares 2 row"):
            datasets.check_disjoint(a, c, "oe", "test")


class TestMaterialize:
    def test_generator_needs_dim(self):
        spec = DatasetSpec("generator", "g", {"generator": "gaussian"})
        with pytest.raises(ValidationError, match="dimension"):
            datasets.materialize(spec, n=10, seed=0)

    def test_post_transform(self):
        spec = DatasetSpec(
            "generator", "g", {"generator": "bernoulli", "p": 1.0, "scale": 2.0, "offset": -1.0}
        )
        d = datasets.materialize(spec, n=5, seed=0, dim=3)
        assert np.all(d.rows == 1.0)

    def test_unknown_generator(self):
        spec = DatasetSpec("generator", "g", {"generator": "perlin"})
        with pytest.raises(ValidationError, match="perlin"):
            datasets.materialize(spec, n=5, seed=0, dim=3)

    def test_a_dataset_kind_is_no_generator(self):
        spec = DatasetSpec("generator", "g", {"generator": "synthetic_gaussian_mixture"})
        with pytest.raises(ValidationError, match="unknown generator 'synthetic_gaussian_mixture'; the generators"):
            datasets.materialize(spec, n=5, seed=0, dim=3)

    @pytest.mark.parametrize(
        "spec, unread",
        [
            (DatasetSpec("generator", "r", {"generator": "ring", "radus": 6.0}), "radus"),
            (DatasetSpec("generator", "w", {"generator": "markov_chain", "length": 4, "alphabet_size": 3,
                                            "scale": 2.0}), "scale"),
            (DatasetSpec("synthetic_gaussian_mixture", "m", {"k": 3, "seperation": 2.0}), "seperation"),
            (DatasetSpec("file", "f", {"n": 10}, path="rows.csv"), "n"),
            # two-valued noise is never clipped
            (DatasetSpec("generator", "r", {"generator": "rademacher", "value_range": [-1.0, 1.0]}), "value_range"),
            (DatasetSpec("generator", "b", {"generator": "bernoulli", "value_range": [0.0, 1.0]}), "value_range"),
        ],
    )
    def test_params_nothing_reads_are_refused(self, spec, unread):
        with pytest.raises(ValidationError, match=f"does not read params key\\(s\\) {unread};"):
            datasets.materialize(spec, n=5, seed=0, dim=2)

    @pytest.mark.parametrize(
        "spec, message",
        [
            (DatasetSpec("generator", "r", {"generator": "ring", "radius": True}),
             "dataset 'r' params.radius must be a number, got True"),
            (DatasetSpec("generator", "s", {"generator": "shifted_gaussian", "mean": ["6", 0.0]}),
             "dataset 's' params.mean must be a list of numbers, got ['6', 0.0]"),
            (DatasetSpec("generator", "b", {"generator": "bernoulli", "offset": "1"}),
             "dataset 'b' params.offset must be a number or a list of numbers, got '1'"),
            (DatasetSpec("synthetic_gaussian_mixture", "m", {"k": 3.0}),
             "dataset 'm' params.k must be an integer, got 3.0"),
            (DatasetSpec("generator", "w", {"generator": "markov_chain", "length": 4, "alphabet_size": 3,
                                            "starts": [0.5]}),
             "dataset 'w' params.starts must be a list of integers, got [0.5]"),
            (DatasetSpec("file", "f", {"label_column": 1}, path="rows.csv"),
             "dataset 'f' params.label_column must be a string, got 1"),
        ],
    )
    def test_params_of_the_wrong_type_are_refused(self, spec, message):
        with pytest.raises(ValidationError) as info:
            datasets.materialize(spec, n=5, seed=0, dim=2)
        assert str(info.value) == message

    def test_params_of_the_declared_types_are_accepted(self, tmp_path):
        spec = DatasetSpec("generator", "b", {"generator": "bernoulli", "p": 1, "offset": [1, -1.0]})
        assert datasets.materialize(spec, n=3, seed=0, dim=2).rows.tolist() == [[2.0, 0.0]] * 3
        data = _mixture(0, k=2, n_per_cluster=5, dim=2, separation=4.0)
        datasets.write_csv(tmp_path / "d.csv", data)
        spec = DatasetSpec("file", "f", {"label_column": None}, path=str(tmp_path / "d.csv"))
        assert datasets.materialize(spec, n=None, seed=0).labels is None

    def test_file_spec(self, tmp_path):
        data = _mixture(0, k=2, n_per_cluster=10, dim=3, separation=4.0)
        path = tmp_path / "d.csv"
        datasets.write_csv(path, data)
        spec = DatasetSpec("file", "d", path=str(path))
        back = datasets.materialize(spec, n=None, seed=0)
        assert np.array_equal(back.rows, data.rows)

    def test_markov_spec(self):
        spec = DatasetSpec(
            "generator",
            "w",
            {"generator": "markov_chain", "length": 5, "alphabet_size": 3, "p_step": 0.9,
             "p_stay": 0.1},
        )
        d = datasets.materialize(spec, n=12, seed=4)
        assert d.alphabet_size == 3
        assert d.rows.shape == (12, 5)


def _noise(generator, n, dim, seed, **params) -> np.ndarray:
    spec = DatasetSpec("generator", generator, {"generator": generator, **params})
    return datasets.materialize(spec, n=n, seed=seed, dim=dim).rows


class TestNoiseGenerators:
    def test_gaussian_per_dimension_mean_within_clt_bound(self):
        x = _noise("gaussian", 10_000, 4, seed=0)
        assert np.max(np.abs(x.mean(axis=0))) < 5.0 / np.sqrt(10_000)

    @pytest.mark.parametrize("generator", ["gaussian", "rademacher", "bernoulli"])
    def test_seed_reproducibility(self, generator):
        assert np.array_equal(_noise(generator, 50, 3, seed=9), _noise(generator, 50, 3, seed=9))
        assert not np.array_equal(_noise(generator, 50, 3, seed=9), _noise(generator, 50, 3, seed=10))

    def test_gaussian_clipping_keeps_values_in_range(self):
        x = _noise("gaussian", 100_000, 1, seed=1, value_range=[-1.0, 1.0])
        assert x.min() == -1.0 and x.max() == 1.0

    def test_nonpositive_count_rejected(self):
        spec = DatasetSpec("generator", "noise", {"generator": "gaussian", "n": 0})
        with pytest.raises(ValidationError, match="params.n must be positive, got 0"):
            datasets.materialize(spec, n=0, seed=0, dim=3)

    @pytest.mark.parametrize("value_range", [[1.0, -1.0], [0.5, 0.5]])
    def test_gaussian_range_that_is_not_increasing_rejected(self, value_range):
        # np.clip with low >= high would make every value one number
        with pytest.raises(ValidationError, match="value_range must be increasing"):
            _noise("gaussian", 5, 2, seed=0, value_range=value_range)

    def test_rademacher_values_are_plus_minus_one(self):
        assert set(np.unique(_noise("rademacher", 500, 7, seed=2))) == {-1.0, 1.0}

    def test_rademacher_per_dimension_mean_near_zero(self):
        x = _noise("rademacher", 10_000, 4, seed=3)
        assert np.max(np.abs(x.mean(axis=0))) < 5.0 / np.sqrt(10_000)

    def test_bernoulli_values_binary(self):
        assert set(np.unique(_noise("bernoulli", 300, 5, seed=4, p=0.3))) <= {0.0, 1.0}

    def test_bernoulli_mean_approaches_p(self):
        x = _noise("bernoulli", 10_000, 8, seed=5, p=0.3)
        assert abs(x.mean() - 0.3) < 5.0 * 0.5 / np.sqrt(80_000)

    def test_bernoulli_degenerate_p(self):
        assert not _noise("bernoulli", 10, 4, seed=0, p=0.0).any()
        assert _noise("bernoulli", 10, 4, seed=0, p=1.0).all()

    def test_bernoulli_invalid_p_rejected(self):
        with pytest.raises(ValidationError, match=r"params.p must lie in \[0, 1\], got 1.5"):
            _noise("bernoulli", 10, 4, seed=0, p=1.5)


class TestPrepareData:
    def test_split_sizes_and_labels(self):
        config = _tiny_config()
        bundle = pipeline.prepare_data(config, seed=0)
        n = 120
        assert bundle.din_train.n == round(0.7 * n)
        assert bundle.din_val.n == round(0.15 * n)
        assert bundle.din_test.n == n - bundle.din_train.n - bundle.din_val.n
        assert bundle.layer_dims[-1] == 3
        assert bundle.din_train.alphabet_size is None
        assert set(bundle.tests) == {"ring"}
        assert bundle.oe.n == 120

    def test_validation_sets_are_built_on_request(self):
        config = _tiny_config()
        bundle = pipeline.prepare_data(config, seed=0)
        vals = pipeline.validation_sets(config, bundle)
        assert set(vals) == {"val_shift"}
        seed = pipeline._ss(0, pipeline.ROLE_VAL, 0)
        direct = datasets.materialize(config.d_out_val[0], n=60, seed=seed, dim=2)
        assert np.array_equal(vals["val_shift"].rows, direct.rows)

    def test_validation_sets_check_the_data_kind(self):
        config = _tiny_config()
        config.d_out_val = [DatasetSpec(
            "generator", "walks",
            {"generator": "markov_chain", "length": 5, "alphabet_size": 3, "p_step": 0.9, "p_stay": 0.1},
        )]
        bundle = pipeline.prepare_data(config, seed=0)
        with pytest.raises(ValidationError, match="'walks' is not"):
            pipeline.validation_sets(config, bundle)

    def test_split_is_a_partition(self):
        config = _tiny_config()
        bundle = pipeline.prepare_data(config, seed=1)
        rows = np.concatenate(
            [bundle.din_train.rows, bundle.din_val.rows, bundle.din_test.rows]
        )
        whole = datasets.materialize(config.d_in, n=None, seed=pipeline._ss(1, pipeline.ROLE_DIN))
        assert sorted(map(tuple, rows)) == sorted(map(tuple, whole.rows))

    def test_same_seed_same_bundle(self):
        config = _tiny_config()
        a = pipeline.prepare_data(config, seed=2)
        b = pipeline.prepare_data(config, seed=2)
        assert np.array_equal(a.din_train.rows, b.din_train.rows)
        assert np.array_equal(a.tests["ring"].rows, b.tests["ring"].rows)

    def test_detector_data_kind_mismatch(self):
        with pytest.raises(ValidationError, match="sequence"):
            pipeline.prepare_data(_tiny_config(detector="density_bpp", calibration=False), seed=0)
        seq_spec = _tiny_density_config()
        seq_spec.detector = "msp"
        with pytest.raises(ValidationError, match="vector"):
            pipeline.prepare_data(seq_spec, seed=0)

    def test_too_few_rows_to_split(self):
        config = _tiny_config()
        config.d_in.params["n_per_cluster"] = 1
        with pytest.raises(ValidationError, match="too few"):
            pipeline.prepare_data(config, seed=0)

    def test_file_oe_overlapping_test_rows_refused(self, tmp_path):
        # Same rows under two different paths: the config-level recipe
        # check passes, the materialized row check must still refuse.
        rows = datasets.Dataset(np.random.default_rng(0).standard_normal((30, 2)))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        datasets.write_csv(pa, rows)
        datasets.write_csv(pb, rows)
        config = _tiny_config(
            d_out_oe=DatasetSpec("file", "oe_rows", path=str(pa)),
            d_out_test=[DatasetSpec("file", "test_rows", path=str(pb))],
        )
        with pytest.raises(ValidationError, match="share"):
            pipeline.prepare_data(config, seed=0)


class TestTrainingPipeline:
    def test_lambda_zero_finetune_is_plain_training(self):
        # With the outlier term switched off, exposure fine-tuning must be
        # bit-identical to ordinary cross-entropy epochs from the baseline.
        config = _tiny_config(lam=0.0)
        seed = 3
        bundle = pipeline.prepare_data(config, seed)
        train = _train(config, seed)
        baseline = pipeline.train_baseline(config, train)[0]
        tuned = pipeline.finetune_oe(config, train, [baseline])[0]

        X, y = bundle.din_train.rows, bundle.din_train.labels
        n = X.shape[0]
        bs = min(config.model.batch_size, n)
        steps = config.finetune_epochs * ((n + bs - 1) // bs)
        params = baseline.copy()
        state = nn_core.init_optimizer(
            params,
            config.model.finetune_lr0,
            total_steps=steps,
            momentum=config.model.momentum,
            weight_decay=config.model.weight_decay,
        )
        rng = np.random.default_rng(pipeline._ss(seed, pipeline.ROLE_FINETUNE_SHUFFLE))
        for _ in range(config.finetune_epochs):
            perm = rng.permutation(n)
            for start in range(0, n, bs):
                idx = perm[start : start + bs]
                g = nn_core.grad(params, 0.0, nn_core.Batch(X[idx], y[idx]), None)
                nn_core.sgd_step(params, g, state)

        for a, b in zip(tuned.arrays(), params.arrays()):
            assert np.array_equal(a, b)

    def test_zero_finetune_epochs_returns_baseline(self):
        config = _tiny_config(finetune_epochs=0)
        train = _train(config, 0)
        baseline = pipeline.train_baseline(config, train)[0]
        assert pipeline.finetune_oe(config, train, [baseline])[0] is baseline

    def test_baseline_is_deterministic(self):
        config = _tiny_config()
        a = pipeline.train_baseline(config, _train(config, 4))[0]
        b = pipeline.train_baseline(config, _train(config, 4))[0]
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_baseline_fits_separable_clusters(self):
        config = _tiny_config(epochs=20)
        bundle = pipeline.prepare_data(config, seed=0)
        model = pipeline.train_baseline(config, _train(config, 0))[0]
        work = nn_core.Workspace()
        assert pipeline.classifier_accuracy(model, bundle.din_train.rows, bundle.din_train.labels, work) >= 0.95
        assert pipeline.classifier_accuracy(model, bundle.din_val.rows, bundle.din_val.labels, work) >= 0.9

    def test_scratch_differs_from_finetune(self):
        config = _tiny_config()
        train = _train(config, 0)
        baseline = pipeline.train_baseline(config, train)[0]
        tuned = pipeline.finetune_oe(config, train, [baseline])[0]
        scratch = pipeline.train_scratch_oe(config, train)[0]
        assert any(
            not np.array_equal(a, b) for a, b in zip(tuned.arrays(), scratch.arrays())
        )

    def test_finetune_leaves_baseline_untouched(self):
        config = _tiny_config()
        train = _train(config, 0)
        baseline = pipeline.train_baseline(config, train)[0]
        before = [a.copy() for a in baseline.arrays()]
        pipeline.finetune_oe(config, train, [baseline])[0]
        for a, b in zip(baseline.arrays(), before):
            assert np.array_equal(a, b)

    def test_prepare_run_takes_seeds_and_widths_from_the_bundles(self):
        config = _tiny_config(seeds=(3, 1))
        train, records = pipeline.prepare_run(config, config.seeds)
        assert train.seeds == [r.seed for r in records] == [3, 1]
        assert train.layer_dims == [2, 8, 3]

    @pytest.mark.parametrize("detector", ["msp", "density_bpp"])
    def test_a_seed_prepared_alone_is_its_slice_of_a_run(self, detector):
        # what the train, finetune and eval commands read of one seed is, bit
        # for bit, what a run of every seed keeps of it
        def bits(a):
            return None if a is None else (a.dtype.str, a.shape, a.tobytes())

        def data_bits(d):
            return bits(d.rows), bits(d.labels), d.alphabet_size

        seeds = (4, 0, 7)
        config = (_tiny_config(seeds=seeds, calibration=True) if detector == "msp"
                  else _tiny_density_config(seeds=seeds))
        train, records = pipeline.prepare_run(config, seeds)
        for i, seed in enumerate(seeds):
            solo, [record] = pipeline.prepare_run(config, [seed])
            assert solo.seeds == [seed] and solo.layer_dims == train.layer_dims
            for whole, alone in ((train.rows, solo.rows), (train.labels, solo.labels), (train.oe_rows, solo.oe_rows)):
                assert bits(alone) == (None if whole is None else bits(whole[i : i + 1]))
            want = records[i]
            assert record.seed == want.seed == seed
            assert data_bits(record.din_test) == data_bits(want.din_test)
            assert list(record.pools) == list(want.pools) == [spec.name for spec in config.d_out_test]
            for name, pool in record.pools.items():
                assert [bits(a) for a in pool] == [bits(a) for a in want.pools[name]]
            if config.calibration:
                assert data_bits(record.din_val) == data_bits(want.din_val)
                assert list(record.tests) == list(want.tests)
                assert all(data_bits(record.tests[name]) == data_bits(want.tests[name]) for name in record.tests)
            else:
                assert record.din_val is record.tests is want.din_val is want.tests is None

    def test_every_classifier_stage_trains_on_the_training_sets_own_arrays(self, monkeypatch):
        # no stage copies or widens the stacks prepare_run built: the labels
        # train in its narrow dtype
        seen = []

        def spy(net, step_grad, data, oe=None, **settings):
            seen.append((data, oe))
            return train_loop(net, step_grad, data, oe, **settings)

        train_loop = nn_core.train_loop
        monkeypatch.setattr(nn_core, "train_loop", spy)
        config = _tiny_config(seeds=(3, 4))
        train, _ = pipeline.prepare_run(config, config.seeds)
        baselines = pipeline.train_baseline(config, train)
        pipeline.finetune_oe(config, train, baselines)
        pipeline.train_scratch_oe(config, train)
        assert len(seen) == 3
        assert train.labels.dtype == np.uint8
        for (rows, labels), oe in seen:
            assert rows is train.rows and labels is train.labels
        assert seen[0][1] is None and seen[1][1] is seen[2][1] is train.oe_rows

    def test_stacked_divergence_names_the_diverging_seed(self):
        config = _tiny_config(seeds=(3, 4))
        train, _ = pipeline.prepare_run(config, config.seeds)
        train.rows[1] *= 1e300
        with pytest.raises(DivergenceError) as err:
            pipeline.train_baseline(config, train)
        assert err.value.member == 1
        assert str(err.value).startswith("seed 4, stage train_baseline: parameters became non-finite in step ")

    def test_density_seed_run(self):
        config = _tiny_density_config()
        work = nn_core.Workspace()
        sr = pipeline.run_seed(config, 0, *_first_seed(pipeline.train_models(config, work)), work)
        assert set(sr.reports) == {"baseline", "final"}
        assert set(sr.reports["final"]) == {"periodic"}
        assert sr.train_accuracy is None
        assert sr.calibration is None
        rep = sr.reports["final"]["periodic"]
        assert 0.0 <= rep.auroc <= 1.0


class TestEvaluation:
    def test_pools_respect_base_rate(self):
        config = _tiny_config(base_rate=(1, 2))
        bundle = pipeline.prepare_data(config, seed=0)
        model = pipeline.train_baseline(config, _train(config, 0))[0]
        _, pools = _evaluate(model, config, 0)
        pool = pools["ring"]
        n_in, n_out = bundle.din_test.n, bundle.tests["ring"].n
        m = min(n_out // 1, n_in // 2)
        assert pool.out_scores.size == m * 1
        assert pool.in_scores.size == m * 2

    def test_pool_subsample_is_seeded_per_set(self):
        config = _tiny_config()
        model = pipeline.train_baseline(config, _train(config, 5))[0]
        _, p1 = _evaluate(model, config, 5)
        _, p2 = _evaluate(model, config, 5)
        assert np.array_equal(p1["ring"].in_scores, p2["ring"].in_scores)
        assert np.array_equal(p1["ring"].out_scores, p2["ring"].out_scores)

    def test_baseline_and_final_share_pools(self):
        # The subsample indices depend only on (seed, role, set index), so a
        # score that both models agree on lands in both pools or neither.
        config = _tiny_config(base_rate=(1, 1))
        train = _train(config, 0)
        baseline = pipeline.train_baseline(config, train)[0]
        tuned = pipeline.finetune_oe(config, train, [baseline])[0]
        _, pb = _evaluate(baseline, config, 0)
        _, pf = _evaluate(tuned, config, 0)
        assert pb["ring"].in_scores.size == pf["ring"].in_scores.size
        assert pb["ring"].out_scores.size == pf["ring"].out_scores.size

    def test_a_bundle_draws_the_pools_of_its_own_seed(self):
        config = _tiny_config(seeds=(5,))
        models, record = _first_seed(pipeline.train_models(config, nn_core.Workspace()))
        sr = pipeline.run_seed(config, 5, models, record, nn_core.Workspace())
        _, pools = _evaluate(models.final, config, 5)
        assert set(pools) == set(sr.pools) == {"ring"}
        got, want = pools["ring"], sr.pools["ring"]
        assert np.array_equal(got.in_scores.view(np.int64), want.in_scores.view(np.int64))
        assert np.array_equal(got.out_scores.view(np.int64), want.out_scores.view(np.int64))
        _, other = _evaluate(models.final, config, 6)
        assert not np.array_equal(other["ring"].out_scores, pools["ring"].out_scores)

    def test_large_pools_score_only_their_kept_outlier_rows(self, monkeypatch):
        # 1:1 with 2,070 inlier test rows: the 5,000-row set keeps 2,070
        # outliers, enough to be scored alone; the 200-row set keeps all 200
        # and is scored whole. The pools are the ones whole-set scoring and
        # enforce_base_rate give.
        blobs = {"k": 3, "n_per_cluster": 4600, "dim": 2, "separation": 6.0}
        rings = [DatasetSpec("generator", name, {"generator": "ring", "radius": 6.0, "width": 0.2, "n": n})
                 for name, n in (("big", 5000), ("small", 200))]
        config = _tiny_config(d_in=DatasetSpec("synthetic_gaussian_mixture", "blobs", blobs),
                              d_out_test=rings, base_rate=(1, 1))
        bundle = pipeline.prepare_data(config, seed=0)
        assert bundle.din_test.n == 2070
        model = nn_core.init_network([2, 8, 3], seed=0)
        original, rows_scored = pipeline.scoring_mod.score_dataset, []

        def counting(model, kind, dataset, work):
            rows_scored.append(len(dataset))
            return original(model, kind, dataset, work)

        monkeypatch.setattr(pipeline.scoring_mod, "score_dataset", counting)
        _, pools = _evaluate(model, config, 0)
        assert rows_scored == [2070, 2070, 200]
        in_scores = original(model, "msp", bundle.din_test.rows, nn_core.Workspace())
        for i, name in enumerate(("big", "small")):
            want = metrics.enforce_base_rate(
                in_scores, original(model, "msp", bundle.tests[name].rows, nn_core.Workspace()),
                ratio=(1, 1), seed=pipeline._ss(0, pipeline.ROLE_BASE_RATE, i),
            )
            assert np.array_equal(pools[name].in_scores.view(np.int64), want.in_scores.view(np.int64))
            assert np.array_equal(pools[name].out_scores.view(np.int64), want.out_scores.view(np.int64))

    def test_a_run_materializes_every_dataset_once_per_seed(self, monkeypatch):
        # training and evaluation share one preparation of each seed's data;
        # a run builds no validation outlier set
        names, original = [], pipeline.materialize

        def counting(spec, *args, **kwargs):
            names.append(spec.name)
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(pipeline, "materialize", counting)
        config = _tiny_config(seeds=(0, 1), calibration=True)
        exp = pipeline.run_experiment(config)
        assert [sr.seed for sr in exp.seed_results] == [0, 1]
        assert names == ["blobs", "box", "ring"] * 2

    def test_the_record_of_a_run_keeps_only_the_outlier_rows_its_pools_score(self):
        # as in test_large_pools_score_only_their_kept_outlier_rows: the
        # 5,000-row set keeps 2,070 rows, at least ALONE_ROWS, and the 200-row
        # set keeps all of its rows; the pools of the run's record are the
        # ones evaluate_detector gives on a fresh bundle
        blobs = {"k": 3, "n_per_cluster": 4600, "dim": 2, "separation": 6.0}
        rings = [DatasetSpec("generator", name, {"generator": "ring", "radius": 6.0, "width": 0.2, "n": n})
                 for name, n in (("big", 5000), ("small", 200))]
        config = _tiny_config(d_in=DatasetSpec("synthetic_gaussian_mixture", "blobs", blobs),
                              d_out_test=rings, base_rate=(1, 1), seeds=(3,), epochs=1, finetune_epochs=1)
        models, record = _first_seed(pipeline.train_models(config, nn_core.Workspace()))
        bundle = pipeline.prepare_data(config, 3)
        kept = metrics.base_rate_rows(2070, 5000, (1, 1), pipeline._ss(3, pipeline.ROLE_BASE_RATE, 0))[1]
        assert 2070 == kept.size >= pipeline.scoring_mod.ALONE_ROWS
        big, small = record.pools["big"], record.pools["small"]
        assert big.index is None and big.forward.shape == (2070, 2)
        assert big.forward.tobytes() == bundle.tests["big"].rows[kept].tobytes()
        assert small.forward.tobytes() == bundle.tests["small"].rows.tobytes()
        assert np.array_equal(small.index, np.arange(200))
        # a run that does not calibrate keeps neither the validation split nor the whole test sets
        assert record.din_val is None and record.tests is None
        assert record.din_test.rows.tobytes() == bundle.din_test.rows.tobytes()
        sr = pipeline.run_seed(config, 3, models, record, nn_core.Workspace())
        _, fresh = _evaluate(models.final, config, 3)
        assert set(sr.pools) == set(fresh) == {"big", "small"}
        for name, pool in fresh.items():
            assert sr.pools[name].in_scores.tobytes() == pool.in_scores.tobytes()
            assert sr.pools[name].out_scores.tobytes() == pool.out_scores.tobytes()

    def test_calibration_eval_structure(self):
        config = _tiny_config(calibration=True, epochs=8)
        work = nn_core.Workspace()
        sr = pipeline.run_seed(config, 0, *_first_seed(pipeline.train_models(config, work)), work)
        cal = sr.calibration
        assert set(cal) == {"baseline_temp", "final_temp", "final_temp_rescaled"}
        for rep in cal.values():
            assert rep.temperature > 0
            assert rep.mad_error <= rep.rms_error + 1e-15
        assert cal["final_temp_rescaled"].rescaled
        assert not cal["final_temp"].rescaled
        assert sr.train_accuracy is not None

    @staticmethod
    def _overlapping_config(**over):
        # overlapping clusters keep the tuned temperatures inside the grid and
        # the baseline's apart from the fine-tuned model's
        d_in = DatasetSpec("synthetic_gaussian_mixture", "blobs",
                           {"k": 3, "n_per_cluster": 40, "dim": 2, "separation": 1.5})
        return _tiny_config(calibration=True, d_in=d_in, **over)

    def test_a_calibrated_run_fits_every_temperature_in_one_call(self, monkeypatch):
        calls = []
        tune = pipeline.calib_mod.tune_temperature

        def counted(logits, labels):
            calls.append(np.shape(logits))
            return tune(logits, labels)

        monkeypatch.setattr(pipeline.calib_mod, "tune_temperature", counted)
        config = self._overlapping_config(seeds=(0, 1, 2))
        exp = pipeline.run_experiment(config)
        n_val = int(round(0.15 * 120))
        assert calls == [(6, n_val, 3)]
        assert all(set(sr.calibration) == {"baseline_temp", "final_temp", "final_temp_rescaled"}
                   for sr in exp.seed_results)

    def test_a_calibrating_run_fits_on_the_validation_split_each_record_keeps(self, tmp_path):
        config = self._overlapping_config(seeds=(0, 1, 2))
        trained, records = pipeline.train_models(config, nn_core.Workspace())
        for seed, record in zip(config.seeds, records):
            val = pipeline.prepare_data(config, seed).din_val
            assert record.din_val.rows.tobytes() == val.rows.tobytes()
            assert record.din_val.labels.tobytes() == val.labels.tobytes()
        assert len({record.din_val.rows.tobytes() for record in records}) == 3
        temps = pipeline.fit_temperatures([(m.baseline, m.final) for m in trained], records, nn_core.Workspace())
        assert temps == [m.temperatures for m in trained]
        reports.write_reports(tmp_path / "run", pipeline.run_experiment(config))
        for seed, (baseline_temp, final_temp) in zip(config.seeds, temps):
            cal = json.loads((tmp_path / "run" / f"calibration_seed{seed}.json").read_text())
            assert cal["baseline_temp"]["temperature"] == baseline_temp
            assert cal["final_temp"]["temperature"] == final_temp

    def test_a_seed_run_alone_writes_the_calibration_bytes_of_a_stacked_run(self, tmp_path):
        config = self._overlapping_config(seeds=(0, 1, 2))
        reports.write_reports(tmp_path / "run", pipeline.run_experiment(config))
        solo = self._overlapping_config(seeds=(1,))
        models, record = _first_seed(pipeline.train_models(solo, nn_core.Workspace()))
        baseline, final, temps, _ = models
        sr = pipeline.run_seed(solo, 1, models, record, nn_core.Workspace())
        # each temperature is the one fit of its own model on the seed's validation split
        val = pipeline.prepare_data(solo, 1).din_val
        fits = np.stack([nn_core.forward(m, val.rows, nn_core.Workspace()) for m in (baseline, final)])
        assert temps == tuple(pipeline.calib_mod.tune_temperature(f[None], val.labels[None])[0] for f in fits)
        assert 0.01 < temps[1] < temps[0] < 100.0
        reports.write_reports(tmp_path / "solo", pipeline.ExperimentResult(solo, [sr], pipeline.summarize(solo, [sr])))
        name = "calibration_seed1.json"
        assert (tmp_path / "solo" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()
        assert json.loads((tmp_path / "solo" / name).read_text())["final_temp"]["temperature"] == temps[1]

    def test_fit_temperatures_copies_each_forward_out_of_the_shared_workspace(self):
        # the workspace owns the logits of its last forward: a stack of the
        # forwards' own arrays would repeat the last model's logits
        config = self._overlapping_config(seeds=(0, 1))
        trained, records = pipeline.train_models(config, nn_core.Workspace())
        pairs = [(m.baseline, m.final) for m in trained]
        temps = pipeline.fit_temperatures(pairs, records, nn_core.Workspace())
        logits = np.stack([nn_core.forward(m, r.din_val.rows, nn_core.Workspace())
                           for pair, r in zip(pairs, records) for m in pair])
        labels = np.stack([r.din_val.labels for r in records for _ in range(2)])
        want = pipeline.calib_mod.tune_temperature(logits, labels).tolist()
        assert temps == list(zip(want[0::2], want[1::2]))
        assert len(set(want)) == 4

    @pytest.mark.parametrize("preset", ["preset_2d", "preset_density"])
    def test_a_run_evaluates_through_one_workspace_and_keeps_none(self, monkeypatch, preset):
        # every forward after training reuses one workspace, and no workspace
        # outlives run_experiment: report writing must not hold its buffers
        made, served = [], []

        class Tracked(nn_core.Workspace):
            def __init__(self):
                super().__init__()
                self.serial = len(made)
                made.append(weakref.ref(self))

        forward = nn_core.forward

        def recording_forward(params, inputs, work):
            served.append(work.serial)
            return forward(params, inputs, work)

        monkeypatch.setattr(nn_core, "Workspace", Tracked)
        monkeypatch.setattr(nn_core, "forward", recording_forward)
        config = get_preset(preset, seeds=(0, 1), **({"calibration": True} if preset == "preset_2d" else {}))
        config.epochs, config.finetune_epochs = 2, 1
        exp = pipeline.run_experiment(config)
        assert len(exp.seed_results) == 2
        assert len(set(served)) == 1 and len(served) > 2 * 2 * len(config.d_out_test)
        assert len(made) > 1  # training makes its own
        assert [ref for ref in made if ref() is not None] == []


class TestReports:
    def test_display_percent_values(self):
        cases = [
            (0.0, "0.0"),
            (1.0, "100."),
            (0.9995, "100."),
            (0.99949, "99.9"),
            (0.75, "75.0"),
            (0.005, "0.5"),
            (0.1234, "12.3"),
            (0.045, "4.5"),
        ]
        for value, want in cases:
            assert reports.display_percent(value) == want

    def test_display_percent_rejects_non_fractions(self):
        with pytest.raises(ValueError):
            reports.display_percent(1.2)
        with pytest.raises(ValueError):
            reports.display_percent(-0.01)

    def test_report_file_inventory(self, tmp_path):
        config = _tiny_config(seeds=(0, 1), calibration=True)
        out = tmp_path / "run"
        reports.write_reports(out, pipeline.run_experiment(config))
        for name in ("per_seed.csv", "summary.csv", "summary.json", "config_resolved.json",
                     "table.txt"):
            assert (out / name).exists(), name
        assert (out / "curves" / "roc_ring_seed0.csv").exists()
        assert (out / "curves" / "pr_ring_seed1.csv").exists()
        assert (out / "scores" / "ring_seed0.csv").exists()
        assert (out / "calibration_seed0.json").exists()
        assert (out / "calibration_seed1.json").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        config = _tiny_config(seeds=(0, 1))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        reports.write_reports(out1, pipeline.run_experiment(config))
        reports.write_reports(out2, pipeline.run_experiment(config))
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_summary_is_exact_mean_of_per_seed_rows(self, tmp_path):
        config = _tiny_config(seeds=(0, 1, 2))
        out = tmp_path / "run"
        reports.write_reports(out, pipeline.run_experiment(config))
        import csv as _csv

        per_seed = {}
        with (out / "per_seed.csv").open(newline="") as fh:
            for row in _csv.DictReader(fh):
                key = (row["phase"], row["d_out"])
                per_seed.setdefault(key, []).append(
                    {f: float(row[f]) for f in ("auroc", "aupr", "fpr_at_n")}
                )
        with (out / "summary.csv").open(newline="") as fh:
            for row in _csv.DictReader(fh):
                key = (row["phase"], row["d_out"])
                rows = per_seed[key]
                assert len(rows) == 3
                assert int(row["n_seeds"]) == 3
                for f in ("auroc", "aupr", "fpr_at_n"):
                    want = float(np.mean([r[f] for r in rows]))
                    assert float(row[f]) == want

    def test_summary_json_payload(self, tmp_path):
        config = _tiny_config(seeds=(0,))
        out = tmp_path / "run"
        reports.write_reports(out, pipeline.run_experiment(config))
        payload = json.loads((out / "summary.json").read_text())
        assert payload["config"]["lambda"] == 0.5
        assert payload["summary"]["final"]["ring"]["n_seeds"] == 1
        assert len(payload["per_seed"]) == 1
        assert "train_accuracy" in payload["per_seed"][0]
        resolved = json.loads((out / "config_resolved.json").read_text())
        assert resolved == payload["config"]

    def test_table_mentions_every_test_set(self, tmp_path):
        config = _tiny_config(seeds=(0,))
        exp = pipeline.run_experiment(config)
        table = reports.render_table(exp)
        assert table.startswith("tiny:")
        assert "ring" in table
        assert "baseline" in table and "final" in table

    def test_curve_files_parse_and_hit_endpoints(self, tmp_path):
        config = _tiny_config(seeds=(0,))
        out = tmp_path / "run"
        reports.write_reports(out, pipeline.run_experiment(config))
        import csv as _csv

        with (out / "curves" / "roc_ring_seed0.csv").open(newline="") as fh:
            rows = list(_csv.DictReader(fh))
        xs = [float(r["fpr"]) for r in rows]
        ys = [float(r["tpr"]) for r in rows]
        assert (xs[0], ys[0]) == (0.0, 0.0)
        assert (xs[-1], ys[-1]) == (1.0, 1.0)


class TestCli:
    def _write_config(self, tmp_path, **over):
        cfg = _tiny_config(**over)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        return path

    def test_run_writes_reports(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["run", "-c", str(path), "-o", str(out), "-q"])
        assert rc == 0
        assert (out / "summary.csv").exists()

    def test_run_seed_override(self, tmp_path):
        path = self._write_config(tmp_path, seeds=(0, 1))
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(path), "-o", str(out), "-q", "--seed", "7"]) == 0
        body = (out / "per_seed.csv").read_text()
        lines = body.strip().split("\n")[1:]
        assert lines and all(line.startswith("7,") for line in lines)

    def test_unrealizable_base_rate_exits_one_before_training(self, tmp_path, capsys, monkeypatch):
        # 3 shifted_gaussian rows cannot give 5 outliers per inlier; every
        # set is checked while the data are prepared, so nothing trains
        calls = []
        monkeypatch.setattr(nn_core, "train_loop", lambda *a, **k: calls.append(a))
        config = get_preset("preset_2d", seeds=(3, 4))
        config.d_out_test[1].params["n"] = 3
        config.base_rate = (5, 1)
        path = tmp_path / "cfg.json"
        save_config(config, path)
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(path), "-o", str(out), "-q"]) == 1
        err = capsys.readouterr().err
        assert "error: seed 3, test set 'shifted_gaussian': pools of 3 out / 180 in cannot realize ratio 5:1" in err
        assert calls == []

    @pytest.mark.parametrize("command", ["run", "train", "finetune", "eval", "make-data"])
    def test_refused_command_leaves_no_output_directory(self, tmp_path, capsys, command):
        # the refusal comes while the data are prepared, after the output
        # path is known and before anything is written
        config = get_preset("preset_2d", seeds=(3,))
        config.d_out_test[1].params["n"] = 3
        config.base_rate = (5, 1)
        path = tmp_path / "cfg.json"
        save_config(config, path)
        out = tmp_path / "out"
        extra = ["--params", str(tmp_path / "never_read.bin")] if command in ("finetune", "eval") else []
        assert cli.main([command, "-c", str(path), "-o", str(out), "-q", *extra]) == 1
        assert "cannot realize ratio 5:1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "train", "make-data"])
    def test_unlabeled_inliers_under_a_classifier_detector_exit_one(self, tmp_path, capsys, command):
        # every command prepares the data, so each refuses what run cannot train
        rows = _mixture(0, k=3, n_per_cluster=40, dim=2, separation=6.0)
        datasets.write_csv(tmp_path / "rows.csv", datasets.Dataset(rows.rows))
        config = _tiny_config(d_in=DatasetSpec("file", "rows", path=str(tmp_path / "rows.csv")))
        path = tmp_path / "cfg.json"
        save_config(config, path)
        out = tmp_path / "out"
        assert cli.main([command, "-c", str(path), "-o", str(out), "-q"]) == 1
        err = capsys.readouterr().err
        assert ("error: detector 'msp' trains a classifier, which needs labeled rows, but d_in 'rows' "
                "has no labels") in err, err
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("command", ["run", "train", "make-data"])
    def test_an_out_path_through_an_existing_file_exits_one_before_any_data(
        self, tmp_path, capsys, monkeypatch, command, below
    ):
        def no_data(config, seed):
            raise AssertionError("no data may be prepared")

        monkeypatch.setattr(pipeline, "prepare_data", no_data)
        path = self._write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_bytes(b"not a directory")
        out = taken / "sub" if below else taken
        assert cli.main([command, "-c", str(path), "-o", str(out), "-q"]) == 1
        assert f"error: output directory {out}: {taken} exists and is not a directory" in capsys.readouterr().err
        assert taken.read_bytes() == b"not a directory"

    @pytest.mark.parametrize(
        "command, name",
        [("make-data", "../../../escaped"), ("run", "ring/x"), ("run", "back\\slash"), ("make-data", "nul\0"),
         pytest.param("run", LONG_NAME, id="run-201_bytes"), pytest.param("run", SURROGATE_NAME, id="run-surrogate"),
         pytest.param("make-data", SURROGATE_NAME, id="make-data-surrogate")],
    )
    def test_a_dataset_name_that_is_no_file_name_exits_one_before_any_file(self, tmp_path, capsys, command, name):
        # test set files are named after the set: a separator in the name
        # would place them outside -o, or under a directory never made, and
        # a long one would not fit a file name
        path = self._write_config(tmp_path)
        wire = json.loads(path.read_text())
        wire["d_out_test"][0]["name"] = name
        path.write_text(json.dumps(wire))
        out = tmp_path / "out"
        assert cli.main([command, "-c", str(path), "-o", str(out), "-q"]) == 1
        why = WHY.get(name, "holds a path separator or NUL")
        assert f"error: dataset name {name!r} {why}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["cfg.json"]

    @pytest.mark.parametrize(
        "name",
        ["../../escaped_exp", "..", ".", "", "a/b", "back\\slash", "nul\0", pytest.param(LONG_NAME, id="201_bytes"),
         pytest.param(SURROGATE_NAME, id="surrogate")],
    )
    @pytest.mark.parametrize("command", ["make-data", "run"])
    def test_an_experiment_name_cannot_lead_the_default_out_directory_out_of_runs(
        self, tmp_path, monkeypatch, capsys, command, name
    ):
        # without -o a command writes to runs/<name>, from the working directory
        cwd = tmp_path / "deep" / "er"
        cwd.mkdir(parents=True)
        monkeypatch.chdir(cwd)
        path = self._write_config(cwd)
        wire = json.loads(path.read_text())
        wire["name"] = name
        path.write_text(json.dumps(wire))
        assert cli.main([command, "-c", "cfg.json", "-q"]) == 1
        why = WHY.get(name, "is no directory name")
        assert f"error: experiment name {name!r} {why}" in capsys.readouterr().err
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "deep", "deep/er", "deep/er/cfg.json"
        ]

    def test_without_out_a_command_writes_only_under_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self._write_config(tmp_path, name="a..b", epochs=1, finetune_epochs=1)
        assert cli.main(["make-data", "-c", "cfg.json", "-q"]) == 0
        new = set(tmp_path.rglob("*")) - {tmp_path / "cfg.json"}
        assert tmp_path / "runs" / "a..b" / "din_train_seed0.csv" in new
        assert all(p == tmp_path / "runs" or tmp_path / "runs" in p.parents for p in new), sorted(new)

    def test_every_command_writes_only_under_its_out_directory(self, tmp_path, monkeypatch):
        # an unusual but allowed set name: dots, and a comma
        monkeypatch.chdir(tmp_path)
        config = _tiny_config(
            epochs=1,
            finetune_epochs=1,
            d_out_test=[DatasetSpec("generator", "a..b,c", {"generator": "ring", "radius": 6.0, "n": 60})],
        )
        save_config(config, tmp_path / "cfg.json")
        (tmp_path / "preds.csv").write_text("confidence,correct\n0.9,1\n0.4,0\n")
        baseline = tmp_path / "train" / "baseline_seed0.bin"
        commands = [
            ("run", []),
            ("make-data", []),
            ("train", []),
            ("finetune", ["--params", str(baseline)]),
            ("eval", ["--params", str(baseline)]),
        ]
        for command, extra in commands:
            out = tmp_path / command
            before = set(tmp_path.rglob("*"))
            assert cli.main([command, "-c", "cfg.json", "-o", str(out), "-q", *extra]) == 0
            new = set(tmp_path.rglob("*")) - before
            assert new and all(p == out or out in p.parents for p in new), sorted(new)
        out = tmp_path / "calibrate"
        before = set(tmp_path.rglob("*"))
        assert cli.main(["calibrate", "preds.csv", "-o", str(out), "-q"]) == 0
        assert set(tmp_path.rglob("*")) - before == {out, out / "preds_calibration.json"}
        assert (tmp_path / "make-data" / "test_a..b,c_seed0.csv").exists()
        assert (tmp_path / "run" / "curves" / "roc_a..b,c_seed0.csv").exists()

    def test_the_longest_names_and_seed_fit_every_file_name(self, tmp_path, monkeypatch):
        # eval's scores_<name>_seed<seed>.csv is the longest file name a command builds
        monkeypatch.chdir(tmp_path)
        name, seed = LONG_NAME[:-1], 2**64 - 1
        self._write_config(tmp_path, name=name, seeds=(seed,), epochs=1, finetune_epochs=1,
                           d_out_test=[DatasetSpec("generator", name, {"generator": "ring", "radius": 6.0, "n": 60})])
        assert cli.main(["make-data", "-c", "cfg.json", "-q"]) == 0
        assert cli.main(["run", "-c", "cfg.json", "-o", "run", "-q"]) == 0
        assert cli.main(["train", "-c", "cfg.json", "-o", "train", "-q"]) == 0
        params = f"train/baseline_seed{seed}.bin"
        assert cli.main(["eval", "-c", "cfg.json", "-o", "eval", "-q", "--params", params]) == 0
        assert (tmp_path / "runs" / name / f"test_{name}_seed{seed}.csv").exists()
        assert (tmp_path / "run" / "curves" / f"roc_{name}_seed{seed}.csv").exists()
        assert len(f"scores_{name}_seed{seed}.csv".encode()) == 236
        assert (tmp_path / "eval" / f"scores_{name}_seed{seed}.csv").exists()

    def test_calibrate_refuses_a_stem_too_long_for_a_file_name(self, tmp_path, capsys):
        # the report is <stem>_calibration.json: a 200-byte stem fits, a 240-byte one does not
        body = "confidence,correct\n0.9,1\n0.4,0\n"
        fits, too_long = tmp_path / ("p" * 200 + ".csv"), tmp_path / ("q" * 240 + ".csv")
        fits.write_text(body)
        too_long.write_text(body)
        out = tmp_path / "out"
        assert cli.main(["calibrate", str(too_long), "-o", str(out), "-q"]) == 1
        assert f"error: prediction file stem {'q' * 240!r} is longer than 200 UTF-8 bytes" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["calibrate", str(fits), "-o", str(out), "-q"]) == 0
        assert [p.name for p in out.iterdir()] == ["p" * 200 + "_calibration.json"]

    @pytest.mark.parametrize("command", ["run", "make-data"])
    def test_a_tree_is_never_written_over_an_earlier_one(self, tmp_path, capsys, monkeypatch, command):
        # a second run into one directory would leave the first run's files
        # of other seeds beside its own; so would make-data's
        path = self._write_config(tmp_path, seeds=(0, 1), epochs=1, finetune_epochs=1)
        out = tmp_path / "out"
        assert cli.main([command, "-c", str(path), "-o", str(out), "-q"]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        monkeypatch.setattr(pipeline, "prepare_data", None)  # refused before any data are prepared
        assert cli.main([command, "-c", str(path), "-o", str(out), "-q", "--seed", "0"]) == 1
        assert f"error: output directory {out} is not empty" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        monkeypatch.undo()
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main([command, "-c", str(path), "-o", str(empty), "-q"]) == 0

    def test_summary_train_accuracy_is_the_final_nets_accuracy_on_its_training_split(self, tmp_path):
        path = self._write_config(tmp_path, seeds=(0, 1))
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(path), "-o", str(out), "-q"]) == 0
        config = load_config(path)
        models, _ = pipeline.train_models(config, nn_core.Workspace())
        per_seed = json.loads((out / "summary.json").read_text())["per_seed"]
        assert [entry["seed"] for entry in per_seed] == [0, 1]
        for entry, seed, m in zip(per_seed, config.seeds, models):
            train = pipeline.prepare_data(config, seed).din_train
            work = nn_core.Workspace()
            assert entry["train_accuracy"] == pipeline.classifier_accuracy(m.final, train.rows, train.labels, work)

    def test_every_command_that_trains_or_evaluates_prepares_its_data_in_one_call(self, tmp_path, monkeypatch):
        path = self._write_config(tmp_path, seeds=(0, 1), epochs=1, finetune_epochs=1)
        out = tmp_path / "out"
        assert cli.main(["train", "-c", str(path), "-o", str(out), "-q"]) == 0
        assert cli.main(["finetune", "-c", str(path), "-o", str(out), "-q", "--params",
                         str(out / "baseline_seed0.bin")]) == 0
        calls = []
        prepare_run, prepare_data = pipeline.prepare_run, pipeline.prepare_data

        def counted_run(config, seeds):
            calls.append(("prepare_run", tuple(seeds)))
            return prepare_run(config, seeds)

        def counted_data(config, seed):
            calls.append(("prepare_data", seed))
            return prepare_data(config, seed)

        monkeypatch.setattr(pipeline, "prepare_run", counted_run)
        monkeypatch.setattr(pipeline, "prepare_data", counted_data)
        for argv, seeds in (
            (["run", "-o", str(tmp_path / "run")], (0, 1)),
            (["train", "-o", str(tmp_path / "train"), "--seed", "1"], (1,)),
            (["finetune", "-o", str(tmp_path / "tuned"), "--params", str(out / "baseline_seed0.bin")], (0,)),
            (["eval", "-o", str(tmp_path / "eval"), "--params", str(out / "finetuned_seed0.bin")], (0,)),
        ):
            calls.clear()
            assert cli.main([*argv, "-c", str(path), "-q"]) == 0, argv
            assert calls == [("prepare_run", seeds), *(("prepare_data", s) for s in seeds)], argv

    @pytest.mark.parametrize("command", ["make-data", "run"])
    @pytest.mark.parametrize("preset, edits, message", [
        pytest.param("preset_2d", {"d_out_test.0.params.n": 2**63},
                     "dataset 'ring' (ring) params.n must be below 2**63", id="test-n-2**63"),
        pytest.param("preset_2d", {"d_out_test.0.params.n": 2**62},
                     "dataset 'ring' (ring): 4611686018427387904 rows of 2 values (params.n) need "
                     "73786976294838206464 bytes", id="test-n-2**62"),
        pytest.param("preset_2d", {"d_out_oe.params.n": 2**63},
                     "dataset 'box_noise' (uniform_box) params.n must be below 2**63", id="oe-n"),
        pytest.param("preset_2d", {"d_in.params.n_per_cluster": 2**63},
                     "dataset 'clusters2d' (synthetic_gaussian_mixture) params.n_per_cluster must be below 2**63",
                     id="n_per_cluster"),
        pytest.param("preset_2d", {"d_in.params.dim": 2**63},
                     "dataset 'clusters2d' (synthetic_gaussian_mixture) params.dim must be below 2**63", id="dim"),
        pytest.param("preset_2d", {"d_in.params.dim": 2**62},
                     "dataset 'clusters2d' (synthetic_gaussian_mixture): 4 cluster means of 4611686018427387904 "
                     "values (params.k, params.dim) need", id="dim-2**62"),
        pytest.param("preset_2d", {"d_in.params.k": 2**63},
                     "dataset 'clusters2d' (synthetic_gaussian_mixture) params.k must be below 2**63", id="k"),
        pytest.param("preset_2d", {"d_in.params.k": 2**62, "d_in.params.class_subset": [0, 1]},
                     "dataset 'clusters2d' (synthetic_gaussian_mixture): 4611686018427387904 cluster means of 2 "
                     "values (params.k, params.dim) need", id="k-2**62-subset"),
        pytest.param("preset_density", {"d_in.params.length": 2**63},
                     "dataset 'walks_p70' (markov_chain) params.length must be below 2**63", id="length"),
        pytest.param("preset_density", {"d_in.params.n": 2**61},
                     "dataset 'walks_p70' (markov_chain): 2305843009213693952 walks of 16 symbols "
                     "(params.n, params.length) need", id="walks-n-2**61"),
        pytest.param("preset_density", {"d_in.params.alphabet_size": 2**63},
                     "dataset 'walks_p70' (markov_chain) params.alphabet_size must be below 2**63",
                     id="alphabet_size"),
        pytest.param("preset_density", {"d_in.params.alphabet_size": 2**62, "d_in.params.starts": None,
                                        "d_out_oe.params.alphabet_size": 2**62,
                                        "d_out_test.0.params.alphabet_size": 2**62},
                     "nets of layer widths [9223372036854775810, 32, 4611686018427387904] (d_in 'walks_p70', "
                     "model.hidden_dims, model.context_window) need", id="alphabet_size-2**62-no-starts"),
        pytest.param("preset_2d", {"model.hidden_dims": [2**62]},
                     "nets of layer widths [2, 4611686018427387904, 4] (d_in 'clusters2d', model.hidden_dims) "
                     "need 258254417031933722656 bytes", id="hidden_dims"),
        pytest.param("preset_density", {"model.context_window": 2**62},
                     "nets of layer widths [41505174165846491136, 32, 8] (d_in 'walks_p70', model.hidden_dims, "
                     "model.context_window) need", id="context_window"),
    ])
    def test_a_size_no_numpy_array_can_hold_exits_one_before_any_array(
        self, tmp_path, capsys, command, preset, edits, message
    ):
        # every refusal comes before numpy is asked for the array, so no case
        # allocates it; an edit to None drops the key
        config = get_preset(preset)
        config.seeds, config.epochs, config.finetune_epochs = (0,), 1, 1
        wire = config.to_dict()
        for dotted, value in edits.items():
            *parents, key = dotted.split(".")
            node = wire
            for part in parents:
                node = node[int(part)] if part.isdigit() else node[part]
            if value is None:
                del node[key]
            else:
                node[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(wire))
        out = tmp_path / "out"
        assert cli.main([command, "-c", str(path), "-o", str(out), "-q"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and err.count("\n") == 1, err
        assert "and no array holds 2**63 or more" in err or "must be below 2**63, got " in err, err
        assert not out.exists()

    @pytest.mark.parametrize("dotted, key", [
        pytest.param("d_out_test.0.params.radius", "dataset 'ring' params.radius", id="radius"),
        pytest.param("d_out_test.1.params.mean.0", "dataset 'shifted_gaussian' params.mean[0]", id="mean"),
        pytest.param("model.lr0", "model.lr0", id="lr0"),
        pytest.param("lambda", "lambda", id="lambda"),
    ])
    def test_a_float_setting_past_float_range_exits_one_naming_the_key(self, tmp_path, capsys, dotted, key):
        # JSON integers have no bound, and past about 1.8e308 no float holds one
        config = get_preset("preset_2d")
        config.seeds = (0,)
        wire = config.to_dict()
        *parents, last = dotted.split(".")
        node = wire
        for part in parents:
            node = node[int(part)] if part.isdigit() else node[part]
        node[int(last) if last.isdigit() else last] = 10**400
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(wire))
        message = f"{key} must be a number a float can hold, got an integer past 1.8e308"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_config(path)
        out = tmp_path / "out"
        assert cli.main(["make-data", "-c", str(path), "-o", str(out), "-q"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_an_integer_past_the_digit_limit_exits_one_as_invalid_json(self, tmp_path, capsys):
        # Python reads no JSON integer of more than 4,300 digits
        wire = get_preset("preset_2d").to_dict()
        wire["lambda"] = "LAMBDA"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(wire).replace('"LAMBDA"', "1" + "0" * 5000))
        with pytest.raises(ValidationError, match="is not valid JSON: .*digits"):
            load_config(path)
        out = tmp_path / "out"
        assert cli.main(["make-data", "-c", str(path), "-o", str(out), "-q"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {path} is not valid JSON: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("preset, key, value", [
        ("preset_2d", "epochs", 10**400),
        ("preset_2d", "epochs", 2**1100),
        ("preset_2d", "epochs", 2**63),
        ("preset_2d", "finetune_epochs", 10**400),
        ("preset_2d", "finetune_epochs", 2**63),
        ("preset_density", "epochs", 2**63),
        ("preset_density", "finetune_epochs", 10**400),
    ], ids=["2d-epochs-10**400", "2d-epochs-2**1100", "2d-epochs-2**63", "2d-finetune-10**400",
            "2d-finetune-2**63", "density-epochs-2**63", "density-finetune-10**400"])
    def test_an_epoch_count_of_2_63_or_more_exits_one_before_any_data(self, tmp_path, capsys, monkeypatch, preset,
                                                                        key, value):
        # the schedule divides by its step count as a float; below 2**63
        # epochs that count stays far inside float range
        monkeypatch.setattr(pipeline, "prepare_data", None)  # nothing may be prepared
        config = get_preset(preset)
        config.seeds = (0,)
        wire = config.to_dict()
        wire[key] = 2**63 - 1
        ExperimentConfig.from_dict(wire)
        wire[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(wire))
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(path), "-o", str(out), "-q"]) == 1
        assert capsys.readouterr().err == f"error: {key} must be below 2**63, got an integer of " \
                                          f"{value.bit_length()} bits\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["make-data", "run"])
    @pytest.mark.parametrize("role", ["label", "symbol"])
    def test_a_csv_integer_past_int64_exits_one_naming_the_file(self, tmp_path, capsys, command, role):
        big = "99999999999999999999"
        if role == "label":
            csv_path = tmp_path / "din.csv"
            csv_path.write_text("x0,x1,label\n" + "".join(f"{i / 10},{i / 5},{i % 3}\n" for i in range(60))
                                + f"1.0,2.0,{big}\n")
            config = _tiny_config(d_in=DatasetSpec("file", "din", path=str(csv_path)))
            why = "class labels must lie in [0, 2**63)"
        else:
            csv_path = tmp_path / "periodic.csv"
            csv_path.write_text("s0,s1,s2\n" + "".join(f"{i % 4},{(i + 1) % 4},{(i + 2) % 4}\n" for i in range(40))
                                + f"1,{big},2\n")
            config = _tiny_density_config(
                d_out_test=[DatasetSpec("file", "periodic", {"alphabet_size": 8}, path=str(csv_path))])
            why = "symbols must lie in [0, 8)"
        path = tmp_path / "cfg.json"
        save_config(config, path)
        out = tmp_path / "out"
        assert cli.main([command, "-c", str(path), "-o", str(out), "-q"]) == 1
        assert capsys.readouterr().err == f"error: {csv_path}: {why}\n"
        assert not out.exists()

    def test_calibrate_refuses_an_out_path_naming_a_file(self, tmp_path, capsys):
        predictions = tmp_path / "preds.csv"
        predictions.write_text("confidence,correct\n0.9,1\n0.4,0\n")
        taken = tmp_path / "taken"
        taken.write_bytes(b"not a directory")
        assert cli.main(["calibrate", str(predictions), "-o", str(taken), "-q"]) == 1
        assert f"error: output directory {taken}: {taken} exists and is not a directory" in capsys.readouterr().err
        assert taken.read_bytes() == b"not a directory"

    @pytest.mark.parametrize("command", ["run", "make-data"])
    def test_a_one_symbol_density_d_in_exits_one(self, tmp_path, capsys, command):
        # every set holds the one symbol, so only the alphabet's size is wrong
        for name in ("ones", "periodic"):
            datasets.write_csv(tmp_path / f"{name}.csv",
                               datasets.Dataset(np.zeros((40, 8), dtype=np.int64), alphabet_size=1))
        config = _tiny_density_config(
            d_in=DatasetSpec("file", "ones", {"alphabet_size": 1}, path=str(tmp_path / "ones.csv")),
            d_out_test=[DatasetSpec("file", "periodic", {"alphabet_size": 1}, path=str(tmp_path / "periodic.csv"))],
            d_out_oe=None, pipeline="baseline_only",
        )
        path = tmp_path / "cfg.json"
        save_config(config, path)
        out = tmp_path / "out"
        assert cli.main([command, "-c", str(path), "-o", str(out), "-q"]) == 1
        assert ("error: detector 'density_bpp' needs at least two classes or symbols, but d_in 'ones' "
                "has alphabet_size 1") in capsys.readouterr().err
        assert not out.exists()

    def test_a_one_class_classifier_d_in_exits_one(self, tmp_path, capsys):
        rows = _mixture(0, k=3, n_per_cluster=40, dim=2, separation=6.0)
        datasets.write_csv(tmp_path / "rows.csv", datasets.Dataset(rows.rows, np.zeros(rows.n, dtype=np.int64)))
        path = tmp_path / "cfg.json"
        save_config(_tiny_config(d_in=DatasetSpec("file", "rows", path=str(tmp_path / "rows.csv"))), path)
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(path), "-o", str(out), "-q"]) == 1
        assert ("error: detector 'msp' needs at least two classes or symbols, but d_in 'rows' has 1 class"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "failure, code",
        [(None, 0), (ValidationError("refused"), 1), (RuntimeError("wedged"), 2)],
        ids=["success", "refusal", "internal-error"],
    )
    @pytest.mark.parametrize("command", ["run", "train", "make-data"])
    def test_commands_run_blas_on_one_thread_and_restore_the_count(
        self, tmp_path, capsys, monkeypatch, command, failure, code
    ):
        controls = cli._blas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread control in this process")
        original = [get() for get, _ in controls]
        seen = []
        prepare_data = pipeline.prepare_data

        def reading_prepare_data(config, seed):
            seen.append([get() for get, _ in controls])
            if failure is not None:
                raise failure
            return prepare_data(config, seed)

        monkeypatch.setattr(pipeline, "prepare_data", reading_prepare_data)
        path = self._write_config(tmp_path)
        try:
            # a count that is neither 1 nor the default, so a restore to
            # either would show
            for _, put in controls:
                put(3)
            before = [get() for get, _ in controls]
            rc = cli.main([command, "-c", str(path), "-o", str(tmp_path / "out"), "-q"])
            after = [get() for get, _ in controls]
        finally:
            for (_, put), n in zip(controls, original):
                put(n)
        assert rc == code, capsys.readouterr().err
        assert seen and all(counts == [1] * len(controls) for counts in seen)
        assert after == before

    def test_report_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the 8,192-row test set is scored in 4,096-row forwards through
        # 32 x 32 layers: products big enough for OpenBLAS to thread at
        # its default count, and on one thread under the CLI
        ring = {"generator": "ring", "radius": 6.0, "width": 0.2, "n": 8192}
        config = _tiny_config(
            d_out_test=[DatasetSpec("generator", "ring", ring)],
            model=ModelSettings(hidden_dims=(32, 32), lr0=0.1, finetune_lr0=0.05, batch_size=32),
        )
        default, one = tmp_path / "default", tmp_path / "one"
        reports.write_reports(default, pipeline.run_experiment(config))
        path = tmp_path / "cfg.json"
        save_config(config, path)
        assert cli.main(["run", "-c", str(path), "-o", str(one), "-q"]) == 0

        def digests(root):
            return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        assert (default / "scores").is_dir()
        assert digests(one) == digests(default)

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["run", "-c", str(tmp_path / "missing.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"name\": \"x\"}")
        assert cli.main(["run", "-c", str(path)]) == 1

    @pytest.mark.parametrize(
        "key, value",
        [("calibration", "false"), ("epochs", 2.9), ("epochs", True), ("lambda", True), ("n_level", True),
         ("model.batch_size", 64.9), ("model.context_window", "2"), ("model.lr0", "0.1"),
         ("seeds", [0.0]), ("d_out_test", {"kind": "generator"}), ("d_in.name", 3), ("d_in.params", [])],
    )
    def test_mistyped_value_exits_one_naming_the_field(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.setattr(pipeline, "train_models", None)  # nothing may train
        body = _tiny_config().to_dict()
        *parents, leaf = key.split(".")
        target = body
        for name in parents:
            target = target[name]
        target[leaf] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(path), "-o", str(out), "-q"]) == 1
        err = capsys.readouterr().err
        assert f"error: {key} must be " in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "role, name, generator, key, typo",
        [("d_out_test", "ring", "ring", "radius", "radus"),
         ("d_out_val", "val_shift", "shifted_gaussian", "mean", "meen")],
    )
    def test_misspelled_dataset_param_exits_one_before_training(
        self, tmp_path, capsys, monkeypatch, role, name, generator, key, typo
    ):
        # run never builds the d_out_val sets, and still refuses a typo there
        monkeypatch.setattr(pipeline, "train_baseline", None)  # nothing may train
        body = _tiny_config().to_dict()
        body[role][0]["params"][typo] = body[role][0]["params"].pop(key)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "out"), "-q"]) == 1
        err = capsys.readouterr().err
        assert f"dataset '{name}' ({generator}) does not read params key(s) {typo};" in err, err

    @pytest.mark.parametrize(
        "value, expected",
        [(True, "a number, got True"), ("6", "a number, got '6'"), ([6.0], "a number, got [6.0]")],
    )
    def test_mistyped_dataset_param_exits_one_naming_dataset_and_key(
        self, tmp_path, capsys, monkeypatch, value, expected
    ):
        monkeypatch.setattr(pipeline, "train_baseline", None)  # nothing may train
        body = _tiny_config().to_dict()
        body["d_out_test"][0]["params"]["radius"] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(path), "-o", str(out), "-q"]) == 1
        err = capsys.readouterr().err
        assert f"error: dataset 'ring' params.radius must be {expected}" in err, err
        assert not out.exists()  # nothing was written, not even the directory

    @pytest.mark.parametrize(
        "d_in, unread",
        [
            ({"kind": "synthetic_gaussian_mixture", "name": "blobs",
              "params": {"k": 3, "n": 120, "n_per_cluster": 40, "dim": 2}},
             "dataset 'blobs' (synthetic_gaussian_mixture) does not read params key n_per_cluster"),
            # alphabet_size alone marks a sequence file; no key repeats it
            ({"kind": "file", "name": "rows", "path": "rows.csv",
              "params": {"sequence": False, "alphabet_size": 4}},
             "dataset 'rows' (file) does not read params key(s) sequence; it reads alphabet_size, label_column"),
            ({"kind": "file", "name": "rows", "path": "rows.csv",
              "params": {"alphabet_size": 4, "label_column": "y"}},
             "dataset 'rows' (file) does not read params key label_column"),
        ],
    )
    def test_dataset_param_the_spec_never_reads_exits_one(self, tmp_path, capsys, monkeypatch, d_in, unread):
        # each key is read on some paths of its kind, but not on the one the spec takes
        monkeypatch.setattr(pipeline, "train_baseline", None)  # nothing may train
        body = _tiny_config().to_dict()
        body["d_in"] = d_in
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(path), "-o", str(out), "-q"]) == 1
        err = capsys.readouterr().err
        assert f"error: {unread}" in err, err
        assert not out.exists()  # nothing was written, not even the directory

    @pytest.mark.parametrize(
        "role, spec, message",
        [
            ("d_out_test", {"kind": "generator", "name": "ring",
                            "params": {"generator": "ring", "radius": 6.0, "offset": [1.0, 2.0, 3.0]}},
             "dataset 'ring' params.offset must have one entry per dimension (2), got [1.0, 2.0, 3.0]"),
            ("d_in", {"kind": "generator", "name": "walks",
                      "params": {"generator": "markov_chain", "alphabet_size": 4, "n": 90}},
             "dataset 'walks' (markov_chain) needs params key(s) length"),
            ("d_in", {"kind": "generator", "name": "walks",
                      "params": {"generator": "markov_chain", "length": 8, "n": 90}},
             "dataset 'walks' (markov_chain) needs params key(s) alphabet_size"),
            ("d_in", {"kind": "generator", "name": "walks",
                      "params": {"generator": "markov_chain", "length": 8, "alphabet_size": 4}},
             "dataset 'walks' (markov_chain) needs params key n"),
            ("d_out_test", {"kind": "generator", "name": "noise",
                            "params": {"generator": "gaussian", "value_range": [0.0]}},
             "dataset 'noise' params.value_range must have 2 entries, got [0.0]"),
            ("d_out_test", {"kind": "generator", "name": "flipped_box",
                            "params": {"generator": "uniform_box", "low": 3.0, "high": -3.0}},
             "dataset 'flipped_box' (uniform_box) params.low must not exceed params.high, got 3.0 > -3.0"),
            # numpy cannot draw from a range wider than the largest float
            ("d_out_oe", {"kind": "generator", "name": "wide_box",
                          "params": {"generator": "uniform_box", "low": -1e308, "high": 1e308}},
             "dataset 'wide_box' (uniform_box) params.low and params.high must span a finite range, "
             "got -1e+308 and 1e+308"),
            ("d_out_test", {"kind": "generator", "name": "open_box",
                            "params": {"generator": "uniform_box", "low": float("-inf")}},
             "dataset 'open_box' (uniform_box) params.low and params.high must span a finite range, got -inf and 1.0"),
            ("d_out_test", {"kind": "generator", "name": "ring",
                            "params": {"generator": "ring", "radius": 6.0, "n": -5}},
             "dataset 'ring' (ring) params.n must be positive, got -5"),
            ("d_out_test", {"kind": "generator", "name": "coins",
                            "params": {"generator": "bernoulli", "p": 1.5}},
             "dataset 'coins' (bernoulli) params.p must lie in [0, 1], got 1.5"),
            ("d_in", {"kind": "generator", "name": "noise", "params": {"generator": "gaussian", "n": 90}},
             "dataset 'noise' (gaussian) takes the experiment dimension from vector d_in rows: vector generators "
             "cannot be d_in"),
            # a decreasing range would clip every value to its low end
            ("d_out_test", {"kind": "generator", "name": "noise",
                            "params": {"generator": "gaussian", "value_range": [1.0, -1.0]}},
             "dataset 'noise' (gaussian) params.value_range must be increasing, got [1.0, -1.0]"),
            # run never builds the d_out_val sets, and still refuses one it could not build
            ("d_out_val", {"kind": "generator", "name": "noise", "params": {"generator": "perlin"}},
             "dataset 'noise': unknown generator 'perlin'"),
            ("d_out_test", {"kind": "generator", "name": "tiles", "params": {"generator": "jigsaw"}},
             "dataset 'tiles': unknown generator 'jigsaw'; the generators are bernoulli, gaussian, markov_chain, "
             "rademacher, ring, scaled_gaussian, shifted_gaussian, uniform_box"),
            # a row count is checked like every other key, whatever the role
            ("d_out_test", {"kind": "generator", "name": "ring", "params": {"generator": "ring", "n": "abc"}},
             "dataset 'ring' params.n must be an integer, got 'abc'"),
            ("d_out_test", {"kind": "generator", "name": "ring", "params": {"generator": "ring", "n": None}},
             "dataset 'ring' params.n must be an integer, got None"),
            ("d_out_oe", {"kind": "generator", "name": "box", "params": {"generator": "uniform_box", "n": [5]}},
             "dataset 'box' params.n must be an integer, got [5]"),
            ("d_in", {"kind": "synthetic_gaussian_mixture", "name": "blobs", "params": {"k": 3, "class_subset": []}},
             "dataset 'blobs' (synthetic_gaussian_mixture) params.class_subset must be nonempty classes in [0, 3), "
             "got []"),
            ("d_out_test", {"kind": "generator", "name": "walks",
                            "params": {"generator": "markov_chain", "length": 8, "alphabet_size": 4, "p_step": 1.5}},
             "dataset 'walks' (markov_chain) params.p_step and params.p_stay must be probabilities summing to <= 1, "
             "got 1.5 and 0.1"),
            # refused as the rows are built: it depends on the width
            ("d_in", {"kind": "synthetic_gaussian_mixture", "name": "blobs", "params": {"k": 3, "dim": 1}},
             "dataset 'blobs' (synthetic_gaussian_mixture): cannot place 3 clusters in 1 dimensions"),
            # a mixture's rows hold at least one of each class it draws
            ("d_in", {"kind": "synthetic_gaussian_mixture", "name": "blobs", "params": {"k": 4, "n": 3}},
             "dataset 'blobs' (synthetic_gaussian_mixture) params.n must be at least the 4 classes drawn, got 3"),
            ("d_out_val", {"kind": "synthetic_gaussian_mixture", "name": "blobs",
                           "params": {"class_subset": [0, 2], "n": 1}},
             "dataset 'blobs' (synthetic_gaussian_mixture) params.n must be at least the 2 classes drawn, got 1"),
            ("d_out_test", {"kind": "synthetic_gaussian_mixture", "name": "many", "params": {"k": 201}},
             "dataset 'many' (synthetic_gaussian_mixture): the role's default of 200 rows is below the 201 "
             "classes drawn"),
        ],
        ids=["offset_length", "markov_length", "markov_alphabet", "markov_d_in_n", "value_range_length",
             "uniform_box_low_above_high", "uniform_box_range_overflows", "uniform_box_low_infinite", "negative_n",
             "bernoulli_p", "vector_generator_d_in", "gaussian_range_decreasing", "unknown_generator_val",
             "unknown_generator_test", "test_n_string", "test_n_null", "oe_n_list", "empty_class_subset",
             "markov_p_step_test", "mixture_dim", "mixture_n_below_k", "mixture_n_below_subset_val",
             "mixture_default_n_below_k"],
    )
    def test_dataset_params_that_cannot_run_exit_one_naming_dataset_and_key(
        self, tmp_path, capsys, monkeypatch, role, spec, message
    ):
        monkeypatch.setattr(pipeline, "train_baseline", None)  # nothing may train
        body = _tiny_config().to_dict()
        body[role] = [spec] if role in ("d_out_test", "d_out_val") else spec
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "out"), "-q"]) == 1
        err = capsys.readouterr().err
        assert f"error: dataset {spec['name']!r}" in err, err
        assert f"error: {message}" in err, err

    @pytest.mark.parametrize(
        "dim, params, message",
        [
            # refused by the generator: this depends on the inlier dimension
            (1, {"generator": "ring"}, ": ring generator needs dim >= 2"),
            # refused by check_params: the spec alone decides this
            (2, {"generator": "gaussian", "value_range": [1.0, 1.0]},
             " params.value_range must be increasing, got [1.0, 1.0]"),
        ],
        ids=["ring_dim", "gaussian_range_flat"],
    )
    def test_generator_refusals_exit_one_naming_the_dataset(self, tmp_path, capsys, monkeypatch, dim, params,
                                                             message):
        monkeypatch.setattr(pipeline, "train_baseline", None)  # nothing may train
        body = _tiny_config().to_dict()
        body["d_in"]["params"].update(k=2, dim=dim)
        body["d_out_test"] = [{"kind": "generator", "name": "odd", "params": params}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "out"), "-q"]) == 1
        err = capsys.readouterr().err
        assert f"error: dataset 'odd' ({params['generator']}){message}" in err, err

    @pytest.mark.parametrize("command", ["run", "make-data"])
    def test_rows_that_overflow_exit_one_with_the_refusal_alone(self, tmp_path, capsys, monkeypatch, command):
        # a scale of 1e308 takes rows past the largest float while they are drawn
        monkeypatch.setattr(pipeline, "train_baseline", None)  # nothing may train
        body = _tiny_config().to_dict()
        body["d_out_test"] = [{"kind": "generator", "name": "far",
                               "params": {"generator": "shifted_gaussian", "mean": [0.0, 0.0], "scale": 1e308}}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        out = tmp_path / "out"
        assert cli.main([command, "-c", str(path), "-o", str(out), "-q"]) == 1
        err = capsys.readouterr().err
        assert err == "error: dataset 'far' (shifted_gaussian): features contain non-finite values\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "detector, calibration, refused",
        [
            ("msp", False, None),
            ("msp", True, r"seed [01], (baseline|final) model, calibration pool: \d+ of \d+ confidences"),
            ("uniform_ce", False,
             r"seed [01], (baseline|final) model, test set 'shifted_gaussian': \d+ of \d+ scores"),
        ],
        ids=["msp", "msp_calibration", "uniform_ce"],
    )
    def test_scores_that_overflow_are_refused_by_name_without_warnings(self, tmp_path, capsys, detector,
                                                                     calibration, refused):
        # logits of rows near 1e308 overflow in the softmax and, divided by a
        # temperature below 1, to NaN; msp's scores stay finite
        config = get_preset("preset_2d", detector=detector, seeds=(0, 1), calibration=calibration)
        config.epochs = config.finetune_epochs = 1
        next(s for s in config.d_out_test if s.name == "shifted_gaussian").params["mean"] = [1e308, 1e308]
        path = tmp_path / "cfg.json"
        save_config(config, path)
        rc = cli.main(["run", "-c", str(path), "-o", str(tmp_path / "out"), "-q"])
        err = capsys.readouterr().err
        if refused is None:
            assert (rc, err) == (0, "")
        else:
            assert rc == 1 and re.fullmatch(f"error: {refused} are not finite\n", err), err

    @pytest.mark.parametrize("role", ["d_out_oe", "d_out_test"])
    @pytest.mark.parametrize("case", ["vector_width", "sequence_alphabet"])
    def test_sets_the_nets_cannot_read_exit_one_before_training(self, tmp_path, capsys, monkeypatch, role, case):
        # a file of 3 columns beside 2-column inliers, or walks over 10
        # symbols beside a 4-symbol alphabet
        monkeypatch.setattr(pipeline, "train_baseline", None)  # nothing may train
        if case == "vector_width":
            body = _tiny_config().to_dict()
            rows = tmp_path / "wide.csv"
            datasets.write_csv(rows, datasets.Dataset(np.random.default_rng(0).normal(size=(400, 3))))
            spec = {"kind": "file", "name": "wide", "path": str(rows), "params": {}}
            message = "dataset 'wide' has 3 columns, but the nets read the 2 of d_in 'blobs'"
        else:
            body = _tiny_density_config().to_dict()
            spec = dict(body[role] if role == "d_out_oe" else body[role][0], name="wide")
            spec["params"] = dict(spec["params"], alphabet_size=10, p_step=1.0, p_stay=0.0, n=400)
            message = "dataset 'wide' has symbol 9, outside the 4-symbol alphabet of d_in 'walks'"
        body[role] = [spec] if role == "d_out_test" else spec
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(path), "-o", str(out), "-q"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "generator", "name": "coins", "params": {"generator": "bernoulli", "p": 1.5}},
             "dataset 'coins' (bernoulli) params.p must lie in [0, 1], got 1.5"),
            ({"kind": "generator", "name": "walks",
              "params": {"generator": "markov_chain", "length": 8, "alphabet_size": 4, "p_step": 1.5}},
             "dataset 'walks' (markov_chain) params.p_step and params.p_stay must be probabilities summing to <= 1, "
             "got 1.5 and 0.1"),
            ({"kind": "synthetic_gaussian_mixture", "name": "blobs_7", "params": {"k": 4, "class_subset": [7]}},
             "dataset 'blobs_7' (synthetic_gaussian_mixture) params.class_subset must be nonempty classes in [0, 4), "
             "got [7]"),
        ],
        ids=["bernoulli_p", "markov_p_step", "mixture_class_subset"],
    )
    @pytest.mark.parametrize("command", ["run", "make-data"])
    def test_validation_spec_its_generator_refuses_exits_one_in_run_as_in_make_data(
        self, tmp_path, capsys, monkeypatch, command, spec, message
    ):
        # run never builds the d_out_val sets; check_params refuses the spec for both
        monkeypatch.setattr(pipeline, "train_baseline", None)  # nothing may train
        body = _tiny_config().to_dict()
        body["d_out_val"] = [spec]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        out = tmp_path / "out"
        argv = [command, "-c", str(path), "-o", str(out), "-q"] + (["--seed", "0"] if command == "make-data" else [])
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: {message}\n" in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "reader, bad",
        [("config", "directory"), ("config", "not_utf8"),
         ("vectors_csv", "directory"), ("vectors_csv", "not_utf8"),
         ("sequences_csv", "directory"), ("sequences_csv", "not_utf8"),
         ("vectors_csv", "old_container"),
         ("predictions", "directory"), ("predictions", "not_utf8")],
    )
    def test_unreadable_input_file_exits_one_naming_it(self, tmp_path, capsys, monkeypatch, reader, bad):
        monkeypatch.setattr(pipeline, "train_baseline", None)  # nothing may train
        target = tmp_path / ("rows.bin" if bad == "old_container" else "input.csv")
        if bad == "directory":
            target.mkdir()
        elif bad == "old_container":
            # the binary 'OEWD' dataset container that vector file datasets no longer read
            rows = np.random.default_rng(0).standard_normal((6, 2))
            header = b"OEWD" + struct.pack("<IBII", 1, 1, *rows.shape)
            target.write_bytes(header + rows.astype("<f8").tobytes() + np.arange(6, dtype="<i8").tobytes())
        else:
            target.write_bytes(b"confidence,correct\n\xff\xfe,1\n")
        if reader == "config":
            argv = ["run", "-c", str(target)]
        elif reader == "predictions":
            argv = ["calibrate", str(target)]
        else:
            body = _tiny_config().to_dict()
            params = {"alphabet_size": 4} if reader == "sequences_csv" else {}
            body["d_in"] = {"kind": "file", "name": "rows", "path": str(target), "params": params}
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps(body))
            argv = ["run", "-c", str(config)]
        assert cli.main([*argv, "-o", str(tmp_path / "out"), "-q"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and str(target) in err, err

    @pytest.mark.parametrize("command", ["run", "make-data"])
    def test_negative_class_label_in_a_file_exits_one_naming_it(self, tmp_path, capsys, monkeypatch, command):
        # one -1 among 300 labels, on a row that seed 0 splits off from training
        monkeypatch.setattr(pipeline, "train_baseline", None)  # nothing may train
        spec = DatasetSpec("synthetic_gaussian_mixture", "m", {"k": 3, "n": 300, "dim": 2, "separation": 6.0})
        data = datasets.materialize(spec, n=None, seed=0)
        data.labels[5] = -1
        rows = tmp_path / "rows.csv"
        datasets.write_csv(rows, data)
        body = _tiny_config().to_dict()
        body["d_in"] = {"kind": "file", "name": "rows", "path": str(rows), "params": {}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        out = tmp_path / "out"
        argv = [command, "-c", str(path), "-o", str(out), "-q"] + (["--seed", "0"] if command == "make-data" else [])
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {rows}: class labels must not be negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["nan_feature", "symbol_past_alphabet"])
    def test_refused_file_contents_exit_one_naming_the_file(self, tmp_path, capsys, monkeypatch, case):
        monkeypatch.setattr(pipeline, "train_baseline", None)  # nothing may train
        rows = tmp_path / "rows.csv"
        if case == "nan_feature":
            body = _tiny_config().to_dict()
            rows.write_text("x0,x1,label\n" + "".join(f"{i}.0,1.0,{i % 3}\n" for i in range(119)) + "nan,1.0,0\n")
            params, message = {}, "features contain non-finite values"
        else:
            body = _tiny_density_config().to_dict()
            rows.write_text("s0,s1,s2\n" + "0,1,2\n" * 159 + "0,8,2\n")
            params, message = {"alphabet_size": 4}, "symbols must lie in [0, 4)"
        body["d_in"] = {"kind": "file", "name": "rows", "path": str(rows), "params": params}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(path), "-o", str(out), "-q"]) == 1
        assert capsys.readouterr().err == f"error: {rows}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "finetune"])
    @pytest.mark.parametrize("case", ["density_window", "classifier_width", "classifier_activation"])
    def test_a_net_of_other_widths_or_activation_is_refused(self, tmp_path, capsys, command, case):
        # the net was built for another config: density window 3 against the
        # config's 2, hidden width 16 against 8, or tanh against relu
        if case == "density_window":
            config, net = _tiny_density_config(), nn_core.init_network(density.ar_layer_dims(4, 3, (8,)), 0)
        else:
            config = _tiny_config()
            width, activation = (16, "relu") if case == "classifier_width" else (8, "tanh")
            net = nn_core.init_network([2, width, 3], seed=0, activation=activation)
        path, params = tmp_path / "cfg.json", tmp_path / "net.bin"
        save_config(config, path)
        nn_core.save_params(net, params)
        out = tmp_path / "out"
        assert cli.main([command, "-c", str(path), "-o", str(out), "-q", "--params", str(params)]) == 1
        err = capsys.readouterr().err
        assert f"{params}: the net has layer widths {net.layer_dims}" in err, err
        assert "internal error" not in err
        assert not out.exists()

    def test_refused_pair_exits_one_and_names_it(self, tmp_path, capsys):
        d = _tiny_density_config().to_dict()
        d["pipeline"] = "scratch_oe"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(path), "-o", str(out), "-q"]) == 1
        assert "'density_bpp' with pipeline 'scratch_oe'" in capsys.readouterr().err
        assert not out.exists()

    def test_internal_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        path = self._write_config(tmp_path)

        def boom(*a, **k):
            raise RuntimeError("wedged")

        monkeypatch.setattr(cli.pipeline, "run_experiment", boom)
        rc = cli.main(["run", "-c", str(path), "-o", str(tmp_path / "out"), "-q"])
        assert rc == 2
        assert "internal error" in capsys.readouterr().err

    def test_train_finetune_eval_chain(self, tmp_path, capsys):
        # a classifier and a density model each go through train, finetune
        # and eval as one .bin; eval's score file is the pool evaluate_detector
        # scores for the same model
        density_config = get_preset("preset_density", seeds=(0,))
        density_config.epochs, density_config.finetune_epochs = 2, 1
        cases = [
            ("msp", self._write_config(tmp_path), [2, 8, 3], "ring"),
            ("density_bpp", tmp_path / "density.json", [2 * (8 + 1), 32, 8], "periodic_even"),
        ]
        save_config(density_config, cases[1][1])
        for detector, path, dims, test_set in cases:
            out = tmp_path / detector
            assert cli.main(["train", "-c", str(path), "-o", str(out), "-q"]) == 0
            baseline = out / "baseline_seed0.bin"
            assert nn_core.load_params(baseline).layer_dims == dims

            rc = cli.main(["finetune", "-c", str(path), "-o", str(out), "-q", "--params", str(baseline)])
            assert rc == 0
            tuned = out / "finetuned_seed0.bin"
            assert sorted(p.name for p in out.iterdir()) == ["baseline_seed0.bin", "finetuned_seed0.bin"]

            rc = cli.main(["eval", "-c", str(path), "-o", str(out), "-q", "--params", str(tuned)])
            assert rc == 0
            payload = json.loads((out / "eval_seed0.json").read_text())
            assert 0.0 <= payload[test_set]["auroc"] <= 1.0

            config = load_config(path)
            model = nn_core.load_params(tuned)
            _, pools = _evaluate(model, config, 0)
            reference = tmp_path / f"reference_{detector}.csv"
            reference_reports.write_pool_scores(reference, pools[test_set])
            assert (out / f"scores_{test_set}_seed0.csv").read_bytes() == reference.read_bytes(), detector

    def test_eval_rejects_corrupt_params(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a model")
        rc = cli.main(["eval", "-c", str(path), "-o", str(tmp_path / "out"), "-q",
                       "--params", str(bad)])
        assert rc == 1

    def test_eval_refuses_a_set_head_flag(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        params = tmp_path / "net.bin"
        nn_core.save_params(nn_core.init_network([2, 8, 3], seed=0), params)
        blob = bytearray(params.read_bytes())
        blob[12 + 4 * 3 + 1] = 1  # the byte after the three dims and the activation code
        params.write_bytes(bytes(blob))
        rc = cli.main(["eval", "-c", str(path), "-o", str(tmp_path / "out"), "-q", "--params", str(params)])
        assert rc == 1
        assert "head flag 1" in capsys.readouterr().err

    def test_eval_and_finetune_refuse_a_net_that_is_no_density_layout(self, tmp_path, capsys):
        # input width 10 is no multiple of V + 1 = 4 for the 3 output symbols
        path = tmp_path / "cfg.json"
        save_config(_tiny_density_config(), path)
        params = tmp_path / "net.bin"
        nn_core.save_params(nn_core.init_network([10, 8, 3], seed=0), params)
        for command in ("eval", "finetune"):
            rc = cli.main([command, "-c", str(path), "-o", str(tmp_path / "out"), "-q", "--params", str(params)])
            assert rc == 1, command
            err = capsys.readouterr().err
            assert f"{params}: the net has layer widths [10, 8, 3]" in err, command

    def test_eval_ignores_a_sidecar_left_by_older_runs(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        save_config(_tiny_density_config(), path)
        params = tmp_path / "density.bin"
        nn_core.save_params(nn_core.init_network(density.ar_layer_dims(4, 2, (8,)), 0), params)
        (tmp_path / "density.bin.meta.json").write_text("not json")
        out = tmp_path / "out"
        assert cli.main(["eval", "-c", str(path), "-o", str(out), "-q", "--params", str(params)]) == 0
        assert (out / "scores_periodic_seed0.csv").exists()

    def test_missing_params_file_is_usage_error(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        missing = tmp_path / "no_such_model.bin"
        for command in ("eval", "finetune"):
            rc = cli.main([command, "-c", str(path), "-o", str(tmp_path / "out"), "-q",
                           "--params", str(missing)])
            assert rc == 1, command
            err = capsys.readouterr().err
            assert str(missing) in err and "internal error" not in err, command

    def test_diverging_run_exits_two_and_names_seed_stage_epoch(self, tmp_path, capsys):
        path = self._write_config(
            tmp_path, model=ModelSettings(hidden_dims=(8,), lr0=1e100, finetune_lr0=0.05, batch_size=32)
        )
        rc = cli.main(["run", "-c", str(path), "-o", str(tmp_path / "out"), "-q"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: training diverged: seed 0, stage train_baseline: ")
        assert err[0].endswith(" of epoch 1 of 3")

    @pytest.mark.parametrize("command", ["run", "train", "finetune", "eval", "make-data"])
    def test_negative_seed_override_exits_one_and_names_it(self, tmp_path, capsys, command):
        path = self._write_config(tmp_path)
        extra = ["--params", str(tmp_path / "unread.bin")] if command in ("finetune", "eval") else []
        out = tmp_path / "out"
        assert cli.main([command, "-c", str(path), "-o", str(out), "-q", "--seed", "-1", *extra]) == 1
        err = capsys.readouterr().err
        assert "seeds must be nonnegative, got -1" in err and "internal error" not in err

    @pytest.mark.parametrize("key, value", [("seeds", [-1]), ("lambda", float("inf"))])
    def test_config_with_a_bad_seed_or_lambda_exits_one(self, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        body = _tiny_config().to_dict()
        body[key] = value
        path.write_text(json.dumps(body))
        assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "out"), "-q"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and key in err and "internal error" not in err

    def test_run_rejects_duplicate_seeds(self, tmp_path, capsys):
        # A repeated seed would write its report files twice and count it
        # twice in the summary means.
        path = tmp_path / "cfg.json"
        body = _tiny_config(seeds=(0, 1)).to_dict()
        body["seeds"] = [0, 1, 0]
        path.write_text(json.dumps(body))
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(path), "-o", str(out), "-q"]) == 1
        assert "seeds must be distinct" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize("preset", ["preset_2d", "preset_density"])
    def test_train_and_finetune_reproduce_the_models_of_a_stacked_run(self, tmp_path, monkeypatch, preset):
        # run trains its three seeds as one stack; train and finetune train
        # one seed on its own. The saved parameter files must not differ.
        config = get_preset(preset, seeds=(0, 1, 2))
        config.epochs, config.finetune_epochs = (3, 2) if preset == "preset_2d" else (2, 1)
        path = tmp_path / "cfg.json"
        save_config(config, path)
        run_models = {}
        run_seed = pipeline.run_seed

        def recording_run_seed(config, seed, models, record, work):
            run_models[seed] = models
            return run_seed(config, seed, models, record, work)

        monkeypatch.setattr(pipeline, "run_seed", recording_run_seed)
        assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "run"), "-q"]) == 0
        assert sorted(run_models) == [0, 1, 2]

        seed, out = 1, tmp_path / "cli"
        common = ["-c", str(path), "--seed", str(seed), "-o", str(out), "-q"]
        assert cli.main(["train", *common]) == 0
        assert cli.main(["finetune", *common, "--params", str(out / f"baseline_seed{seed}.bin")]) == 0
        for name, model in zip(("baseline", "finetuned"), run_models[seed]):
            expected = tmp_path / f"run_{name}.bin"
            nn_core.save_params(model, expected)
            assert (out / f"{name}_seed{seed}.bin").read_bytes() == expected.read_bytes(), name

    @pytest.mark.parametrize("other", ["val_shift", "ring", "box"])
    def test_make_data_refuses_an_outlier_spec_name_used_twice(self, tmp_path, capsys, other):
        # refusals name a set by its spec name alone, and within a role a repeat would lose a set's file
        body = _tiny_config().to_dict()
        body["d_out_val"].append({"kind": "generator", "name": other,
                                  "params": {"generator": "gaussian", "n": 50}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        out = tmp_path / "out"
        assert cli.main(["make-data", "-c", str(path), "-o", str(out), "-q"]) == 1
        err = capsys.readouterr().err
        assert f"error: outlier spec name {other!r} is used more than once" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("role", ["d_in", "d_out_oe", "d_out_test", "d_out_val"])
    def test_a_path_on_a_spec_that_is_not_a_file_exits_one(self, tmp_path, capsys, role):
        body = _tiny_config().to_dict()
        spec = body[role][0] if isinstance(body[role], list) else body[role]
        spec["path"] = "rows.csv"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(path), "-o", str(out), "-q"]) == 1
        kind = spec["params"].get("generator", spec["kind"])
        err = capsys.readouterr().err
        assert f"error: dataset {spec['name']!r} ({kind}) does not read path; only file datasets do" in err, err
        assert not out.exists()

    def test_docs_name_every_subcommand(self):
        # the cli docstring, README's CLI block and the parser list one set of commands
        choices = next(a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        listed = re.search(r"Subcommands:(.*?)\.", cli.__doc__, re.S).group(1)
        docstring = {name.strip() for name in listed.split(",")}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"^## CLI\n\n```\n(.*?)```", readme, re.S | re.M).group(1)
        in_readme = {line.split()[1] for line in block.splitlines() if line.startswith("oewb ")}
        assert docstring == in_readme == set(choices), (docstring, in_readme, sorted(choices))

    def test_make_data(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["make-data", "-c", str(path), "-o", str(out), "-q"]) == 0
        for stem in ("din_train", "din_val", "din_test", "oe_box", "test_ring",
                     "val_val_shift"):
            assert (out / f"{stem}_seed0.csv").exists(), stem
        train = datasets.read_csv(out / "din_train_seed0.csv")
        assert train.labels is not None and train.n == 84

    def test_calibrate_subcommand(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        conf = rng.uniform(0.2, 1.0, size=400)
        correct = (rng.random(400) < conf).astype(int)
        pred = tmp_path / "preds.csv"
        with pred.open("w") as fh:
            fh.write("confidence,correct\n")
            for c, k in zip(conf, correct):
                fh.write(f"{repr(float(c))},{int(k)}\n")
        assert cli.main(["calibrate", str(pred), "-o", str(tmp_path), "-q"]) == 0
        payload = json.loads((tmp_path / "preds_calibration.json").read_text())
        assert set(payload) >= {"rms_error", "mad_error", "soft_f1", "bin_count"}
        assert payload["mad_error"] <= payload["rms_error"] + 1e-15

    def test_calibrate_reads_a_file_with_a_byte_order_mark(self, tmp_path, capsys):
        pred = tmp_path / "preds.csv"
        pred.write_text("confidence,correct\n0.25,0\n0.75,1\n", encoding="utf-8-sig")
        assert cli.main(["calibrate", str(pred), "-o", str(tmp_path), "-q"]) == 0
        assert json.loads((tmp_path / "preds_calibration.json").read_text())["bin_count"] >= 1

    def test_calibrate_rejects_missing_columns(self, tmp_path, capsys):
        pred = tmp_path / "preds.csv"
        pred.write_text("conf,ok\n0.5,1\n")
        assert cli.main(["calibrate", str(pred), "-q"]) == 1

    @pytest.mark.parametrize(
        "row,what",
        [("nan,1", "confidence"), ("inf,1", "confidence"), ("1.5,1", "confidence"),
         ("-0.1,0", "confidence"), ("0.5,2", "correct"), ("0.5,-1", "correct"),
         ("0.5,1,extra", "expected 2 fields, got 3")],
    )
    def test_calibrate_rejects_bad_rows_with_file_and_line(self, tmp_path, capsys, row, what):
        pred = tmp_path / "preds.csv"
        pred.write_text(f"confidence,correct\n0.5,1\n{row}\n")
        assert cli.main(["calibrate", str(pred), "-o", str(tmp_path), "-q"]) == 1
        err = capsys.readouterr().err
        assert f"{pred}:3:" in err and what in err
        assert not (tmp_path / "preds_calibration.json").exists()

    def test_calibrate_takes_no_seed(self, tmp_path, capsys, monkeypatch):
        # calibrate reads no config, so there is no seed to override
        with pytest.raises(SystemExit) as done:
            cli.main(["calibrate", "--help"])
        assert done.value.code == 0
        assert "--seed" not in capsys.readouterr().out
        pred = tmp_path / "preds.csv"
        pred.write_text("confidence,correct\n0.5,1\n0.9,0\n")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as done:
            cli.main(["calibrate", str(pred), "--seed", "3"])
        assert done.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["preds.csv"]

    def test_a_run_validates_its_config_at_most_twice(self, tmp_path, monkeypatch):
        # once as the JSON is read and once as run_experiment starts; the
        # stages take the validated config as it is
        calls = []
        validate = ExperimentConfig.validate

        def counted(config):
            calls.append(config.name)
            return validate(config)

        config = get_preset("preset_2d")
        config.epochs, config.finetune_epochs = 1, 1
        assert len(config.seeds) == 10
        path = tmp_path / "cfg.json"
        save_config(config, path)
        monkeypatch.setattr(ExperimentConfig, "validate", counted)
        assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "out"), "-q"]) == 0
        assert 1 <= len(calls) <= 2

    @pytest.mark.parametrize("detector", ["msp", "density_bpp"])
    def test_a_bundle_carries_the_widths_train_writes(self, tmp_path, detector):
        config = _tiny_config() if detector == "msp" else _tiny_density_config()
        path = tmp_path / "cfg.json"
        save_config(config, path)
        assert cli.main(["train", "-c", str(path), "-o", str(tmp_path), "-q"]) == 0
        net = nn_core.load_params(tmp_path / "baseline_seed0.bin")
        assert pipeline.prepare_data(config, 0).layer_dims == net.layer_dims

    def test_module_entrypoint(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "oewb", "make-data", "-c", str(cfg), "-o", str(out), "-q"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "din_train_seed0.csv").exists()

    def test_cli_import_loads_no_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys, oewb.harness.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
