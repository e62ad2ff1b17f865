"""Experiment configuration: dataset specs, model settings, validation.

Configs are flat JSON documents. The validation here is structural: the
auxiliary outlier spec must differ from every test outlier spec (the
materialized rows are additionally scanned for duplicates at run time).
The detector x pipeline pairs in REFUSED_PAIRS are rejected. Validation
outlier specs (d_out_val) are materialized for make-data and gen-outliers
and echoed in the resolved config; no stage of a run reads them, and
nothing selects hyperparameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..errors import ConfigurationError
from ..scoring import DETECTORS

PIPELINES = ("baseline_only", "finetune_oe", "scratch_oe")
DATASET_KINDS = ("file", "synthetic_gaussian_mixture", "generator")
# Detector x pipeline pairs that do not work on the presets, refused with why.
REFUSED_PAIRS = {
    ("density_bpp", "scratch_oe"): "the margin loss from random init does not learn to detect",
}


def _reject_unknown_keys(d: dict, allowed: tuple, what: str) -> None:
    # A typo'd key would otherwise fall back to its default and run anyway.
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown {what} key(s): {', '.join(unknown)}")


def _int_list(value, what: str) -> tuple:
    # A string would otherwise be split into its characters ("32" -> 3, 2).
    if not isinstance(value, (list, tuple)) or not all(type(v) is int for v in value):
        raise ConfigurationError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


@dataclass
class DatasetSpec:
    kind: str
    name: str
    params: dict = field(default_factory=dict)
    path: str | None = None

    def validate(self) -> "DatasetSpec":
        if self.kind not in DATASET_KINDS:
            raise ConfigurationError(f"unknown dataset kind {self.kind!r}")
        if not self.name:
            raise ConfigurationError("dataset spec needs a name")
        if self.kind == "file" and not self.path:
            raise ConfigurationError(f"file dataset {self.name!r} needs a path")
        if self.kind == "generator" and "generator" not in self.params:
            raise ConfigurationError(f"generator dataset {self.name!r} needs params['generator']")
        return self

    def fingerprint(self) -> str:
        body = {"kind": self.kind, "params": self.params, "path": self.path}
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        _reject_unknown_keys(d, ("kind", "name", "params", "path"), "dataset spec")
        return cls(
            kind=d.get("kind", ""),
            name=d.get("name", ""),
            params=dict(d.get("params", {})),
            path=d.get("path"),
        ).validate()


@dataclass
class ModelSettings:
    hidden_dims: tuple = (32, 32)
    activation: str = "relu"
    lr0: float = 0.1
    finetune_lr0: float = 1e-3
    batch_size: int = 64
    momentum: float = 0.9
    weight_decay: float = 5e-4
    # density-model knobs
    context_window: int = 2
    mle_weight: float = 1.0
    margin_weight: float = 1.0
    margin: float | None = None  # None -> sequence length, in nats

    def validate(self) -> "ModelSettings":
        if not self.lr0 > 0 or not self.finetune_lr0 > 0:
            raise ConfigurationError("learning rates must be positive")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be positive")
        if self.activation not in ("relu", "tanh"):
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if any(int(h) < 1 for h in self.hidden_dims):
            raise ConfigurationError("hidden_dims must be positive")
        if self.context_window < 1:
            raise ConfigurationError("context_window must be >= 1")
        if self.margin is not None and not self.margin > 0:
            raise ConfigurationError("margin must be positive when given")
        return self


@dataclass
class ExperimentConfig:
    name: str
    d_in: DatasetSpec
    d_out_test: list
    d_out_oe: DatasetSpec | None = None
    d_out_val: list = field(default_factory=list)
    detector: str = "msp"
    pipeline: str = "finetune_oe"
    lam: float = 0.5
    seeds: tuple = (0,)
    epochs: int = 30
    finetune_epochs: int = 10
    base_rate: tuple = (1, 5)
    n_level: float = 95.0
    calibration: bool = False
    model: ModelSettings = field(default_factory=ModelSettings)

    def validate(self) -> "ExperimentConfig":
        if self.detector not in DETECTORS:
            raise ConfigurationError(f"unknown detector {self.detector!r}")
        if self.pipeline not in PIPELINES:
            raise ConfigurationError(f"unknown pipeline {self.pipeline!r}")
        refused = REFUSED_PAIRS.get((self.detector, self.pipeline))
        if refused:
            raise ConfigurationError(
                f"detector {self.detector!r} with pipeline {self.pipeline!r} is not supported: {refused}"
            )
        if not (math.isfinite(self.lam) and self.lam >= 0):  # NaN and inf would fail only in training
            raise ConfigurationError(f"lambda must be finite and nonnegative, got {self.lam}")
        if len(self.seeds) == 0:
            raise ConfigurationError("seeds must be nonempty")
        negative = [s for s in self.seeds if s < 0]
        if negative:
            raise ConfigurationError(f"seeds must be nonnegative, got {negative[0]}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.epochs < 1 or self.finetune_epochs < 0:
            raise ConfigurationError("epoch counts out of range")
        if len(self.base_rate) != 2 or min(self.base_rate) < 1:
            raise ConfigurationError("base_rate must be two positive integers (out, in)")
        if not 0 < self.n_level <= 100:
            raise ConfigurationError("n_level must lie in (0, 100]")
        self.d_in.validate()
        if not self.d_out_test:
            raise ConfigurationError("at least one test outlier spec is required")
        names = [t.name for t in self.d_out_test]
        if len(set(names)) != len(names):
            raise ConfigurationError("test outlier spec names must be unique")
        for t in self.d_out_test:
            t.validate()
        for v in self.d_out_val:
            v.validate()
        needs_oe = self.pipeline in ("finetune_oe", "scratch_oe") and (
            self.lam > 0 or self.detector == "density_bpp"
        )
        if needs_oe and self.d_out_oe is None:
            raise ConfigurationError(f"pipeline {self.pipeline!r} needs an auxiliary outlier spec")
        if self.d_out_oe is not None:
            self.d_out_oe.validate()
            for t in self.d_out_test:
                if t.name == self.d_out_oe.name or t.fingerprint() == self.d_out_oe.fingerprint():
                    raise ConfigurationError(
                        f"auxiliary outlier spec must be disjoint from test spec {t.name!r}"
                    )
        if self.calibration and self.detector == "density_bpp":
            raise ConfigurationError("calibration evaluation needs a classifier detector")
        self.model.validate()
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "d_in": self.d_in.to_dict(),
            "d_out_oe": self.d_out_oe.to_dict() if self.d_out_oe else None,
            "d_out_test": [t.to_dict() for t in self.d_out_test],
            "d_out_val": [v.to_dict() for v in self.d_out_val],
            "detector": self.detector,
            "pipeline": self.pipeline,
            "lambda": self.lam,
            "seeds": list(self.seeds),
            "epochs": self.epochs,
            "finetune_epochs": self.finetune_epochs,
            "base_rate": f"{self.base_rate[0]}:{self.base_rate[1]}",
            "n_level": self.n_level,
            "calibration": self.calibration,
            "model": {
                "hidden_dims": list(self.model.hidden_dims),
                "activation": self.model.activation,
                "lr0": self.model.lr0,
                "finetune_lr0": self.model.finetune_lr0,
                "batch_size": self.model.batch_size,
                "momentum": self.model.momentum,
                "weight_decay": self.model.weight_decay,
                "context_window": self.model.context_window,
                "mle_weight": self.model.mle_weight,
                "margin_weight": self.model.margin_weight,
                "margin": self.model.margin,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _reject_unknown_keys(
            d,
            ("name", "d_in", "d_out_oe", "d_out_test", "d_out_val", "detector",
             "pipeline", "lambda", "seeds", "epochs", "finetune_epochs",
             "base_rate", "n_level", "calibration", "model"),
            "config",
        )
        _reject_unknown_keys(
            d.get("model", {}),
            ("hidden_dims", "activation", "lr0", "finetune_lr0", "batch_size",
             "momentum", "weight_decay", "context_window", "mle_weight",
             "margin_weight", "margin"),
            "model setting",
        )
        try:
            base_rate = d.get("base_rate", "1:5")
            if isinstance(base_rate, str):
                parts = base_rate.split(":")
                if len(parts) != 2:
                    raise ConfigurationError(f"bad base_rate {base_rate!r}, expected 'out:in'")
                base_rate = (int(parts[0]), int(parts[1]))
            else:
                base_rate = (int(base_rate[0]), int(base_rate[1]))
            m = d.get("model", {})
            model = ModelSettings(
                hidden_dims=_int_list(m.get("hidden_dims", (32, 32)), "hidden_dims"),
                activation=m.get("activation", "relu"),
                lr0=float(m.get("lr0", 0.1)),
                finetune_lr0=float(m.get("finetune_lr0", 1e-3)),
                batch_size=int(m.get("batch_size", 64)),
                momentum=float(m.get("momentum", 0.9)),
                weight_decay=float(m.get("weight_decay", 5e-4)),
                context_window=int(m.get("context_window", 2)),
                mle_weight=float(m.get("mle_weight", 1.0)),
                margin_weight=float(m.get("margin_weight", 1.0)),
                margin=None if m.get("margin") is None else float(m["margin"]),
            )
            cfg = cls(
                name=d.get("name", "experiment"),
                d_in=DatasetSpec.from_dict(d["d_in"]),
                d_out_oe=DatasetSpec.from_dict(d["d_out_oe"]) if d.get("d_out_oe") else None,
                d_out_test=[DatasetSpec.from_dict(t) for t in d.get("d_out_test", [])],
                d_out_val=[DatasetSpec.from_dict(v) for v in d.get("d_out_val", [])],
                detector=d.get("detector", "msp"),
                pipeline=d.get("pipeline", "finetune_oe"),
                lam=float(d.get("lambda", 0.5)),
                seeds=_int_list(d.get("seeds", (0,)), "seeds"),
                epochs=int(d.get("epochs", 30)),
                finetune_epochs=int(d.get("finetune_epochs", 10)),
                base_rate=base_rate,
                n_level=float(d.get("n_level", 95.0)),
                calibration=bool(d.get("calibration", False)),
                model=model,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad experiment config: {exc}") from exc
        return cfg.validate()


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file {p} does not exist")
    try:
        payload = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {p} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(payload)


def save_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
