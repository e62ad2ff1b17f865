"""Experiment configuration: dataset specs, model settings, validation.

The three dataclasses are the config schema. A JSON config's keys are
their fields, with lam written "lambda" and base_rate as "out:in", each
at most once per object. Each value must already have its field's
declared type: nothing is cast, and the one value accepted for another
type is an integer for a number. An absent field keeps its dataclass
default. Validation then checks ranges
and structure. Every dataset spec, in every role, must resolve through
datasets.check_params, which owns what a spec may say. The auxiliary
outlier spec must differ from every test outlier spec once both are
resolved, so a default spelled out does not make a copy pass (the
materialized rows are additionally scanned for duplicates at run time).
No two outlier specs may share a name, the experiment name must name one
directory under runs/, and the detector x pipeline pairs in REFUSED_PAIRS
are rejected. Validation outlier specs (d_out_val) are materialized by
make-data alone and echoed in the resolved config; no stage of a run
reads them, and nothing selects hyperparameters.
"""

from __future__ import annotations

import json
import math
import re
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from ..errors import ValidationError
from ..scoring import DETECTORS
from . import datasets  # which imports this module back: each reads the other's names only at call time

PIPELINES = ("baseline_only", "finetune_oe", "scratch_oe")
# Detector x pipeline pairs that do not work on the presets, refused with why.
REFUSED_PAIRS = {
    ("density_bpp", "scratch_oe"): "from random init the margin loss meets its margin at position 0 alone, "
                                    "because the auxiliary walks start on odd symbols, so it does not learn "
                                    "to detect",
}


# The one field whose JSON key differs from its name; the key is a Python keyword.
_WIRE_NAMES = {"lam": "lambda"}
_TYPE_NAMES = {bool: ("true or false", "booleans"), int: ("an integer", "integers"), float: ("a number", "numbers"),
               str: ("a string", "strings"), dict: ("a JSON object", "objects")}


def _is(value, t) -> bool:
    """Whether a JSON value has type t, uncast: a bool is no number, and an
    int is a float but a float is no int."""
    if isinstance(value, bool):
        return t is bool
    return isinstance(value, (int, float) if t is float else t)


def _type_name(hint) -> str:
    if typing.get_origin(hint) in (list, tuple):
        item = typing.get_args(hint)[0]
        return "a list of " + ("objects" if is_dataclass(item) else _TYPE_NAMES[item][1])
    return _TYPE_NAMES[hint][0]


def typed(value, hint, key: str):
    """value as a field declared `hint`, refused unless it already has that
    type; an integer for a float must be one a float can hold. key names
    the value in the error."""
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else typed(value, args[0], key)
    if is_dataclass(hint):
        return _from_json(hint, value, key)
    origin = typing.get_origin(hint)
    if origin is types.UnionType:  # X | Y: the first that fits
        for arm in args:
            try:
                return typed(value, arm, key)
            except ValidationError:
                pass
        raise ValidationError(f"{key} must be {' or '.join(map(_type_name, args))}, got {value!r}")
    if origin in (list, tuple):
        item = args[0]
        nested = is_dataclass(item)
        if not isinstance(value, (list, tuple)) or not (nested or all(_is(v, item) for v in value)):
            raise ValidationError(f"{key} must be {_type_name(hint)}, got {value!r}")
        return origin(typed(v, item, f"{key}[{i}]") for i, v in enumerate(value))
    if not _is(value, hint):
        raise ValidationError(f"{key} must be {_type_name(hint)}, got {value!r}")
    if hint is not float:
        return value
    try:
        return float(value)
    except OverflowError:  # an integer past the largest float
        raise ValidationError(f"{key} must be a number a float can hold, got an integer past 1.8e308") from None


def _from_json(cls, d, path: str = ""):
    """A cls built from the JSON object d. Its keys are the dataclass fields
    (under their wire names), each value of its field's declared type;
    absent fields keep their defaults. path names d in errors."""
    if not isinstance(d, dict):
        raise ValidationError(f"{path or 'a config'} must be a JSON object, got {d!r}")
    by_key = {_WIRE_NAMES.get(f.name, f.name): f for f in fields(cls)}
    where = f" in {path}" if path else ""
    unknown = sorted(set(d) - set(by_key))
    if unknown:
        # A typo'd key would otherwise fall back to its default and run anyway.
        label = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()
        raise ValidationError(f"unknown {label} key(s){where}: {', '.join(unknown)}")
    missing = [k for k, f in by_key.items() if k not in d and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValidationError(f"missing key(s){where}: {', '.join(missing)}")
    hints = typing.get_type_hints(cls)
    return cls(**{
        f.name: typed(d[k], hints[f.name], f"{path}.{k}" if path else k) for k, f in by_key.items() if k in d
    })


def _wire(items) -> dict:
    """asdict's dict_factory: wire names, and tuples as JSON lists."""
    return {_WIRE_NAMES.get(k, k): list(v) if isinstance(v, tuple) else v for k, v in items}


@dataclass
class DatasetSpec:
    kind: str
    name: str
    params: dict = field(default_factory=dict)
    path: str | None = None

    def validate(self) -> "DatasetSpec":
        """Refused unless datasets.check_params resolves it."""
        datasets.check_params(self)
        return self

    def recipe(self) -> tuple:
        """What the spec builds from: kind, path and resolved params, so a
        default spelled out gives the recipe that leaving it out gives."""
        return self.kind, self.path, datasets.check_params(self)


@dataclass
class ModelSettings:
    hidden_dims: tuple[int, ...] = (32, 32)
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
        # Each refusal here would otherwise surface only in training, or not at all.
        if not all(math.isfinite(r) and r > 0 for r in (self.lr0, self.finetune_lr0)):
            raise ValidationError("learning rates must be finite and positive")
        if not 0 <= self.momentum < 1:
            raise ValidationError(f"momentum must lie in [0, 1), got {self.momentum}")
        for key in ("weight_decay", "mle_weight", "margin_weight"):
            if not (math.isfinite(getattr(self, key)) and getattr(self, key) >= 0):
                raise ValidationError(f"{key} must be finite and nonnegative, got {getattr(self, key)}")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be positive")
        if self.activation not in ("relu", "tanh"):
            raise ValidationError(f"unknown activation {self.activation!r}")
        if any(h < 1 for h in self.hidden_dims):
            raise ValidationError("hidden_dims must be positive")
        if self.context_window < 1:
            raise ValidationError("context_window must be >= 1")
        if self.margin is not None and not (math.isfinite(self.margin) and self.margin > 0):
            raise ValidationError("margin must be finite and positive when given")
        return self


@dataclass(kw_only=True)
class ExperimentConfig:
    # Declared in the order to_dict writes them.
    name: str = "experiment"
    d_in: DatasetSpec
    d_out_oe: DatasetSpec | None = None
    d_out_test: list[DatasetSpec]
    d_out_val: list[DatasetSpec] = field(default_factory=list)
    detector: str = "msp"
    pipeline: str = "finetune_oe"
    lam: float = 0.5  # "lambda" in JSON
    seeds: tuple[int, ...] = (0,)
    epochs: int = 30
    finetune_epochs: int = 10
    base_rate: tuple[int, int] = (1, 5)  # "out:in" in JSON
    n_level: float = 95.0
    calibration: bool = False
    model: ModelSettings = field(default_factory=ModelSettings)

    def validate(self) -> "ExperimentConfig":
        datasets.file_name_part(self.name, "experiment name", directory=True)  # without -o: runs/<name>
        if self.detector not in DETECTORS:
            raise ValidationError(f"unknown detector {self.detector!r}")
        if self.pipeline not in PIPELINES:
            raise ValidationError(f"unknown pipeline {self.pipeline!r}")
        refused = REFUSED_PAIRS.get((self.detector, self.pipeline))
        if refused:
            raise ValidationError(
                f"detector {self.detector!r} with pipeline {self.pipeline!r} is not supported: {refused}"
            )
        if not (math.isfinite(self.lam) and self.lam >= 0):  # NaN and inf would fail only in training
            raise ValidationError(f"lambda must be finite and nonnegative, got {self.lam}")
        if len(self.seeds) == 0:
            raise ValidationError("seeds must be nonempty")
        negative = [s for s in self.seeds if s < 0]
        if negative:
            raise ValidationError(f"seeds must be nonnegative, got {negative[0]}")
        if max(self.seeds) >= 2**64:  # file names hold the seed
            raise ValidationError(f"seeds must be below 2**64, got {max(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.epochs < 1 or self.finetune_epochs < 0:
            raise ValidationError("epoch counts out of range")
        for key in ("epochs", "finetune_epochs"):  # the schedule divides by its step count as a float
            if getattr(self, key) >= 2**63:
                raise ValidationError(f"{key} must be below 2**63, got an integer of "
                                      f"{getattr(self, key).bit_length()} bits")
        if len(self.base_rate) != 2 or min(self.base_rate) < 1:
            raise ValidationError("base_rate must be two positive integers (out, in)")
        if not 0 < self.n_level <= 100:
            raise ValidationError("n_level must lie in (0, 100]")
        if not self.d_out_test:
            raise ValidationError("at least one test outlier spec is required")
        outliers = [spec for spec in (self.d_out_oe, *self.d_out_test, *self.d_out_val) if spec is not None]
        for spec in (self.d_in, *outliers):
            spec.validate()
        needs_oe = self.pipeline in ("finetune_oe", "scratch_oe") and (
            self.lam > 0 or self.detector == "density_bpp"
        )
        if needs_oe and self.d_out_oe is None:
            raise ValidationError(f"pipeline {self.pipeline!r} needs an auxiliary outlier spec")
        if self.d_out_oe is not None:
            oe_recipe = self.d_out_oe.recipe()
            for t in self.d_out_test:
                if t.recipe() == oe_recipe:
                    raise ValidationError(
                        f"auxiliary outlier spec must be disjoint from test spec {t.name!r}"
                    )
        # refusals and report files name an outlier set by its name alone
        names = [spec.name for spec in outliers]
        repeated = next((name for name in names if names.count(name) > 1), None)
        if repeated is not None:
            raise ValidationError(f"outlier spec name {repeated!r} is used more than once; names must be unique "
                                  "across d_out_oe, d_out_test and d_out_val")
        if self.calibration and self.detector == "density_bpp":
            raise ValidationError("calibration evaluation needs a classifier detector")
        self.model.validate()
        return self

    def to_dict(self) -> dict:
        d = asdict(self, dict_factory=_wire)
        d["base_rate"] = "{}:{}".format(*self.base_rate)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        rate = d.get("base_rate") if isinstance(d, dict) else None
        if isinstance(rate, str):  # the wire form "out:in"; a 2-list is type-checked as is
            parts = rate.split(":")
            if len(parts) != 2 or not all(p.isdecimal() for p in parts):
                raise ValidationError(f"bad base_rate {rate!r}, expected 'out:in'")
            d = {**d, "base_rate": [int(p) for p in parts]}
        return _from_json(cls, d).validate()


def _unique_keys(pairs) -> dict:
    """The object of a JSON file's (key, value) pairs, refusing a repeated
    key, which json would resolve silently to its last value."""
    d = {}
    for key, value in pairs:
        if key in d:
            raise ValidationError(f"key {key!r} appears more than once in one object")
        d[key] = value
    return d


def load_config(path) -> ExperimentConfig:
    """The validated config of a JSON file, which may start with a UTF-8
    byte-order mark and may not repeat a key within one object."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config file {p} does not exist")
    try:
        payload = json.loads(p.read_text(encoding="utf-8-sig"), object_pairs_hook=_unique_keys)
    except ValidationError as exc:
        raise ValidationError(f"config file {p}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {p}: {getattr(exc, 'strerror', None) or exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
        raise ValidationError(f"config file {p} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(payload)


def write_json(path, payload) -> None:
    """payload in the one JSON file form: sorted keys, indent 2, final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_config(config: ExperimentConfig, path) -> None:
    write_json(path, config.to_dict())
