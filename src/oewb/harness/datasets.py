"""Dataset materialization: synthetic inliers, outlier sources, file ingest.

Vector data moves through CSV (feature columns + optional integer label
column); discrete sequences use CSV rows of symbol columns. Every
materialized auxiliary/test outlier pair is scanned for byte-identical
rows so no test example can leak into training.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import outlier_gen
from ..errors import ConfigurationError, DataError, ValidationError
from .config import DatasetSpec, typed


@dataclass
class VectorDataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray | None = None  # (n,) int64 or None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise DataError(f"features must be a nonempty (n, d) array, got {self.features.shape}")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise DataError("labels must align with feature rows")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "VectorDataset":
        lab = None if self.labels is None else self.labels[idx]
        return VectorDataset(self.features[idx], lab)


@dataclass
class SequenceDataset:
    sequences: np.ndarray  # (n, length) int64 symbols
    alphabet_size: int

    def __post_init__(self):
        self.sequences = np.asarray(self.sequences, dtype=np.int64)
        if self.sequences.ndim != 2 or self.sequences.shape[0] == 0:
            raise DataError(f"sequences must be a nonempty (n, length) array")
        if self.sequences.min() < 0 or self.sequences.max() >= self.alphabet_size:
            raise DataError(f"symbols must lie in [0, {self.alphabet_size})")

    @property
    def n(self) -> int:
        return self.sequences.shape[0]

    @property
    def length(self) -> int:
        return self.sequences.shape[1]

    def subset(self, idx) -> "SequenceDataset":
        return SequenceDataset(self.sequences[idx], self.alphabet_size)


def _cluster_means(k: int, dim: int, separation: float) -> np.ndarray:
    """Centers for a k-class mixture with pairwise distance == separation.

    For k <= dim + 1 the centers form a regular simplex; otherwise they sit
    on a circle in the first two coordinates, where only adjacent pairs
    achieve the stated separation.
    """
    if k < 2:
        raise ConfigurationError("need at least two clusters")
    if k <= dim + 1:
        # Rows of I_k centered at the centroid span a regular simplex with
        # side sqrt(2); embed its (k-1)-dim span into the first coordinates.
        pts = np.eye(k) - 1.0 / k
        # Orthonormal basis of the span via SVD.
        _, s, vt = np.linalg.svd(pts, full_matrices=False)
        coords = pts @ vt[: k - 1].T  # (k, k-1)
        coords *= separation / np.sqrt(2.0)
        means = np.zeros((k, dim))
        means[:, : k - 1] = coords
        return means
    if dim < 2:
        raise ConfigurationError(f"cannot place {k} clusters in {dim} dimensions")
    radius = separation / (2.0 * np.sin(np.pi / k))
    angles = 2.0 * np.pi * np.arange(k) / k
    means = np.zeros((k, dim))
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    return means


def make_synthetic_din(
    k: int,
    n_per_cluster: int,
    dim: int,
    separation: float,
    seed,
    class_subset=None,
) -> VectorDataset:
    """Unit-variance Gaussian clusters, one class per cluster."""
    if n_per_cluster < 1:
        raise ConfigurationError("n_per_cluster must be positive")
    means = _cluster_means(k, dim, separation)
    classes = range(k) if class_subset is None else list(class_subset)
    rng = np.random.default_rng(seed)
    feats = []
    labels = []
    for c in classes:
        if not 0 <= c < k:
            raise ConfigurationError(f"class {c} out of range for k={k}")
        x = rng.standard_normal((n_per_cluster, dim)) + means[c]
        feats.append(x)
        labels.append(np.full(n_per_cluster, c, dtype=np.int64))
    return VectorDataset(np.concatenate(feats), np.concatenate(labels))


def make_markov_sequences(
    n: int,
    length: int,
    alphabet_size: int,
    p_step: float,
    p_stay: float,
    seed,
    starts=None,
) -> SequenceDataset:
    """Cyclic-walk sequences: advance +1 w.p. p_step, hold w.p. p_stay,
    else jump uniformly over the remaining symbols."""
    if not 0 <= p_step <= 1 or not 0 <= p_stay <= 1 or p_step + p_stay > 1:
        raise ConfigurationError("p_step and p_stay must be probabilities summing to <= 1")
    if length < 1 or n < 1:
        raise ConfigurationError("n and length must be positive")
    v = alphabet_size
    if v < 2:
        raise ConfigurationError("alphabet_size must be at least 2")
    if v == 2 and p_step + p_stay < 1:
        raise ConfigurationError("binary alphabet leaves no symbols to jump to")
    rng = np.random.default_rng(seed)
    start_pool = np.arange(v) if starts is None else np.asarray(sorted(starts), dtype=np.int64)
    if start_pool.size == 0 or start_pool.min() < 0 or start_pool.max() >= v:
        raise ConfigurationError("starts must be nonempty symbols in range")
    seqs = np.zeros((n, length), dtype=np.int64)
    cur = start_pool[rng.integers(0, start_pool.size, size=n)]
    seqs[:, 0] = cur
    for t in range(1, length):
        u = rng.random(n)
        nxt = np.where(
            u < p_step,
            (cur + 1) % v,
            np.where(u < p_step + p_stay, cur, -1),
        )
        jump = nxt < 0
        if np.any(jump):
            # Uniform over symbols other than cur and cur+1.
            offs = rng.integers(0, max(v - 2, 1), size=int(jump.sum()))
            nxt[jump] = (cur[jump] + 2 + offs) % v
        cur = nxt
        seqs[:, t] = cur
    return SequenceDataset(seqs, v)


# ---------------------------------------------------------------------------
# File formats


def write_vectors_csv(path, data: VectorDataset) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    cols = [f"x{i}" for i in range(data.dim)]
    if data.labels is not None:
        cols.append("label")
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(cols)
        for i in range(data.n):
            row = [repr(float(v)) for v in data.features[i]]
            if data.labels is not None:
                row.append(str(int(data.labels[i])))
            w.writerow(row)


def read_csv_rows(path, what: str):
    """(line number, cells) of a CSV file: the header, then every nonblank
    row, each refused unless it is as wide as the header. Every refusal,
    a file that cannot be read or decoded included, is a DataError naming
    the file; what names the kind of file."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"{what} {p} does not exist")
    try:
        with open(p, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{p}: empty {what}")
            yield 1, header
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{p}:{lineno}: expected {len(header)} fields, got {len(row)}")
                yield lineno, row
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {what} {p}: {getattr(exc, 'strerror', None) or exc}") from exc


def read_vectors_csv(path, label_column: str | None = "label") -> VectorDataset:
    p = Path(path)
    rows = read_csv_rows(p, "dataset file")
    header = [h.strip() for h in next(rows)[1]]
    label_idx = None
    if label_column is not None and label_column in header:
        label_idx = header.index(label_column)
    feat_idx = [i for i in range(len(header)) if i != label_idx]
    if not feat_idx:
        raise DataError(f"{p}: no feature columns")
    feats = []
    labels = []
    for lineno, row in rows:
        try:
            feats.append([float(row[i]) for i in feat_idx])
            if label_idx is not None:
                labels.append(int(row[label_idx]))
        except ValueError as exc:
            raise DataError(f"{p}:{lineno}: {exc}") from exc
    if not feats:
        raise DataError(f"{p}: dataset has a header but no rows")
    lab = np.asarray(labels, dtype=np.int64) if label_idx is not None else None
    return VectorDataset(np.asarray(feats, dtype=np.float64), lab)


def write_sequences_csv(path, data: SequenceDataset) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([f"s{i}" for i in range(data.length)])
        for row in data.sequences:
            w.writerow([str(int(v)) for v in row])


def read_sequences_csv(path, alphabet_size: int) -> SequenceDataset:
    p = Path(path)
    rows = read_csv_rows(p, "dataset file")
    next(rows)
    seqs = []
    for lineno, row in rows:
        try:
            seqs.append([int(v) for v in row])
        except ValueError as exc:
            raise DataError(f"{p}:{lineno}: {exc}") from exc
    if not seqs:
        raise DataError(f"{p}: dataset has a header but no rows")
    return SequenceDataset(np.asarray(seqs, dtype=np.int64), alphabet_size)


# ---------------------------------------------------------------------------
# Generator registry


# The params keys each dataset kind, or each generator, reads, and the type
# each value must already have (as for config fields: nothing is cast, and
# an integer is accepted as a number). A generator of vector rows also reads
# the _VECTOR_ROWS keys.
_PARAM_TYPES = {
    "file": {"sequence": bool, "alphabet_size": int, "label_column": str | None},
    "synthetic_gaussian_mixture": {"n": int, "k": int, "n_per_cluster": int, "dim": int, "separation": float,
                                   "class_subset": list[int]},
    "markov_chain": {"generator": str, "n": int, "length": int, "alphabet_size": int, "p_step": float,
                     "p_stay": float, "starts": list[int]},
}
_VECTOR_ROWS = {"generator": str, "n": int, "scale": float, "offset": float | list[float]}
_GRID = {"shape": list[int], "value_range": list[float]}
_VECTOR_GENERATOR_TYPES = {
    "uniform": _GRID, "blobs": _GRID, "jigsaw": _GRID, "rgb_ghost": _GRID,
    "invert": {**_GRID, "channel_mask": list[bool]},
    "gaussian": {"value_range": list[float]}, "geometric_mean": {"value_range": list[float]},
    "speckle": {"intensity": float, "value_range": list[float]},
    "rademacher": {}, "arithmetic_mean": {}, "bernoulli": {"p": float}, "uniform_box": {"low": float, "high": float},
    "ring": {"radius": float, "width": float}, "shifted_gaussian": {"mean": list[float]},
    "scaled_gaussian": {"sigma": float},
}
# Keys a kind cannot run without, and list-valued keys of a fixed length.
_REQUIRED = {"markov_chain": ("length", "alphabet_size"),
             **{g: ("shape",) for g, keys in _VECTOR_GENERATOR_TYPES.items() if "shape" in keys}}
_LENGTHS = {"shape": 3, "value_range": 2}


def _unread_on_this_path(kind: str, params: dict) -> str | None:
    """A key the kind reads on some paths but not on the one params select."""
    if kind == "synthetic_gaussian_mixture" and "n" in params and "n_per_cluster" in params:
        return "n_per_cluster, since n sets the row count"
    if kind == "file" and params.get("sequence") and "label_column" in params:
        return "label_column, since sequence files have no labels"
    if kind == "file" and not params.get("sequence") and "alphabet_size" in params:
        return "alphabet_size, which only sequence files read"
    return None


def _out_of_range(kind: str, params: dict) -> str | None:
    """A well-typed params value that the kind cannot run with, as the key
    and what is wrong with it. check_params has refused the keys the kind
    does not read and made shape and value_range the right length. The
    shape and value_range faults are the generators' own (outlier_gen
    words them), asked of the spec alone; those that depend on the inlier
    dimension stay with materialize_generator."""
    if params.get("n", 1) < 1:
        return f"n must be positive, got {params['n']!r}"
    shape, value_range = params.get("shape"), params.get("value_range")
    fault = (shape is not None and outlier_gen.shape_fault(kind, shape)) or (
        value_range is not None and outlier_gen.range_fault(kind, value_range, grid=shape is not None))
    if fault:
        return fault
    if not 0 <= params.get("p", 0.5) <= 1:
        return f"p must lie in [0, 1], got {params['p']!r}"
    if not params.get("intensity", 0.0) >= 0:
        return f"intensity must be nonnegative, got {params['intensity']!r}"
    if "channel_mask" in params and len(params["channel_mask"]) != params["shape"][2]:
        return f"channel_mask must hold one flag per channel ({params['shape'][2]}), got {params['channel_mask']!r}"
    if kind == "uniform_box" and not params.get("low", -1.0) <= params.get("high", 1.0):
        return f"low must not exceed params.high, got {params.get('low', -1.0)!r} > {params.get('high', 1.0)!r}"
    return None


def check_params(spec: DatasetSpec) -> None:
    """Refuse params keys that nothing reads for this spec, so a misspelled
    or contradictory setting fails instead of running at its default, and
    values of the wrong type, so nothing is silently cast."""
    kind = spec.params.get("generator") if spec.kind == "generator" else spec.kind
    # an unknown generator passes here; materialize_generator refuses it
    expected = _PARAM_TYPES.get(kind) or {**_VECTOR_ROWS, **_VECTOR_GENERATOR_TYPES.get(kind, {})}
    unknown = sorted(set(spec.params) - set(expected))
    if unknown:
        raise ConfigurationError(f"dataset {spec.name!r} ({kind}) does not read params key(s) "
                                 f"{', '.join(unknown)}; it reads {', '.join(sorted(expected))}")
    for key, value in spec.params.items():
        typed(value, expected[key], f"dataset {spec.name!r} params.{key}")
        if key in _LENGTHS and len(value) != _LENGTHS[key]:
            raise ConfigurationError(f"dataset {spec.name!r} params.{key} must have {_LENGTHS[key]} entries, "
                                     f"got {value!r}")
    missing = [key for key in _REQUIRED.get(kind, ()) if key not in spec.params]
    if missing:
        raise ConfigurationError(f"dataset {spec.name!r} ({kind}) needs params key(s) {', '.join(missing)}")
    unread = _unread_on_this_path(kind, spec.params)
    if unread:
        raise ConfigurationError(f"dataset {spec.name!r} ({kind}) does not read params key {unread}")
    bad = _out_of_range(kind, spec.params)
    if bad:
        raise ConfigurationError(f"dataset {spec.name!r} ({kind}) params.{bad}")
    if kind == "file" and spec.params.get("sequence") and "alphabet_size" not in spec.params:
        raise ConfigurationError(f"dataset {spec.name!r} (file) reads sequences only with params.alphabet_size")


def _grid_shape(params: dict) -> outlier_gen.GridShape:
    """check_params has made shape [h, w, c] and value_range [low, high]."""
    h, w, c = params["shape"]
    lo, hi = params.get("value_range", (0.0, 1.0))
    return outlier_gen.GridShape(h, w, c, (float(lo), float(hi)))


def _post_transform(rows: np.ndarray, params: dict) -> np.ndarray:
    scale = float(params.get("scale", 1.0))
    offset = np.asarray(params.get("offset", 0.0), dtype=np.float64)
    return rows * scale + offset


def materialize_generator(params: dict, n: int, dim: int, seed, din: VectorDataset | None):
    """Dispatch on params['generator']. Corruptors draw their source rows
    from the in-distribution data, so din must be present for them."""
    kind = params.get("generator")
    if kind == "uniform":
        rows = outlier_gen.gen_uniform_noise(n, _grid_shape(params), seed)
    elif kind == "gaussian":
        vr = params.get("value_range")
        vr = None if vr is None else (float(vr[0]), float(vr[1]))
        rows = outlier_gen.gen_gaussian(n, dim, seed, value_range=vr)
    elif kind == "rademacher":
        rows = outlier_gen.gen_rademacher(n, dim, seed)
    elif kind == "bernoulli":
        rows = outlier_gen.gen_bernoulli(n, dim, float(params.get("p", 0.5)), seed)
    elif kind == "blobs":
        rows = outlier_gen.gen_blobs(n, _grid_shape(params), seed)
    elif kind == "uniform_box":
        lo, hi = params.get("low", -1.0), params.get("high", 1.0)
        rng = np.random.default_rng(seed)
        rows = rng.uniform(float(lo), float(hi), size=(n, dim))
    elif kind == "ring":
        radius = float(params.get("radius", 1.0))
        width = float(params.get("width", 0.1))
        if dim < 2:
            raise ConfigurationError("ring generator needs dim >= 2")
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        r = radius + width * rng.standard_normal(n)
        rows = np.zeros((n, dim))
        rows[:, 0] = r * np.cos(theta)
        rows[:, 1] = r * np.sin(theta)
        if dim > 2:
            rows[:, 2:] = rng.standard_normal((n, dim - 2))
    elif kind == "shifted_gaussian":
        mean = np.asarray(params.get("mean", [0.0] * dim), dtype=np.float64)
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n, dim)) + mean
    elif kind == "scaled_gaussian":
        sigma = float(params.get("sigma", 1.0))
        rng = np.random.default_rng(seed)
        rows = sigma * rng.standard_normal((n, dim))
    elif kind in (
        "arithmetic_mean",
        "geometric_mean",
        "jigsaw",
        "speckle",
        "rgb_ghost",
        "invert",
    ):
        if din is None:
            raise ConfigurationError(f"corruptor {kind!r} needs in-distribution source rows")
        rng = np.random.default_rng(seed)
        take = rng.choice(din.n, size=min(n, din.n), replace=False)
        src = din.features[np.sort(take)]
        if kind == "arithmetic_mean":
            rows = outlier_gen.corrupt_arithmetic_mean(src, seed=seed, n=min(n, src.shape[0]))
        elif kind == "geometric_mean":
            vr = tuple(params.get("value_range", (0.0, 1.0)))
            rows = outlier_gen.corrupt_geometric_mean(
                src, seed=seed, value_range=vr, n=min(n, src.shape[0])
            )
        elif kind == "jigsaw":
            rows = outlier_gen.corrupt_jigsaw(src, _grid_shape(params), seed=seed)
        elif kind == "speckle":
            vr = tuple(params.get("value_range", (0.0, 1.0)))
            rows = outlier_gen.corrupt_speckle(
                src, intensity=float(params.get("intensity", 0.2)), seed=seed, value_range=vr
            )
        elif kind == "rgb_ghost":
            rows = outlier_gen.corrupt_rgb_ghost(src, _grid_shape(params), seed=seed)
        else:
            shape = _grid_shape(params)
            mask = params.get("channel_mask", [True] * shape.channels)
            rows = outlier_gen.corrupt_invert(src, shape, channel_mask=mask)
    else:
        raise ConfigurationError(f"unknown generator {kind!r}")
    if rows.shape[1] != dim:
        raise ConfigurationError(
            f"generator {kind!r} produced dim {rows.shape[1]}, experiment needs {dim}"
        )
    return VectorDataset(_post_transform(rows, params))


def materialize(
    spec: DatasetSpec,
    n: int,
    seed,
    dim: int | None = None,
    din: VectorDataset | None = None,
):
    """Produce the rows a spec describes. Synthetic inliers carry labels;
    everything else is unlabeled. Sequence specs return SequenceDataset."""
    spec.validate()
    check_params(spec)
    if spec.kind == "file":
        if spec.params.get("sequence"):
            return read_sequences_csv(spec.path, int(spec.params["alphabet_size"]))
        return read_vectors_csv(spec.path, label_column=spec.params.get("label_column", "label"))
    if spec.kind == "synthetic_gaussian_mixture":
        p = spec.params
        k = int(p.get("k", 4))
        npc = n // k if n is not None else int(p.get("n_per_cluster", 200))
        return make_synthetic_din(
            k=k,
            n_per_cluster=max(npc, 1),
            dim=int(p.get("dim", dim or 2)),
            separation=float(p.get("separation", 4.0)),
            seed=seed,
            class_subset=p.get("class_subset"),
        )
    # generator
    p = spec.params
    if p.get("generator") == "markov_chain":
        if n is None:
            raise ConfigurationError(
                f"dataset {spec.name!r} (markov_chain) needs params key n: nothing else sets its row count"
            )
        return make_markov_sequences(
            n=n,
            length=int(p["length"]),
            alphabet_size=int(p["alphabet_size"]),
            p_step=float(p.get("p_step", 0.8)),
            p_stay=float(p.get("p_stay", 0.1)),
            seed=seed,
            starts=p.get("starts"),
        )
    if dim is None:
        raise ConfigurationError(f"dataset {spec.name!r} ({p.get('generator')}) takes the experiment dimension "
                                 "from vector d_in rows: vector generators cannot be d_in, nor outlier sets of "
                                 "sequence data")
    for key in ("offset", "mean"):
        if isinstance(p.get(key), list) and len(p[key]) != dim:
            raise ConfigurationError(f"dataset {spec.name!r} params.{key} must have one entry per "
                                     f"dimension ({dim}), got {p[key]!r}")
    try:
        return materialize_generator(p, n, dim, seed, din)
    except ValidationError as exc:
        raise type(exc)(f"dataset {spec.name!r} ({p['generator']}): {exc}") from exc


def _rows(data) -> np.ndarray:
    return np.ascontiguousarray(data.sequences if isinstance(data, SequenceDataset) else data.features)


def check_disjoint(oe_data, test_data, oe_name: str, test_name: str) -> None:
    """Refuse to run when any auxiliary training row also appears in a test
    outlier set; shared rows would let test information leak into tuning.

    Rows count as shared when their bytes are equal, so 0.0 and -0.0 differ.
    Byte-equal rows have byte-equal first columns, so only rows whose first
    column's bytes (as int64) occur more than once among both sets' first
    columns are compared whole; usually there are none."""
    a, b = _rows(oe_data), _rows(test_data)
    key_a, key_b = a[:, 0].view(np.int64), b[:, 0].view(np.int64)
    keys = np.sort(np.concatenate((key_a, key_b)))
    repeated = keys[1:][keys[1:] == keys[:-1]]
    a, b = a[np.isin(key_a, repeated)], b[np.isin(key_b, repeated)]
    shared = {row.tobytes() for row in a} & {row.tobytes() for row in b}
    if shared:
        raise ConfigurationError(
            f"auxiliary outlier set {oe_name!r} shares {len(shared)} row(s) "
            f"with test outlier set {test_name!r}; the two must be disjoint"
        )
