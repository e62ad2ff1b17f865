"""Datasets: what a spec means, its rows, and their CSV form.

Each dataset kind, and each generator, is one entry of _KINDS: the params
keys it reads, each with its type and its default (NEEDED for a key that
a spec must set), and, for every kind but file, the function that builds
its dataset. Every generator lives in that table: the noise sources
(gaussian, rademacher, bernoulli), the geometric ones (uniform_box, ring,
shifted_gaussian, scaled_gaussian) and markov_chain walks, beside the
synthetic_gaussian_mixture inliers. check_params refuses a spec whose
kind, name, path or params do not fit its entry or that its kind cannot
run with, and resolves the rest, filling in the defaults; config
validation calls it for every spec in every role, and materialize builds
from those resolved values alone, with params.n as the row count when it
is set. So this module alone knows what a spec may say, and its row
count, ranges and rows. Every dataset is one Dataset, of symbol rows
when it has an alphabet_size and of feature rows otherwise, and one CSV
form (write_csv, read_csv) holds either. Every materialized auxiliary/test outlier pair is scanned for
byte-identical rows so no test example can leak into training.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ValidationError
from . import config


@dataclass
class Dataset:
    """A dataset's rows. With alphabet_size set, rows holds (n, length)
    int64 symbols in [0, alphabet_size) and there are no labels; otherwise
    (n, d) finite float64 features, with optional (n,) int64 class labels,
    none negative."""

    rows: np.ndarray
    labels: np.ndarray | None = None
    alphabet_size: int | None = None

    def __post_init__(self):
        sequences = self.alphabet_size is not None
        self.rows = np.asarray(self.rows, dtype=np.int64 if sequences else np.float64)
        if self.rows.ndim != 2 or self.rows.shape[0] == 0:
            raise ValidationError(f"rows must form a nonempty 2-d array, got shape {self.rows.shape}")
        if sequences and (self.rows.min() < 0 or self.rows.max() >= self.alphabet_size):
            raise ValidationError(f"symbols must lie in [0, {self.alphabet_size})")
        if not sequences and not np.all(np.isfinite(self.rows)):
            raise ValidationError("features contain non-finite values")
        if self.labels is not None:
            if sequences:
                raise ValidationError("sequences carry no labels")
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.rows.shape[0],):
                raise ValidationError("labels must align with feature rows")
            if self.labels.min() < 0:
                raise ValidationError(f"class labels must not be negative, got {self.labels.min()}")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int | None:
        """The feature width; None for sequences, which give vector
        generators no dimension to draw in."""
        return None if self.alphabet_size is not None else self.rows.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.rows[idx], None if self.labels is None else self.labels[idx], self.alphabet_size)


def _cluster_means(k: int, dim: int, separation: float) -> np.ndarray:
    """Centers for a k-class mixture with pairwise distance == separation.

    For k <= dim + 1 the centers form a regular simplex; otherwise they sit
    on a circle in the first two coordinates, where only adjacent pairs
    achieve the stated separation.
    """
    if k <= dim + 1:
        # The rows of I_k form a regular simplex with side sqrt(2). Their
        # coordinates in the Helmert basis of the plane orthogonal to the
        # ones vector keep every distance: column j-1 is 1/sqrt(j(j+1)) on
        # rows i < j and -j/sqrt(j(j+1)) on row j. The closed form keeps
        # the centres' bits off the BLAS kernel, which a LAPACK basis
        # would not.
        j = np.arange(1, k)
        norm = np.sqrt(j * (j + 1.0))
        i = np.arange(k)[:, None]
        means = np.zeros((k, dim))
        means[:, : k - 1] = np.where(i < j, 1.0, np.where(i == j, -j, 0.0)) / norm
        means *= separation / np.sqrt(2.0)
        return means
    if dim < 2:
        raise ValidationError(f"cannot place {k} clusters in {dim} dimensions")
    radius = separation / (2.0 * np.sin(np.pi / k))
    angles = 2.0 * np.pi * np.arange(k) / k
    means = np.zeros((k, dim))
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    return means


# ---------------------------------------------------------------------------
# File formats


def write_csv(path, data: Dataset) -> None:
    """A dataset as the CSV read_csv reads back bit for bit: x0, x1, ...
    feature columns and, when labeled, a label column; or s0, s1, ...
    symbol columns."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    labels = data.labels
    prefix, cell = ("x", repr) if data.alphabet_size is None else ("s", str)
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([f"{prefix}{i}" for i in range(data.rows.shape[1])] + ([] if labels is None else ["label"]))
        for i, row in enumerate(data.rows.tolist()):
            w.writerow([cell(v) for v in row] + ([] if labels is None else [str(int(labels[i]))]))


def read_csv_rows(path, what: str):
    """(line number, cells) of a CSV file: the header, then every nonblank
    row, each refused unless it is as wide as the header. Every refusal,
    a file that cannot be read or decoded included, is a ValidationError
    naming the file; what names the kind of file."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"{what} {p} does not exist")
    try:
        with open(p, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{p}: empty {what}")
            yield 1, header
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValidationError(f"{p}:{lineno}: expected {len(header)} fields, got {len(row)}")
                yield lineno, row
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read {what} {p}: {getattr(exc, 'strerror', None) or exc}") from exc


def read_csv(path, label_column: str | None = "label", alphabet_size: int | None = None) -> Dataset:
    """The Dataset of a CSV file. With alphabet_size, every column holds
    symbols; otherwise every column but label_column, when the header
    names it, holds features, and that one integer labels. Every refusal
    names the file."""
    p = Path(path)
    rows = read_csv_rows(p, "dataset file")
    header = [h.strip() for h in next(rows)[1]]
    label_idx = header.index(label_column) if alphabet_size is None and label_column in header else None
    columns = [i for i in range(len(header)) if i != label_idx]
    if not columns:
        raise ValidationError(f"{p}: no feature columns")
    cell = float if alphabet_size is None else int
    values, labels = [], []
    for lineno, row in rows:
        try:
            values.append([cell(row[i]) for i in columns])
            if label_idx is not None:
                labels.append(int(row[label_idx]))
        except ValueError as exc:
            raise ValidationError(f"{p}:{lineno}: {exc}") from exc
    if not values:
        raise ValidationError(f"{p}: dataset has a header but no rows")
    try:
        return Dataset(values, None if label_idx is None else labels, alphabet_size)
    except ValidationError as exc:
        raise ValidationError(f"{p}: {exc}") from exc
    except OverflowError:  # a symbol or label past int64
        why = f"symbols must lie in [0, {alphabet_size})" if alphabet_size else "class labels must lie in [0, 2**63)"
        raise ValidationError(f"{p}: {why}") from None


# ---------------------------------------------------------------------------
# Kinds and generators


NEEDED = object()  # the default of a params key that every spec must set
NUMPY_LIMIT = 2**63  # numpy refuses an array dimension, or an array's size in bytes, this large or larger


def check_size(what: str, values: int) -> None:
    """Refuse, before it is built, the array of values 8-byte entries (what) if it needs 2**63 bytes or more."""
    if values * 8 >= NUMPY_LIMIT:
        raise ValidationError(f"{what} need {values * 8} bytes, and no array holds 2**63 or more")


@dataclass(frozen=True)
class Kind:
    """One dataset kind, or one generator: the params it reads and how it
    builds its dataset.

    params maps each key to (type, default). A value must already have its
    key's type, as for config fields: nothing is cast, and an integer is
    accepted as a number. A key whose default is NEEDED must be set. Every
    kind but file builds its dataset as build(p, n, dim, seed): p is the
    params as check_params resolves them, n the row count (None only for a
    mixture, which then draws n_per_cluster rows per class) and dim the
    experiment dimension (None without vector inliers)."""

    params: dict
    build: Callable | None = None


def _vector(rows, **params) -> Kind:
    """A generator of vector rows, drawn by rows(p, n, dim, seed). Each also
    reads its row count n, and scale and offset, applied to its rows last."""
    shared = {"generator": (str, NEEDED), "n": (int, None), "scale": (float, 1.0),
              "offset": (float | list[float], 0.0)}
    return Kind({**shared, **params}, lambda p, n, dim, seed: Dataset(
        rows(p, n, dim, seed) * p["scale"] + np.asarray(p["offset"], dtype=np.float64)))


def _gaussian(p: dict, n: int, dim: int, seed) -> np.ndarray:
    """i.i.d. standard normal rows, clipped to p's value_range when it has one."""
    rows = np.random.default_rng(seed).standard_normal((n, dim))
    value_range = p.get("value_range")
    return rows if value_range is None else np.clip(rows, value_range[0], value_range[1])


def _ring(p: dict, n: int, dim: int, seed) -> np.ndarray:
    """Points at angles uniform on the circle of p's radius in the first
    two coordinates, the radius jittered by p's width times a standard
    normal; standard normal in the others."""
    if dim < 2:
        raise ValidationError("ring generator needs dim >= 2")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    r = p["radius"] + p["width"] * rng.standard_normal(n)
    rows = np.zeros((n, dim))
    rows[:, 0] = r * np.cos(theta)
    rows[:, 1] = r * np.sin(theta)
    rows[:, 2:] = rng.standard_normal((n, dim - 2))
    return rows


def _mixture(p: dict, n: int | None, dim: int | None, seed) -> Dataset:
    """Unit-variance Gaussian clusters, one class per cluster, for the
    classes drawn (all k, or p's class_subset): n rows split as evenly as
    they go, the first n mod (classes drawn) classes taking one more, or
    without n p's n_per_cluster rows of each."""
    classes = range(p["k"]) if p["class_subset"] is None else list(p["class_subset"])
    dim = (dim or 2) if p["dim"] is None else p["dim"]
    check_size(f"{p['k']} cluster means of {dim} values (params.k, params.dim)", p["k"] * dim)
    rows = len(classes) * p["n_per_cluster"] if n is None else n
    check_size(f"{rows} rows of {dim} values (params.{'n_per_cluster' if n is None else 'n'}, params.dim)", rows * dim)
    if n is None:
        counts = [p["n_per_cluster"]] * len(classes)
    elif n < len(classes):
        raise ValidationError(f"the role's default of {n} rows is below the {len(classes)} classes drawn")
    else:
        counts = [n // len(classes) + (i < n % len(classes)) for i in range(len(classes))]
    means = _cluster_means(p["k"], dim, p["separation"])
    rng = np.random.default_rng(seed)
    feats = []
    labels = []
    for c, count in zip(classes, counts):
        x = rng.standard_normal((count, dim)) + means[c]
        feats.append(x)
        labels.append(np.full(count, c, dtype=np.int64))
    return Dataset(np.concatenate(feats), np.concatenate(labels))


def _markov(p: dict, n: int, dim, seed) -> Dataset:
    """Cyclic walks from a symbol of p's starts (any symbol without them):
    advance +1 w.p. p_step, hold w.p. p_stay, else jump uniformly over the
    remaining symbols."""
    p_step, p_stay, v = p["p_step"], p["p_stay"], p["alphabet_size"]
    check_size(f"{n} walks of {p['length']} symbols (params.n, params.length)", n * p["length"])
    rng = np.random.default_rng(seed)
    pool = None if p["starts"] is None else np.asarray(sorted(p["starts"]), dtype=np.int64)
    seqs = np.zeros((n, p["length"]), dtype=np.int64)
    cur = rng.integers(0, v, size=n) if pool is None else pool[rng.integers(0, pool.size, size=n)]
    seqs[:, 0] = cur
    for t in range(1, p["length"]):
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
    return Dataset(seqs, alphabet_size=v)


_KINDS = {
    # alphabet_size None: feature rows; set, symbol rows without labels
    "file": Kind({"alphabet_size": (int, None), "label_column": (str | None, "label")}),
    # dim None: the experiment's dimension, or 2 without one
    "synthetic_gaussian_mixture": Kind({"n": (int, None), "k": (int, 4), "n_per_cluster": (int, 200),
                                        "dim": (int, None), "separation": (float, 4.0),
                                        "class_subset": (list[int], None)}, _mixture),
    "markov_chain": Kind({"generator": (str, NEEDED), "n": (int, None), "length": (int, NEEDED),
                          "alphabet_size": (int, NEEDED), "p_step": (float, 0.8), "p_stay": (float, 0.1),
                          "starts": (list[int], None)}, _markov),
    # value_range None: unclipped
    "gaussian": _vector(_gaussian, value_range=(list[float], None)),
    # entries -1 or +1 with equal probability
    "rademacher": _vector(lambda p, n, dim, seed:
                          np.random.default_rng(seed).integers(0, 2, size=(n, dim)).astype(np.float64) * 2.0 - 1.0),
    # entries 1 with probability p, else 0
    "bernoulli": _vector(lambda p, n, dim, seed:
                         (np.random.default_rng(seed).random((n, dim)) < p["p"]).astype(np.float64), p=(float, 0.5)),
    "uniform_box": _vector(lambda p, n, dim, seed: np.random.default_rng(seed).uniform(p["low"], p["high"], (n, dim)),
                           low=(float, -1.0), high=(float, 1.0)),
    "ring": _vector(_ring, radius=(float, 1.0), width=(float, 0.1)),
    "shifted_gaussian": _vector(lambda p, n, dim, seed: _gaussian(p, n, dim, seed) + p["mean"],
                                mean=(list[float], 0.0)),
    "scaled_gaussian": _vector(lambda p, n, dim, seed: p["sigma"] * _gaussian(p, n, dim, seed),
                               sigma=(float, 1.0)),
}
_GENERATORS = sorted(name for name, kind in _KINDS.items() if "generator" in kind.params)
# list-valued keys of a fixed length
_LENGTHS = {"value_range": 2}


def _unread_on_this_path(kind: str, params: dict) -> str | None:
    """A key the kind reads on some paths but not on the one params select."""
    if kind == "synthetic_gaussian_mixture" and "n" in params and "n_per_cluster" in params:
        return "n_per_cluster, since n sets the row count"
    if kind == "file" and "alphabet_size" in params and "label_column" in params:
        return "label_column, since sequence files have no labels"
    return None


def _out_of_range(kind: str, p: dict) -> str | None:
    """A well-typed value of the resolved params p that the kind cannot run
    with, as the key and what is wrong with it. check_params has made
    value_range the right length. The faults that depend on the inlier
    dimension are raised as rows are built."""
    big = next((key for key, value in p.items() if type(value) is int and value >= NUMPY_LIMIT), None)
    if big is not None:
        return f"{big} must be below 2**63, got {p[big]!r}"
    n, value_range = p.get("n"), p.get("value_range")
    if n is not None and n < 1:
        return f"n must be positive, got {n!r}"
    # a range that is not increasing would clip every value to one number
    if value_range is not None and not value_range[0] < value_range[1]:
        return f"value_range must be increasing, got {value_range!r}"
    if "p" in p and not 0 <= p["p"] <= 1:
        return f"p must lie in [0, 1], got {p['p']!r}"
    if kind == "uniform_box" and not p["low"] <= p["high"]:
        return f"low must not exceed params.high, got {p['low']!r} > {p['high']!r}"
    # numpy draws from low + (high - low) * u, so the width must be a finite float
    if kind == "uniform_box" and not np.isfinite(p["high"] - p["low"]):
        return f"low and params.high must span a finite range, got {p['low']!r} and {p['high']!r}"
    if kind == "synthetic_gaussian_mixture":
        k, subset = p["k"], p["class_subset"]
        if k < 2:
            return f"k must be at least 2, got {k!r}"
        if p["n_per_cluster"] < 1:
            return f"n_per_cluster must be positive, got {p['n_per_cluster']!r}"
        if subset is not None and not (subset and all(0 <= c < k for c in subset)):
            return f"class_subset must be nonempty classes in [0, {k}), got {subset!r}"
        drawn = k if subset is None else len(subset)
        if n is not None and n < drawn:
            return f"n must be at least the {drawn} classes drawn, got {n!r}"
    if kind == "markov_chain":
        step, stay, v, starts = p["p_step"], p["p_stay"], p["alphabet_size"], p["starts"]
        if not (0 <= step <= 1 and 0 <= stay <= 1 and step + stay <= 1):
            return f"p_step and params.p_stay must be probabilities summing to <= 1, got {step!r} and {stay!r}"
        if p["length"] < 1:
            return f"length must be positive, got {p['length']!r}"
        if v < 2:
            return f"alphabet_size must be at least 2, got {v!r}"
        if v == 2 and step + stay < 1:
            return (f"p_step and params.p_stay must sum to 1 on a binary alphabet, which leaves no symbol "
                    f"to jump to, got {step!r} and {stay!r}")
        if starts is not None and not (starts and all(0 <= s < v for s in starts)):
            return f"starts must be nonempty symbols in [0, {v}), got {starts!r}"
    return None


# The longest name that a file or directory is named after, in UTF-8 bytes.
# With seeds below 2**64, the longest file name a command builds,
# scores_<name>_seed<seed>.csv, is then at most 7 + 200 + 5 + 20 + 4 = 236
# bytes, within Linux's 255.
NAME_BYTES = 200


def file_name_part(name: str, what: str, directory: bool = False) -> None:
    """Refuse a name that a file is named after (or with directory, that
    names a directory by itself) but that no file name can hold: one that
    holds "/", "\\" or NUL, is no UTF-8 text (a lone surrogate) or is
    longer than NAME_BYTES bytes, and for a directory, one that is empty,
    "." or "..". what names the name in the message."""
    if (directory and name in ("", ".", "..")) or any(c in name for c in "/\\\0"):
        why = ("is no directory name: it is empty, '.' or '..', or holds a path separator or NUL" if directory
               else "holds a path separator or NUL; files are named after it")
        raise ValidationError(f"{what} {name!r} {why}")
    try:
        size = len(name.encode())
    except UnicodeEncodeError:
        raise ValidationError(f"{what} {name!r} is not UTF-8 text; files are named after it") from None
    if size > NAME_BYTES:
        raise ValidationError(f"{what} {name!r} is longer than {NAME_BYTES} UTF-8 bytes; files are named after it")


def check_params(spec: config.DatasetSpec) -> dict:
    """The spec's params resolved: every key its kind reads, as typed()
    returned it or at the kind's default. Refuses a spec without a name, a
    name no file name can hold (file_name_part: report and data files are
    named after it), a spec of an unknown kind, a path on any kind but
    file (which needs one), keys that nothing reads for this spec, so a
    misspelled or contradictory setting fails instead of running at its
    default, and values of the wrong type, so nothing is silently cast."""
    if spec.kind != "generator" and (spec.kind not in _KINDS or spec.kind in _GENERATORS):
        raise ValidationError(f"unknown dataset kind {spec.kind!r}")
    if not spec.name:
        raise ValidationError("dataset spec needs a name")
    file_name_part(spec.name, "dataset name")
    if spec.kind == "file" and not spec.path:
        raise ValidationError(f"file dataset {spec.name!r} needs a path")
    kind = spec.params.get("generator") if spec.kind == "generator" else spec.kind
    if spec.kind == "generator" and not isinstance(kind, str):
        raise ValidationError(f"generator dataset {spec.name!r} needs params['generator'] as a string")
    if spec.kind == "generator" and kind not in _GENERATORS:
        raise ValidationError(f"dataset {spec.name!r}: unknown generator {kind!r}; the generators are "
                              f"{', '.join(_GENERATORS)}")
    if spec.kind != "file" and spec.path is not None:
        raise ValidationError(f"dataset {spec.name!r} ({kind}) does not read path; only file datasets do")
    entry = _KINDS[kind]
    unknown = sorted(set(spec.params) - set(entry.params))
    if unknown:
        raise ValidationError(f"dataset {spec.name!r} ({kind}) does not read params key(s) "
                              f"{', '.join(unknown)}; it reads {', '.join(sorted(entry.params))}")
    p = {key: default for key, (_, default) in entry.params.items()}
    for key, value in spec.params.items():
        p[key] = config.typed(value, entry.params[key][0], f"dataset {spec.name!r} params.{key}")
        if key in _LENGTHS and len(value) != _LENGTHS[key]:
            raise ValidationError(f"dataset {spec.name!r} params.{key} must have {_LENGTHS[key]} entries, "
                                  f"got {value!r}")
    missing = [key for key, value in p.items() if value is NEEDED]
    if missing:
        raise ValidationError(f"dataset {spec.name!r} ({kind}) needs params key(s) {', '.join(missing)}")
    unread = _unread_on_this_path(kind, spec.params)
    if unread:
        raise ValidationError(f"dataset {spec.name!r} ({kind}) does not read params key {unread}")
    bad = _out_of_range(kind, p)
    if bad:
        raise ValidationError(f"dataset {spec.name!r} ({kind}) params.{bad}")
    return p


def materialize(spec: config.DatasetSpec, n: int | None, seed, dim: int | None = None):
    """The dataset a spec describes. Its row count is params.n, or else n,
    the caller's default for the spec's role; dim is the experiment
    dimension, None without vector inliers. A mixture carries labels,
    every other kind is unlabeled, and markov_chain walks and files read
    with params.alphabet_size hold symbol rows."""
    p = check_params(spec)
    if spec.kind == "file":
        return read_csv(spec.path, p["label_column"], p["alphabet_size"])
    kind = p.get("generator", spec.kind)
    n = n if p["n"] is None else p["n"]
    where = f"dataset {spec.name!r} ({kind})"
    if n is None and "generator" in p:
        raise ValidationError(f"{where} needs params key n: nothing else sets its row count")
    if "scale" in p:  # a generator of vector rows
        if dim is None:
            raise ValidationError(f"{where} takes the experiment dimension from vector d_in rows: vector "
                                  "generators cannot be d_in, nor outlier sets of sequence data")
        for key in ("offset", "mean"):
            if isinstance(p.get(key), list) and len(p[key]) != dim:
                raise ValidationError(f"dataset {spec.name!r} params.{key} must have one entry per "
                                      f"dimension ({dim}), got {p[key]!r}")
        check_size(f"{where}: {n} rows of {dim} values (params.n)", n * dim)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # Dataset refuses what overflowed
            return _KINDS[kind].build(p, n, dim, seed)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def check_disjoint(oe_data, test_data, oe_name: str, test_name: str) -> None:
    """Refuse to run when any auxiliary training row also appears in a test
    outlier set; shared rows would let test information leak into tuning.

    Rows count as shared when their bytes are equal, so 0.0 and -0.0 differ.
    Byte-equal rows have byte-equal first columns, so only rows whose first
    column's bytes (as int64) occur more than once among both sets' first
    columns are compared whole; usually there are none."""
    a, b = np.ascontiguousarray(oe_data.rows), np.ascontiguousarray(test_data.rows)
    key_a, key_b = a[:, 0].view(np.int64), b[:, 0].view(np.int64)
    keys = np.sort(np.concatenate((key_a, key_b)))
    repeated = keys[1:][keys[1:] == keys[:-1]]
    a, b = a[np.isin(key_a, repeated)], b[np.isin(key_b, repeated)]
    shared = {row.tobytes() for row in a} & {row.tobytes() for row in b}
    if shared:
        raise ValidationError(
            f"auxiliary outlier set {oe_name!r} shares {len(shared)} row(s) "
            f"with test outlier set {test_name!r}; the two must be disjoint"
        )
