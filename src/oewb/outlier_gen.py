"""Synthetic anomaly generators and in-distribution corruptors.

Generators draw fresh noise; corruptors perturb rows they are given and
never mutate their inputs. Every function is deterministic for a fixed
seed, preserves the (n, d) row layout, and respects the declared value
range. Grid data is flattened row-major as (height, width, channels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError


def shape_fault(kind: str | None, shape) -> str | None:
    """What generator `kind` (None: any grid generator) cannot run with in
    a grid shape (height, width, channels), as the argument and the fault,
    or None. The generators below raise it, and a config check can ask it
    of a spec before any rows exist."""
    h, w, c = shape
    if min(h, w, c) < 1:
        return f"shape entries must be positive, got {shape!r}"
    if kind == "jigsaw" and (h % 4 or w % 4):
        return f"shape height and width must be divisible by 4 for the 4x4 tiles, got {shape!r}"
    if kind == "rgb_ghost" and c != 3:
        return f"shape must have 3 channels to ghost, got {shape!r}"
    if kind == "blobs" and h * w < 2:
        return f"shape must hold at least two pixels per image, got {shape!r}"
    return None


def range_fault(value_range, grid: bool) -> str | None:
    """What no generator can run with in a value range (low, high), on a
    grid or not, as shape_fault words it, or None. A range that is not
    increasing would clip every value to the same number."""
    lo, hi = float(value_range[0]), float(value_range[1])
    if grid and (lo, hi) not in ((0.0, 1.0), (-1.0, 1.0)):
        return f"value_range of a grid must be [0.0, 1.0] or [-1.0, 1.0], got {value_range!r}"
    if not lo < hi:
        return f"value_range must be increasing, got {value_range!r}"
    return None


def _refuse(fault: str | None, error: type) -> None:
    if fault:
        raise error(fault)


@dataclass(frozen=True)
class GridShape:
    height: int
    width: int
    channels: int
    value_range: tuple = (0.0, 1.0)

    def __post_init__(self):
        _refuse(shape_fault(None, self.hwc), ConfigurationError)
        _refuse(range_fault(self.value_range, grid=True), ParameterError)
        object.__setattr__(self, "value_range", (float(self.value_range[0]), float(self.value_range[1])))

    @property
    def hwc(self) -> tuple:
        return self.height, self.width, self.channels

    @property
    def dim(self) -> int:
        return self.height * self.width * self.channels

    def unflatten(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ConfigurationError(f"rows do not match grid of {self.dim} values")
        return rows.reshape(rows.shape[0], self.height, self.width, self.channels)

    def flatten(self, imgs: np.ndarray) -> np.ndarray:
        return np.asarray(imgs, dtype=np.float64).reshape(imgs.shape[0], self.dim)


def _check_count(n: int) -> None:
    if int(n) < 1:
        raise ParameterError("n must be positive")


def gen_gaussian(n, d, seed, value_range=None) -> np.ndarray:
    """i.i.d. standard normal rows, clipped to value_range when one is given."""
    _check_count(n)
    x = np.random.default_rng(seed).standard_normal((int(n), int(d)))
    if value_range is not None:
        _refuse(range_fault(value_range, grid=False), ParameterError)
        x = np.clip(x, value_range[0], value_range[1])
    return x


def gen_rademacher(n, d, seed) -> np.ndarray:
    """Entries -1 or +1 with equal probability."""
    _check_count(n)
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(int(n), int(d))).astype(np.float64) * 2.0 - 1.0


def gen_bernoulli(n, d, p, seed) -> np.ndarray:
    """Entries 1 with probability p, else 0."""
    _check_count(n)
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    return (rng.random((int(n), int(d))) < p).astype(np.float64)


def gen_uniform_noise(n, shape: GridShape, seed) -> np.ndarray:
    """i.i.d. uniform over the grid's value range."""
    _check_count(n)
    lo, hi = shape.value_range
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(int(n), shape.dim))


def _wrapped_running_mean(x: np.ndarray, width: int, axis: int) -> np.ndarray:
    """Mean over a centred window of `width` along `axis`, wrapping at the
    edges. Output k averages x[(k - width // 2 + j) % n] for j < width.

    The arithmetic is scipy.ndimage.uniform_filter1d's, so the bits match
    it: one sequential running sum (the first window, then x[k + width - 1]
    - x[k - 1] per step), divided by width after the sum.
    """
    if width == 1:
        return x
    n = x.shape[axis]
    ext = np.moveaxis(np.take(x, (np.arange(n + width - 1) - width // 2) % n, axis=axis), axis, -1)
    steps = ext.copy()
    steps[..., width:] -= ext[..., :-width]
    sums = np.cumsum(steps, axis=-1)[..., width - 1:]
    return np.moveaxis(sums / width, -1, axis)


def _box_filter(imgs: np.ndarray, width: int) -> np.ndarray:
    """Wrapped width x width box mean of each (n, h, w) image: along the
    height axis, then the width axis, as scipy.ndimage.uniform_filter does."""
    return _wrapped_running_mean(_wrapped_running_mean(imgs, width, 1), width, 2)


def gen_blobs(n, shape: GridShape, seed) -> np.ndarray:
    """Amorphous two-valued shapes: uniform noise smoothed twice by a
    normalized box filter of width ceil(min(h, w) / 4), then thresholded
    at each image's median."""
    _check_count(n)
    _refuse(shape_fault("blobs", shape.hwc), ConfigurationError)
    h, w, c = shape.hwc
    width = int(np.ceil(min(h, w) / 4))
    rng = np.random.default_rng(seed)
    noise = rng.random((int(n), h, w))
    smooth = _box_filter(_box_filter(noise, width), width)
    med = np.median(smooth, axis=(1, 2), keepdims=True)
    lo, hi = shape.value_range
    img = np.where(smooth >= med, hi, lo)
    return np.repeat(img[:, :, :, None], c, axis=3).reshape(int(n), shape.dim)


def _pick_pairs(n_rows: int, n_pairs: int, rng) -> tuple:
    return rng.integers(0, n_rows, size=n_pairs), rng.integers(0, n_rows, size=n_pairs)


def corrupt_arithmetic_mean(rows, seed=0, pairs=None, n=None) -> np.ndarray:
    """Elementwise mean of row pairs (random pairs unless given explicitly)."""
    rows = np.asarray(rows, dtype=np.float64)
    if pairs is None:
        rng = np.random.default_rng(seed)
        ia, ib = _pick_pairs(rows.shape[0], int(n) if n else rows.shape[0], rng)
    else:
        ia, ib = np.asarray(pairs[0]), np.asarray(pairs[1])
    return 0.5 * (rows[ia] + rows[ib])


def corrupt_geometric_mean(rows, value_range=(0.0, 1.0), seed=0, pairs=None, n=None) -> np.ndarray:
    """Elementwise geometric mean of row pairs, taken in [0, 1] coordinates
    so it is defined for symmetric ranges too."""
    rows = np.asarray(rows, dtype=np.float64)
    _refuse(range_fault(value_range, grid=False), ParameterError)
    lo, hi = float(value_range[0]), float(value_range[1])
    if pairs is None:
        rng = np.random.default_rng(seed)
        ia, ib = _pick_pairs(rows.shape[0], int(n) if n else rows.shape[0], rng)
    else:
        ia, ib = np.asarray(pairs[0]), np.asarray(pairs[1])
    span = hi - lo
    ua = np.clip((rows[ia] - lo) / span, 0.0, 1.0)
    ub = np.clip((rows[ib] - lo) / span, 0.0, 1.0)
    return lo + np.sqrt(ua * ub) * span


def corrupt_jigsaw(rows, shape: GridShape, seed=0, perm=None) -> np.ndarray:
    """Shuffle the 16 tiles of a 4x4 patch grid, per image."""
    _refuse(shape_fault("jigsaw", shape.hwc), ConfigurationError)
    imgs = shape.unflatten(rows)
    n = imgs.shape[0]
    ph, pw = shape.height // 4, shape.width // 4
    tiles = imgs.reshape(n, 4, ph, 4, pw, shape.channels)
    tiles = tiles.transpose(0, 1, 3, 2, 4, 5).reshape(n, 16, ph, pw, shape.channels)
    rng = np.random.default_rng(seed)
    out = np.empty_like(tiles)
    for i in range(n):
        p = np.asarray(perm) if perm is not None else rng.permutation(16)
        out[i] = tiles[i, p]
    out = out.reshape(n, 4, 4, ph, pw, shape.channels).transpose(0, 1, 3, 2, 4, 5)
    return shape.flatten(out.reshape(imgs.shape))


def corrupt_speckle(rows, intensity=0.2, seed=0, value_range=(0.0, 1.0)) -> np.ndarray:
    """x * (1 + intensity * standard normal), clipped to the value range."""
    if intensity < 0:
        raise ParameterError("intensity must be nonnegative")
    _refuse(range_fault(value_range, grid=False), ParameterError)
    rows = np.asarray(rows, dtype=np.float64)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(rows.shape)
    return np.clip(rows * (1.0 + intensity * g), value_range[0], value_range[1])


def corrupt_rgb_ghost(rows, shape: GridShape, seed=0, shifts=None, order=None) -> np.ndarray:
    """Per-channel circular spatial shifts of 1-3 pixels plus a channel shuffle.

    Output channel i is input channel order[i] rolled by shifts[i] =
    (dy, dx). Both pieces are bijections of the pixel grid, so any ghost
    is undone by the inverse permutation and negated shifts.
    """
    _refuse(shape_fault("rgb_ghost", shape.hwc), ConfigurationError)
    imgs = shape.unflatten(rows)
    rng = np.random.default_rng(seed)
    if order is None:
        order = rng.permutation(3)
    else:
        order = np.asarray(order, dtype=np.int64)
        if sorted(order.tolist()) != [0, 1, 2]:
            raise ParameterError("order must be a permutation of (0, 1, 2)")
    if shifts is None:
        mag = rng.integers(1, 4, size=(3, 2))
        sign = rng.integers(0, 2, size=(3, 2)) * 2 - 1
        shifts = mag * sign
    else:
        shifts = np.asarray(shifts, dtype=np.int64)
        if shifts.shape != (3, 2):
            raise ParameterError("shifts must be three (dy, dx) pairs")
    out = np.empty_like(imgs)
    for ch in range(3):
        src = imgs[:, :, :, order[ch]]
        out[:, :, :, ch] = np.roll(np.roll(src, int(shifts[ch, 0]), axis=1), int(shifts[ch, 1]), axis=2)
    return shape.flatten(out)


def corrupt_invert(rows, shape: GridShape, channel_mask, value_range=None) -> np.ndarray:
    """Reflect the selected channels through the range midpoint: x -> lo + hi - x."""
    mask = np.asarray(channel_mask, dtype=bool)
    if mask.shape != (shape.channels,):
        raise ConfigurationError("channel_mask must supply one flag per channel")
    lo, hi = value_range if value_range is not None else shape.value_range
    imgs = shape.unflatten(rows).copy()
    imgs[:, :, :, mask] = lo + hi - imgs[:, :, :, mask]
    return shape.flatten(imgs)
