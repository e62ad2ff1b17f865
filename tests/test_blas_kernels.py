"""The bit claims of forward, kept-row scoring (score_rows), the mixture
generators and forward at one and at two BLAS threads (threads) under
every OpenBLAS kernel this host can run.

OpenBLAS picks its gemm kernel by CPU when it loads, and each kernel sums
in its own order. OPENBLAS_CORETYPE forces a kernel for one process, so
each case starts a child interpreter with it set, on one BLAS thread as
the CLI runs, and the child runs the checks of child_report. A case runs
each kernel at or below the host's default on the ladder KERNELS; it
skips when no loaded OpenBLAS names its kernel, or when the child loads
another kernel than the one asked for.

Trained weights, and so the report digests, differ by kernel; they are
recorded for SkylakeX only (tests/test_report_digests.py).
"""

import ctypes
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

KERNELS = ("Nehalem", "Sandybridge", "Haswell", "SkylakeX")
CHECKS = ("forward", "score_rows", "generators", "threads")

# the kernel-name getter as exported by numpy's scipy-openblas wheel and
# by plain 64-bit-integer and 32-bit-integer builds
_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")


def corename():
    """The kernel name the first loaded OpenBLAS reports, or None."""
    try:
        with open("/proc/self/maps") as fh:  # the sixth field is the mapped file
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # the copy already loaded
        except OSError:
            continue
        for name in _CORENAME_SYMBOLS:
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = (), ctypes.c_char_p
                return get().decode()
    return None


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def child_report() -> None:
    """Print, as JSON, the kernel this process runs and, by check, the
    cases that fail under it (None for threads when no loaded OpenBLAS
    could be set to two threads)."""
    from oewb import density, nn_core, scoring
    from oewb.harness import cli, datasets
    from oewb.harness.config import DatasetSpec

    import oracles
    from test_generator_bytes import SOURCE_CASES, _digest
    from test_scoring import _score_rows

    failures = {check: [] for check in CHECKS}
    for activation in ("relu", "tanh"):
        for dims in ([3, 16, 4], [3, 16, 8, 4]):
            for n in (4097, 8193, 20000):
                p = nn_core.init_network(dims, seed=5, activation=activation)
                x = np.random.default_rng(n).normal(size=(n, 3)) * 3.0
                if not _same_bits(nn_core.forward(p, x), oracles.forward_per_layer(p, x)):
                    failures["forward"].append(f"{activation} {dims} n={n}")
        # the kept rows hold the set's last row, which ends the whole-set
        # pass, and with an odd count their own pass ends on a single row
        for kind in ("msp", "uniform_ce"):
            for n, kept in ((4097, scoring.ALONE_ROWS), (20000, scoring.ALONE_ROWS + 1)):
                rng = np.random.default_rng(n)
                net = nn_core.init_network([2, 32, 32, 4], seed=n, activation=activation)
                X = rng.normal(scale=4.0, size=(n, 2))
                rows = np.sort(np.append(rng.choice(n - 1, size=kept - 1, replace=False), n - 1))
                if not _same_bits(_score_rows(net, kind, X, rows), scoring.score_dataset(net, kind, X)[rows]):
                    failures["score_rows"].append(f"{kind} {activation} n={n} kept={kept}")
    # 16 position rows per sequence: 128 sequences make an ALONE_ROWS-row forward
    net = nn_core.init_network(density.ar_layer_dims(8, 2, (32,)), 3)
    seqs = np.random.default_rng(4).integers(0, 8, size=(300, 16))
    rows = np.sort(np.random.default_rng(5).choice(300, size=scoring.ALONE_ROWS // 16, replace=False))
    if not _same_bits(_score_rows(net, "density_bpp", seqs, rows),
                      scoring.score_dataset(net, "density_bpp", seqs)[rows]):
        failures["score_rows"].append("density_bpp")
    for case in ("synthetic_gaussian_mixture_k", "synthetic_gaussian_mixture_n"):
        kind, params, n, dim, want = SOURCE_CASES[case]
        data = datasets.materialize(DatasetSpec(kind, case, params), n=n, seed=np.random.SeedSequence([7, 3]),
                                    dim=dim)
        if _digest(data) != want:
            failures["generators"].append(case)
    # the CLI's one thread against two, which a threaded gemm splits the rows between
    controls = cli._blas_thread_controls()
    net = nn_core.init_network([2, 32, 32, 4], seed=1)
    for n in (4097, 8193, 20000):
        x = np.random.default_rng(n).normal(size=(n, 2)) * 3.0
        at = []
        for threads in (1, 2):
            for _, put in controls:
                put(threads)
            at.append(nn_core.forward(net, x))
        if not _same_bits(*at):
            failures["threads"].append(f"n={n}")
    if not controls or any(get() != 2 for get, _ in controls):
        failures["threads"] = None
    print(json.dumps({"kernel": corename(), "failures": failures}))


@functools.cache
def _child(kernel: str) -> dict:
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [tests, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", "import test_blas_kernels; test_blas_kernels.child_report()"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


# On Nehalem and Haswell a gemm computes the rows of its last, short tile
# (Haswell: of one row; Nehalem: of one or two) with other bits than the
# same rows inside a full tile, so kept rows at the end of either pass move.
# On the same two kernels a forward of 4,097 or 8,193 rows gives other bits
# at two BLAS threads than at one (20,000 rows agree); the CLI runs one.
_MOVES = {
    ("Nehalem", "score_rows"): "a row in a gemm's short last tile moves",
    ("Haswell", "score_rows"): "a row in a gemm's short last tile moves",
    ("Nehalem", "threads"): "a second BLAS thread moves a forward's bits",
    ("Haswell", "threads"): "a second BLAS thread moves a forward's bits",
}


@pytest.mark.parametrize("kernel, check", [
    pytest.param(k, c, marks=pytest.mark.xfail(strict=True, reason=_MOVES[k, c]) if (k, c) in _MOVES else ())
    for k in KERNELS for c in CHECKS
])
def test_bit_claims_hold_under_the_kernel(kernel, check):
    default = corename()
    if default not in KERNELS:
        pytest.skip(f"the loaded BLAS names no kernel of {KERNELS} (got {default!r})")
    if KERNELS.index(kernel) > KERNELS.index(default):
        pytest.skip(f"{kernel} is above this host's {default}")
    report = _child(kernel)
    if report["kernel"] != kernel:
        pytest.skip(f"asked for {kernel}, the child loaded {report['kernel']}")
    if report["failures"][check] is None:
        pytest.skip("the child could not run OpenBLAS on two threads")
    assert report["failures"][check] == []
