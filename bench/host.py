"""Fresh-process measurements and the machine manifest.

Set-up time, peak memory and the import-time breakdown each need an
interpreter that has not imported oewb yet, so they run in child
processes with ./src on PYTHONPATH. The manifest and the numpy probe
describe the host the numbers came from, so drift between runs shows
beside them.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

CHILD_TIMEOUT_S = 120

SETUP_CHILD = """
import sys
from time import perf_counter
t0 = perf_counter()
import oewb.harness.cli
from oewb.harness import load_config
load_config(sys.argv[1])
print(repr(perf_counter() - t0))
"""

RUN_CHILD = """
import resource, sys
from oewb.harness import cli
rc = cli.main(["run", "-c", sys.argv[1], "-o", sys.argv[2], "-q"])
print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# Groups reported from `python -X importtime`: cumulative time of the
# outermost import whose name is the group or starts with "group.".
IMPORT_GROUPS = ("oewb.harness.cli", "numpy", "scipy", "scipy.ndimage")


def _child(root: Path, args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, *args], cwd=root, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )


def setup_seconds(root: Path, config_path: Path) -> float:
    """A fresh interpreter's time to import the CLI and resolve the config."""
    return float(_child(root, ["-c", SETUP_CHILD, str(config_path)]).stdout.strip())


def run_fresh(root: Path, config_path: Path, out_dir: Path) -> tuple:
    """(exit code, peak RSS in MB) of one `oewb run` in a fresh interpreter."""
    rc, maxrss_kb = _child(root, ["-c", RUN_CHILD, str(config_path), str(out_dir)]).stdout.split()
    return int(rc), int(maxrss_kb) / 1024.0


def _in(module: str, group: str) -> bool:
    return module == group or module.startswith(group + ".")


def import_breakdown(root: Path) -> dict:
    """Seconds per IMPORT_GROUPS entry, plus the self time of every oewb module."""
    lines = _child(root, ["-X", "importtime", "-c", "import oewb.harness.cli"]).stderr.splitlines()
    rows = []  # (depth, module, self_us, cumulative_us)
    for line in lines:
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(self_us), int(cum_us)))
    out = {f"setup.import.{g}": 0.0 for g in IMPORT_GROUPS}
    out["setup.import.oewb.self"] = 0.0
    # importtime prints children before their parent, one level deeper, so a
    # reverse scan sees every parent before its children.
    parents = []
    for depth, name, self_us, cum_us in reversed(rows):
        del parents[depth:]
        for group in IMPORT_GROUPS:
            if _in(name, group) and not any(_in(p, group) for p in parents):
                out[f"setup.import.{group}"] += cum_us / 1e6
        if _in(name, "oewb"):
            out["setup.import.oewb.self"] += self_us / 1e6
        parents.append(name)
    return out


def numpy_probe(score_rows: int = 0) -> float:
    """Seconds for a fixed workload of the program's kind, calling no oewb
    code, so a change to the program cannot move it: Nesterov steps of a
    2-32-32-4 net on 64-row batches (many tiny numpy calls, too small for
    OpenBLAS to use its threads), a pure Python loop, and, when
    `score_rows` > 0, two forward passes of that many rows, which OpenBLAS
    splits over its threads as it does the program's scoring."""
    import numpy as np

    rng = np.random.default_rng(12345)
    x = rng.standard_normal((64, 2))
    onehot = np.eye(4)[rng.integers(0, 4, 64)]
    pool = rng.standard_normal((score_rows, 2))
    params = [rng.standard_normal(shape) * 0.3 for shape in ((2, 32), (32, 32), (32, 4))]
    velocity = [np.zeros_like(p) for p in params]
    t0 = perf_counter()
    for _ in range(250):
        w1, w2, w3 = params
        h1 = np.maximum(x @ w1, 0.0)
        h2 = np.maximum(h1 @ w2, 0.0)
        z = h2 @ w3
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        d3 = (p - onehot) / 64
        d2 = (d3 @ w3.T) * (h2 > 0)
        d1 = (d2 @ w2.T) * (h1 > 0)
        for w, v, g in zip(params, velocity, (x.T @ d1, h1.T @ d2, h2.T @ d3)):
            v *= 0.9
            v -= 0.01 * g
            w += v
    total = 0
    for i in range(60_000):
        total += i * i % 7
    for _ in range(2 if score_rows else 0):
        w1, w2, w3 = params
        (np.maximum(np.maximum(pool @ w1, 0.0) @ w2, 0.0) @ w3).max(axis=1)
    return perf_counter() - t0


def probe_median(reps: int = 5, score_rows: int = 0) -> float:
    return statistics.median(numpy_probe(score_rows) for _ in range(reps))


# The probe's median, by `score_rows`, on the host the benchmark was tuned
# on (2 vCPUs of a shared x86-64 host, OpenBLAS at its default 2 threads),
# in seconds.
REF_PROBE_S = {0: 0.025, 20_000: 0.041}


class HostScale:
    """Scales measured times to the speed of the reference host.

    On a shared host the CPU throughput a process gets moves by up to 1.8x
    within seconds to minutes, and it moves the program and the probe
    alike. Each measurement is bracketed by probes, and its time is
    multiplied by the reference probe time over the mean of the two probes
    around it.
    """

    def __init__(self, score_rows: int = 0, reps: int = 3):
        self.score_rows = score_rows
        self.reps = reps
        self.ref = REF_PROBE_S[score_rows]
        self.last = probe_median(reps, score_rows)
        self.probes = [self.last]

    def scale(self, *times: float) -> list:
        """`times`, measured since the previous probe, at the reference speed."""
        before, self.last = self.last, probe_median(self.reps, self.score_rows)
        self.probes.append(self.last)
        factor = self.ref / ((before + self.last) / 2)
        return [t * factor for t in times]


def warm_up(seconds: float) -> None:
    """Keep the CPUs busy with the probe for a while: a host that sat idle
    runs the first second or so of work markedly slower."""
    start = perf_counter()
    while perf_counter() - start < seconds:
        numpy_probe()


# (threads getter, config getter) as exported by plain and scipy-openblas builds
_OPENBLAS_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_get_config"),
    ("openblas_get_num_threads64_", "openblas_get_config64_"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
)


def _openblas() -> list:
    """Configuration and thread count of each OpenBLAS the process loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in libs:
        info = {"library": Path(path).name}
        lib = ctypes.CDLL(path)
        for threads_sym, config_sym in _OPENBLAS_SYMBOLS:
            get_threads = getattr(lib, threads_sym, None)
            get_config = getattr(lib, config_sym, None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["config"] = get_config().decode()
                info["threads"] = get_threads()
        found.append(info)
    return found


def _git_revision(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(root: Path) -> dict:
    """Machine, library and thread settings in effect for this run."""
    import numpy as np
    import scipy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_revision": _git_revision(root),
        "loadavg_start": list(os.getloadavg()),
    }
