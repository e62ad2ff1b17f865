"""In-memory span tracer around oewb's layer functions.

The tracer instruments the program from outside: for every target it
swaps the module attribute that callers look up, in the defining module
and in every loaded `oewb` module that imported the same object by name
(`pipeline.materialize`, `reports.roc_points`, ...). Nothing under src/
changes, and uninstalling restores the original objects.

Each call records a span (name, start, end, parent span, experiment
seed). Spans stay in memory until `write_spans`. Per target the tracer
keeps calls, total time and self time (total minus the time covered by
child spans), plus exact work counters computed from argument shapes.
"""

from __future__ import annotations

import csv
import functools
import sys
from importlib import import_module
from time import perf_counter

# ---------------------------------------------------------------------------
# Work counters. Each gets (counts, args, kwargs, result) after a call
# returns and adds exact integers computed from array shapes.


def _dense_pairs(params) -> int:
    """Sum of fan_in * fan_out over the dense layers of a network."""
    dims = params.layer_dims
    return sum(int(a) * int(b) for a, b in zip(dims[:-1], dims[1:]))


def _count_batch(counts, args, kwargs, result):
    counts["nn_core.Batch.rows"] += int(args[0].inputs.shape[0])


def _count_forward(counts, args, kwargs, result):
    params, inputs = args[0], args[1]
    n = len(inputs)
    counts["nn_core.forward_cached.rows"] += n
    # one (n, in) @ (in, out) matmul per layer: 2 * n * in * out flops
    counts["nn_core.flops"] += 2 * n * _dense_pairs(params)


def _count_backward(counts, args, kwargs, result):
    params, dlogits = args[0], args[2]
    n = len(dlogits)
    dims = params.layer_dims
    first = int(dims[0]) * int(dims[1])
    # weight gradients for every layer, input gradients for all but the first
    counts["nn_core.flops"] += 2 * n * (2 * _dense_pairs(params) - first)


def _count_sgd(counts, args, kwargs, result):
    params = args[0]
    dims = params.layer_dims
    n_params = _dense_pairs(params) + sum(int(d) for d in dims[1:])
    # float64 parameters, gradients and velocities read; parameters and
    # velocities written
    counts["nn_core.sgd_step.bytes"] += 5 * 8 * n_params


def _count_context(counts, args, kwargs, result):
    counts["density.context_features.rows"] += int(result[0].shape[0])


def _count_nll(counts, args, kwargs, result):
    counts["density.nll_batch.rows"] += int(result.shape[0])


def _count_score(counts, args, kwargs, result):
    counts["scoring.score_dataset.rows"] += int(result.shape[0])


def _count_base_rate(counts, args, kwargs, result):
    counts["metrics.enforce_base_rate.rows"] += int(result.in_scores.size + result.out_scores.size)


def _count_materialize(counts, args, kwargs, result):
    counts["harness.datasets.materialize.rows"] += int(result.n)


def _count_disjoint(counts, args, kwargs, result):
    counts["harness.datasets.check_disjoint.rows"] += int(args[0].n + args[1].n)


# (metric name, module, attribute, counter). Pipeline stages report total
# and self time; every other target reports calls and self time.
STAGES = ("prepare_data", "train_baseline", "finetune_oe", "evaluate_detector", "calibration_eval")
TARGETS = [
    ("nn_core.Batch", "oewb.nn_core", "Batch", _count_batch),
    ("nn_core.grad", "oewb.nn_core", "grad", None),
    ("nn_core.forward_cached", "oewb.nn_core", "forward_cached", _count_forward),
    ("nn_core.backward", "oewb.nn_core", "backward", _count_backward),
    ("nn_core.sgd_step", "oewb.nn_core", "sgd_step", _count_sgd),
    ("objectives.ce_loss", "oewb.objectives", "ce_loss", None),
    ("calibration.tune_temperature", "oewb.calibration", "tune_temperature", None),
    ("calibration.report_from_records", "oewb.calibration", "report_from_records", None),
    ("density.context_features", "oewb.density", "context_features", _count_context),
    ("density.nll_batch", "oewb.density", "nll_batch", _count_nll),
    ("density.margin_grad", "oewb.density", "margin_grad", None),
    ("density.train_density", "oewb.density", "train_density", None),
    ("density.finetune_density_oe", "oewb.density", "finetune_density_oe", None),
    ("scoring.score_dataset", "oewb.scoring", "score_dataset", _count_score),
    ("metrics.auroc", "oewb.metrics", "auroc", None),
    ("metrics.aupr", "oewb.metrics", "aupr", None),
    ("metrics.fpr_at_tpr", "oewb.metrics", "fpr_at_tpr", None),
    ("metrics.enforce_base_rate", "oewb.metrics", "enforce_base_rate", _count_base_rate),
    ("metrics.roc_points", "oewb.metrics", "roc_points", None),
    ("metrics.pr_points", "oewb.metrics", "pr_points", None),
    ("harness.datasets.materialize", "oewb.harness.datasets", "materialize", _count_materialize),
    ("harness.datasets.check_disjoint", "oewb.harness.datasets", "check_disjoint", _count_disjoint),
    ("harness.reports.write_reports", "oewb.harness.reports", "write_reports", None),
    ("harness.reports.write_curves", "oewb.harness.reports", "write_curves", None),
    ("harness.reports.write_score_files", "oewb.harness.reports", "write_score_files", None),
    *((f"harness.pipeline.{s}", "oewb.harness.pipeline", s, None) for s in STAGES),
]
COUNTERS = [
    "nn_core.Batch.rows",
    "nn_core.forward_cached.rows",
    "nn_core.flops",
    "nn_core.sgd_step.bytes",
    "density.context_features.rows",
    "density.nll_batch.rows",
    "scoring.score_dataset.rows",
    "metrics.enforce_base_rate.rows",
    "harness.datasets.materialize.rows",
    "harness.datasets.check_disjoint.rows",
]


class Tracer:
    """Records spans and per-target statistics while installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, seed or -1)
        self.calls = {name: 0 for name, *_ in TARGETS}
        self.total_s = {name: 0.0 for name, *_ in TARGETS}
        self.self_s = {name: 0.0 for name, *_ in TARGETS}
        self.counts = {name: 0 for name in COUNTERS}
        self.seed = -1
        self._open = []  # [span index, seconds covered by children]
        self._swaps = []  # (module, attribute, original)

    # -- spans ---------------------------------------------------------

    def _traced(self, fn, name, counter):
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            self._open.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                took = end - start
                if self._open:
                    self._open[-1][1] += took
                self.spans[index] = (name, start, end, parent, self.seed)
                self.calls[name] += 1
                self.total_s[name] += took
                self.self_s[name] += took - frame[1]
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _replacement(self, original, name, counter):
        if isinstance(original, type):
            # A traced subclass keeps isinstance checks against the class working.
            init = self._traced(original.__init__, name, counter)
            return type(original.__name__, (original,), {
                "__init__": init,
                "__module__": original.__module__,
                "__qualname__": original.__qualname__,
            })
        return self._traced(original, name, counter)

    def _set_seed(self, fn):
        def run_seed(config, seed, *args, **kwargs):
            previous, self.seed = self.seed, int(seed)
            try:
                return fn(config, seed, *args, **kwargs)
            finally:
                self.seed = previous

        return run_seed

    # -- install / uninstall --------------------------------------------

    def _swap_everywhere(self, original, replacement, attribute):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "oewb" or mod_name.startswith("oewb.")):
                continue
            if getattr(mod, attribute, None) is original:
                setattr(mod, attribute, replacement)
                self._swaps.append((mod, attribute, original))

    def install(self) -> "Tracer":
        if self._swaps:
            raise RuntimeError("tracer is already installed")
        for name, mod_name, attribute, counter in TARGETS:
            original = getattr(import_module(mod_name), attribute)
            self._swap_everywhere(original, self._replacement(original, name, counter), attribute)
        pipeline = import_module("oewb.harness.pipeline")
        self._swap_everywhere(pipeline.run_seed, self._set_seed(pipeline.run_seed), "run_seed")
        return self

    def uninstall(self) -> None:
        for mod, attribute, original in reversed(self._swaps):
            setattr(mod, attribute, original)
        self._swaps.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> None:
        """One CSV row per span; times are seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["id", "name", "start_s", "end_s", "parent", "seed"])
            for i, (name, start, end, parent, seed) in enumerate(self.spans):
                w.writerow([i, name, f"{start - t0:.7f}", f"{end - t0:.7f}", parent, seed])
