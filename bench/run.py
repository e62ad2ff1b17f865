"""oewb benchmark: `oewb run` end to end, and layer by layer when traced.

Run from the root of a checkout:

    python3 bench/run.py --workload oe2d --seed 0 --seconds 25 --trace 0

The benchmark writes the workload's config for --seed as JSON and drives
the program only through `oewb.harness.cli.main(["run", ...])`. Every run's
report tree is checked (see checks.py). With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced runs
and prints the per-layer metrics. End-to-end timings are scaled to a
reference host speed by a numpy probe run around each measurement (see
host.HostScale). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Scratch files go under
./.bench_runs/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import checks
import host
import tracer

BENCH_DIR = Path(__file__).resolve().parent
WARM_UP_S = 2.0  # busy host warm-up before anything is timed
SETUP_REPS = 7  # fresh interpreters timed for setup_s, after one warm-up
IMPORT_REPS = 3  # -X importtime children for the setup.import.* metrics
MIN_RUNS = 3  # timed runs even when one run outlasts --seconds
MIN_TRACED = 2  # traced runs, so exact counts can be compared


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("oe2d", "density_seq", "eval_large"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this seed's report-tree digests in bench/digests.json")
    return p.parse_args(argv)


def tail_note(values: list) -> str:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    n = len(values)
    note = f"median {statistics.median(values):.4f}, n={n}"
    if n < 20:
        return note + ", too few for a percentile above the median with 10 samples beyond it"
    pct = math.floor(100 * (n - 10) / n)
    return note + f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f}"


class Session:
    """One workload at one seed: its config, run trees and failures."""

    def __init__(self, root: Path, workload: str, seed: int):
        import workloads

        self.root = root
        self.work = root / ".bench_runs" / f"{workload}-seed{seed}-pid{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = workloads.make_config(workload, seed)
        self.probe_rows = workloads.PROBE_SCORE_ROWS[workload]
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None  # (tree directory, digests) of the first passing run
        self._runs = 0

    def fresh_out(self) -> Path:
        self._runs += 1
        return self.work / f"run{self._runs}"

    def fail(self, message: str) -> None:
        """Count one failed run."""
        self.failed += 1
        self.problems.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def record(self, label: str, rc, out: Path) -> bool:
        """Check a finished run; keep the first passing tree as the reference
        every later tree of this seed must match byte for byte."""
        self.attempted += 1
        problems = [f"exit code {rc}"] if rc != 0 else checks.check_tree(out, self.config)
        if not problems:
            digests = checks.tree_digests(out)
            if self.reference is None:
                self.reference = (out, digests)
                return True
            if digests != self.reference[1]:
                problems = ["report tree is not byte-identical to the reference run"]
        if problems:
            self.fail(f"{label}: {'; '.join(problems)}")
        shutil.rmtree(out, ignore_errors=True)
        return not problems

    def run_in_process(self, label: str, trace: tracer.Tracer | None = None) -> tuple:
        """(wall s, CPU s, passed) of one `oewb run`, optionally traced."""
        from oewb.harness import cli

        out = self.fresh_out()
        argv = ["run", "-c", str(self.config_path), "-o", str(out), "-q"]
        gc.collect()
        if trace is not None:
            trace.install()
        try:
            t0, c0 = perf_counter(), process_time()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # the CLI maps errors to codes; anything else is a failure
                rc = f"{type(exc).__name__}: {exc}"
            wall, cpu = perf_counter() - t0, process_time() - c0
        finally:
            if trace is not None:
                trace.uninstall()
        return wall, cpu, self.record(label, rc, out)


def end_to_end(s: Session, seconds: float) -> tuple:
    """(metrics, notes) with tracing off."""
    host.setup_seconds(s.root, s.config_path)  # warms the bytecode cache
    scale = host.HostScale(s.probe_rows)
    setup_raw, setup = [], []
    for _ in range(SETUP_REPS):
        t = host.setup_seconds(s.root, s.config_path)
        setup_raw.append(t)
        setup += scale.scale(t)
    out = s.fresh_out()
    rc, peak_rss_mb = host.run_fresh(s.root, s.config_path, out)
    s.record("fresh-process run", rc, out)
    s.run_in_process("warm-up run")
    raw, walls, cpus = [], [], []
    scale.scale()  # a fresh probe right before the first timed run
    start = perf_counter()
    while len(walls) < MIN_RUNS or perf_counter() - start < seconds:
        wall, cpu, _ = s.run_in_process(f"timed run {len(walls) + 1}")
        raw.append(wall)
        wall, cpu = scale.scale(wall, cpu)
        walls.append(wall)
        cpus.append(cpu)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb,
    }
    if s.reference is not None:
        metrics.update(checks.detection_means(s.reference[0]))
    probe = f"host probe median {statistics.median(scale.probes):.4f} s, reference {scale.ref} s"
    notes = {
        "setup_s": f"{SETUP_REPS} fresh interpreters scaled to the reference host speed; "
                   f"unscaled median {statistics.median(setup_raw):.4f}; {probe}",
        "run_s": f"warm runs scaled to the reference host speed: {tail_note(walls)}; "
                 f"unscaled: {tail_note(raw)}; {probe}",
        "cpu_s": f"warm runs scaled to the reference host speed: {tail_note(cpus)}",
        "peak_rss_mb": "one fresh process running the workload once",
        "auroc_final": "mean over experiment seeds and test sets",
        "tnr95_final": "1 - FPR at 95% TPR, mean over experiment seeds and test sets",
    }
    return metrics, notes


def layer_sample(t: tracer.Tracer) -> dict:
    """Per-layer metrics from one traced run."""
    out = {}
    for name, *_ in tracer.TARGETS:
        if name.startswith("harness.pipeline."):
            out[f"{name}.total_s"] = t.total_s[name]
        else:
            out[f"{name}.calls"] = t.calls[name]
        out[f"{name}.self_s"] = t.self_s[name]
    out.update(t.counts)
    busy = t.self_s["nn_core.forward_cached"] + t.self_s["nn_core.backward"]
    out["nn_core.gflops"] = t.counts["nn_core.flops"] / busy / 1e9 if busy > 0 else 0.0
    return out


def exact_counts(t: tracer.Tracer) -> dict:
    """What must repeat exactly across runs of one seed."""
    return {**t.calls, **t.counts}


def per_layer(s: Session, workload: str, seed: int, seconds: float) -> tuple:
    """(metrics, notes) from alternating untraced and traced runs."""
    imports = [host.import_breakdown(s.root) for _ in range(IMPORT_REPS)]
    metrics = {k: statistics.median(d[k] for d in imports) for k in imports[0]}
    s.run_in_process("warm-up run")
    untraced, traced, samples = [], [], []
    first_counts = None
    start = perf_counter()
    while len(traced) < MIN_TRACED or perf_counter() - start < seconds:
        untraced.append(s.run_in_process(f"untraced run {len(untraced) + 1}")[0])
        t = tracer.Tracer()
        wall, _, passed = s.run_in_process(f"traced run {len(traced) + 1}", t)
        traced.append(wall)
        samples.append(layer_sample(t))
        counts = exact_counts(t)
        if not passed:
            continue
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            moved = sorted(k for k in counts if counts[k] != first_counts[k])
            s.fail(f"traced run {len(traced)}: exact counts did not repeat: {moved}")
    t.write_spans(s.work / "spans.csv")
    # integer counts repeat exactly (checked above); times are medians over traced runs
    metrics.update({
        k: v if isinstance(v, int) else statistics.median(d[k] for d in samples)
        for k, v in samples[-1].items()
    })
    metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    if s.reference is not None:
        files, size = checks.tree_size(s.reference[0])
        recorded = load_recorded(workload, seed)
        metrics["harness.reports.files"] = files
        metrics["harness.reports.bytes"] = size
        metrics["harness.reports.digest_files"] = len(recorded)
        metrics["harness.reports.digest_match"] = sum(
            s.reference[1].get(rel) == sha for rel, sha in recorded.items()
        )
    notes = {
        "trace_overhead_frac": f"median of {len(traced)} traced over {len(untraced)} untraced runs",
        "spans": f"{len(t.spans)} spans of the last traced run in {(s.work / 'spans.csv').relative_to(s.root)}",
    }
    return metrics, notes


def load_recorded(workload: str, seed: int) -> dict:
    path = BENCH_DIR / "digests.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(workload, {}).get(str(seed), {})


def store_recorded(workload: str, seed: int, digests: dict) -> None:
    path = BENCH_DIR / "digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    table.setdefault(workload, {})[str(seed)] = digests
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def declared(root: Path, trace: int) -> dict:
    """Metric name -> (unit, better) that BENCHMARK.json declares for this mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m.get("better")) for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "oewb" / "harness" / "cli.py").is_file():
        print(f"error: no oewb source tree under {root / 'src'}; "
              "run from the root of an oewb checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = declared(root, args.trace)
    s = Session(root, args.workload, args.seed)
    manifest = host.manifest(root)
    host.warm_up(WARM_UP_S)
    probe_start = host.probe_median(score_rows=s.probe_rows)
    if args.trace:
        metrics, notes = per_layer(s, args.workload, args.seed, args.seconds)
    else:
        metrics, notes = end_to_end(s, args.seconds)
    probe_end = host.probe_median(score_rows=s.probe_rows)
    manifest["loadavg_end"] = list(os.getloadavg())
    if args.trace:
        metrics["host.probe_s"] = statistics.median([probe_start, probe_end])
    if args.record and s.reference is not None:
        store_recorded(args.workload, args.seed, s.reference[1])

    if s.problems:
        metrics = {k: v for k, v in metrics.items() if k in spec}
    elif set(metrics) != set(spec):
        print(f"error: metrics {sorted(set(metrics) ^ set(spec))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed}: experiment seeds {s.config['seeds']}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(f"host probe: {probe_start:.4f} s at start, {probe_end:.4f} s at end")
    for name in spec:
        if name in metrics:
            unit, better = spec[name]
            direction = f", {better} is better" if better else ""
            note = f"; {notes[name]}" if name in notes else ""
            print(f"metric {name} = {metrics[name]!r} {unit}{direction}{note}")
    for key in sorted(set(notes) - set(spec)):
        print(f"note {key}: {notes[key]}")
    print(f"metric failed_frac = {s.failed / s.attempted!r} frac, lower is better "
          f"({s.failed} of {s.attempted} runs failed)")
    for p in s.problems:
        print(f"problem: {p}")

    for run_dir in s.work.glob("run*"):
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": not s.problems,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": metrics[k], "unit": spec[k][0]} for k in spec if k in metrics},
    }
    (s.work / "result.json").write_text(
        json.dumps({"manifest": manifest, "problems": s.problems, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
