"""Command-line entry point.

Subcommands: run, train, finetune, eval, calibrate, make-data. Exit
codes: 0 on success, 1 when a config/parameter/data validation fails, 2 on
any other runtime failure, including training that diverges to
non-finite parameters.

The CLI is the one place a run becomes files: run hands the result of
pipeline.run_experiment to reports.write_reports, and make-data writes
every dataset a config names, each to its own CSV.

Every command runs with each loaded OpenBLAS limited to one thread and
restores the previous count when it returns or raises. The workbench's
nets are a few dozen units wide: a second BLAS thread cannot split their
products usefully and spins on a core between them. The one thread also
pins forward's bits, which the Haswell and Nehalem kernels move at two
threads (tests/test_blas_kernels.py). Without OpenBLAS this is a no-op.

A command creates its output directory only when it writes its first
file, so a refused command leaves no directory behind. run and make-data
write a whole tree, so they refuse an output directory that already
holds anything: no file of an earlier run can then sit beside theirs.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .. import calibration as calib_mod
from .. import nn_core
from ..errors import DivergenceError, ValidationError
from . import pipeline, reports
from .config import ExperimentConfig, load_config, write_json
from .datasets import file_name_part, read_csv_rows, write_csv
from .presets import PRESET_NAMES, get_preset


def _preamble(args) -> tuple[ExperimentConfig, int, Path]:
    """The config (a preset name or a JSON path), its seed and the output
    directory. A --seed override becomes the config's only seed, validated
    as such; the directory is made when the first file is written."""
    config = get_preset(args.config) if args.config in PRESET_NAMES else load_config(args.config)
    if args.seed is not None:
        config.seeds = (args.seed,)
        config.validate()
    return config, config.seeds[0], _out_dir(args.out or f"runs/{config.name}")


def _out_dir(path) -> Path:
    """path as an output directory, refused when it or a parent is an existing non-directory."""
    for p in (Path(path), *Path(path).parents):
        if p.exists() and not p.is_dir():
            raise ValidationError(f"output directory {path}: {p} exists and is not a directory")
    return Path(path)


def _check_empty_out(out: Path) -> None:
    """Refuse an output directory that already holds any file or directory."""
    if out.is_dir() and any(out.iterdir()):
        raise ValidationError(f"output directory {out} is not empty; run and make-data write only into "
                              "a new or empty directory")


def _mkdir(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_model(config: ExperimentConfig, layer_dims: list, path: str) -> nn_core.NetworkParams:
    """A saved net, refused unless it has the widths layer_dims and the config's activation."""
    net = nn_core.load_params(path)
    if net.layer_dims != layer_dims or net.activation != config.model.activation:
        raise ValidationError(f"{path}: the net has layer widths {net.layer_dims} and activation "
                              f"{net.activation!r}, but this config builds {layer_dims} with "
                              f"{config.model.activation!r}")
    return net


def cmd_run(args) -> int:
    config, _, out = _preamble(args)
    _check_empty_out(out)
    exp = pipeline.run_experiment(config)
    reports.write_reports(out, exp)
    if not args.quiet:
        print(reports.render_table(exp), end="")
        print(f"reports written to {out}")
    return 0


def cmd_train(args) -> int:
    config, seed, out = _preamble(args)
    train, _ = pipeline.prepare_run(config, [seed])
    [model] = pipeline.train_baseline(config, train)
    path = _mkdir(out) / f"baseline_seed{seed}.bin"
    nn_core.save_params(model, path)
    if not args.quiet:
        print(f"baseline model written to {path}")
    return 0


def cmd_finetune(args) -> int:
    config, seed, out = _preamble(args)
    train, _ = pipeline.prepare_run(config, [seed])
    baseline = _load_model(config, train.layer_dims, args.params)
    [model] = pipeline.finetune_oe(config, train, [baseline])
    path = _mkdir(out) / f"finetuned_seed{seed}.bin"
    nn_core.save_params(model, path)
    if not args.quiet:
        print(f"fine-tuned model written to {path}")
    return 0


def cmd_eval(args) -> int:
    config, seed, out = _preamble(args)
    train, [record] = pipeline.prepare_run(config, [seed])
    model = _load_model(config, train.layer_dims, args.params)
    rep, pools = pipeline.evaluate_detector(model, f"model {args.params}", config, record, nn_core.Workspace())
    write_json(_mkdir(out) / f"eval_seed{seed}.json", {name: asdict(r) for name, r in rep.items()})
    for name, pool in pools.items():
        reports.write_pool_scores(out / f"scores_{name}_seed{seed}.csv", pool)
    if not args.quiet:
        for name, r in rep.items():
            print(f"{name}: auroc={r.auroc:.4f} aupr={r.aupr:.4f} fpr@{r.n_level:g}={r.fpr_at_n:.4f}")
    return 0


def _read_predictions_csv(path: str):
    """(confidence, correct) lists from a CSV with those two columns.

    Every row must be as wide as the header and hold a finite confidence
    in [0, 1] and a correct flag of 0 or 1; the first row that does not is
    reported as file:line.
    """
    p = Path(path)
    rows = read_csv_rows(p, "prediction file")
    header = [h.strip().lower() for h in next(rows)[1]]
    if "confidence" not in header or "correct" not in header:
        raise ValidationError(f"{p}: prediction files need 'confidence' and 'correct' columns")
    ci, xi = header.index("confidence"), header.index("correct")
    conf, correct = [], []
    for lineno, row in rows:
        try:
            c, x = float(row[ci]), int(row[xi])
        except ValueError as exc:
            raise ValidationError(f"{p}:{lineno}: {exc}") from exc
        if not (math.isfinite(c) and 0.0 <= c <= 1.0):
            raise ValidationError(f"{p}:{lineno}: confidence {row[ci]!r} is not a finite number in [0, 1]")
        if x not in (0, 1):
            raise ValidationError(f"{p}:{lineno}: correct {row[xi]!r} is not 0 or 1")
        conf.append(c)
        correct.append(x == 1)
    if not conf:
        raise ValidationError(f"{p}: no prediction rows")
    return conf, correct


def cmd_calibrate(args) -> int:
    out = _out_dir(args.out or ".")
    stem = Path(args.predictions).stem
    file_name_part(stem, "prediction file stem")
    conf, correct = _read_predictions_csv(args.predictions)
    report = calib_mod.report_from_records(conf, correct)
    path = _mkdir(out) / (stem + "_calibration.json")
    write_json(path, asdict(report))
    if not args.quiet:
        print(f"rms={report.rms_error:.6f} mad={report.mad_error:.6f} soft_f1={report.soft_f1:.6f}")
        print(f"calibration report written to {path}")
    return 0


def cmd_make_data(args) -> int:
    config, seed, out = _preamble(args)
    _check_empty_out(out)
    bundle = pipeline.prepare_data(config, seed)
    named = {"din_train": bundle.din_train, "din_val": bundle.din_val, "din_test": bundle.din_test}
    if bundle.oe is not None:
        named["oe_" + config.d_out_oe.name] = bundle.oe
    named.update(("test_" + name, data) for name, data in bundle.tests.items())
    named.update(("val_" + name, data) for name, data in pipeline.validation_sets(config, bundle).items())
    for name, data in named.items():
        write_csv(out / f"{name}_seed{seed}.csv", data)
    if not args.quiet:
        print(f"{len(named)} dataset files written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oewb",
        description="Outlier-exposure workbench: train, expose, score, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def outputs(p):
        p.add_argument("--out", "-o", default=None, help="output directory")
        p.add_argument("--quiet", "-q", action="store_true", help="suppress progress output")

    def common(p):
        p.add_argument("--config", "-c", required=True, help=f"config JSON path or preset name {PRESET_NAMES}")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        outputs(p)

    p = sub.add_parser("run", help="full multi-seed pipeline with reports")
    common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("train", help="train the baseline model for one seed")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("finetune", help="exposure fine-tune a saved baseline")
    common(p)
    p.add_argument("--params", required=True, help="saved baseline model file")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("eval", help="score and report a saved model")
    common(p)
    p.add_argument("--params", required=True, help="saved model file")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("calibrate", help="calibration report from a prediction CSV")
    p.add_argument("predictions", help="CSV with 'confidence' and 'correct' columns")
    outputs(p)
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("make-data", help="materialize every dataset in the config to CSV")
    common(p)
    p.set_defaults(fn=cmd_make_data)
    return parser


# (getter, setter) pairs as exported by numpy's scipy-openblas wheel and by
# plain 64-bit-integer and 32-bit-integer builds; a library's first pair wins
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _blas_thread_controls() -> list:
    """(get, set) thread-count functions of each OpenBLAS the process has
    loaded; empty when none is found (another OS, another BLAS)."""
    try:
        with open("/proc/self/maps") as fh:  # the sixth field is the mapped file
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # the copy already loaded
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                controls.append((get, put))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Each loaded OpenBLAS on one thread inside, its own count restored after."""
    controls = _blas_thread_controls()
    before = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(1)
        yield
    finally:
        for (_, put), n in zip(controls, before):
            put(n)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _one_blas_thread():
            return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 2
    except Exception as exc:  # runtime failure, distinct from bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

