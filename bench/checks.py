"""Correctness checks on an `oewb run` report tree, and its digests.

A run passes when the CLI returned 0, every file the config implies is
present and non-empty, every number in summary.json is finite, and the
final mean AUROC beats the baseline by at least MIN_GAIN on every test
set. The gate holds for any seed. Byte digests are recorded separately:
they show drift from a recorded tree but do not fail a run.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

MIN_GAIN = 0.05  # five AUROC points


def expected_files(config: dict) -> set:
    """Relative paths `oewb run` writes for this config."""
    files = {"per_seed.csv", "summary.csv", "summary.json", "config_resolved.json", "table.txt"}
    tests = [spec["name"] for spec in config["d_out_test"]]
    for seed in config["seeds"]:
        for name in tests:
            files |= {
                f"curves/roc_{name}_seed{seed}.csv",
                f"curves/pr_{name}_seed{seed}.csv",
                f"scores/{name}_seed{seed}.csv",
            }
        if config["calibration"]:
            files.add(f"calibration_seed{seed}.json")
    return files


def _numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _numbers(value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def check_tree(out_dir: Path, config: dict) -> list:
    """Problems found in a report tree; an empty list means it passed."""
    problems = []
    for rel in sorted(expected_files(config)):
        path = out_dir / rel
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"missing or empty report file {rel}")
    if problems:
        return problems
    payload = json.loads((out_dir / "summary.json").read_text())
    if not all(math.isfinite(x) for x in _numbers(payload)):
        problems.append("summary.json holds a non-finite number")
        return problems
    summary = payload["summary"]
    for spec in config["d_out_test"]:
        name = spec["name"]
        base, final = summary["baseline"][name]["auroc"], summary["final"][name]["auroc"]
        if not final >= base + MIN_GAIN:
            problems.append(
                f"final AUROC {final:.4f} on {name} does not beat baseline {base:.4f} by {MIN_GAIN}"
            )
    return problems


def detection_means(out_dir: Path) -> dict:
    """Final-phase AUROC and 1 - FPR@N (the inliers kept at N% TPR), each a
    mean over seeds and test sets."""
    final = json.loads((out_dir / "summary.json").read_text())["summary"]["final"]
    cells = list(final.values())
    return {
        "auroc_final": sum(c["auroc"] for c in cells) / len(cells),
        "tnr95_final": sum(1.0 - c["fpr_at_n"] for c in cells) / len(cells),
    }


def tree_digests(out_dir: Path) -> dict:
    """SHA-256 of every file under out_dir, keyed by relative POSIX path."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def tree_size(out_dir: Path) -> tuple:
    """(files, bytes) under out_dir."""
    sizes = [p.stat().st_size for p in out_dir.rglob("*") if p.is_file()]
    return len(sizes), sum(sizes)
