"""Artifact emission: CSV tables, JSONL logs and summaries.

Tables carry a comment header block ('#'-prefixed: config hash and column
units) above the CSV header and are written row by row, so arbitrarily
long series stream without whole-table buffering.  Summaries are JSON
with sorted keys and no timestamps; wall-clock metadata lives in a
sibling run_meta.json so that golden-file comparisons diff cleanly.
"""

from __future__ import annotations

import csv
import json
import time

import numpy as np

__all__ = [
    "write_series",
    "write_jsonl",
    "write_summary",
    "write_run_meta",
    "export_trajectory_csv",
    "export_ledger_jsonl",
]


def write_series(path, columns, rows, *, units=None, config_hash=None):
    """Stream rows into a CSV file with a comment header block.

    `rows` is any iterable of sequences matching `columns`; it is
    consumed lazily.  Returns the number of rows written.  I/O errors
    surface with the path attached.
    """
    n = 0
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if config_hash:
                fh.write(f"# config_hash: {config_hash}\n")
            if units:
                fh.write("# units: " + ", ".join(f"{c}[{u}]" for c, u in zip(columns, units)) + "\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow(row)
                n += 1
    except OSError as exc:
        raise OSError(f"{path}: {exc}") from exc
    return n


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_summary(path, summary):
    """Timestamp-free JSON summary with sorted keys (byte-stable)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(summary), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_run_meta(path, wall_time, extra=None):
    """Run metadata, segregated from the summary: `wall_time`, the run's
    duration in seconds, and `clock`, the local time it was written."""
    meta = {"wall_time": wall_time, "clock": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    if extra:
        meta.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(meta), fh, sort_keys=True, indent=2)
        fh.write("\n")


def export_trajectory_csv(path, times, states, jump_times, basis, *, config_hash=None):
    """Time series of one path, its (n,) `times` and (n, m) `states`, with
    its sorted `jump_times`: t, |u|, ||u||_1, ||u||_2, jumps so far."""
    eig = basis.eigenvalues
    ksq = basis.ksq

    def rows():
        for t, state in zip(times, states):
            c2 = state**2
            yield (
                f"{t:.12g}",
                f"{np.sqrt(c2.sum()):.12g}",
                f"{np.sqrt((ksq * c2).sum()):.12g}",
                f"{np.sqrt((eig * c2).sum()):.12g}",
                int(np.searchsorted(jump_times, t, side="right")),
            )

    return write_series(
        path,
        ("t", "l2", "h1", "h2", "jump_count"),
        rows(),
        units=("time", "velocity", "velocity/length", "velocity/length^2", "count"),
        config_hash=config_hash,
    )


def export_ledger_jsonl(path, ledger):
    """One JSON row per step of one path's `ledger` (column -> (n_steps,)
    values): every column's value at that step."""
    write_jsonl(path, ({k: float(v[i]) for k, v in ledger.items()}
                       for i in range(ledger["t"].size)))
