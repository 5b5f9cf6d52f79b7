#!/usr/bin/env python3
"""Compare two artifact roots written by run_all.py.

Usage: python scripts/compare_artifacts.py A B

For every CSV under either root, prints the largest relative difference
|a - b| / max(|a|, |b|) over its numeric cells, or why the two tables
cannot be compared cell by cell (a file on one side only, another shape,
other labels).  Every JSONL log is compared the same way, record by
record over its numeric fields.  Then lists, per summary.json, the keys
whose values differ, each with its largest relative difference where the
two values differ in numbers only; nested keys are joined by dots.
run_meta.json is not read: it holds timings.  Exits 0 whatever it finds.
"""

import argparse
import json
import math
import sys
from pathlib import Path


def read_cells(path):
    """The rows of a CSV below its header; comment lines are skipped."""
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    return rows[1:]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def rel_diff(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare_table(path_a, path_b):
    """Largest relative difference over numeric cells, or a reason string."""
    rows_a, rows_b = read_cells(path_a), read_cells(path_b)
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "shapes differ"
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for a, b in zip(row_a, row_b):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    return "labels differ"
                continue
            worst = max(worst, rel_diff(x, y))
    return worst


def value_diff(a, b):
    """Largest relative difference over the numbers of two JSON values, or
    None where they differ in anything but numbers."""
    if {type(a), type(b)} <= {int, float}:  # not bool, a subclass of int
        return rel_diff(float(a), float(b))
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        a, b = list(a.values()), [b[key] for key in a]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        diffs = [value_diff(x, y) for x, y in zip(a, b)]
        return None if any(d is None for d in diffs) else max(diffs, default=0.0)
    return 0.0 if a == b else None


def compare_jsonl(path_a, path_b):
    """Largest relative difference over the records' numeric fields and the
    field that has it, or a reason string."""
    a, b = ([json.loads(line) for line in path.read_text().splitlines() if line]
            for path in (path_a, path_b))
    if len(a) != len(b):
        return "record counts differ"
    worst = {}
    for x, y in zip(a, b):
        if x.keys() != y.keys():
            return "fields differ"
        for key in x:
            d = value_diff(x[key], y[key])
            if d is None:
                return "fields differ"
            worst[key] = max(worst.get(key, 0.0), d)
    field = max(worst, key=worst.get, default=None)
    return 0.0 if field is None or worst[field] == 0.0 else f"{worst[field]:.3g} ({field})"


def flatten(obj, prefix=""):
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            out.update(flatten(value, f"{prefix}{key}."))
        return out
    return {prefix[:-1]: obj}


def summary_diff(path_a, path_b):
    """Dotted keys whose values differ, or that only one summary has, each
    with its largest relative difference (None where not numbers only)."""
    a = flatten(json.loads(path_a.read_text()))
    b = flatten(json.loads(path_b.read_text()))
    return [(key, value_diff(a[key], b[key]) if key in a and key in b else None)
            for key in sorted(a.keys() | b.keys()) if a.get(key, ...) != b.get(key, ...)]


def relative_files(root, pattern):
    return {p.relative_to(root) for p in root.rglob(pattern)}


def compare(root_a, root_b, out=sys.stdout):
    tables = {pattern: relative_files(root_a, pattern) | relative_files(root_b, pattern)
              for pattern in ("*.csv", "*.jsonl")}
    for rel in sorted(tables["*.csv"] | tables["*.jsonl"]):
        a, b = root_a / rel, root_b / rel
        if not (a.is_file() and b.is_file()):
            result = f"only in {'A' if a.is_file() else 'B'}"
        else:
            result = (compare_table if rel in tables["*.csv"] else compare_jsonl)(a, b)
        print(f"{str(rel):<44} {result if isinstance(result, str) else f'{result:.3g}'}",
              file=out)
    for rel in sorted(relative_files(root_a, "summary.json")
                      | relative_files(root_b, "summary.json")):
        a, b = root_a / rel, root_b / rel
        if not (a.is_file() and b.is_file()):
            print(f"{rel}: only in {'A' if a.is_file() else 'B'}", file=out)
            continue
        keys = [key if d is None else f"{key} {d:.3g}" for key, d in summary_diff(a, b)]
        print(f"{rel}: {', '.join(keys) if keys else 'same'}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    compare(args.a, args.b)
    return 0


if __name__ == "__main__":
    sys.exit(main())
