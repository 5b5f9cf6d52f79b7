#!/usr/bin/env python3
"""Run every experiment config in scripts/configs and summarize verdicts.

Usage: python scripts/run_all.py [--workers K] [--out-root DIR] [--only STEM ...]

Each run writes its artifact bundle under the config's `out` directory
(relative paths are resolved against --out-root, default `results/`).
--only runs the named config stems alone; a stem with no config exits 2
before anything runs.  Prints one line per config, with its wall time,
and a total line with the peak resident memory: the larger of this
process's and its children's (pool workers'), in MB.  Exits nonzero if
any experiment fails its verdict.
"""

import argparse
import resource
import sys
import time
from pathlib import Path

from levyfluid.config import parse_config
from levyfluid.experiments import default_workers, run_experiment

CONFIG_DIR = Path(__file__).parent / "configs"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out-root", default=".")
    parser.add_argument("--only", nargs="*", help="config stems to run")
    args = parser.parse_args(argv)
    workers = args.workers if args.workers is not None else default_workers()

    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    if args.only:
        missing = sorted(set(args.only) - {p.stem for p in paths})
        if missing:
            print(f"no config for --only {' '.join(missing)} in {CONFIG_DIR}", file=sys.stderr)
            return 2
        paths = [p for p in paths if p.stem in set(args.only)]
    worst, total = 0, 0.0
    for path in paths:
        cfg = parse_config(path)
        out_dir = Path(args.out_root) / cfg.out
        t0 = time.perf_counter()
        code, summary = run_experiment(cfg, out_dir=out_dir, workers=workers)
        seconds = time.perf_counter() - t0
        total += seconds
        verdict = summary.get("verdict", "FAIL")
        print(f"{path.stem:<18} {verdict:<5} exit={code}  {seconds:6.1f}s  -> {out_dir}")
        worst = max(worst, code)
    peak_mb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
    print(f"{'total':<18} {len(paths)} configs   {total:6.1f}s  workers={workers}"
          f"  peak_rss={peak_mb:.1f}MB")
    return worst


if __name__ == "__main__":
    sys.exit(main())
