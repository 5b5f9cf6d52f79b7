#!/usr/bin/env python3
"""The levyfluid benchmark: one run of one workload.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Starts bench/workload.py in a fresh process with one BLAS thread and
``workers = nproc`` (see NOTES.md for why the pin), waits for it, adds the
peak RSS of that process and its pool workers, checks the outcome and
writes the full result to ``bench/out/<workload>-seed<N>-trace<T>.json``.
It prints every metric by name with its unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json when untraced, the per-layer ones when
traced.  Exits non-zero without a result when the program or a metric is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
TIMEOUT_S = 170
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = ap.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "levyfluid" / "__init__.py").is_file():
        return fail(f"no levyfluid sources under {SRC}")
    if not spec_file.is_file():
        return fail(f"missing {spec_file}")
    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.unlink(missing_ok=True)
    env = dict(os.environ, **BLAS_PIN, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_file)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail(f"workload process exceeded {TIMEOUT_S} s")
    finally:
        try:  # pool workers left behind by a crash
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0 or not result_file.is_file():
        return fail(f"workload process exited with code {code}")

    result = json.loads(result_file.read_text())
    # largest RSS of the workload process or any descendant it waited for
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    values = dict(result["metrics"], peak_rss_mb=result["peak_rss_mb"])
    values.update(result.get("per_layer", {}))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result_file.write_text(json.dumps(result, indent=1))

    env_rec = result["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={env_rec['nproc']} "
          f"workers={env_rec['workers']} blas={env_rec['blas']} "
          f"blas_threads={env_rec['blas_threads']['OPENBLAS_NUM_THREADS']} -> {result_file}")
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':<36} {result['failed_frac']:>16.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
