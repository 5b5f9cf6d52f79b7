"""One benchmark run of one workload, in a fresh process.

Usage (normally started by run.py, which pins one BLAS thread)::

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1 \
        --result FILE [--smoke]

Set-up (import, config parse, every FluidModel the workload uses) is timed
three times.  Then ``run_experiment`` repeats on the same input until
``--seconds`` have passed.  With ``--trace 1`` every untraced repetition is
followed by a traced one, for the per-layer numbers, and the window doubles.
Correctness checks run on every repetition; operator spot checks and the
reference comparison run outside the timed region.  The result, with every
repetition's raw numbers, is written as JSON to ``--result``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import levyfluid.config as lf_config  # noqa: E402
import levyfluid.experiments as lf_experiments  # noqa: E402

IMPORT_S = time.perf_counter() - _T_START

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

from levyfluid.basis import build_basis  # noqa: E402

from kernels import environment, kernel_counts, working_set  # noqa: E402
from spans import TRACE_DIR_ENV, OutcomeProbe, Tracer, write_spans  # noqa: E402
from workloads import WORKLOADS, copies_per_path, model_overrides  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 1  # the seed whose headline statistics reference.json records
SETUP_REPEATS = 3
MIN_REPS = 3
# headline statistics agree to this relative tolerance: far below the Monte
# Carlo standard errors (1e-3 to 1e-2 of the estimates) and far above
# rounding (1e-16), so a reordered sum passes and a changed result fails
REF_RTOL = 1e-8
SKEW_TOL = 1e-10    # |<B(u,u),u>| <= SKEW_TOL * (1 + |u|^2 ||u||_2)
STRESS_TOL = 1e-8   # <Ap(u)-Ap(v),u-v> >= -STRESS_TOL * (1 + ||u||_1^2 + ||v||_1^2)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import levyfluid.config, levyfluid.experiments; "
    "print(time.perf_counter() - t)"
)


def import_samples():
    """Package import time: this process, plus two fresh interpreters."""
    out = [IMPORT_S]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                              capture_output=True, text=True, timeout=120)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def config_text(workload, seed):
    return WORKLOADS[workload]["config"] + f"ensemble.seed = {seed}\n"


def set_up(workload, seed, smoke):
    """Parse the config and build every model the workload uses."""
    build_basis.cache_clear()
    overrides = WORKLOADS[workload]["smoke"] if smoke else None
    cfg = lf_config.parse_config_text(config_text(workload, seed), overrides)
    models = [lf_experiments.build_model(cfg, **o) for o in model_overrides(cfg)]
    return cfg, models


def path_steps(cfg, models):
    return sum(copies_per_path(cfg) * cfg.n_paths * m.n_steps for m in models)


def spot_checks(models, seed):
    """Skew-symmetry of convection and monotonicity of stress at each level."""
    rng = np.random.default_rng([seed, 7])
    checks = []
    for model in models:
        ops, basis, par = model.ops, model.basis, model.params
        u = rng.standard_normal((4, basis.size)) / np.sqrt(basis.ksq)
        v = rng.standard_normal((4, basis.size)) / np.sqrt(basis.ksq)
        l2_sq = np.sum(u**2, axis=1)
        h2 = np.sqrt(np.sum(basis.eigenvalues * u**2, axis=1))
        skew = np.abs(np.sum(ops.convection(u, u) * u, axis=1))
        skew_ok = bool(np.all(skew <= SKEW_TOL * (1.0 + l2_sq * h2)))
        mono = np.sum((ops.nonlinear_stress(u, par) - ops.nonlinear_stress(v, par)) * (u - v), axis=1)
        h1u, h1v = np.sum(basis.ksq * u**2, axis=1), np.sum(basis.ksq * v**2, axis=1)
        mono_ok = bool(np.all(mono >= -STRESS_TOL * (1.0 + h1u + h1v)))
        checks.append({"level": basis.size, "skew_max": float(skew.max()), "skew_ok": skew_ok,
                       "monotone_min": float(mono.min()), "monotone_ok": mono_ok})
    return checks


def read_table(path):
    """Numeric cells of an artifact CSV (comment lines, header and labels skipped).

    An aborted run writes no table; it reads as empty.
    """
    if not path.is_file():
        return []
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    cells = []
    for row in rows[1:]:
        for x in row:
            try:
                cells.append(float(x))
            except ValueError:
                pass
    return cells


def cpu_times():
    """CPU seconds of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


class Runner:
    """Repeats run_experiment on one config and records what each rep did."""

    def __init__(self, out_dir, workers, probe):
        self.out_dir = out_dir
        self.workers = workers
        self.probe = probe

    def rep(self, cfg):
        art = self.out_dir / "artifacts"
        shutil.rmtree(art, ignore_errors=True)
        self.probe.reset()
        own0, kids0 = cpu_times()
        t0 = time.perf_counter()
        code, summary = lf_experiments.run_experiment(cfg, out_dir=art, workers=self.workers)
        wall = time.perf_counter() - t0
        own1, kids1 = cpu_times()
        paths, blown = self.probe.reset()
        files = [p for p in art.iterdir() if p.is_file()]
        return {
            "wall_s": wall,
            "cpu_s": (own1 - own0) + (kids1 - kids0),
            "worker_cpu_s": kids1 - kids0,
            "exit_code": code,
            "verdict": summary.get("verdict"),
            "paths": paths,
            "blown": blown,
            "artifact_bytes": sum(p.stat().st_size for p in files),
            "summary": (art / "summary.json").read_bytes(),
            "table": read_table(art / f"{cfg.experiment}.csv"),
        }


def rep_ok(rep, first_summary):
    return (rep["exit_code"] == 0 and rep["verdict"] == "PASS" and rep["blown"] == 0
            and rep["paths"] > 0 and rep["summary"] == first_summary)


def compare_reference(workload, table):
    ref = json.loads(REFERENCE.read_text()).get(workload)
    if ref is None or len(ref) != len(table):
        return {"ok": False, "reason": "no reference of this shape", "max_rel_err": None}
    scale = max(abs(x) for x in ref) or 1.0
    errs = [abs(a - b) / max(abs(b), 1e-14 * scale) for a, b in zip(table, ref)]
    worst = max(errs) if errs else 0.0
    return {"ok": worst <= REF_RTOL, "max_rel_err": worst}


# -- per-layer metrics from the spans of one traced repetition ---------------


def layer_metrics(spans, rep, workers, main_pid):
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    excl = [d - c for d, c in zip(dur, child)]

    def total(name):
        return sum(d for s, d in zip(spans, dur) if s[0] == name)

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    def layer_self(layer):
        return sum(e for s, e in zip(spans, excl) if s[0].split(".")[0] == layer)

    def in_ensemble(i):
        while i >= 0:
            if spans[i][0] == "experiments.ensemble":
                return True
            i = spans[i][3]
        return False

    per_level = {}
    for s in spans:
        if s[0] == "solver.advance":
            rows, level = s[6]
            steps, calls = per_level.get(level, (0, 0))
            per_level[level] = (steps + rows, calls + 1)
    ps = sum(steps for steps, _ in per_level.values())
    wait = sum(e for s, e in zip(spans, excl)
               if s[0] == "experiments.ensemble" and s[5] == main_pid)
    busy = sum(d for s, d in zip(spans, dur) if s[3] < 0) - wait
    keys = [tuple(s[6]) for s in spans if s[0] == "operators.setup"]
    drivers = sum(total(f"solver.{d}") for d in ("run_paths", "run_pairs", "run_levels"))
    solver_self = layer_self("solver")
    us = 1e6 / ps
    metrics = {
        "operators.setup_s": total("operators.setup"),
        "operators.setup_calls": len(keys),
        "operators.setup_reuse": len(set(keys)) / len(keys),
        "operators.stress_us": total("operators.stress") * us,
        "operators.stress_calls": count("operators.stress"),
        "operators.stress_share": total("operators.stress") / busy,
        "operators.convection_us": total("operators.convection") * us,
        "operators.convection_calls": count("operators.convection"),
        "operators.convection_share": total("operators.convection") / busy,
        "operators.bound_s": total("operators.bound"),
        "noise.sample_s": total("noise.sample"),
        "noise.sample_calls": count("noise.sample"),
        "noise.jumps_per_path": (sum(s[6] for s in spans if s[0] == "noise.sample")
                                 / max(1, count("noise.sample"))),
        "noise.certify_s": total("noise.certify"),
        "solver.increment_us": total("solver.increment") * us,
        "solver.advance_us": total("solver.advance") * us,
        "solver.step_us": drivers * us,
        "solver.self_s": solver_self,
        "solver.self_share": solver_self / busy,
        "solver.path_steps": ps,
        "solver.blown_paths": rep["blown"],
        "ergodics.self_s": layer_self("ergodics"),
        "experiments.blocks": sum(1 for i, s in enumerate(spans) if s[0] == "solver.run_paths"
                                  and (s[5] != main_pid or in_ensemble(i))),
        "experiments.worker_cpu_s": rep["worker_cpu_s"],
        "experiments.wait_s": wait,
        "experiments.parallel_eff": rep["cpu_s"] / (rep["wall_s"] * workers),
        "reporting.write_s": total("reporting.write"),
        "reporting.bytes": rep["artifact_bytes"],
    }
    batches = {lv: (steps, round(steps / calls)) for lv, (steps, calls) in per_level.items()}
    return metrics, batches


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, no reference check")
    ap.add_argument("--record-reference", action="store_true",
                    help="store the default seed's headline statistics in reference.json")
    args = ap.parse_args(argv)

    main_pid = os.getpid()
    workers = len(os.sched_getaffinity(0))
    out_dir = Path(args.result).resolve().parent / f"run-{main_pid}"
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = OutcomeProbe()
    probe.install()

    imports = import_samples()
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cfg, models = set_up(args.workload, args.seed, args.smoke)
        builds.append(time.perf_counter() - t0)
    setup_s = median(imports) + median(builds)
    steps = path_steps(cfg, models)
    checks = spot_checks(models, args.seed)

    runner = Runner(out_dir, workers, probe)
    tracer = Tracer(main_pid) if args.trace else None
    if tracer:
        tracer.install()
        set_up(args.workload, args.seed, args.smoke)
        setup_spans = tracer.take("setup")
        tracer.uninstall()

    # traced repetitions alternate with untraced ones, so that slow drift in
    # the machine's speed cancels out of trace.overhead_frac
    reps, traced, traced_spans = [], [], []
    window = args.seconds * (2 if tracer else 1)
    t0 = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - t0 < window:
        reps.append(runner.rep(cfg))
        if tracer:
            run_id = f"rep{len(traced)}"
            trace_dir = out_dir / "trace" / run_id
            trace_dir.mkdir(parents=True)
            os.environ[TRACE_DIR_ENV] = str(trace_dir)  # read by pool workers
            tracer.run_id = run_id
            tracer.install()
            traced.append(runner.rep(cfg))
            tracer.uninstall()
            traced_spans.append(tracer.take(run_id, trace_dir))

    ref_reps = []
    reference = None
    if not args.smoke:
        ref_cfg, _ = set_up(args.workload, DEFAULT_SEED, False)
        ref_reps = [runner.rep(ref_cfg)]
        if args.record_reference:
            refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            refs[args.workload] = ref_reps[0]["table"]
            REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        reference = compare_reference(args.workload, ref_reps[0]["table"])

    def record(rs):
        return [{k: v for k, v in r.items() if k not in ("summary", "table")} for r in rs]

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "environment": dict(environment(workers), working_set_mb=working_set(
            models[0].basis.dim, [m.basis.size for m in models])),
        "path_steps": steps,
        "setup": {"import_s": imports, "build_s": builds, "setup_s": setup_s},
        "spot_checks": checks,
        "reference": reference,
        "untraced": record(reps),
        "metrics": {
            "wall_s": median([r["wall_s"] for r in reps]),
            "path_steps_per_s": median([steps / r["wall_s"] for r in reps]),
            "setup_s": setup_s,
            "cpu_s": median([r["cpu_s"] for r in reps]),
        },
    }

    failed_checks = sum((not c["skew_ok"]) + (not c["monotone_ok"]) for c in checks)
    if reference is not None and not reference["ok"]:
        failed_checks += 1
    if tracer:
        per_rep = [layer_metrics(sp, r, workers, main_pid) for sp, r in zip(traced_spans, traced)]
        layers = {k: median([m[k] for m, _ in per_rep]) for k in per_rep[0][0]}
        counts = kernel_counts(models[0].basis.dim, per_rep[0][1])
        layers.update({
            "config.parse_s": sum(s[2] - s[1] for s in setup_spans if s[0] == "config.parse"),
            "basis.build_s": sum(s[2] - s[1] for s in setup_spans if s[0] == "basis.build"),
            "operators.convection_useful_frac": counts["convection_useful_frac"],
            "operators.convection_tensor_mb": counts["convection_tensor_mb"],
            "operators.stress_modes_mb": counts["stress_modes_mb"],
            "operators.stress_flops": counts["stress_flops"],
            "operators.stress_bytes": counts["stress_bytes"],
            "operators.convection_flops": counts["convection_flops"],
            "operators.convection_bytes": counts["convection_bytes"],
            "trace.overhead_frac": (median([r["wall_s"] for r in traced])
                                    / result["metrics"]["wall_s"] - 1.0),
        })
        result.update(traced=record(traced), per_layer=layers, kernel_counts=counts,
                      path_steps_traced=layers["solver.path_steps"])
        failed_checks += layers["solver.path_steps"] != steps
        write_spans(Path(args.result).with_suffix(".spans.jsonl"),
                    setup_spans + [s for sp in traced_spans for s in sp])

    timed = reps + traced
    failed_runs = (sum(not rep_ok(r, reps[0]["summary"]) for r in timed)
                   + sum(not rep_ok(r, r["summary"]) for r in ref_reps))
    all_reps = timed + ref_reps
    attempted = (len(all_reps) + sum(r["paths"] for r in all_reps) + 2 * len(checks)
                 + (reference is not None))
    failed = failed_runs + sum(r["blown"] for r in all_reps) + failed_checks
    result.update(attempted=attempted, failed=failed, failed_frac=failed / attempted,
                  correct=failed == 0)
    Path(args.result).write_text(json.dumps(result, indent=1, default=float))
    shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
