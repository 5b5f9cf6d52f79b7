"""Named experiments: one runner per provable property of the model.

Each runner builds its models from an ExperimentConfig, executes the
study, writes plot-ready CSV tables plus a timestamp-free JSON summary
(verdicts, measured constants, seeds, basis fingerprint, config hash),
and returns a machine-readable exit status: 0 pass, 1 verdict fail,
2 config error, 3 runtime blow-up.

`run_ensemble` splits an ensemble into fixed-size blocks regardless of
the worker count: ENSEMBLE_BLOCK = 128 paths for `run_paths` ensembles
(moments, audit) and PAIR_BLOCK = 250 coupled pairs for contraction.  A
block draws each path's jumps once and runs every level (moments, in one
call for all its levels) or every separation (contraction) on them: the
levels and the separations use the same streams, common random numbers,
so one draw serves them all and one pool pass serves the whole study.
Each path owns its derived noise stream, so the artifacts are
byte-identical for any worker count and any block-to-worker assignment.
Block size still matters in the last digits, because BLAS blocking makes
a row's result depend on the batch it sits in.  A contraction block steps
both sides of all its separations as one batch, so with three separations
a 250-pair block is a 1500-row batch.  PAIR_BLOCK was measured when each
side was a batch of its own, 750 rows a block and 3000 for the whole
ensemble.  With m=16 and 1000 pairs (contraction.cfg), 250-pair blocks
move the statistic by up to 1.4e-13 relative (a pair distance by up to
6.4e-13 of the largest) against one batch for the whole ensemble, and
64-pair blocks by 1.3e-13; the 250-pair blocks take the least CPU on one
BLAS thread of a 2-vCPU host, 17.8 s against 20.1 s for one batch and
20.2 s for 64-pair blocks.  ENSEMBLE_BLOCK was measured the same way.
Much of a step's cost does not grow with its rows (the `_march`
bookkeeping, the drift calls' fixed overhead, the advance), so larger
blocks amortize it, while fewer blocks than workers leave a worker idle.
Wall time of `run_experiment` (median [quartiles] of 14 runs per cell,
the block order rotated between repetitions; 2-vCPU host, one BLAS
thread):

    run                     workers  64                    128                   256
    moments, 256 paths (*)  1        0.604 [0.516, 0.662]  0.503 [0.422, 0.533]  0.421 [0.365, 0.453]
                            2        0.396 [0.371, 0.469]  0.325 [0.306, 0.349]  0.391 [0.325, 0.428]
    moments.cfg, 1000 paths 1        11.13 [10.78, 12.07]  10.18 [8.62, 10.95]   9.02 [8.48, 9.80]
                            2        6.08 [5.49, 6.94]     5.47 [5.02, 5.84]     5.20 [4.79, 5.69]
    audit.cfg, 256 paths    1        0.826 [0.690, 0.924]  0.734 [0.576, 0.756]  0.630 [0.513, 0.715]
                            2        0.662 [0.573, 0.693]  0.574 [0.525, 0.617]  0.739 [0.599, 0.781]

    (*) the benchmark's `ensemble` workload: levels 4-32, 250 steps, seed 1

128 is the fastest at two workers on both 256-path ensembles, where 256
makes one block and idles the second worker, and within the quartiles
of 256 on moments.cfg; one worker favours 256.  The block stays one
constant, so the artifacts stay byte-identical for any worker count.

Within a block, paths that share a start (mode1 or zero initials, the
Chapman-Kolmogorov restarts) share one drift evaluation until their
first jumps, and the k base rows of one path, one per separation and
equal in start and jump list, share it for the whole run, so the drift
calls shrink and round in the last digits unlike calls on every row;
the groups are found per block, so this too is the same for any worker
count.  Only the runners build FluidModels, each distinct model once, in
the calling process; a pool worker steps the caller's models, handed to
its initializer (inherited at fork, pickled under spawn and forkserver).
The cauchy, feller, occupation and invariant-bound runners run in one
process.
"""

from __future__ import annotations

import ctypes
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import ergodics
from .basis import build_basis
from .config import config_hash
from .ergodics import (
    FELLER_FUNCTIONALS,
    EnsembleSpec,
    additive_drive_rates,
    chapman_kolmogorov,
    draw_initials,
    feller_modulus,
    invariant_moment_check,
    linear_second_moments,
    make_functional,
    mc_moment,
    no_increase_verdict,
    occupation_measure,
    stochastic_gronwall_audit,
    uniqueness_contraction,
)
from .noise import STREAM_BOUND, STREAM_STATS, certify_noise_bounds, derive_rng, write_jump_log
from .operators import estimate_convection_bound
from .reporting import (
    export_ledger_jsonl,
    export_trajectory_csv,
    write_run_meta,
    write_series,
    write_summary,
)
from .solver import (
    BlowUpError,
    EnsembleResult,
    FluidModel,
    _draw_jumps,
    _jump_steps,
    energy_audit,
    run_pairs,
    run_paths,
)

__all__ = ["run_experiment", "build_model", "run_ensemble", "ENSEMBLE_BLOCK", "PAIR_BLOCK"]

ENSEMBLE_BLOCK = 128
PAIR_BLOCK = 250
WORKERS_ENV = "LEVYFLUID_WORKERS"


def build_model(cfg, **solver_overrides):
    marks = cfg.marks()
    return FluidModel(replace(cfg.solver, **solver_overrides), cfg.make_sigma(marks), marks)


def _path_block(models, initials, seed, offset, n_out, track_audit):
    # one jump draw per path, shared by every model
    jumps = _draw_jumps(models[0], seed, initials[0].shape[0], offset)
    return [run_paths(model, X, seed, n_out=n_out, track_audit=track_audit, jumps=jumps)
            for model, X in zip(models, initials)]


def _pair_block(models, initials, seed, offset, partners, n_out, conv_bound):
    (model,) = models
    k = len(partners)
    # one jump draw per pair, shared by every partner; the separations run
    # as one batch, row i*P + p the pair of partner i and path p
    jumps = _draw_jumps(model, seed, initials.shape[0], offset)
    out = run_pairs(model, np.tile(initials, (k, 1)), np.concatenate(partners), seed,
                    conv_bound, n_out=n_out, jumps=jumps * k)
    # each per-path array (..., k*P) as (k, ..., P): the partner first
    return {key: v if key == "times" else np.moveaxis(v.reshape(*v.shape[:-1], k, -1), -2, 0)
            for key, v in out.items()}


class LevelResults(list):
    """One EnsembleResult per model of a `run_ensemble` call."""

    @property
    def blown(self):
        """Blown flags of every model, shape (n_models, P)."""
        return np.stack([r.blown for r in self])


def _merge_results(parts):
    # the audited paths are the first of the ensemble, so all in the first block
    first = parts[0]
    series = {
        k: np.concatenate([p.series[k] for p in parts], axis=1) for k in first.series
    }
    return EnsembleResult(
        times=first.times,
        series=series,
        terminal=np.concatenate([p.terminal for p in parts], axis=0),
        blown=np.concatenate([p.blown for p in parts]),
        blow_steps=np.concatenate([p.blow_steps for p in parts]),
        ledger=first.ledger,
        states=first.states,
    )


def _merge_levels(parts):
    # parts[block][level] is a run_paths result
    return LevelResults(_merge_results(list(runs)) for runs in zip(*parts))


def _merge_pairs(parts):
    # parts[block] is a `_pair_block` dict whose last axis is the path
    return {key: v if key == "times" else np.concatenate([p[key] for p in parts], axis=-1)
            for key, v in parts[0].items()}


_worker_models = None  # set in each pool worker: the models of the call it serves


def _openblas(symbol):
    """`symbol` of numpy's bundled OpenBLAS (dlopen hands back numpy's
    loaded copy), or None where no such library has it."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_-*.so"):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, symbol):
            return getattr(lib, symbol)
    return None


def _start_worker(models):
    global _worker_models
    _worker_models = models
    # a worker is one lane of the pool, so BLAS threads within it only
    # contend for the same cores: numpy's bundled OpenBLAS, where found,
    # gets one thread
    set_threads = _openblas("scipy_openblas_set_num_threads64_")
    if set_threads is not None:
        set_threads(1)


def _in_worker(job):
    task, args = job
    return task(_worker_models, *args)


def run_ensemble(models, initials, seed, *, n_out=11, track_audit=False,
                 partners=None, conv_bound=None, workers=1):
    """Block-split ensemble run; identical output for any worker count.

    `models` are the FluidModels to step and `initials` a list of (P, m)
    batches, one per model.  Without `partners`, runs `run_paths` on
    ENSEMBLE_BLOCK-path blocks: each block draws its paths' jumps once and
    runs every model on them, and the result is a LevelResults, one
    EnsembleResult per model, whose `blown` has shape (n_models, P).  The
    models must share the horizon and the mark rates, which fix the law of
    the shared draw (ValueError otherwise); they may differ in anything
    else, such as the level or dt.  With `partners`, a list of k (P, m)
    batches, couples path i of the one batch of `initials` to row i of
    each partner batch through `run_pairs` on the one model, on
    PAIR_BLOCK-pair blocks.  The result has run_pairs' keys: `times`
    (n_out,), and each per-path array with the partner first and the path
    last, `wsq` and `rho_wsq` (k, n_out, P) and `blown` (k, P).
    Pool workers run numpy's OpenBLAS on one thread each.
    """
    if any(m.config.horizon != models[0].config.horizon
           or not np.array_equal(m.marks.rates, models[0].marks.rates) for m in models):
        raise ValueError("the models of one ensemble must share the horizon and the mark rates")
    n_paths = initials[0].shape[0]

    def blocks(size):
        return [(a, min(a + size, n_paths)) for a in range(0, n_paths, size)]

    if partners is None:
        task, merge = _path_block, _merge_levels
        jobs = [([X[a:b] for X in initials], seed, a, n_out, track_audit)
                for a, b in blocks(ENSEMBLE_BLOCK)]
    else:
        task, merge = _pair_block, _merge_pairs
        (X1,) = initials
        jobs = [(X1[a:b], seed, a, [x[a:b] for x in partners], n_out, conv_bound)
                for a, b in blocks(PAIR_BLOCK)]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs)),
                                 initializer=_start_worker, initargs=(models,)) as pool:
            parts = list(pool.map(_in_worker, [(task, args) for args in jobs]))
    else:
        parts = [task(models, *args) for args in jobs]
    return merge(parts)


def _is_linear_drift(cfg):
    return not cfg.solver.convection and not cfg.solver.stress


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _run_moments(cfg, out_dir, workers):
    levels = cfg.options["levels"]
    rows = []
    stats = {1: {"sup": [], "sup_se": [], "diss": [], "diss_se": []},
             2: {"sup": [], "sup_se": [], "diss": [], "diss_se": []}}
    bound_consts = []
    oracle = None
    spec = EnsembleSpec(cfg.n_paths, cfg.seed, cfg.initial_law())
    models = [build_model(cfg, level=level) for level in levels]
    batches = [draw_initials(spec, model.basis) for model in models]
    # one pool pass: every block runs all levels under one jump draw
    results = run_ensemble(models, batches, cfg.seed, workers=workers)
    for level, model, initials, result in zip(levels, models, batches, results):
        init_sq = float(np.mean(np.sum(initials**2, axis=1)))
        for r in (1, 2):
            est = mc_moment(result, r, cfg.seed)
            stats[r]["sup"].append(est["sup_moment"])
            stats[r]["sup_se"].append(est["sup_se"])
            stats[r]["diss"].append(est["diss_moment"])
            stats[r]["diss_se"].append(est["diss_se"])
            # measured constant of the moment bound: the level sequence of
            # (E sup |u|^2r + E dissipation) / (E |xi|^2r + 1)
            c_hat = (est["sup_moment"] + est["diss_moment"]) / (init_sq**r + 1.0)
            if r == 1:
                bound_consts.append(c_hat)
            rows.append(
                (level, r, est["sup_moment"], est["sup_se"], est["diss_moment"],
                 est["diss_se"], c_hat, est["n_blown"])
            )
        if _is_linear_drift(cfg) and cfg.noise_kind == "additive" and oracle is None:
            drive = additive_drive_rates(model.sigma, level)
            if cfg.initial == "gaussian":
                init_sq = cfg.initial_scale**2 / model.basis.eigenvalues
            else:
                init_sq = cfg.initial_coeffs()[:level] ** 2
            series = linear_second_moments(
                model.basis.eigenvalues, cfg.fluid.kappa1, model.dt,
                model.n_steps, drive, init_sq,
            )
            expected = float(series[-1].sum())
            ok = result.alive()
            vals = result.series["l2_sq"][-1][ok]
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(vals.size))
            oracle = {
                "expected_l2_sq": expected,
                "measured_l2_sq": mean,
                "se": se,
                "z": abs(mean - expected) / se if se > 0 else 0.0,
                "passed": abs(mean - expected) <= 3.0 * se + 1e-12,
            }

    verdicts = {}
    for r in (1, 2):
        ok_sup, z_sup = no_increase_verdict(stats[r]["sup"], stats[r]["sup_se"])
        ok_diss, z_diss = no_increase_verdict(stats[r]["diss"], stats[r]["diss_se"])
        verdicts[f"r{r}"] = {
            "sup_no_increase": ok_sup,
            "sup_z": z_sup,
            "diss_no_increase": ok_diss,
            "diss_z": z_diss,
        }
    passed = all(v["sup_no_increase"] and v["diss_no_increase"] for v in verdicts.values())
    if oracle is not None:
        passed = passed and oracle["passed"]
    return {
        "passed": passed,
        "levels": levels,
        "trend": verdicts,
        "bound_constants": bound_consts,
        "oracle": oracle,
        "tables": {
            "moments": (
                ("level", "r", "sup_moment", "sup_se", "diss_moment", "diss_se",
                 "bound_const", "n_blown"),
                rows,
            )
        },
    }


def _run_cauchy(cfg, out_dir, workers):
    levels = cfg.options["levels"]
    spec = EnsembleSpec(cfg.n_paths, cfg.seed, cfg.initial_law())
    models = [build_model(cfg, level=level) for level in levels]
    study = ergodics.cauchy_study(models, spec)
    rows = [
        (r["level_lo"], r["level_hi"], r["terminal_gap_sq"], r["terminal_gap_se"],
         r["energy_gap_int"], r["energy_gap_se"], r["ratio"])
        for r in study["rows"]
    ]
    oracle = None
    if cfg.noise_kind == "zero" and _is_linear_drift(cfg):
        # each mode decays geometrically, so the inter-level gap is the
        # decayed tail energy of the initial state, averaged over paths
        top = models[-1]
        decay = (1.0 + top.dt * cfg.fluid.kappa1 * top.basis.eigenvalues) ** (-top.n_steps)
        terminal = draw_initials(spec, top.basis) * decay[None, :]
        errs = []
        for i, row in enumerate(study["rows"]):
            lo, hi = levels[i], levels[i + 1]
            expected = float(np.mean(np.sum(terminal[:, lo:hi] ** 2, axis=1)))
            got = row["terminal_gap_sq"]
            errs.append(abs(got - expected) / expected if expected > 0 else abs(got))
        oracle = {"rel_errors": errs, "passed": all(e < 1e-3 for e in errs)}
    passed = study["passed"] and (oracle is None or oracle["passed"])
    return {
        "passed": passed,
        "decreasing": study["decreasing"],
        "final_ratio": study["final_ratio"],
        "refine_dt": study["refine_dt"],
        "oracle": oracle,
        "n_blown": study["rows"][-1]["n_blown"],  # paths dropped from every gap
        "tables": {
            "cauchy": (
                ("level_lo", "level_hi", "terminal_gap_sq", "terminal_gap_se",
                 "energy_gap_int", "energy_gap_se", "ratio"),
                rows,
            )
        },
    }


def _run_contraction(cfg, out_dir, workers):
    separations = cfg.options["separations"]
    model = build_model(cfg)
    conv_bound = estimate_convection_bound(model.ops, derive_rng(cfg.seed, STREAM_BOUND))
    xi1 = cfg.initial_coeffs()
    direction = np.zeros(cfg.solver.level)
    direction[0] = 1.0
    partners = [xi1 + sep * direction for sep in separations]
    pairs = run_ensemble([model], [np.tile(xi1, (cfg.n_paths, 1))], cfg.seed,
                         partners=[np.tile(xi2, (cfg.n_paths, 1)) for xi2 in partners],
                         conv_bound=conv_bound, workers=workers)
    rows, finals, n_blown = [], [], []
    for k, (sep, xi2) in enumerate(zip(separations, partners)):
        out = uniqueness_contraction(
            {key: v if key == "times" else v[k] for key, v in pairs.items()}, xi1, xi2)
        for t, s, e, r in zip(out["times"], out["statistic"], out["stderr"],
                              out["raw_statistic"]):
            rows.append((sep, t, s, e, r))
        finals.append((sep, float(out["statistic"][-1]), float(out["stderr"][-1])))
        n_blown.append(out["n_blown"])
    overlap = all(
        abs(a[1] - b[1]) <= 2.0 * (a[2] + b[2])
        for i, a in enumerate(finals)
        for b in finals[i + 1 :]
    )
    # the weighted-distance argument bounds the statistic by exp(l2 * T)
    ceiling = float(np.exp(model.sigma.bounds.lipschitz * cfg.solver.horizon))
    below_ceiling = all(s <= ceiling * 1.2 for _, s, _ in finals)
    return {
        "passed": overlap and below_ceiling,
        "conv_bound": conv_bound,
        "theory_ceiling": ceiling,
        "finals": finals,
        "n_blown": n_blown,  # pairs dropped from each separation's statistic
        "tables": {
            "contraction": (
                ("separation", "t", "statistic", "stderr", "raw_statistic"),
                rows,
            )
        },
    }


def _run_feller(cfg, out_dir, workers):
    t, s = cfg.options["lag"], cfg.options["lag2"]
    n_inner = cfg.options["inner"]
    deltas = cfg.options["deltas"]
    horizons = (t, s, t + s)
    models = {h: build_model(cfg, horizon=h) for h in dict.fromkeys(horizons)}
    model_t, model_s, model_ts = (models[h] for h in horizons)
    xi = cfg.initial_coeffs()
    direction = np.zeros(cfg.solver.level)
    direction[-1] = 1.0
    phis = {name: make_functional(name, model_t.basis) for name in FELLER_FUNCTIONALS}
    # one simulation of each path set serves every functional
    cks = chapman_kolmogorov(model_t, model_s, model_ts, phis, xi, cfg.n_paths, n_inner,
                             cfg.seed)
    mods = feller_modulus(model_t, phis, xi, direction, deltas, cfg.n_paths, cfg.seed)
    ck_rows = [(name, ck["direct"], ck["direct_se"], ck["nested"], ck["nested_se"], ck["z"])
               for name, ck in cks.items()]
    mod_rows = [(name, r["delta"], r["modulus"], r["se"])
                for name, mod in mods.items() for r in mod["rows"]]
    ck_pass = all(ck["z"] <= 4.0 for ck in cks.values())
    mod_pass = all(mod["monotone"] for mod in mods.values())
    # the counts are the same for every functional: they come from one run per path set
    ck, mod = cks[FELLER_FUNCTIONALS[0]], mods[FELLER_FUNCTIONALS[0]]
    return {
        "passed": ck_pass and mod_pass,
        "chapman_kolmogorov_passed": ck_pass,
        "modulus_monotone": mod_pass,
        "n_blown": {
            "direct": ck["n_blown_direct"],
            "outer": ck["n_blown_outer"],
            "inner": ck["n_blown_inner"],
            "modulus_pairs": [r["n_dropped"] for r in mod["rows"]],
        },
        "tables": {
            "chapman_kolmogorov": (
                ("functional", "direct", "direct_se", "nested", "nested_se", "z"),
                ck_rows,
            ),
            "feller_modulus": (("functional", "delta", "modulus", "se"), mod_rows),
        },
    }


def _run_occupation(cfg, out_dir, workers):
    model = build_model(cfg)
    spec = EnsembleSpec(cfg.n_paths, cfg.seed, cfg.initial_law())
    names = ("sq_norm", "energy_norm_sq", "gauss_bump")
    occ = occupation_measure(model, names, cfg.options["schedule"], cfg.options["burn_in"], spec)
    rows = []
    stabilized = True
    for name in names:
        for r in occ[name]["rows"]:
            rows.append((name, r["T"], r["average"], r["se"]))
        stabilized = stabilized and occ[name]["stabilized"]
    return {
        "passed": stabilized,
        "n_blown": int(occ["_result"].blown.sum()),  # replicas dropped from every average
        "tables": {"occupation": (("functional", "T", "average", "se"), rows)},
    }


def _run_invariant(cfg, out_dir, workers):
    model = build_model(cfg)
    spec = EnsembleSpec(cfg.n_paths, cfg.seed, cfg.initial_law())
    check = invariant_moment_check(
        model, spec, cfg.options["schedule"], cfg.options["burn_in"],
        tolerance=cfg.options["tolerance"],
    )
    rows = []
    for name in ("sq_norm", "energy_norm_sq"):
        for r in check["occupation"][name]["rows"]:
            rows.append((name, r["T"], r["average"], r["se"]))
    summary = {k: v for k, v in check.items() if k != "occupation"}
    summary["n_blown"] = check["occupation"]["sq_norm"]["rows"][-1]["n_blown"]
    summary["tables"] = {"invariant_bound": (("functional", "T", "average", "se"), rows)}
    return summary


def _run_audit(cfg, out_dir, workers):
    model = build_model(cfg)
    spec = EnsembleSpec(cfg.n_paths, cfg.seed, cfg.initial_law())
    initials = draw_initials(spec, model.basis)
    result = run_ensemble([model], [initials], cfg.seed, n_out=21, track_audit=True,
                          workers=workers)[0]
    # the path audits read the ledgers of the ensemble's first paths
    ledgers = [{k: v[:, p] for k, v in result.ledger.items()}
               for p in range(result.states.shape[1])]
    if result.blown[:len(ledgers)].any():  # an audited path has no whole ledger
        raise BlowUpError.of(result, model)
    gron = stochastic_gronwall_audit(result, 2.0 * cfg.fluid.kappa1)
    path_reports = [dict(energy_audit(ledger), path=p) for p, ledger in enumerate(ledgers)]

    ledger = ledgers[0]
    jump_times, jump_marks = _draw_jumps(model, cfg.seed, 1, 0)[0]
    export_trajectory_csv(out_dir / "trajectory0.csv", np.concatenate([[0.0], ledger["t"]]),
                          np.concatenate([initials[:1], result.states[:, 0]]), jump_times,
                          model.basis, config_hash=config_hash(cfg))
    export_ledger_jsonl(out_dir / "ledger0.jsonl", ledger)
    # a jump's pre-jump norm is that of the state before the step that takes it
    pre = np.sqrt(ledger["l2_pre_sq"][_jump_steps(jump_times, model.dt, model.n_steps)])
    write_jump_log(out_dir / "jumps0.jsonl", jump_times, jump_marks, pre)

    rows = [
        (t, l, b, m)
        for t, l, b, m in zip(gron["times"], gron["lhs"], gron["bound"],
                              gron["bound"] - gron["lhs"])
    ]
    # measured constant of the moment bound on this ensemble (r = 1)
    ok = result.alive()
    init_sq = float(np.mean(np.sum(initials**2, axis=1)))
    c_hat = float(
        (result.series["sup_l2_sq"][-1][ok] + result.series["diss_int"][-1][ok]).mean()
        / (init_sq + 1.0)
    )
    passed = gron["passed"] and all(r["passed"] for r in path_reports)
    return {
        "passed": passed,
        "gronwall": {k: v for k, v in gron.items() if k not in ("times", "lhs", "bound")},
        "moment_bound_constant": c_hat,
        "n_blown": int(result.blown.sum()),  # paths dropped from the audit and the constant
        "path_audits": path_reports,
        "tables": {"gronwall": (("t", "lhs", "bound", "margin"), rows)},
    }


_RUNNERS = {
    "moments": _run_moments,
    "cauchy": _run_cauchy,
    "contraction": _run_contraction,
    "feller": _run_feller,
    "occupation": _run_occupation,
    "invariant-bound": _run_invariant,
    "audit": _run_audit,
}


def default_workers():
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


def run_experiment(cfg, out_dir=None, workers=None):
    """Execute the configured experiment and write its artifact bundle.

    Returns (exit_code, summary).  Exit codes: 0 pass, 1 verdict fail,
    2 a failed noise certificate, 3 a runner's BlowUpError (an audit whose
    audited paths include a blown one, or an occupation run with no
    surviving replica).
    Partial outputs are flushed with a TRUNCATED marker when a run
    aborts.  A run that reaches its runner writes run_meta.json:
    `wall_time` and the seconds of its phases, `certify_s` (the noise
    certificate), `run_s` (the runner) and `write_s` (the CSV tables and
    the summary); `workers`; and `blas_threads`, the thread count of
    numpy's bundled OpenBLAS in the calling process (null where that
    library is not found).
    """
    start = time.perf_counter()
    workers = default_workers() if workers is None else max(1, workers)
    out_dir = Path(cfg.out if out_dir is None else out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    basis = build_basis(cfg.solver.level, cfg.solver.dim)
    sigma = cfg.make_sigma(cfg.marks())
    t0 = time.perf_counter()
    cert = certify_noise_bounds(
        sigma, cfg.solver.level, derive_rng(cfg.seed, STREAM_STATS, 999)
    )
    get_threads = _openblas("scipy_openblas_get_num_threads64_")
    meta = {"workers": workers, "certify_s": time.perf_counter() - t0,
            "blas_threads": None if get_threads is None else get_threads()}
    base_summary = {
        "experiment": cfg.experiment,
        "config": cfg.canonical(),
        "config_hash": chash,
        "seed": cfg.seed,
        "basis_fingerprint": basis.fingerprint(),
        "lambda1": basis.lambda1,
        "noise_certificate": cert.as_dict(),
    }
    if not cert.passed:
        summary = dict(base_summary, error="noise bounds certificate failed",
                       verdict="FAIL")
        write_summary(out_dir / "summary.json", summary)
        (out_dir / "TRUNCATED").write_text("noise bounds certificate failed\n")
        return 2, summary
    t0 = time.perf_counter()
    try:
        report = _RUNNERS[cfg.experiment](cfg, out_dir, workers)
    except BlowUpError as exc:
        meta["run_s"] = time.perf_counter() - t0
        summary = dict(base_summary, truncated=True, blow_up=exc.report, verdict="FAIL")
        t0 = time.perf_counter()
        write_summary(out_dir / "summary.json", summary)
        meta["write_s"] = time.perf_counter() - t0
        write_run_meta(out_dir / "run_meta.json", time.perf_counter() - start, meta)
        (out_dir / "TRUNCATED").write_text(str(exc) + "\n")
        return 3, summary
    meta["run_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    tables = report.pop("tables", {})
    for name, (columns, rows) in tables.items():
        write_series(out_dir / f"{name}.csv", columns, rows, config_hash=chash)
    summary = dict(base_summary, **report)
    summary["verdict"] = "PASS" if report.get("passed") else "FAIL"
    write_summary(out_dir / "summary.json", summary)
    meta["write_s"] = time.perf_counter() - t0
    write_run_meta(out_dir / "run_meta.json", time.perf_counter() - start, meta)
    return (0 if report.get("passed") else 1), summary
