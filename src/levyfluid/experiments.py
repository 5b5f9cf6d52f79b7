"""Named experiments: one runner per provable property of the model.

Each runner builds its models from an ExperimentConfig, executes the
study, writes plot-ready CSV tables plus a timestamp-free JSON summary
(verdicts, measured constants, seeds, basis fingerprint, config hash),
and returns a machine-readable exit status: 0 pass, 1 verdict fail,
2 config error, 3 runtime blow-up.

`run_ensemble` splits an ensemble into fixed-size blocks regardless of
the worker count: ENSEMBLE_BLOCK = 64 paths for `run_paths` ensembles
(moments, audit) and PAIR_BLOCK = 250 coupled pairs for contraction.  A
block draws each path's jumps once and runs every level (moments, in one
call for all its levels) or every separation (contraction) on them: the
levels and the separations use the same streams, common random numbers,
so one draw serves them all and one pool pass serves the whole study.
Each path owns its derived noise stream, so the artifacts are
byte-identical for any worker count and any block-to-worker assignment.
Block size still matters in the last digits, because BLAS blocking makes
a row's result depend on the batch it sits in.  With m=16 and 1000 pairs,
250-pair blocks reproduce the one-batch distances bit for bit, while
64-pair blocks moved the statistic by up to 1e-13 relative and took about
a fifth more CPU.  Within a block, paths that share a start (mode1 or
zero initials, the Chapman-Kolmogorov restarts) share one drift
evaluation until their first jumps, so the drift calls shrink to a few
rows and round in the last digits unlike calls on every row; the groups
are found per block, so this too is the same for any worker count.  A
pool worker builds one FluidModel per level once, in the pool
initializer; a serial run uses the runner's models.  The cauchy, feller,
occupation and invariant-bound runners run in one process.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import ergodics
from .basis import build_basis
from .config import ConfigError, config_hash
from .ergodics import (
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
from .noise import STREAM_STATS, certify_noise_bounds, derive_rng, write_jump_log
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
    energy_audit,
    integrate,
    run_pairs,
    run_paths,
)

__all__ = ["run_experiment", "build_model", "run_ensemble", "ENSEMBLE_BLOCK", "PAIR_BLOCK"]

ENSEMBLE_BLOCK = 64
PAIR_BLOCK = 250
WORKERS_ENV = "LEVYFLUID_WORKERS"


def build_model(cfg, **solver_overrides):
    solver = replace(cfg.solver, **solver_overrides) if solver_overrides else cfg.solver
    marks = cfg.marks()
    sigma = cfg.make_sigma(marks)
    return FluidModel(solver, sigma, marks)


def _path_block(models, initials, seed, offset, n_out, track_audit):
    # one jump draw per path, shared by every level
    jumps = _draw_jumps(models[0], seed, initials[0].shape[0], offset)
    return [run_paths(model, X, seed, n_out=n_out, track_audit=track_audit, jumps=jumps)
            for model, X in zip(models, initials)]


def _pair_block(models, initials, seed, offset, partners, n_out, conv_bound):
    (model,) = models
    # one jump draw per pair, shared by every partner
    jumps = _draw_jumps(model, seed, initials.shape[0], offset)
    return [run_pairs(model, initials, x2, seed, conv_bound, n_out=n_out, jumps=jumps)
            for x2 in partners]


class LevelResults(list):
    """One EnsembleResult per level of a levels-form `run_ensemble` call."""

    @property
    def blown(self):
        """Blown flags of every level, shape (n_levels, P)."""
        return np.stack([r.blown for r in self])


def _merge_results(parts):
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
        n_jumps=np.concatenate([p.n_jumps for p in parts]),
        jumps=[j for p in parts for j in p.jumps],
    )


def _merge_levels(parts):
    # parts[block][level] is a run_paths result
    return LevelResults(_merge_results(list(runs)) for runs in zip(*parts))


def _merge_pairs(parts):
    # parts[block][partner] is a run_pairs dict whose last axis is the path
    per_partner = list(zip(*parts))
    merged = {
        k: np.stack([np.concatenate([r[k] for r in runs], axis=-1) for runs in per_partner])
        for k in ("wsq", "rho_wsq", "wsq0", "blown")
    }
    merged["times"] = np.stack([runs[0]["times"] for runs in per_partner])
    return merged


_worker_models = None  # set in each pool worker: one per level of the call it serves


def _start_worker(cfg, overrides):
    global _worker_models
    _worker_models = [build_model(cfg, **o) for o in overrides]


def _in_worker(job):
    task, args = job
    return task(_worker_models, *args)


def run_ensemble(cfg, initials, seed, *, overrides=None, n_out=11, track_audit=False,
                 partners=None, conv_bound=None, workers=1, model=None):
    """Block-split ensemble run; identical output for any worker count.

    Without `partners`, runs `run_paths` on ENSEMBLE_BLOCK-path blocks and
    returns one EnsembleResult.  In the levels form, `overrides` is a list
    of per-level overrides of the truncation level, `initials` the list of
    their (P, m_level) batches and `model`, when given, the list of their
    models; each block draws its paths' jumps once and runs every level on
    them, and the result is a LevelResults, one EnsembleResult per level,
    whose `blown` has shape (n_levels, P).  A single level is the
    one-level case of the same block task.  With `partners`, a list of
    (P, m) batches, couples path i of `initials` to row i of each partner
    batch through `run_pairs` on PAIR_BLOCK-pair blocks; the result is
    run_pairs' dict with every array stacked over the partners, paths on
    the last axis.  Each pool worker builds one model per level, once; a
    serial run builds them in the calling process, or uses `model`, the
    caller's model of `cfg` with `overrides`, when given.
    """
    levels = isinstance(overrides, list)
    overrides = overrides if levels else [overrides or {}]
    if levels and any(set(o) - {"level"} for o in overrides):
        raise ValueError("the levels of one ensemble may differ in their level only")
    batches = initials if levels else [initials]
    n_paths = batches[0].shape[0]

    def blocks(size):
        return [(a, min(a + size, n_paths)) for a in range(0, n_paths, size)]

    if partners is None:
        task, merge = _path_block, _merge_levels
        jobs = [([X[a:b] for X in batches], seed, a, n_out, track_audit)
                for a, b in blocks(ENSEMBLE_BLOCK)]
    else:
        task, merge = _pair_block, _merge_pairs
        jobs = [(batches[0][a:b], seed, a, [x[a:b] for x in partners], n_out, conv_bound)
                for a, b in blocks(PAIR_BLOCK)]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs)),
                                 initializer=_start_worker,
                                 initargs=(cfg, overrides)) as pool:
            parts = list(pool.map(_in_worker, [(task, args) for args in jobs]))
    else:
        if model is None:
            models = [build_model(cfg, **o) for o in overrides]
        else:
            models = model if levels else [model]
        parts = [task(models, *args) for args in jobs]
    result = merge(parts)
    return result if levels or partners is not None else result[0]


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
    results = run_ensemble(cfg, batches, cfg.seed,
                           overrides=[{"level": level} for level in levels],
                           workers=workers, model=models)
    for level, model, initials, result in zip(levels, models, batches, results):
        init_sq = float(np.mean(np.sum(initials**2, axis=1)))
        for r in (1, 2):
            est = mc_moment(model, spec, r, result=result)
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
            sigma = cfg.make_sigma(cfg.marks())
            drive = additive_drive_rates(sigma, cfg.marks(), level)
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

    def make_model(level):
        return build_model(cfg, level=level)

    study = ergodics.cauchy_study(make_model, levels, spec)
    rows = [
        (r["level_lo"], r["level_hi"], r["terminal_gap_sq"], r["terminal_gap_se"],
         r["energy_gap_int"], r["energy_gap_se"], r["ratio"])
        for r in study["rows"]
    ]
    oracle = None
    if cfg.noise_kind == "zero" and _is_linear_drift(cfg):
        # each mode decays geometrically, so the inter-level gap is the
        # decayed tail energy of the initial state, averaged over paths
        top = make_model(levels[-1])
        initials = draw_initials(spec, top.basis)
        decay = (1.0 + top.dt * cfg.fluid.kappa1 * top.basis.eigenvalues) ** (-top.n_steps)
        terminal = initials * decay[None, :]
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
    rng = ergodics.derive_rng(cfg.seed, 3, 0)
    conv_bound = estimate_convection_bound(model.ops, rng)
    xi1 = cfg.initial_coeffs()
    direction = np.zeros(cfg.solver.level)
    direction[0] = 1.0
    spec = EnsembleSpec(cfg.n_paths, cfg.seed)
    partners = [xi1 + sep * direction for sep in separations]
    pairs = run_ensemble(cfg, np.tile(xi1, (cfg.n_paths, 1)), cfg.seed,
                         partners=[np.tile(xi2, (cfg.n_paths, 1)) for xi2 in partners],
                         conv_bound=conv_bound, workers=workers, model=model)
    rows, finals = [], []
    for k, (sep, xi2) in enumerate(zip(separations, partners)):
        out = uniqueness_contraction(model, spec, xi1, xi2, conv_bound,
                                     result={key: v[k] for key, v in pairs.items()})
        for t, s, e, r in zip(out["times"], out["statistic"], out["stderr"],
                              out["raw_statistic"]):
            rows.append((sep, t, s, e, r))
        finals.append((sep, float(out["statistic"][-1]), float(out["stderr"][-1])))
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
        "tables": {
            "contraction": (
                ("separation", "t", "statistic", "stderr", "raw_statistic"),
                rows,
            )
        },
    }


def _run_feller(cfg, out_dir, workers):
    names = [n.strip() for n in cfg.options["functionals"].split(",") if n.strip()]
    t, s = cfg.options["lag"], cfg.options["lag2"]
    n_inner = cfg.options["inner"]
    deltas = cfg.options["deltas"]
    basis = build_basis(cfg.solver.level, cfg.solver.dim)
    xi = cfg.initial_coeffs()
    direction = np.zeros(cfg.solver.level)
    direction[-1] = 1.0

    def make_model(horizon):
        return build_model(cfg, horizon=horizon)

    ck_rows, mod_rows = [], []
    ck_pass, mod_pass = True, True
    model_t = make_model(t)
    for name in names:
        phi = make_functional(name, basis)
        ck = chapman_kolmogorov(make_model, phi, xi, t, s, cfg.n_paths, n_inner, cfg.seed)
        ck_rows.append((name, ck["direct"], ck["direct_se"], ck["nested"],
                        ck["nested_se"], ck["z"]))
        ck_pass = ck_pass and ck["z"] <= 4.0
        mod = feller_modulus(model_t, phi, xi, direction, deltas, cfg.n_paths, cfg.seed)
        for r in mod["rows"]:
            mod_rows.append((name, r["delta"], r["modulus"], r["se"]))
        mod_pass = mod_pass and mod["monotone"]
    return {
        "passed": ck_pass and mod_pass,
        "chapman_kolmogorov_passed": ck_pass,
        "modulus_monotone": mod_pass,
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
    summary["tables"] = {"invariant_bound": (("functional", "T", "average", "se"), rows)}
    return summary


def _run_audit(cfg, out_dir, workers):
    model = build_model(cfg)
    spec = EnsembleSpec(cfg.n_paths, cfg.seed, cfg.initial_law())
    initials = draw_initials(spec, model.basis)
    result = run_ensemble(cfg, initials, cfg.seed, n_out=21, track_audit=True,
                          workers=workers, model=model)
    gron = stochastic_gronwall_audit(result, 2.0 * cfg.fluid.kappa1,
                                     beta=cfg.options["beta"])

    path_reports = []
    for p in range(min(4, cfg.n_paths)):
        # sample every step so the jump log carries the exact pre-step norms
        traj = integrate(model, initials[p], cfg.seed, path_index=p,
                         n_out=model.n_steps + 1)
        rep = energy_audit(traj, cfg.fluid)
        rep["path"] = p
        path_reports.append(rep)
        if p == 0:
            export_trajectory_csv(out_dir / "trajectory0.csv", traj, model.basis,
                                  config_hash=config_hash(cfg))
            export_ledger_jsonl(out_dir / "ledger0.jsonl", traj)
            norms = np.sqrt(np.sum(traj.states**2, axis=1))
            idx = np.searchsorted(traj.times, traj.jump_times, side="left") - 1
            pre = norms[np.clip(idx, 0, norms.size - 1)]
            write_jump_log(out_dir / "jumps0.jsonl", traj.jump_times, traj.jump_marks, pre)

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
    2 config error, 3 runtime blow-up.  Partial outputs are flushed with
    a TRUNCATED marker when a run aborts.
    """
    workers = default_workers() if workers is None else max(1, workers)
    out_dir = Path(cfg.out if out_dir is None else out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    basis = build_basis(cfg.solver.level, cfg.solver.dim)
    marks = cfg.marks()
    sigma = cfg.make_sigma(marks)
    cert = certify_noise_bounds(
        sigma, marks, cfg.solver.level, derive_rng(cfg.seed, STREAM_STATS, 999)
    )
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
    try:
        report = _RUNNERS[cfg.experiment](cfg, out_dir, workers)
    except BlowUpError as exc:
        summary = dict(base_summary, truncated=True, blow_up=exc.report, verdict="FAIL")
        write_summary(out_dir / "summary.json", summary)
        write_run_meta(out_dir / "run_meta.json")
        (out_dir / "TRUNCATED").write_text(str(exc) + "\n")
        return 3, summary
    except (ConfigError, KeyError) as exc:
        summary = dict(base_summary, truncated=True, error=str(exc), verdict="FAIL")
        write_summary(out_dir / "summary.json", summary)
        (out_dir / "TRUNCATED").write_text(str(exc) + "\n")
        return 2, summary

    tables = report.pop("tables", {})
    for name, (columns, rows) in tables.items():
        write_series(out_dir / f"{name}.csv", columns, rows, config_hash=chash)
    summary = dict(base_summary, **report)
    summary["verdict"] = "PASS" if report.get("passed") else "FAIL"
    write_summary(out_dir / "summary.json", summary)
    write_run_meta(out_dir / "run_meta.json", {"workers": workers})
    return (0 if report.get("passed") else 1), summary
