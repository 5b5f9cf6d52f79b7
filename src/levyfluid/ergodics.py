"""Monte Carlo and long-time statistics of the truncated system.

Groups the quantitative studies that mirror the provable properties of
the model: moment bounds in the truncation level, inter-level mean-square
convergence, the weighted pathwise contraction, semigroup and continuity
checks, occupation-measure time averages, the closed-form bound on the
invariant second moments, and the stochastic Gronwall audit of ensemble
ledgers.

Closed-form linear oracles live here too: with convection and the
nonlinear stress switched off and additive jump amplitudes, each
coefficient follows an independent scalar recursion whose second moment
obeys a discrete Lyapunov recurrence that is solvable exactly, both in
time and in the stationary limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import STREAM_INITIAL, STREAM_STATS, derive_rng, keyed_draws
# run_pairs has no caller here; bench/spans.py's OutcomeProbe wraps it under
# this module's name and needs it present
from .solver import (BlowUpError, _draw_jumps, _output_steps, run_levels,  # noqa: F401
                     run_pairs, run_paths)

__all__ = [
    "EnsembleSpec",
    "draw_initials",
    "mc_moment",
    "cauchy_study",
    "uniqueness_contraction",
    "make_functional",
    "chapman_kolmogorov",
    "feller_modulus",
    "occupation_grid",
    "occupation_measure",
    "invariant_moment_bound",
    "RegimeError",
    "invariant_moment_check",
    "stochastic_gronwall_audit",
    "linear_second_moments",
    "stationary_second_moments",
    "additive_drive_rates",
    "no_increase_verdict",
    "bootstrap_se",
    "block_bootstrap_se",
]


# ---------------------------------------------------------------------------
# ensembles and initial conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleSpec:
    """Path count, root seed, and the initial-condition law.

    law = ("fixed", coeffs) pins every path to the same state;
    law = ("gaussian", scale) draws independent coefficients with
    per-mode standard deviation scale / sqrt(eigenvalue), which keeps the
    expected squared norm bounded uniformly in the level.
    """

    n_paths: int
    seed: int
    law: tuple = ("fixed", None)

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("need at least one path")


def draw_initials(spec, basis):
    kind = spec.law[0]
    if kind == "fixed":
        c = spec.law[1]
        base = np.zeros(basis.size) if c is None else np.asarray(c, dtype=float)
        out = np.zeros((spec.n_paths, basis.size))
        out[:, : min(basis.size, base.size)] = base[: basis.size]
        return out
    if kind == "gaussian":
        scale = float(spec.law[1])
        std = scale / np.sqrt(basis.eigenvalues)
        rows = keyed_draws(spec.seed, STREAM_INITIAL, range(spec.n_paths),
                           lambda rng: rng.standard_normal(basis.size))
        return std * np.array(rows)
    raise ValueError(f"unknown initial-condition law {kind!r}")


def _mean_se(values):
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return float("nan"), float("nan")
    se = float(v.std(ddof=1) / np.sqrt(v.size)) if v.size > 1 else 0.0
    return float(v.mean()), se


N_BOOT = 400  # bootstrap resamples per standard error


def bootstrap_se(values, rng):
    """Plain bootstrap standard error of the mean over iid paths.

    N_BOOT resamples, drawn and averaged in chunks of rows whose index
    array stays under 64 KB (one row when a row alone is larger).  The
    generator's stream runs on across calls, so the chunks hold the
    indices of one (N_BOOT, n) draw, and each mean reduces the same row:
    the result has the bits of the unchunked draw.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return 0.0
    means = np.empty(N_BOOT)
    rows = max(1, (64 * 1024 - 1) // (8 * v.size))
    for lo in range(0, N_BOOT, rows):
        idx = rng.integers(0, v.size, size=(min(rows, N_BOOT - lo), v.size))
        means[lo : lo + len(idx)] = v[idx].mean(axis=1)
    return float(means.std(ddof=1))


def block_bootstrap_se(series, rng, n_blocks=20):
    """Block bootstrap standard error of the time average of one series,
    from N_BOOT resamples of its `n_blocks` block means."""
    s = np.asarray(series, dtype=float)
    n = s.size
    if n < 2 * n_blocks:
        return float(s.std(ddof=1) / np.sqrt(max(n, 2)))
    blocks = np.array_split(s, n_blocks)
    means = np.array([b.mean() for b in blocks])
    idx = rng.integers(0, n_blocks, size=(N_BOOT, n_blocks))
    return float(means[idx].mean(axis=1).std(ddof=1))


# ---------------------------------------------------------------------------
# moment bounds
# ---------------------------------------------------------------------------


def mc_moment(result, r, seed):
    """Ensemble estimates of the r-th moment statistics of a finished run.

    `result` is the EnsembleResult of the run and `seed` its root seed,
    which keys the bootstrap stream.  Returns the estimates of
    E sup_t |u|^(2r) and of the dissipation integral
    E int ||u||_2^2 |u|^(2r-2) dt with bootstrap standard errors, plus the
    blow-up count (blown paths are excluded from the estimates but
    reported).
    """
    if r not in (1, 2):
        raise ValueError("r must be 1 or 2")
    ok = result.alive()
    sup = result.series["sup_l2_sq"][-1][ok] ** r
    diss = (result.series["diss_int"] if r == 1 else result.series["diss_r2_int"])[-1][ok]
    rng = derive_rng(seed, STREAM_STATS, 90 + r)
    sup_mean, _ = _mean_se(sup)
    diss_mean, _ = _mean_se(diss)
    return {
        "r": r,
        "n_paths": int(ok.sum()),
        "n_blown": int((~ok).sum()),
        "sup_moment": sup_mean,
        "sup_se": bootstrap_se(sup, rng),
        "diss_moment": diss_mean,
        "diss_se": bootstrap_se(diss, rng),
    }


def no_increase_verdict(estimates, ses):
    """No statistically significant growth trend along the sequence.

    Weighted least-squares slope of the estimates against the index with
    per-point variances; the verdict is a one-sided test slope_z < 1.645
    (the one-sided 95% point).  Pairwise one-sided z-scores are returned
    as diagnostics.
    """
    y = np.asarray(estimates, dtype=float)
    if y.size < 2:
        return True, {"slope_z": 0.0, "pair_z": []}
    # a zero SE is floored where the weight 1/se^2 is still a normal float
    se = np.maximum(np.asarray(ses, dtype=float), 1e-100)
    pair_z = []
    for i in range(y.size - 1):
        s = float(np.hypot(se[i], se[i + 1]))
        pair_z.append((y[i + 1] - y[i]) / s)
    x = np.arange(y.size, dtype=float)
    w = 1.0 / se**2
    xbar = np.sum(w * x) / np.sum(w)
    sxx = np.sum(w * (x - xbar) ** 2)
    slope = np.sum(w * (x - xbar) * y) / sxx
    slope_z = slope * np.sqrt(sxx)
    return bool(slope_z < 1.645), {"slope_z": float(slope_z), "pair_z": pair_z}


# ---------------------------------------------------------------------------
# linear closed-form oracles
# ---------------------------------------------------------------------------


def linear_second_moments(eigenvalues, kappa1, dt, n_steps, drive_rates, init_sq):
    """Exact per-mode second moments of the linear additive recursion.

    For c' = (c + M) / (1 + dt*kappa1*lam) with E M = 0, E M^2 = dt * s
    and M independent of c, the second moment v obeys
    v' = (v + dt*s) / (1 + dt*kappa1*lam)^2.  Returns the (n_steps+1, m)
    array of moments at the step boundaries.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    s = np.asarray(drive_rates, dtype=float)
    q = 1.0 / (1.0 + dt * kappa1 * lam) ** 2
    out = np.empty((n_steps + 1, lam.size))
    out[0] = np.asarray(init_sq, dtype=float)
    for n in range(n_steps):
        out[n + 1] = q * (out[n] + dt * s)
    return out


def stationary_second_moments(eigenvalues, kappa1, dt, drive_rates):
    """Fixed point of the discrete Lyapunov recurrence, per mode.

    v = s / (2*kappa1*lam + dt*(kappa1*lam)^2); the continuous-time limit
    s / (2*kappa1*lam) is recovered as dt -> 0.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    s = np.asarray(drive_rates, dtype=float)
    return s / (2.0 * kappa1 * lam + dt * (kappa1 * lam) ** 2)


def additive_drive_rates(sigma, level):
    """Per-mode variance rates s_i = sum_j nu_j g_j^2 h_i^2 of additive noise."""
    if sigma.kind != "additive":
        raise ValueError("drive rates are defined for additive amplitudes")
    return sigma.c2 * sigma.shaped(level) ** 2


# ---------------------------------------------------------------------------
# inter-level convergence
# ---------------------------------------------------------------------------


def cauchy_study(models, spec):
    """Mean-square gaps between consecutive truncation levels.

    `models` have strictly increasing levels and a common dt and horizon
    (ValueError otherwise).  All levels share the jump realization per path
    and the top-level initial condition (truncated by the nesting).
    Returns one row per consecutive pair with the terminal gap
    E |u_m(T) - u_m'(T)|^2 and the integrated energy gap
    E int ||u_m - u_m'||_2^2 dt, their standard errors, the ratio to the
    previous row, and the verdict: every gap strictly below its
    predecessor and the final ratio below 1/2.
    """
    initials = draw_initials(spec, models[-1].basis)
    out = run_levels(models, initials, spec.seed)
    levels = out["levels"]
    ok = ~out["blown"]
    rng = derive_rng(spec.seed, STREAM_STATS, 7)
    rows = []
    prev = None
    for i in range(len(levels) - 1):
        gap_mean, _ = _mean_se(out["terminal_gap_sq"][i][ok])
        int_mean, int_se = _mean_se(out["energy_gap_int"][i][ok])
        ratio = gap_mean / prev if prev not in (None, 0.0) else float("nan")
        rows.append(
            {
                "level_lo": levels[i],
                "level_hi": levels[i + 1],
                "terminal_gap_sq": gap_mean,
                "terminal_gap_se": bootstrap_se(out["terminal_gap_sq"][i][ok], rng),
                "energy_gap_int": int_mean,
                "energy_gap_se": int_se,
                "ratio": ratio,
                "n_blown": int((~ok).sum()),
            }
        )
        prev = gap_mean
    gaps = [r["terminal_gap_sq"] for r in rows]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    final_ratio = rows[-1]["ratio"] if len(rows) > 1 else float("nan")
    # a non-monotone tail usually means the time-stepping error floor has
    # been reached; flag it as a request for dt refinement, distinct from
    # a plain convergence failure
    tail_monotone = len(gaps) < 2 or gaps[-1] < gaps[-2]
    return {
        "rows": rows,
        "decreasing": decreasing,
        "final_ratio": final_ratio,
        "refine_dt": not tail_monotone,
        "passed": decreasing and (len(rows) < 2 or final_ratio < 0.5),
    }


# ---------------------------------------------------------------------------
# pathwise contraction
# ---------------------------------------------------------------------------


def uniqueness_contraction(result, xi1, xi2):
    """Weighted mean-square contraction statistic of a coupled ensemble.

    `result` is a finished `run_pairs` output (times, wsq, rho_wsq and
    blown) for pairs started at (xi1, xi2).  Reports
    E[rho(t) |u1 - u2|^2] / |xi1 - xi2|^2 on its output grid, with rho the
    exponential weight built from the first path's dissipation.  The
    theory bounds this by a constant independent of the separation; a
    zero separation, which it cannot measure, raises ValueError.
    """
    sep_sq = float(np.sum((np.asarray(xi1) - np.asarray(xi2)) ** 2))
    if sep_sq == 0.0:
        raise ValueError("the pairs start at one state: a zero separation measures nothing")
    ok = ~result["blown"]
    stat, ses, raw = [], [], []
    for wrow, rrow in zip(result["rho_wsq"], result["wsq"]):
        m, se = _mean_se(wrow[ok] / sep_sq)
        stat.append(m)
        ses.append(se)
        raw.append(_mean_se(rrow[ok] / sep_sq)[0])
    return {
        "times": result["times"],
        "statistic": np.array(stat),
        "stderr": np.array(ses),
        # unweighted ratio: reported for inspection, never gated (the
        # provable statement is about the weighted expectation)
        "raw_statistic": np.array(raw),
        "sep_sq": sep_sq,
        "n_blown": int(result["blown"].sum()),
    }


# ---------------------------------------------------------------------------
# semigroup, Markov and continuity checks
# ---------------------------------------------------------------------------


def make_functional(name, basis):
    """Continuous functionals registered for semigroup and occupation estimates.

    Bounded, for the semigroup (Chapman-Kolmogorov, Feller) checks:
    gauss_bump:     u -> exp(-|u|^2)
    inv_bump:       u -> 1 / (1 + |u|^2)
    cos_coord:      u -> cos(c_1(u))
    Unbounded, for the occupation averages and the invariant moment bound:
    sq_norm:        u -> |u|^2
    energy_norm_sq: u -> ||u||_2^2
    Each maps states of shape (n, m) to n values.  Unregistered names
    raise KeyError (boundedness cannot be certified).
    """
    table = {
        "gauss_bump": lambda s: np.exp(-np.sum(s**2, axis=1)),
        "inv_bump": lambda s: 1.0 / (1.0 + np.sum(s**2, axis=1)),
        "cos_coord": lambda s: np.cos(s[:, 0]),
        "sq_norm": lambda s: np.sum(s**2, axis=1),
        "energy_norm_sq": lambda s: np.sum(basis.eigenvalues * s**2, axis=1),
    }
    if name not in table:
        raise KeyError(f"functional {name!r} is not registered")
    return table[name]


FELLER_FUNCTIONALS = ("gauss_bump", "inv_bump", "cos_coord")  # bounded, for the semigroup checks


def _terminals(model, xi, t, n_paths, seed):
    """Terminals of `n_paths` runs from xi to t that did not blow up, and
    the number that did."""
    if abs(t - model.config.horizon) > 1e-12:
        raise ValueError("model horizon must equal the evaluation time")
    res = run_paths(model, np.tile(np.asarray(xi, float), (n_paths, 1)), seed, n_out=2)
    return res.terminal[res.alive()], int(res.blown.sum())


def chapman_kolmogorov(model_t, model_s, model_ts, phis, xi, n_outer, n_inner, seed):
    """Direct versus nested estimates of the (t+s)-step semigroup values.

    t and s are the horizons of `model_t` and `model_s`; `model_ts` must
    have horizon t + s (ValueError otherwise).  The nested estimator runs
    n_outer paths to time t, then n_inner paths of length s from each
    terminal state (fresh streams), and averages the cluster means; its
    standard error uses the spread of the cluster means.  Blown paths are
    dropped, not averaged: a direct path, an outer path with its whole
    cluster, an inner path from its cluster (and a cluster left empty).
    Every functional of `phis` (name -> functional) is evaluated on the
    terminals of one run of each stage.  Returns, per name, both
    estimates, their standard errors, the discrepancy z-score and the
    blown counts `n_blown_direct`, `n_blown_outer` and `n_blown_inner`
    (inner paths of clusters that kept their outer path).
    """
    t, s = model_t.config.horizon, model_s.config.horizon
    direct, n_direct = _terminals(model_ts, xi, t + s, n_outer * n_inner, seed)

    # disjoint stream index ranges decorrelate the three stages
    stage1 = run_paths(model_t, np.tile(np.asarray(xi, float), (n_outer, 1)), seed, n_out=2,
                       jumps=_draw_jumps(model_t, seed, n_outer, 1_000_000))
    starts = np.repeat(stage1.terminal, n_inner, axis=0)
    stage2 = run_paths(model_s, starts, seed, n_out=2,
                       jumps=_draw_jumps(model_s, seed, starts.shape[0], 2_000_000))
    alive, inner_blown = stage1.alive()[:, None], stage2.blown.reshape(n_outer, n_inner)
    kept = alive & ~inner_blown
    clusters = kept.any(axis=1)
    counts = {"n_blown_direct": n_direct, "n_blown_outer": int(stage1.blown.sum()),
              "n_blown_inner": int((alive & inner_blown).sum())}
    out = {}
    for name, phi in phis.items():
        values = np.where(kept, phi(stage2.terminal).reshape(n_outer, n_inner), 0.0)
        cluster = values.sum(axis=1)[clusters] / kept.sum(axis=1)[clusters]
        nested, nested_se = _mean_se(cluster)
        direct_mean, direct_se = _mean_se(phi(direct))
        z = abs(direct_mean - nested) / float(np.hypot(direct_se, nested_se) or 1.0)
        out[name] = {
            "direct": direct_mean,
            "direct_se": direct_se,
            "nested": nested,
            "nested_se": nested_se,
            "z": z,
            **counts,
        }
    return out


def feller_modulus(model, phis, xi, direction, deltas, n_paths, seed):
    """Continuity moduli along a deterministic approach to xi.

    Common random numbers: the base start and every perturbed start step
    in one run under one jump draw per path, so |P_t phi(xi_k) - P_t phi(xi)|
    is estimated from pathwise differences.  A pair is dropped when either
    of its paths blew up.  Every functional of `phis` (name -> functional)
    is evaluated on the terminals of that run.  Returns, per name, one row
    per delta with the modulus, its standard error and the number of pairs
    dropped, and whether the moduli decrease within their errors.
    """
    d = np.asarray(direction, float)
    d = d / np.linalg.norm(d)
    X = np.tile(np.asarray(xi, float), (n_paths, 1))
    # row i*P + p is start i (the base, then one per delta) of path p
    starts = np.concatenate([X] + [X + delta * d for delta in deltas])
    jumps = _draw_jumps(model, seed, n_paths, 0)
    res = run_paths(model, starts, seed, n_out=2, jumps=jumps * (len(deltas) + 1))
    blown = res.blown.reshape(-1, n_paths)
    out = {}
    for name, phi in phis.items():
        values = phi(res.terminal).reshape(-1, n_paths)
        rows = []
        for delta, value, lost in zip(deltas, values[1:], blown[1:]):
            kept = ~(blown[0] | lost)
            mean, se = _mean_se(value[kept] - values[0][kept])
            rows.append({"delta": float(delta), "modulus": abs(mean), "se": se,
                         "n_dropped": int(kept.size - kept.sum())})
        moduli = [r["modulus"] for r in rows]
        ses = [r["se"] for r in rows]
        monotone = all(
            moduli[i + 1] <= moduli[i] + 2.0 * (ses[i] + ses[i + 1])
            for i in range(len(rows) - 1)
        )
        out[name] = {"rows": rows, "monotone": monotone}
    return out


# ---------------------------------------------------------------------------
# occupation measures and the invariant moment bound
# ---------------------------------------------------------------------------


def occupation_grid(n_steps, dt, t_schedule, burn_in):
    """An occupation run's output count, max(64, 2 * len(t_schedule)), and
    the output-time indices that the burn-in and each scheduled time snap
    to, the nearest; ValueError unless the burn-in lies in [0, first
    scheduled time) and the first scheduled time snaps past it."""
    if not 0 <= burn_in < t_schedule[0]:
        raise ValueError("must lie in [0, first scheduled time)")
    n_out = max(64, 2 * len(t_schedule))
    times = np.array([n * dt for n in sorted(_output_steps(n_steps, n_out))])
    i0, *checkpoints = (int(np.argmin(np.abs(times - t))) for t in (burn_in, *t_schedule))
    if checkpoints[0] <= i0:
        raise ValueError(f"snaps to output time {times[i0]:.6g}, as does the first scheduled "
                         f"time {t_schedule[0]:g}: an average from it to itself measures nothing")
    return n_out, i0, checkpoints


def occupation_measure(model, functional_names, t_schedule, burn_in, spec):
    """Time averages (1/T) int f(u) dt at an increasing schedule of T.

    Runs `spec.n_paths` independent replicas batched together; the
    average at each checkpoint pools the replicas that did not blow up.
    With more than one of them, the error bar is a bootstrap over their
    time averages; with one, a block bootstrap over its time-block means
    between the burn-in and the checkpoint, each snapped to an output time
    by `occupation_grid`.  The stabilization verdict asks the last three
    averages to agree within combined error bars; BlowUpError if none survives.
    """
    t_schedule = sorted(t_schedule)
    if model.config.horizon != t_schedule[-1]:
        raise ValueError("model horizon must equal the last scheduled time")
    n_out, i0, checkpoints = occupation_grid(model.n_steps, model.dt, t_schedule, burn_in)
    fns = {name: make_functional(name, model.basis) for name in functional_names}
    initials = draw_initials(spec, model.basis)
    res = run_paths(model, initials, spec.seed, n_out=n_out, functionals=fns)
    rng = derive_rng(spec.seed, STREAM_STATS, 11)
    out = {}
    ok = res.alive()
    if not ok.any():
        raise BlowUpError.of(res, model)
    n_ok = int(ok.sum())
    for name in fns:
        series = res.series[f"occ_{name}"][:, ok]  # cumulative int f dt
        rows = []
        for i in checkpoints:
            per_path = (series[i] - series[i0]) / (res.times[i] - res.times[i0])
            mean, _ = _mean_se(per_path)
            if n_ok > 1:
                se = bootstrap_se(per_path, rng)
            else:
                widths = np.diff(res.times[i0 : i + 1])
                block_means = np.diff(series[i0 : i + 1, 0]) / widths
                se = block_bootstrap_se(block_means, rng, n_blocks=min(20, widths.size))
            rows.append(
                {"T": float(res.times[i]), "average": mean, "se": se,
                 "n_blown": int((~ok).sum())}
            )
        # a negligible-magnitude floor keeps the diagnostic meaningful when
        # the averages collapse deterministically (error bars of width zero)
        stab = all(
            abs(rows[j + 1]["average"] - rows[j]["average"])
            <= 2.0 * (rows[j]["se"] + rows[j + 1]["se"])
            + 1e-8
            + 1e-6 * abs(rows[j]["average"])
            for j in range(max(0, len(rows) - 3), len(rows) - 1)
        )
        out[name] = {"rows": rows, "stabilized": stab}
    out["_result"] = res
    return out


def invariant_moment_bound(kappa1, lambda1, l0, l1):
    """Closed-form ceiling for the invariant second moments.

    Requires the dissipativity margin 2*kappa1*lambda1^2 > l1; then

        bound = l0/(2*kappa1*lambda1^2 - l1) * ((l1 + 1)/(2*kappa1) + 1)
                + l0/(2*kappa1).
    """
    margin = 2.0 * kappa1 * lambda1**2 - l1
    if margin <= 0:
        raise RegimeError(kappa1, lambda1, l1)
    return l0 / margin * ((l1 + 1.0) / (2.0 * kappa1) + 1.0) + l0 / (2.0 * kappa1)


class RegimeError(ValueError):
    """The dissipativity condition 2*kappa1*lambda1^2 > l1 fails."""

    def __init__(self, kappa1, lambda1, l1):
        self.report = {
            "kappa1": kappa1,
            "lambda1": lambda1,
            "l1": l1,
            "lhs": 2.0 * kappa1 * lambda1**2,
            "required": f"2*kappa1*lambda1^2 > l1",
        }
        super().__init__(
            f"outside the dissipative regime: 2*{kappa1}*{lambda1}^2 = "
            f"{2*kappa1*lambda1**2:.6g} <= l1 = {l1:.6g}"
        )


def invariant_moment_check(model, spec, t_schedule, burn_in, *, tolerance=0.2):
    """Long-run time average of |u|^2 + ||u||_2^2 against the closed bound.

    Refuses (raises RegimeError) outside the regime.  With a zero
    constant forcing budget the bound degenerates to zero and the check
    becomes a decay criterion: the average must fall below 1e-6.
    """
    l0 = model.sigma.bounds.growth_const
    l1 = model.sigma.bounds.growth_slope
    lam1 = model.basis.lambda1
    bound = invariant_moment_bound(model.params.kappa1, lam1, l0, l1)
    occ = occupation_measure(model, ("sq_norm", "energy_norm_sq"), t_schedule, burn_in, spec)
    measured = occ["sq_norm"]["rows"][-1]["average"] + occ["energy_norm_sq"]["rows"][-1]["average"]
    if bound == 0.0:
        passed = measured <= 1e-6
    else:
        passed = measured <= bound * (1.0 + tolerance)
    return {
        "measured": measured,
        "bound": bound,
        "tolerance": tolerance,
        "passed": bool(passed),
        "lambda1": lam1,
        "l0": l0,
        "l1": l1,
        "occupation": {k: v for k, v in occ.items() if k != "_result"},
    }


# ---------------------------------------------------------------------------
# stochastic Gronwall audit
# ---------------------------------------------------------------------------


GRONWALL_BETA = 0.25  # the audit's martingale majorant weight, within 2*beta <= 1
GRONWALL_DELTA = 0.0  # the majorant's weight on E Y, within 2*delta <= alpha
GRONWALL_HEADROOM = 1.001  # the factor on the smallest `extra` that fits the data


def stochastic_gronwall_audit(result, alpha):
    """Audit of the stochastic Gronwall lemma on an ensemble of ledgers.

    Builds, per path and output time, the monotone energy envelope
    X(t) = max_s (|u(s)|^2 + alpha*Y(s)) - alpha*Y(t) with
    Y(t) = int ||u||_2^2 ds (alpha = 2*kappa1, the engine's envelope
    weight), Z = |u(0)|^2, and the dominating process

        I(t) = max_s |sum 2(M,u)| + sum |M|^2 + W(t),

    where W is the running positive part of the step-identity work terms,
    which makes the pathwise inequality X + alpha*Y <= Z + I hold by
    construction (W is zero in the dissipative bulk).  The lemma's time
    weight is zero here, so its integral budget constant is zero.

    Measures the smallest (gamma, extra) with E I <= beta E X + gamma
    int E X + delta E Y + extra on the data (beta = GRONWALL_BETA, delta =
    GRONWALL_DELTA; they must satisfy 2*beta <= 1, 2*delta <= alpha), and
    takes GRONWALL_HEADROOM times that `extra`; checks every hypothesis,
    then verifies the conclusion

        E[X + alpha Y] <= 2 exp(2 t gamma) (E Z + extra)

    and reports the margin at every output time.
    """
    s = result.series
    needed = ("sup_energy", "diss_int", "mart_sup", "qv_disc_cum", "l2_sq",
              "resid_cum", "apwork_cum", "convwork_cum")
    for k in needed:
        if k not in s:
            raise ValueError("ensemble was not run with audit tracking")
    ok = result.alive()
    times = result.times
    if not ok.any():
        return {
            "applicable": False,
            "hypotheses": {"paths": False},
            "passed": False,
            "margin_min": float("nan"),
            "times": times,
        }
    Y = s["diss_int"][:, ok]
    sup_energy = np.maximum.accumulate(s["sup_energy"][:, ok], axis=0)
    X = sup_energy - alpha * Y
    work = s["resid_cum"][:, ok] + s["apwork_cum"][:, ok] + s["convwork_cum"][:, ok]
    W = np.maximum.accumulate(np.maximum(-work, 0.0), axis=0)
    I = s["mart_sup"][:, ok] + s["qv_disc_cum"][:, ok] + W
    Z = s["l2_sq"][0, ok]

    hyp = {"two_beta": 2.0 * GRONWALL_BETA <= 1.0, "two_delta": 2.0 * GRONWALL_DELTA <= alpha}
    lhs = X + alpha * Y  # equals the energy envelope
    slack = (Z[None, :] + I) - lhs
    hyp["pathwise"] = bool(np.min(slack) >= -1e-9 * (1.0 + np.max(np.abs(lhs))))

    EX, EY, EI, EZ = X.mean(axis=1), Y.mean(axis=1), I.mean(axis=1), float(Z.mean())
    # Left-endpoint quadrature: with it, the discrete Gronwall chain from
    # the measured majorant to the exponential bound is exact, so the
    # conclusion must hold on the data whenever the hypotheses do.
    intEX = np.concatenate([[0.0], np.cumsum(EX[:-1] * np.diff(times))])
    resid = EI - GRONWALL_BETA * EX - GRONWALL_DELTA * EY
    horizon = float(times[-1]) if times[-1] > 0 else 1.0
    candidates = np.concatenate([[0.0], np.geomspace(1e-2 / horizon, 3.0 / horizon, 24)])
    best = None
    for g in candidates:
        c_tilde = max(0.0, float(np.max(resid - g * intEX))) * GRONWALL_HEADROOM
        final = 2.0 * np.exp(2.0 * g * horizon) * (EZ + c_tilde)
        if best is None or final < best[2]:
            best = (g, c_tilde, final)
    gamma, extra, _ = best
    hyp["mean_majorant"] = bool(
        np.all(EI <= GRONWALL_BETA * EX + gamma * intEX + GRONWALL_DELTA * EY + extra + 1e-12)
    )

    applicable = all(hyp.values())
    bound = 2.0 * np.exp(2.0 * times * gamma) * (EZ + extra)
    margin = bound - (EX + alpha * EY)
    tol = 1e-12 * (1.0 + float(np.max(bound)))
    return {
        "applicable": applicable,
        "hypotheses": hyp,
        "alpha": alpha,
        "beta": GRONWALL_BETA,
        "gamma": gamma,
        "delta": GRONWALL_DELTA,
        "extra": extra,
        "times": times,
        "lhs": EX + alpha * EY,
        "bound": bound,
        "margin_min": float(np.min(margin)) if applicable else float("nan"),
        "passed": bool(applicable and np.min(margin) >= -tol),
    }
