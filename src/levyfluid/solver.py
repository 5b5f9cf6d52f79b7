"""Time integration of the spectrally truncated jump-driven fluid system.

One step of the semi-implicit scheme advances the coefficient state by

    u' = (I + dt*kappa1*A)^(-1) [ u - dt*(2*kappa0*Ap(u) + B(u,u)) + M ]

where A is the diagonal fourth-order operator, Ap the nonlinear stress,
B the convection term and M the compensated jump increment of the window
with the amplitude frozen at the left endpoint.  The stiff linear part is
implicit (a diagonal division, unconditionally stable); the nonlinear
terms are explicit; jumps are accumulated exactly.  An explicit variant
(forward Euler on the linear part too) exists for cross-checks.

Every step satisfies the energy identity

    |u'|^2 = |u|^2 - |u - u'|^2 - 2*dt*kappa1*||u'||_2^2
             - 4*kappa0*dt*<Ap(u), u'> - 2*dt*b(u, u, u') + 2*(M, u')

which the ledger records term by term, so a trajectory's terminal energy
can be replayed from the initial energy and the ledger alone.  The same
columns feed the energy audits: the margin in the cumulative dissipation
inequality decomposes as

    slack = sum |M - (u' - u)|^2 + stress work + convection work,

with the first term nonnegative by construction.

The four drivers share one stepping kernel, `_march`.  It steps a list
of members, each a batch of paths with its model, in lockstep under one
jump list: it buckets the jumps into step windows, takes every member
through the noise increment, the drift and the advance, and checks each
path for blow-up across all members.  `run_paths` is one member,
`run_pairs` two members of one model, `run_levels` one member per
truncation level, and `integrate` one single-path member.  All step on
the n*dt grid; jump-adapted `integrate` adds a breakpoint at each of its
jump times.  The drivers keep only their own accumulators: ensemble
series, pair distances, level gaps, the ledger.

Paths blow up by policy, not silently: a non-finite or oversized state
aborts `integrate` with a report of the step and norms; in the batched
drivers it freezes the path in every member and flags it as blown.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .basis import build_basis
from .noise import STREAM_JUMPS, derive_rng, sample_jumps
from .operators import FluidParams, SpectralOperators

__all__ = [
    "SolverConfig",
    "FluidModel",
    "Trajectory",
    "EnergyLedger",
    "BlowUpError",
    "EnsembleResult",
    "default_dt",
    "integrate",
    "run_paths",
    "run_pairs",
    "run_levels",
    "energy_audit",
]

DT_CAP = 1e-3
BLOWUP_NORM = 1e8

LEDGER_COLUMNS = (
    "t",
    "dt",
    "l2_pre_sq",
    "l2_post_sq",
    "h2_post_sq",
    "diss",
    "ap_pair",
    "ap_work",
    "conv_skew",
    "conv_work",
    "backward",
    "mart_pre",
    "mart_work",
    "qv_disc",
    "qv_jump",
    "resid_sq",
    "n_jumps",
)


def default_dt(basis, kappa1):
    """Frozen step-size formula: min(1e-3, 0.1 / (kappa1 * max eigenvalue)).

    The implicit linear part is unconditionally stable; the cap keeps the
    explicit nonlinear residual below Monte Carlo noise at desk scale.
    """
    return min(DT_CAP, 0.1 / (kappa1 * float(basis.eigenvalues[-1])))


@dataclass(frozen=True)
class SolverConfig:
    params: FluidParams
    dim: int = 2
    level: int = 8
    dt: float | None = None
    horizon: float = 1.0
    scheme: str = "semi-implicit"  # or "explicit", for cross-checks
    jump_mode: str = "grid"        # or "adapted"
    convection: bool = True
    stress: bool = True
    blowup_norm: float = BLOWUP_NORM

    def __post_init__(self):
        if self.scheme not in ("semi-implicit", "explicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.jump_mode not in ("grid", "adapted"):
            raise ValueError(f"unknown jump mode {self.jump_mode!r}")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")


class BlowUpError(RuntimeError):
    """A trajectory left the finite range; carries the abort report."""

    def __init__(self, report):
        super().__init__(
            f"trajectory blew up at step {report['step']} (t={report['t']:.6g}, "
            f"|u|={report['l2']:.3e})"
        )
        self.report = report


class FluidModel:
    """Config plus the prepared basis, operator workspace and noise."""

    def __init__(self, config, sigma, marks):
        self.config = config
        self.params = config.params
        self.basis = build_basis(config.level, config.dim)
        self.ops = SpectralOperators(self.basis)
        self.sigma = sigma
        self.marks = marks
        self.dt = config.dt if config.dt is not None else default_dt(self.basis, config.params.kappa1)
        if config.horizon > 0:
            if self.dt > config.horizon:
                raise ValueError("dt exceeds the horizon")
            n = round(config.horizon / self.dt)
            if abs(n * self.dt - config.horizon) > 1e-9 * config.horizon:
                raise ValueError("horizon must be a whole number of steps")
            self.n_steps = int(n)
        else:
            self.n_steps = 0

    def drift_pieces(self, states):
        """Explicit drift parts: (stress coefficients, convection coefficients)."""
        ap = self.ops.nonlinear_stress(states, self.params) if self.config.stress else None
        bb = self.ops.convection(states, states) if self.config.convection else None
        return ap, bb

    def advance(self, states, dt, increment, ap, bb):
        """Apply one step of the configured scheme to a batch of states."""
        g = increment.copy()
        if ap is not None:
            g -= dt * (2.0 * self.params.kappa0) * ap
        if bb is not None:
            g -= dt * bb
        if self.config.scheme == "semi-implicit":
            denom = 1.0 + dt * self.params.kappa1 * self.basis.eigenvalues
            return (states + g) / denom
        return states - dt * self.params.kappa1 * self.basis.eigenvalues * states + g

    def noise_increment(self, t, dt, states, jump_paths, jump_marks, jump_times):
        """Compensated window increments for a batch, plus the jump data.

        Returns (M, blk, jump_qv_add) with M of shape (P, m).  The
        amplitude is frozen at the pre-step state.
        """
        p, m = states.shape
        if getattr(self.sigma, "kind", "") == "zero":
            return np.zeros((p, m)), None, None
        blk = self.sigma.block(t, states)  # (K, P, m)
        inc = -dt * np.einsum("k,kpm->pm", self.marks.rates, blk)
        if jump_paths.size:
            amp = blk[jump_marks, jump_paths, :]  # (n_events, m)
            np.add.at(inc, jump_paths, amp)
            qv = np.zeros(p)
            np.add.at(qv, jump_paths, np.sum(amp**2, axis=1))
        else:
            qv = None
        return inc, blk, qv


@dataclass
class EnergyLedger:
    """Per-step scalars of the step energy identity (single trajectory)."""

    columns: dict

    def __getitem__(self, name):
        return self.columns[name]

    def replay_residual(self):
        c = self.columns
        return (
            c["l2_post_sq"]
            - c["l2_pre_sq"]
            + c["backward"]
            + c["diss"]
            + c["ap_work"]
            + c["conv_work"]
            - c["mart_work"]
        )

    def rows(self):
        n = len(self.columns["t"])
        for i in range(n):
            yield {k: float(self.columns[k][i]) for k in LEDGER_COLUMNS}


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # (n_times, m)
    jump_times: np.ndarray
    jump_marks: np.ndarray
    level: int
    ledger: EnergyLedger | None = None
    scheme: str = "semi-implicit"

    def terminal(self):
        return self.states[-1]


def _draw_jumps(model, seed, n_paths, offset):
    """Per-path (times, marks), each from the stream keyed by its path index."""
    return [
        sample_jumps(model.marks, model.config.horizon,
                     derive_rng(seed, STREAM_JUMPS, offset + p))
        for p in range(n_paths)
    ]


_Step = namedtuple("_Step", "t dt live pieces out n_jumps")


def _march(models, states, blow_steps, jumps, *, n_out=None, breakpoints=None,
           raise_blowup=False):
    """Step member i, `states[i]` of shape (P, m_i), by `models[i]`, all in lockstep.

    Every member sees the P per-path (times, marks) of `jumps`, each event
    in the window (t_n, t_n+1] that holds it.  The steps are models[0]'s
    n_steps of size dt, or the intervals between `breakpoints`.  A path
    that blows up in any member raises BlowUpError if `raise_blowup`, else
    freezes in every member from then on, its step in `blow_steps` (-1
    while alive).  `states` is updated in place.  Yields per step a _Step:
    end time, dt, live mask, per-member pieces (U, U1, M, ap, bb, qv),
    whether it is one of `n_out` output steps (all if None), event count.
    """
    jt = np.concatenate([np.empty(0)] + [times for times, _ in jumps])
    jm = np.concatenate([np.empty(0, np.int64)] + [marks for _, marks in jumps])
    jp = np.repeat(np.arange(len(jumps)), [times.size for times, _ in jumps])
    if breakpoints is None:
        h, n_steps = models[0].dt, models[0].n_steps
        t, dts = [n * h for n in range(n_steps + 1)], [h] * n_steps
        steps = np.clip(np.ceil(jt / h).astype(np.int64) - 1, 0, n_steps - 1)
    else:
        n_steps = breakpoints.size - 1
        t, dts = breakpoints.tolist(), np.diff(breakpoints).tolist()
        steps = np.searchsorted(breakpoints[1:], jt)
    order = np.argsort(steps, kind="stable")
    jt, jm, jp = jt[order], jm[order], jp[order]
    bounds = np.searchsorted(steps[order], np.arange(n_steps + 1)).tolist()
    out = range(n_steps + 1) if n_out is None else set(
        np.linspace(0, n_steps, min(n_out, n_steps + 1)).astype(int).tolist())

    cap = models[0].config.blowup_norm ** 2
    live, frozen = blow_steps < 0, None
    for n in range(n_steps):
        lo, hi = bounds[n], bounds[n + 1]
        pieces = []
        for model, U in zip(models, states):
            M, _, qv = model.noise_increment(t[n], dts[n], U, jp[lo:hi], jm[lo:hi], jt[lo:hi])
            ap, bb = model.drift_pieces(U)
            pieces.append((U, model.advance(U, dts[n], M, ap, bb), M, ap, bb, qv))
        fine = [np.sum(U1**2, axis=1) <= cap for _, U1, *_ in pieces]
        bad = live & ~reduce(np.logical_and, fine)
        if bad.any():
            if raise_blowup:
                i = int(np.flatnonzero(bad)[0])
                j = next(j for j, f in enumerate(fine) if not f[i])
                U, U1 = pieces[j][:2]
                raise BlowUpError({
                    "step": n, "t": t[n + 1], "l2": float(np.sqrt(abs(np.sum(U1[i] ** 2)))),
                    "l2_pre": float(np.sqrt(np.sum(U[i] ** 2))), "level": models[j].config.level,
                })
            blow_steps[bad] = n
            live = blow_steps < 0
            frozen = ~live
        for i, (U, U1, *_) in enumerate(pieces):
            if frozen is not None:
                U1[frozen] = U[frozen]
            states[i] = U1
        yield _Step(t[n + 1], dts[n], live, pieces, n + 1 in out, hi - lo)


def _diag_update(model, dt, U, U1, M, ap, bb, qv_jump):
    """Per-path terms of the step energy identity: the ledger columns from l2_pre_sq on."""
    par = model.params
    zeros = np.zeros(U.shape[0])

    def pair(a, V):  # absent drift pieces pair to zero
        return zeros if a is None else np.einsum("pm,pm->p", a, V)

    d = {}
    d["l2_pre_sq"] = np.sum(U**2, axis=1)
    d["l2_post_sq"] = np.sum(U1**2, axis=1)
    d["h2_post_sq"] = np.sum(model.basis.eigenvalues * U1**2, axis=1)
    d["diss"] = 2.0 * par.kappa1 * dt * d["h2_post_sq"]
    d["ap_pair"] = pair(ap, U)
    d["ap_work"] = 4.0 * par.kappa0 * dt * pair(ap, U1)
    d["conv_skew"] = pair(bb, U)
    d["conv_work"] = 2.0 * dt * pair(bb, U1)
    d["backward"] = np.sum((U - U1) ** 2, axis=1)
    d["mart_pre"] = 2.0 * pair(M, U)
    d["mart_work"] = 2.0 * pair(M, U1)
    d["qv_disc"] = np.sum(M**2, axis=1)
    d["qv_jump"] = zeros if qv_jump is None else qv_jump
    d["resid_sq"] = np.sum((M - (U1 - U)) ** 2, axis=1)
    return d


def integrate(model, initial, seed, *, n_out=21, with_ledger=True, path_index=0):
    """One trajectory on [0, horizon] with a full per-step ledger.

    Deterministic given (seed, path_index): the jump stream is derived by
    the counter key schedule.  Raises BlowUpError on a non-finite or
    oversized state; the report carries the step, time and norms.
    """
    cfg = model.config
    coeffs = np.asarray(initial, dtype=float)[: cfg.level].copy()
    if coeffs.size < cfg.level:
        coeffs = np.concatenate([coeffs, np.zeros(cfg.level - coeffs.size)])
    if cfg.horizon > 0.0:
        jumps = _draw_jumps(model, seed, 1, path_index)
    else:  # no steps: the trajectory is its initial state
        jumps = [(np.empty(0), np.empty(0, np.int64))]
    jt, jm = jumps[0]
    bps = None  # grid mode steps on run_paths' n*dt grid
    if cfg.jump_mode == "adapted":  # that grid plus a breakpoint at every jump time
        bps = np.unique(np.concatenate([np.arange(model.n_steps + 1) * model.dt, jt]))
    states = [coeffs[None, :]]
    cols = {k: [] for k in LEDGER_COLUMNS}
    times_out, states_out = [0.0], [coeffs.copy()]
    for step in _march(
        [model], states, np.full(1, -1), jumps,
        n_out=None if cfg.jump_mode == "adapted" else n_out,
        breakpoints=bps, raise_blowup=True,
    ):
        if with_ledger:
            diag = _diag_update(model, step.dt, *step.pieces[0])
            cols["t"].append(step.t)
            cols["dt"].append(step.dt)
            for k in LEDGER_COLUMNS[2:-1]:
                cols[k].append(float(diag[k][0]))
            cols["n_jumps"].append(step.n_jumps)
        if step.out:
            times_out.append(step.t)
            states_out.append(states[0][0].copy())
    ledger = EnergyLedger({k: np.asarray(v, dtype=float) for k, v in cols.items()}) if with_ledger else None
    return Trajectory(
        np.asarray(times_out), np.asarray(states_out), jt, jm, cfg.level, ledger, cfg.scheme
    )


@dataclass
class EnsembleResult:
    """Snapshots of per-path accumulators on a common output grid."""

    times: np.ndarray               # (n_out,)
    series: dict                    # name -> (n_out, P)
    terminal: np.ndarray            # (P, m)
    blown: np.ndarray               # (P,) bool
    blow_steps: np.ndarray          # (P,) int, -1 if alive
    n_jumps: np.ndarray             # (P,) int
    jumps: list = field(default_factory=list, repr=False)

    def alive(self):
        return ~self.blown


_SERIES_BASE = (
    "l2_sq",
    "h2_sq",
    "sup_l2_sq",
    "diss_int",
    "diss_r2_int",
    "sup_energy",
)
_SERIES_AUDIT = (
    "mart_cum",
    "mart_sup",
    "qv_disc_cum",
    "qv_jump_cum",
    "resid_cum",
    "apwork_cum",
    "convwork_cum",
    "skew_max",
)
# audit running sums and the ledger column each one adds up
_AUDIT_SUMS = {
    "mart_cum": "mart_pre",
    "qv_disc_cum": "qv_disc",
    "qv_jump_cum": "qv_jump",
    "resid_cum": "resid_sq",
    "apwork_cum": "ap_work",
    "convwork_cum": "conv_work",
}


def run_paths(model, initials, seed, *, n_out=11, track_audit=False,
              functionals=None, jumps=None, path_offset=0):
    """Batched grid-mode integration of an ensemble with running statistics.

    `initials` has shape (P, m).  Per-path accumulators (running max of
    |u|^2, dissipation integrals, martingale partial sums, ...) are
    snapshotted on `n_out` evenly spaced output times.  Each path draws
    its own jump stream keyed by path index, so results do not depend on
    how the ensemble is split across workers.  Blown-up paths freeze at
    their last finite state and are flagged, not hidden.
    """
    cfg = model.config
    if cfg.jump_mode != "grid":
        raise ValueError("batched runs use the grid jump mode")
    U = np.array(initials, dtype=float)
    if U.ndim != 2 or U.shape[1] != cfg.level:
        raise ValueError("initials must have shape (paths, level)")
    n_paths = U.shape[0]
    if jumps is None:
        jumps = _draw_jumps(model, seed, n_paths, path_offset)
    functionals = functionals or {}

    acc = {name: np.zeros(n_paths) for name in _SERIES_BASE + _SERIES_AUDIT}
    acc["l2_sq"] = np.sum(U**2, axis=1)
    acc["h2_sq"] = np.sum(model.basis.eigenvalues * U**2, axis=1)
    acc["sup_l2_sq"] = acc["l2_sq"].copy()
    acc["sup_energy"] = acc["l2_sq"].copy()
    acc.update({f"occ_{name}": np.zeros(n_paths) for name in functionals})
    blow_steps = np.full(n_paths, -1, dtype=np.int64)

    snap_names = (list(_SERIES_BASE) + (list(_SERIES_AUDIT) if track_audit else [])
                  + [f"occ_{name}" for name in functionals])
    snaps = [{name: acc[name].copy() for name in snap_names}]  # one per output time
    times = [0.0]

    def raise_max(name, values, live):
        np.maximum(acc[name], np.where(live, values, -np.inf), out=acc[name])

    states = [U]
    for step in _march([model], states, blow_steps, jumps, n_out=n_out):
        U1, dt, live = states[0], step.dt, step.live
        h2_post = np.sum(model.basis.eigenvalues * U1**2, axis=1)
        l2_post = np.sum(U1**2, axis=1)
        acc["l2_sq"][live] = l2_post[live]
        acc["h2_sq"][live] = h2_post[live]
        acc["diss_int"][live] += dt * h2_post[live]
        acc["diss_r2_int"][live] += dt * (h2_post * l2_post)[live]
        raise_max("sup_l2_sq", l2_post, live)
        raise_max("sup_energy", l2_post + 2.0 * model.params.kappa1 * acc["diss_int"], live)
        if track_audit:
            diag = _diag_update(model, dt, *step.pieces[0])
            for name, column in _AUDIT_SUMS.items():
                acc[name][live] += diag[column][live]
            raise_max("mart_sup", np.abs(acc["mart_cum"]), live)
            scale = 1.0 + l2_post * np.sqrt(np.maximum(h2_post, 0.0))
            raise_max("skew_max", np.abs(diag["conv_skew"]) / scale, live)
        for name, fn in functionals.items():
            acc[f"occ_{name}"][live] += dt * fn(U1)[live]
        if step.out:
            times.append(step.t)
            snaps.append({name: acc[name].copy() for name in snap_names})

    return EnsembleResult(
        times=np.array(times),
        series={name: np.array([snap[name] for snap in snaps]) for name in snap_names},
        terminal=states[0],
        blown=blow_steps >= 0,
        blow_steps=blow_steps,
        n_jumps=np.array([t.size for t, _ in jumps]),
        jumps=jumps,
    )


def run_pairs(model, xi1, xi2, seed, conv_bound, *, n_out=11, jumps=None):
    """Synchronously coupled pair ensemble with the weighted distance.

    Both members of each pair see the same jump events: pair p those of
    path p's stream, or `jumps[p]` when given.  Tracks the squared
    distance |w|^2 and the weighted distance rho * |w|^2 with
    rho(t) = exp(-(C^2/kappa1) * int ||u1||_2^2 ds), the weight of the
    pathwise contraction estimate (C is the convection-form constant).
    """
    states = [np.array(xi1, dtype=float), np.array(xi2, dtype=float)]
    n_paths = states[0].shape[0]
    blow_steps = np.full(n_paths, -1, dtype=np.int64)
    diss1 = np.zeros(n_paths)
    wsq0 = np.sum((states[0] - states[1]) ** 2, axis=1)
    times, wsq, rho_wsq = [0.0], [wsq0], [wsq0]
    cw = conv_bound**2 / model.params.kappa1
    if jumps is None:
        jumps = _draw_jumps(model, seed, n_paths, 0)
    for step in _march([model, model], states, blow_steps, jumps, n_out=n_out):
        live = step.live
        diss1[live] += step.dt * np.sum(model.basis.eigenvalues * states[0]**2, axis=1)[live]
        if step.out:
            w = np.sum((states[0] - states[1]) ** 2, axis=1)
            times.append(step.t)
            wsq.append(w)
            rho_wsq.append(np.exp(-cw * diss1) * w)
    return {
        "times": np.array(times),
        "wsq": np.array(wsq),
        "rho_wsq": np.array(rho_wsq),
        "wsq0": wsq0,
        "blown": blow_steps >= 0,
    }


def run_levels(models, initial_top, seed):
    """Lockstep integration of nested truncations under shared noise.

    `models` are FluidModels of increasing level with a common dt and
    horizon.  Every level of a path sees the same jump realization; the
    initial state is the top-level draw truncated to each level.  Returns
    per consecutive pair the squared terminal gap and the time integral
    of the squared energy-norm gap (fields compared by zero-padding).
    """
    top = models[-1]
    levels = [m.config.level for m in models]
    if levels != sorted(levels) or len(set(levels)) != len(levels):
        raise ValueError("levels must be strictly increasing")
    if any(b.dt != top.dt for b in models) or any(
        m.config.horizon != top.config.horizon for m in models
    ):
        raise ValueError("levels must share dt and horizon")
    X = np.array(initial_top, dtype=float)
    if X.ndim != 2 or X.shape[1] != levels[-1]:
        raise ValueError("initials must have shape (paths, top level)")
    n_paths = X.shape[0]
    states = [X[:, :lv].copy() for lv in levels]
    blow_steps = np.full(n_paths, -1, dtype=np.int64)
    gap_int = [np.zeros(n_paths) for _ in range(len(models) - 1)]
    eig_top = top.basis.eigenvalues
    jumps = _draw_jumps(top, seed, n_paths, 0)
    for step in _march(models, states, blow_steps, jumps):
        live = step.live
        for i in range(len(models) - 1):
            lo_lv, hi_lv = levels[i], levels[i + 1]
            d_lo = states[i + 1][:, :lo_lv] - states[i]
            d_hi = states[i + 1][:, lo_lv:hi_lv]
            gap_h2 = np.sum(eig_top[:lo_lv] * d_lo**2, axis=1) + np.sum(
                eig_top[lo_lv:hi_lv] * d_hi**2, axis=1
            )
            gap_int[i][live] += step.dt * gap_h2[live]
    gaps_sq = []
    for i in range(len(models) - 1):
        d = states[i + 1].copy()
        d[:, : levels[i]] -= states[i]
        gaps_sq.append(np.sum(d**2, axis=1))
    return {
        "levels": levels,
        "terminal_gap_sq": gaps_sq,   # list of (P,)
        "energy_gap_int": gap_int,    # list of (P,)
        "terminals": states,
        "blown": blow_steps >= 0,
    }


def energy_audit(traj, params, *, skew_tol=1e-10, stress_tol=1e-8, replay_tol=1e-9):
    """Step-identity and dissipation-inequality audit of one trajectory.

    Checks, per step: the convection pairing <B(u,u),u> vanishes within
    skew_tol * (1 + |u|^2 ||u||_2); the stress pairing <Ap(u),u> is above
    -stress_tol * (1 + ||u||_1^2); and the ledger replays the terminal
    energy.  Reports the cumulative slack of the dissipation inequality

        |u(t)|^2 + sum(diss) <= |xi|^2 + sum(mart) + sum(qv) + slack(t)

    together with its exact decomposition slack = residual + stress work
    + convection work (the residual part is a sum of squares).
    """
    led = traj.ledger
    if led is None:
        raise ValueError("trajectory carries no ledger")
    if traj.scheme != "semi-implicit":
        raise ValueError("the energy audit applies to the semi-implicit scheme")
    c = led.columns
    n = len(c["t"])
    report = {"n_steps": n}
    if n == 0:
        report.update(
            skew_flags=0, stress_flags=0, replay_max=0.0, slack_min=0.0,
            decomposition_max=0.0, passed=True,
        )
        return report
    scale_skew = 1.0 + c["l2_pre_sq"] * np.sqrt(np.maximum(c["h2_post_sq"], 0.0))
    skew_flags = int(np.sum(np.abs(c["conv_skew"]) > skew_tol * scale_skew))
    stress_scale = 1.0 + c["l2_pre_sq"] + c["h2_post_sq"]
    stress_flags = int(np.sum(c["ap_pair"] < -stress_tol * stress_scale))

    replay = led.replay_residual()
    energy_scale = 1.0 + np.maximum.accumulate(np.abs(c["l2_post_sq"]))
    replay_max = float(np.max(np.abs(np.cumsum(replay)) / energy_scale))

    l2_0 = c["l2_pre_sq"][0]
    lhs = c["l2_post_sq"] + np.cumsum(c["diss"])
    rhs = l2_0 + np.cumsum(c["mart_pre"]) + np.cumsum(c["qv_disc"])
    slack = rhs - lhs
    decomposition = slack - np.cumsum(c["resid_sq"] + c["ap_work"] + c["conv_work"])
    slack_min = float(np.min(slack))
    decomposition_max = float(np.max(np.abs(decomposition) / energy_scale))
    slack_tol = 1e-6 * float(1.0 + np.max(c["l2_post_sq"]))
    report.update(
        skew_flags=skew_flags,
        stress_flags=stress_flags,
        replay_max=replay_max,
        slack_min=slack_min,
        slack_final=float(slack[-1]),
        decomposition_max=decomposition_max,
        passed=(
            skew_flags == 0
            and stress_flags == 0
            and replay_max < replay_tol
            and decomposition_max < replay_tol
            and slack_min > -slack_tol
        ),
    )
    return report
