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

Paths blow up by policy, not silently: a non-finite or oversized state
aborts the trajectory with a report of the step and norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _step_grid(n_steps, dt, jump_times):
    """Step index of each event on the uniform grid: window (t_n, t_n + dt]."""
    idx = np.ceil(jump_times / dt).astype(np.int64) - 1
    return np.clip(idx, 0, n_steps - 1)


def _breakpoints(horizon, dt, jump_times, mode):
    """Step boundaries; the adapted mode inserts one at every jump time."""
    n_steps = max(1, int(round(horizon / dt)))
    grid = np.linspace(0.0, horizon, n_steps + 1)
    if mode == "grid" or jump_times.size == 0:
        return grid
    pts = np.unique(np.concatenate([grid, jump_times]))
    return pts[(pts >= 0.0) & (pts <= horizon + 1e-15)]


def _diag_update(model, dt, U, U1, M, ap, bb, qv_jump, n_events):
    par = model.params
    d = {}
    d["l2_pre_sq"] = np.sum(U**2, axis=1)
    d["l2_post_sq"] = np.sum(U1**2, axis=1)
    d["h2_post_sq"] = np.sum(model.basis.eigenvalues * U1**2, axis=1)
    d["diss"] = 2.0 * par.kappa1 * dt * d["h2_post_sq"]
    if ap is not None:
        d["ap_pair"] = np.einsum("pm,pm->p", ap, U)
        d["ap_work"] = 4.0 * par.kappa0 * dt * np.einsum("pm,pm->p", ap, U1)
    else:
        d["ap_pair"] = np.zeros(U.shape[0])
        d["ap_work"] = np.zeros(U.shape[0])
    if bb is not None:
        d["conv_skew"] = np.einsum("pm,pm->p", bb, U)
        d["conv_work"] = 2.0 * dt * np.einsum("pm,pm->p", bb, U1)
    else:
        d["conv_skew"] = np.zeros(U.shape[0])
        d["conv_work"] = np.zeros(U.shape[0])
    d["backward"] = np.sum((U - U1) ** 2, axis=1)
    d["mart_pre"] = 2.0 * np.einsum("pm,pm->p", M, U)
    d["mart_work"] = 2.0 * np.einsum("pm,pm->p", M, U1)
    d["qv_disc"] = np.sum(M**2, axis=1)
    d["qv_jump"] = qv_jump if qv_jump is not None else np.zeros(U.shape[0])
    d["resid_sq"] = np.sum((M - (U1 - U)) ** 2, axis=1)
    d["n_jumps"] = n_events
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
    if cfg.horizon == 0.0:
        return Trajectory(
            np.array([0.0]), coeffs[None, :], np.empty(0), np.empty(0, np.int64),
            cfg.level, EnergyLedger({k: np.empty(0) for k in LEDGER_COLUMNS}), cfg.scheme,
        )
    rng = derive_rng(seed, STREAM_JUMPS, path_index)
    jt, jm = sample_jumps(model.marks, cfg.horizon, rng)
    bps = _breakpoints(cfg.horizon, model.dt, jt, cfg.jump_mode)
    n_steps = bps.size - 1

    if cfg.jump_mode == "adapted":
        out_idx = np.arange(n_steps + 1)
    else:
        out_idx = np.unique(np.linspace(0, n_steps, min(n_out, n_steps + 1)).astype(int))
    out_set = set(int(i) for i in out_idx)
    ends = np.searchsorted(jt, bps[1:], side="right")
    starts = np.concatenate([[0], ends[:-1]])

    U = coeffs[None, :]
    cols = {k: [] for k in LEDGER_COLUMNS}
    times_out, states_out = [bps[0]], [coeffs.copy()]
    for n in range(n_steps):
        t0, t1 = bps[n], bps[n + 1]
        dt = t1 - t0
        lo, hi = starts[n], ends[n]
        jp = np.zeros(hi - lo, dtype=np.int64)
        M, _, qv = model.noise_increment(t0, dt, U, jp, jm[lo:hi], jt[lo:hi])
        ap, bb = model.drift_pieces(U)
        U1 = model.advance(U, dt, M, ap, bb)
        l2_post = float(np.sum(U1**2))
        if not np.isfinite(l2_post) or l2_post > cfg.blowup_norm**2:
            raise BlowUpError(
                {
                    "step": n,
                    "t": t1,
                    "l2": float(np.sqrt(abs(l2_post))),
                    "l2_pre": float(np.sqrt(np.sum(U**2))),
                    "level": cfg.level,
                }
            )
        if with_ledger:
            diag = _diag_update(model, dt, U, U1, M, ap, bb, qv, hi - lo)
            cols["t"].append(t1)
            cols["dt"].append(dt)
            for k in LEDGER_COLUMNS[2:-1]:
                cols[k].append(float(diag[k][0]))
            cols["n_jumps"].append(hi - lo)
        U = U1
        if n + 1 in out_set:
            times_out.append(t1)
            states_out.append(U[0].copy())
    ledger = EnergyLedger({k: np.asarray(v, dtype=float) for k, v in cols.items()}) if with_ledger else None
    return Trajectory(
        np.asarray(times_out), np.asarray(states_out), jt, jm, cfg.level, ledger, cfg.scheme
    )


def _prepare_jumps(model, seed, n_paths, horizon, path_offset, jumps):
    """Per-path event lists flattened into step-bucketed arrays."""
    dt = model.dt
    n_steps = max(1, int(round(horizon / dt)))
    all_t, all_m, all_p = [], [], []
    drawn = []
    for p in range(n_paths):
        if jumps is None:
            rng = derive_rng(seed, STREAM_JUMPS, path_offset + p)
            jt, jm = sample_jumps(model.marks, horizon, rng)
        else:
            jt, jm = jumps[p]
        drawn.append((jt, jm))
        all_t.append(jt)
        all_m.append(jm)
        all_p.append(np.full(jt.size, p, dtype=np.int64))
    jt = np.concatenate(all_t) if all_t else np.empty(0)
    jm = np.concatenate(all_m).astype(np.int64) if all_m else np.empty(0, np.int64)
    jp = np.concatenate(all_p) if all_p else np.empty(0, np.int64)
    steps = _step_grid(n_steps, dt, jt) if jt.size else np.empty(0, np.int64)
    order = np.argsort(steps, kind="stable")
    jt, jm, jp, steps = jt[order], jm[order], jp[order], steps[order]
    bounds = np.searchsorted(steps, np.arange(n_steps + 1))
    return n_steps, jt, jm, jp, bounds, drawn


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
    par = model.params
    n_steps, jt, jm, jp, bounds, drawn = _prepare_jumps(
        model, seed, n_paths, cfg.horizon, path_offset, jumps
    )
    dt = model.dt
    out_idx = np.unique(np.linspace(0, n_steps, min(n_out, n_steps + 1)).astype(int))
    functionals = functionals or {}

    acc = {name: np.zeros(n_paths) for name in _SERIES_BASE + _SERIES_AUDIT}
    acc["l2_sq"] = np.sum(U**2, axis=1)
    acc["h2_sq"] = np.sum(model.basis.eigenvalues * U**2, axis=1)
    acc["sup_l2_sq"] = acc["l2_sq"].copy()
    acc["sup_energy"] = acc["l2_sq"].copy()
    occ = {name: np.zeros(n_paths) for name in functionals}
    alive = np.ones(n_paths, dtype=bool)
    blow_steps = np.full(n_paths, -1, dtype=np.int64)

    snap_names = list(_SERIES_BASE) + (list(_SERIES_AUDIT) if track_audit else [])
    snaps = {name: np.zeros((out_idx.size, n_paths)) for name in snap_names}
    snaps.update({f"occ_{name}": np.zeros((out_idx.size, n_paths)) for name in occ})
    times = out_idx * dt
    cursor = 0

    def snapshot(pos):
        for name in snap_names:
            snaps[name][pos] = acc[name]
        for name in occ:
            snaps[f"occ_{name}"][pos] = occ[name]

    if out_idx[0] == 0:
        snapshot(0)
        cursor = 1

    for n in range(n_steps):
        t0 = n * dt
        lo, hi = bounds[n], bounds[n + 1]
        M, _, qv = model.noise_increment(t0, dt, U, jp[lo:hi], jm[lo:hi], jt[lo:hi])
        ap, bb = model.drift_pieces(U)
        U1 = model.advance(U, dt, M, ap, bb)

        l2_post = np.sum(U1**2, axis=1)
        bad = alive & (~np.isfinite(l2_post) | (l2_post > cfg.blowup_norm**2))
        if bad.any():
            blow_steps[bad] = n
            U1[bad] = U[bad]  # freeze at the last finite state
            alive &= ~bad
        live = alive

        h2_post = np.sum(model.basis.eigenvalues * U1**2, axis=1)
        l2_post = np.sum(U1**2, axis=1)
        acc["l2_sq"][live] = l2_post[live]
        acc["h2_sq"][live] = h2_post[live]
        acc["diss_int"][live] += dt * h2_post[live]
        acc["diss_r2_int"][live] += dt * (h2_post * l2_post)[live]
        np.maximum(acc["sup_l2_sq"], np.where(live, l2_post, -np.inf), out=acc["sup_l2_sq"])
        energy = l2_post + 2.0 * par.kappa1 * acc["diss_int"]
        np.maximum(acc["sup_energy"], np.where(live, energy, -np.inf), out=acc["sup_energy"])
        if track_audit:
            diag = _diag_update(model, dt, U, U1, M, ap, bb, qv, hi - lo)
            acc["mart_cum"][live] += diag["mart_pre"][live]
            np.maximum(
                acc["mart_sup"],
                np.where(live, np.abs(acc["mart_cum"]), -np.inf),
                out=acc["mart_sup"],
            )
            acc["qv_disc_cum"][live] += diag["qv_disc"][live]
            acc["qv_jump_cum"][live] += diag["qv_jump"][live]
            acc["resid_cum"][live] += diag["resid_sq"][live]
            acc["apwork_cum"][live] += diag["ap_work"][live]
            acc["convwork_cum"][live] += diag["conv_work"][live]
            scale = 1.0 + l2_post * np.sqrt(np.maximum(h2_post, 0.0))
            np.maximum(
                acc["skew_max"],
                np.where(live, np.abs(diag["conv_skew"]) / scale, -np.inf),
                out=acc["skew_max"],
            )
        for name, fn in functionals.items():
            occ[name][live] += dt * fn(U1)[live]
        U = U1
        if cursor < out_idx.size and n + 1 == out_idx[cursor]:
            snapshot(cursor)
            cursor += 1

    return EnsembleResult(
        times=times,
        series=snaps,
        terminal=U,
        blown=~alive,
        blow_steps=blow_steps,
        n_jumps=np.array([t.size for t, _ in drawn]),
        jumps=drawn,
    )


def run_pairs(model, xi1, xi2, seed, conv_bound, *, n_out=11, path_offset=0):
    """Synchronously coupled pair ensemble with the weighted distance.

    Both members of each pair see the same jump events.  Tracks the
    squared distance |w|^2 and the weighted distance rho * |w|^2 with
    rho(t) = exp(-(C^2/kappa1) * int ||u1||_2^2 ds), the weight of the
    pathwise contraction estimate (C is the convection-form constant).
    """
    cfg = model.config
    U1 = np.array(xi1, dtype=float)
    U2 = np.array(xi2, dtype=float)
    n_paths = U1.shape[0]
    n_steps, jt, jm, jp, bounds, _ = _prepare_jumps(
        model, seed, n_paths, cfg.horizon, path_offset, None
    )
    dt = model.dt
    out_idx = np.unique(np.linspace(0, n_steps, min(n_out, n_steps + 1)).astype(int))
    diss1 = np.zeros(n_paths)
    wsq0 = np.sum((U1 - U2) ** 2, axis=1)
    snaps = {"wsq": np.zeros((out_idx.size, n_paths)), "rho_wsq": np.zeros((out_idx.size, n_paths))}
    alive = np.ones(n_paths, dtype=bool)
    cursor = 0
    if out_idx[0] == 0:
        snaps["wsq"][0] = wsq0
        snaps["rho_wsq"][0] = wsq0
        cursor = 1
    cw = conv_bound**2 / model.params.kappa1
    for n in range(n_steps):
        t0 = n * dt
        lo, hi = bounds[n], bounds[n + 1]
        M1, _, _ = model.noise_increment(t0, dt, U1, jp[lo:hi], jm[lo:hi], jt[lo:hi])
        M2, _, _ = model.noise_increment(t0, dt, U2, jp[lo:hi], jm[lo:hi], jt[lo:hi])
        ap1, bb1 = model.drift_pieces(U1)
        ap2, bb2 = model.drift_pieces(U2)
        N1 = model.advance(U1, dt, M1, ap1, bb1)
        N2 = model.advance(U2, dt, M2, ap2, bb2)
        s1, s2 = np.sum(N1**2, axis=1), np.sum(N2**2, axis=1)
        cap = cfg.blowup_norm**2
        bad = alive & ~(np.isfinite(s1) & np.isfinite(s2) & (s1 <= cap) & (s2 <= cap))
        if bad.any():
            N1[bad], N2[bad] = U1[bad], U2[bad]
            alive &= ~bad
        U1, U2 = N1, N2
        diss1[alive] += dt * np.sum(model.basis.eigenvalues * U1**2, axis=1)[alive]
        if cursor < out_idx.size and n + 1 == out_idx[cursor]:
            wsq = np.sum((U1 - U2) ** 2, axis=1)
            snaps["wsq"][cursor] = wsq
            snaps["rho_wsq"][cursor] = np.exp(-cw * diss1) * wsq
            cursor += 1
    return {
        "times": out_idx * dt,
        "wsq": snaps["wsq"],
        "rho_wsq": snaps["rho_wsq"],
        "wsq0": wsq0,
        "blown": ~alive,
    }


def run_levels(models, initial_top, seed, *, path_offset=0, n_paths=None):
    """Lockstep integration of nested truncations under shared noise.

    `models` are FluidModels of increasing level with a common dt and
    horizon.  Every level of a path sees the same jump realization; the
    initial state is the top-level draw truncated to each level.  Returns
    per consecutive pair the squared terminal gap and the time integral
    of the squared energy-norm gap (fields compared by zero-padding).
    """
    top = models[-1]
    cfg = top.config
    levels = [m.config.level for m in models]
    if levels != sorted(levels) or len(set(levels)) != len(levels):
        raise ValueError("levels must be strictly increasing")
    if any(b.dt != top.dt for b in models) or any(
        m.config.horizon != cfg.horizon for m in models
    ):
        raise ValueError("levels must share dt and horizon")
    X = np.array(initial_top, dtype=float)
    if X.ndim != 2 or X.shape[1] != levels[-1]:
        raise ValueError("initials must have shape (paths, top level)")
    n_paths = X.shape[0] if n_paths is None else n_paths
    n_steps, jt, jm, jp, bounds, _ = _prepare_jumps(
        top, seed, n_paths, cfg.horizon, path_offset, None
    )
    dt = top.dt
    states = [X[:, :lv].copy() for lv in levels]
    gap_int = [np.zeros(n_paths) for _ in range(len(models) - 1)]
    eig_top = top.basis.eigenvalues
    alive = np.ones(n_paths, dtype=bool)
    cap = cfg.blowup_norm**2
    for n in range(n_steps):
        t0 = n * dt
        lo, hi = bounds[n], bounds[n + 1]
        nxt = []
        for mdl, U in zip(models, states):
            M, _, _ = mdl.noise_increment(t0, dt, U, jp[lo:hi], jm[lo:hi], jt[lo:hi])
            ap, bb = mdl.drift_pieces(U)
            nxt.append(mdl.advance(U, dt, M, ap, bb))
        bad = alive.copy()
        bad[:] = False
        for new, old in zip(nxt, states):
            sq = np.sum(new**2, axis=1)
            bad |= ~np.isfinite(sq) | (sq > cap)
        bad &= alive
        if bad.any():
            for new, old in zip(nxt, states):
                new[bad] = old[bad]  # freeze every level of a dead path
            alive &= ~bad
        states = nxt
        for i in range(len(models) - 1):
            lo_lv, hi_lv = levels[i], levels[i + 1]
            d_lo = states[i + 1][:, :lo_lv] - states[i]
            d_hi = states[i + 1][:, lo_lv:hi_lv]
            gap_h2 = np.sum(eig_top[:lo_lv] * d_lo**2, axis=1) + np.sum(
                eig_top[lo_lv:hi_lv] * d_hi**2, axis=1
            )
            gap_int[i][alive] += dt * gap_h2[alive]
    gaps_sq = []
    for i in range(len(models) - 1):
        lo_lv, hi_lv = levels[i], levels[i + 1]
        d = states[i + 1].copy()
        d[:, :lo_lv] -= states[i]
        gaps_sq.append(np.sum(d**2, axis=1))
    return {
        "levels": levels,
        "terminal_gap_sq": gaps_sq,   # list of (P,)
        "energy_gap_int": gap_int,    # list of (P,)
        "terminals": states,
        "blown": ~alive,
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
