"""Time integration of the spectrally truncated jump-driven fluid system.

One step of the semi-implicit scheme advances the coefficient state by

    u' = (I + dt*kappa1*A)^(-1) [ u - dt*(2*kappa0*Ap(u) + B(u,u)) + M ]

where A is the diagonal fourth-order operator, Ap the nonlinear stress,
B the convection term and M the compensated jump increment of the window
with the amplitude frozen at the left endpoint.  The stiff linear part is
implicit (a diagonal division, unconditionally stable); the nonlinear
terms are explicit; jumps are accumulated exactly.

Every step satisfies the energy identity

    |u'|^2 = |u|^2 - |u - u'|^2 - 2*dt*kappa1*||u'||_2^2
             - 4*kappa0*dt*<Ap(u), u'> - 2*dt*b(u, u, u') + 2*(M, u')

which the ledger records term by term, so a trajectory's terminal energy
can be replayed from the initial energy and the ledger alone.  The same
columns feed the energy audits: the margin in the cumulative dissipation
inequality decomposes as

    slack = sum |M - (u' - u)|^2 + stress work + convection work,

with the first term nonnegative by construction.  `_step_terms` computes
every term of the identity per row, once per block on all of a batch's
rows: an audited `run_paths` adds five of them up over every path (the
audit series) and keeps all of them for the first AUDITED_PATHS paths.
The ledger's other columns come from elsewhere: t and dt from the step
grid, and n_jumps and the jump variation qv_jump = sum |g_j c(u)|^2 from
the audited paths' own jump lists and pre-step states, once the run is
done.

The three drivers share one stepping kernel, `_march`.  It steps one
batch of P rows by one model, row p under its own jump list: it buckets
the jumps into step windows, takes the batch through the noise
increment, the drift and the advance, and checks each row for blow-up.
`run_paths` is one batch, and so is `run_pairs`: 2P rows, the first
sides over the second, rows p and P + p under pair p's jumps.
`run_levels` runs one `_march` per truncation level, all under the same
jump lists, and takes their blocks side by side.  All step on
the n*dt grid of the models' one dt.  The drivers keep only their own
accumulators, ensemble series, pair distances, level gaps and, for an
audit, the ledger of the first AUDITED_PATHS paths, read their current
states from `_march`'s blocks and fold the blocks into them.

Paths blow up by one policy, not silently: `_march` freezes a row with
a non-finite or oversized state and flags it as blown; a pair is blown
when either of its rows is, and a path of `run_levels` when it blew up
at any level.  The drivers report the flags; a caller that cannot go on
without a path raises a BlowUpError with the ensemble's report.

The noise is compound Poisson, so paths that start at one state follow
one trajectory until their first jumps, and paths that start at one state
and see one jump list are one trajectory for the whole run: a contraction
block stacks its k separations, so its batch holds each path's base start
k times under one jump list.  `_march` groups the rows once: by the bits
of a row's initial state (a group), and within a group by the bytes of
its jump list (a class).  It evaluates the drift on one row per dormant
group and one per class that has jumped, scattering it back to every
row by one index array; the index is rebuilt at the steps where some
path leaves its group and at the step after some path freezes, since a
frozen row must not stand in for live ones.  The noise, the advance, the
blow-up check and the drivers' accumulators still run on every row, so
the rows of a group or a class stay bit-equal.  A drift call on fewer
rows is blocked differently by BLAS, so sharing moves results in the
last digits (about 1e-13 relative) against evaluating every row; a batch
whose paths share nothing (distinct starts, or distinct jump lists past
every first jump) evaluates every row as before.

Long runs of small batches are bound by per-call overhead, so the loop
does each piece of work once and only where needed; unlike the shared
drift, these savings change no bit.  `_march` plans its blocks of steps
before it steps: each ends after a step its caller names as a cut (the
output steps of `run_paths` and `run_pairs`), after at most FLUSH_STEPS
steps, and after the last step; the cap bounds the memory of runs with
few outputs.  Every fold adds and takes maxima in step order, so no bit
depends on where a block ends.  Each step's post-step states and live
flags, and for an audited `run_paths` their pieces (U, U1, M, ap, bb),
which `_step_terms` reads, go into buffers allocated once and reused, so
a block holds only until the next one: a driver copies what it keeps,
as `run_paths` does its audited rows.  The drivers do no arithmetic per
step: they fold each block into their accumulators in one vectorized
pass: running sums by `np.add.accumulate` along the step axis, seeded
with the running value, which adds in the order of per-step in-place
sums; maxima by one reduction; norms, functionals and ledger terms
evaluated once on the block's (k*P, m) states.  Blown paths are
masked out of every block (zero for sums, -inf for maxima); a frozen
path's last state is its last live one.  A FluidModel computes its
implicit denominator once, and for noise sigma(u, z_j) = g_j c(u) whose
core is one row h (zero and additive) its K amplitude rows g_j h and its
compensator row, which fill the increments of any batch size.  Linear and
saturating noise evaluate their core every step: a precomputed affine
map would round differently.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .basis import build_basis
from .noise import STREAM_JUMPS, keyed_draws, sample_jumps
from .operators import FluidParams, SpectralOperators

__all__ = [
    "SolverConfig",
    "FluidModel",
    "BlowUpError",
    "EnsembleResult",
    "default_dt",
    "run_paths",
    "run_pairs",
    "run_levels",
    "energy_audit",
    "replay_residual",
]

DT_CAP = 1e-3
BLOWUP_NORM = 1e8
FLUSH_STEPS = 64  # most steps in one block of `_march`
AUDITED_PATHS = 4  # the first paths whose ledger and states an audited `run_paths` keeps

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


def _whole_steps(horizon, dt):
    """Number of `dt` steps in `horizon`; ValueError unless a whole number >= 1."""
    n = round(horizon / dt)
    if dt > horizon or abs(n * dt - horizon) > 1e-9 * horizon:
        raise ValueError(f"horizon {horizon:g} is not a whole number >= 1 of steps of dt = {dt:.6g}")
    return int(n)


@dataclass(frozen=True)
class SolverConfig:
    params: FluidParams
    dim: int = 2
    level: int = 8
    dt: float | None = None
    horizon: float = 1.0
    convection: bool = True
    stress: bool = True
    blowup_norm: float = BLOWUP_NORM

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")


class BlowUpError(RuntimeError):
    """A run left the finite range; carries the abort report: the `step`
    and time `t` of the first blow-up, the count `n_blown` of blown paths
    and the model's `level`."""

    def __init__(self, report):
        super().__init__(f"{report['n_blown']} blown path(s), the first at step "
                         f"{report['step']} (t={report['t']:.6g})")
        self.report = report

    @classmethod
    def of(cls, result, model):
        """The error for `result`, an EnsembleResult of `model` with a blown path."""
        step = int(result.blow_steps[result.blown].min())
        return cls({"step": step, "t": (step + 1) * model.dt,
                    "n_blown": int(result.blown.sum()), "level": model.config.level})


def _read_only(a):
    """`a` made read-only (None passes through), for values kept across steps."""
    if a is not None:
        a.flags.writeable = False
    return a


class FluidModel:
    """Config plus the prepared basis, operator workspace and noise; the
    jumps are drawn from the noise's own mark space."""

    def __init__(self, config, sigma):
        self.config = config
        self.params = config.params
        self.basis = build_basis(config.level, config.dim)
        self.ops = SpectralOperators(self.basis)
        self.sigma = sigma
        self.marks = sigma.marks  # one mark space for the draws, the compensator and the budgets
        self.dt = config.dt if config.dt is not None else default_dt(self.basis, config.params.kappa1)
        self.n_steps = _whole_steps(config.horizon, self.dt)
        self._denom = _read_only(1.0 + self.dt * self.params.kappa1 * self.basis.eigenvalues)
        self._comp = -self.dt * float(np.sum(self.marks.rates * sigma.gains))  # -dt sum_j nu_j g_j
        self._rows = None  # state-free noise: (amplitude rows g_j h, compensator row)
        self._quiet = None  # state-free noise: the read-only M of a window without jumps
        if sigma.state_free:
            h = sigma.core(np.zeros((1, config.level)))[0]
            self._rows = (_read_only(sigma.gains[:, None] * h), _read_only(self._comp * h))

    def drift_pieces(self, states):
        """Explicit drift parts: (stress coefficients, convection coefficients)."""
        ap = self.ops.nonlinear_stress(states, self.params) if self.config.stress else None
        bb = self.ops.convection(states, states) if self.config.convection else None
        return ap, bb

    def advance(self, states, increment, ap, bb):
        """Apply one semi-implicit step to a batch of states."""
        dt = self.dt
        # `increment` is never written: the first subtraction allocates
        if ap is not None:
            g = increment - dt * (2.0 * self.params.kappa0) * ap
            if bb is not None:
                g -= dt * bb
        else:
            g = increment if bb is None else increment - dt * bb
        if g is increment:
            return (states + g) / self._denom
        g += states  # the bits of (states + g) / denom, in g's buffer
        g /= self._denom
        return g

    def noise_increment(self, states, jump_paths, jump_marks):
        """Compensated window increments M, shape (P, m), for a batch.

        The amplitude g_j c(u) is frozen at the pre-step state: the
        compensator is -dt (sum_j nu_j g_j) c(u) and an event of mark j on
        path p adds g_j c(u_p).  State-free noise fills M from the rows
        built with the model, for any batch size; for a window without
        jumps it returns a read-only M that it keeps until the batch shape
        changes.
        """
        if self._rows is None:
            core = self.sigma.core(states)
            inc = self._comp * core
            if not jump_paths.size:
                return inc
            amp = self.sigma.gains[jump_marks, None] * core[jump_paths]  # (n_events, m)
        else:
            if not jump_paths.size:
                if self._quiet is None or self._quiet.shape != states.shape:
                    self._quiet = _read_only(np.repeat(self._rows[1][None], len(states), axis=0))
                return self._quiet
            inc = np.empty(states.shape)
            inc[:] = self._rows[1]
            amp = self._rows[0][jump_marks]
        np.add.at(inc, jump_paths, amp)
        return inc


def replay_residual(ledger):
    """Per-step residual of the step energy identity in the ledger's columns."""
    return (
        ledger["l2_post_sq"]
        - ledger["l2_pre_sq"]
        + ledger["backward"]
        + ledger["diss"]
        + ledger["ap_work"]
        + ledger["conv_work"]
        - ledger["mart_work"]
    )


def _draw_jumps(model, seed, n_paths, offset):
    """Per-path (times, marks), each from the stream keyed by its path index."""
    marks, horizon = model.marks, model.config.horizon
    return keyed_draws(seed, STREAM_JUMPS, range(offset, offset + n_paths),
                       lambda rng: sample_jumps(marks, horizon, rng))


def _path_jumps(model, seed, n_paths, jumps):
    """`jumps`, one (times, marks) per path, or the paths' draws when None."""
    if jumps is None:
        return _draw_jumps(model, seed, n_paths, 0)
    if len(jumps) != n_paths:
        raise ValueError(f"jumps holds {len(jumps)} jump lists for {n_paths} paths")
    return jumps


def _jump_steps(times, dt, n_steps):
    """The step n whose window (n*dt, (n+1)*dt] holds each of the jump `times`."""
    return np.clip(np.ceil(times / dt).astype(np.int64) - 1, 0, n_steps - 1)


_Block = namedtuple("_Block", "steps t live U1 pieces")


def _output_steps(n_steps, n_out):
    """The steps of 0..n_steps at `n_out` evenly spaced times."""
    return set(np.linspace(0, n_steps, min(n_out, n_steps + 1)).astype(int).tolist())


class _SharedDrift:
    """Which paths need their own drift evaluation at a step.

    Paths (the rows of one batch) with bit-equal initial rows form a
    group; paths of a group whose jump lists are equal too, times and
    marks byte for byte, form a class, one trajectory for the whole run.
    At step n a path whose first jump window is n or later is dormant: it
    has had the same increments as the rest of its group, so its state is
    the group's.  A path that has jumped has its class's state.  Each
    group and each class is evaluated on one live path, the one with the
    latest first jump (the last to leave), the highest index among ties.
    A frozen path evaluates its own: it never stands in for a live one.
    """

    def __init__(self, states, jumps, first, live):
        ids = {}
        lists = np.array([ids.setdefault((times.tobytes(), marks.tobytes()), len(ids))
                          for times, marks in jumps], np.int64)
        rows = states.view(np.dtype((np.void, states.itemsize * states.shape[1]))).ravel()
        _, group = np.unique(rows, return_inverse=True)  # bytewise: bit-equal rows
        _, cls = np.unique(group * len(ids) + lists, return_inverse=True)
        self.first, self.keys = first, (group, cls)
        self.freeze(live)

    def freeze(self, live):
        """Choose the representatives among the `live` paths: per path, the
        path standing in for it while dormant and once it has jumped."""
        own = np.arange(live.size)
        self.reps = tuple(np.where(live, _latest(key, self.first, live)[key], own)
                          for key in self.keys)

    def at(self, n):
        """(rows to evaluate, index scattering their drift to every row) at
        step n, or None when every path needs its own."""
        rep = np.where(self.first >= n, *self.reps)
        keep = np.zeros(rep.size, bool)
        keep[rep] = True
        rows = np.flatnonzero(keep)
        if rows.size == rep.size:
            return None
        pos = np.zeros(rep.size, np.int64)
        pos[rows] = np.arange(rows.size)
        return rows, pos[rep]


def _latest(key, first, live):
    """Per value of `key`, its live row of the latest `first`, the highest
    index among ties (values without a live row point at row 0)."""
    by = np.lexsort((first, key))
    by = by[live[by]]
    last = np.diff(key[by], append=-1) != 0
    rep = np.zeros(key.max() + 1, np.int64)
    rep[key[by][last]] = by[last]
    return rep


def _blocks(n_steps, cuts):
    """`_march`'s blocks as (first, end) steps: the segments between the
    `cuts` (step numbers 1..n_steps), in chunks of at most FLUSH_STEPS."""
    ends = sorted({n for n in cuts if 0 < n < n_steps} | {n_steps})
    return [(a, min(a + FLUSH_STEPS, end))
            for lo, end in zip([0] + ends, ends) for a in range(lo, end, FLUSH_STEPS)]


def _march(model, U, blow_steps, jumps, *, cuts=(), keep_pieces=False):
    """Step the batch `U` of shape (P, m) by `model`; `U` is not written.

    The steps are the model's n_steps of size dt.  Row p sees the per-path
    (times, marks) `jumps[p]`, each event in the window (t_n, t_n+1] that
    holds it.  A row whose state is non-finite or above the blow-up norm
    freezes from then on, keeping its last live state, and its step goes
    into `blow_steps` (-1 while alive).  A frozen step keeps its pieces
    (U, M, ap, bb): advancing them again gives the blown state.  Rows with
    bit-equal initial states share one drift evaluation until their first
    jump, and for the whole run where their jump lists are equal too
    (`_SharedDrift`).

    Yields _Blocks of at most FLUSH_STEPS consecutive steps, each ending
    after a step whose number (1..n_steps) is in `cuts` and after the last
    step.  Per step of a block (k steps), stacked: `steps` and `t` (end
    times), each (k,); `live` (k, P); `U1` (k*P, m), the post-step states,
    whose last P rows are the current states; and, with `keep_pieces`,
    the stacked (U, U1, M, ap, bb), each (k*P, m) (an absent drift piece
    None), else None.  The blocks are views of buffers allocated once: a
    block holds until the next one is yielded.
    """
    jt = np.concatenate([np.empty(0)] + [times for times, _ in jumps])
    jm = np.concatenate([np.empty(0, np.int64)] + [marks for _, marks in jumps])
    jp = np.repeat(np.arange(len(jumps)), [times.size for times, _ in jumps])
    h, n_steps = model.dt, model.n_steps
    steps = _jump_steps(jt, h, n_steps)
    order = np.argsort(steps, kind="stable")
    jm, jp, steps = jm[order], jp[order], steps[order]
    bounds = np.searchsorted(steps, np.arange(n_steps + 1)).tolist()

    P = len(jumps)
    first = np.full(P, n_steps)  # each path's first jump window
    np.minimum.at(first, jp, steps)
    live, frozen = blow_steps < 0, None
    shared = _SharedDrift(U, jumps, first, live)
    share, regroup = shared.at(0), False
    leave = set((first[first < n_steps] + 1).tolist())  # steps where some path leaves
    cap = model.config.blowup_norm ** 2
    K = min(FLUSH_STEPS, n_steps)
    post = np.empty((K + 1,) + U.shape)  # row 0 the states entering the block, j + 1 after step j
    live_at = np.empty((K, P), bool)
    # M, ap and bb, each (K, P, m); None for an absent drift piece
    kept = [np.empty((K,) + U.shape) if on else None
            for on in (True, model.config.stress, model.config.convection)] if keep_pieces else None
    quiet = (jp[:0], jm[:0])  # the events of a window without any
    for a, b in _blocks(n_steps, cuts):
        post[0] = U
        for j, n in enumerate(range(a, b)):
            lo, hi = bounds[n], bounds[n + 1]
            events = (jp[lo:hi], jm[lo:hi]) if hi > lo else quiet
            if share is not None and (n in leave or regroup):
                if regroup:
                    shared.freeze(live)
                share, regroup = shared.at(n), False
            M = model.noise_increment(U, *events)
            if share is None:
                ap, bb = model.drift_pieces(U)
            else:
                rows, scatter = share
                ap, bb = (None if p is None else p.take(scatter, axis=0)
                          for p in model.drift_pieces(U.take(rows, axis=0)))
            U = model.advance(U, M, ap, bb)
            if keep_pieces:
                for buf, piece in zip(kept, (M, ap, bb)):
                    if buf is not None:
                        buf[j] = piece
            del M, ap, bb  # a suspended march holds no step's pieces
            # the batch's whole sum of squares bounds each row's, and is NaN
            # or inf if any entry is: rows are checked only when it fails
            if not np.vdot(U, U) <= cap:
                bad = live & ~((U * U).sum(axis=1) <= cap)
                if bad.any():
                    blow_steps[bad] = n
                    live = blow_steps < 0
                    frozen = ~live
                    regroup = True  # a frozen row must stop standing in for others
            if frozen is not None:
                U[frozen] = post[j][frozen]  # row j holds the step's U
            post[j + 1] = U
            live_at[j] = live
        k, numbers = b - a, np.arange(a + 1, b + 1)
        yield _Block(numbers, numbers * h, live_at[:k], _flat(post[1:k + 1]),
                     (_flat(post[:k]), _flat(post[1:k + 1]),
                      *(None if part is None else _flat(part[:k]) for part in kept))
                     if keep_pieces else None)


def _flat(a):
    """A (k, P, ...) block of a buffer as its (k*P, ...) view."""
    return a.reshape(-1, *a.shape[2:])


def _pair(a, V):
    """Per-path <a, V>; an absent drift piece pairs to zero."""
    return np.zeros(V.shape[0]) if a is None else np.einsum("pm,pm->p", a, V)


def _running_sum(start, values, live):
    """Running sums of `start` plus the rows of `values` (k, P) where `live`.

    Row j is the running value after step j, added in step order, so the
    last row has the bits of k in-place additions of the live entries.
    """
    rows = np.concatenate([start[None], np.where(live, values, 0.0)])
    return np.add.accumulate(rows, axis=0)[1:]


def _step_terms(model, dt, U, U1, M, ap, bb):
    """Per-row terms of the step energy identity on stacked (n, m) pieces:
    every ledger column but t, dt, n_jumps and qv_jump, each (n,)."""
    h2 = np.sum(model.basis.eigenvalues * U1**2, axis=1)
    return {
        "l2_pre_sq": np.sum(U**2, axis=1),
        "l2_post_sq": np.sum(U1**2, axis=1),
        "h2_post_sq": h2,
        "diss": 2.0 * model.params.kappa1 * dt * h2,
        "ap_pair": _pair(ap, U),
        "ap_work": 4.0 * model.params.kappa0 * dt * _pair(ap, U1),
        "conv_skew": _pair(bb, U),
        "conv_work": 2.0 * dt * _pair(bb, U1),
        "backward": np.sum((U - U1) ** 2, axis=1),
        "mart_pre": 2.0 * _pair(M, U),
        "mart_work": 2.0 * _pair(M, U1),
        "qv_disc": np.sum(M**2, axis=1),
        "resid_sq": np.sum((M - (U1 - U)) ** 2, axis=1),
    }


@dataclass
class EnsembleResult:
    """Snapshots of per-path accumulators on a common output grid."""

    times: np.ndarray               # (n_out,)
    series: dict                    # name -> (n_out, P)
    terminal: np.ndarray            # (P, m)
    blown: np.ndarray               # (P,) bool
    blow_steps: np.ndarray          # (P,) int, -1 if alive
    # with track_audit, of the first A = min(AUDITED_PATHS, P) paths:
    ledger: dict | None = None      # LEDGER_COLUMNS -> (n_steps, A) per-step values
    states: np.ndarray | None = None  # (n_steps, A, m) post-step states

    def alive(self):
        return ~self.blown


_SERIES_BASE = (
    "l2_sq",
    "sup_l2_sq",
    "diss_int",
    "diss_r2_int",
    "sup_energy",
)
# audit running sums and the ledger column each one adds up
_AUDIT_SUMS = {
    "mart_cum": "mart_pre",
    "qv_disc_cum": "qv_disc",
    "resid_cum": "resid_sq",
    "apwork_cum": "ap_work",
    "convwork_cum": "conv_work",
}
_SERIES_AUDIT = (*_AUDIT_SUMS, "mart_sup")  # and the running maximum of |mart_cum|


def run_paths(model, initials, seed, *, n_out=11, track_audit=False,
              functionals=None, jumps=None):
    """Batched grid-mode integration of an ensemble with running statistics.

    `initials` has shape (P, m).  Per-path accumulators (running max of
    |u|^2, dissipation integrals, martingale partial sums, ...) are
    snapshotted on `n_out` evenly spaced output times.  Each path draws
    its own jump stream keyed by path index, so results do not depend on
    how the ensemble is split across workers; `jumps` replaces the draw
    with given per-path (times, marks).  Blown-up paths freeze at
    their last finite state and are flagged, not hidden.  The accumulators
    fold each block of `_march`, cut at the output steps, at once, with
    the bits of per-step updates.  Each of `functionals` (name -> a map
    from (n, m) states to (n,) values) is integrated in time as
    `occ_<name>`: dt * fn(u) added per step.  With `track_audit`, each
    block's `_step_terms` are evaluated once on all its rows: the audit
    series add up five of their columns over every path, and the result
    keeps every column as the per-step ledger of the first AUDITED_PATHS
    paths, with their post-step states: the rows of this batch, not a
    second run of them.  The audit changes no bit of the other series.
    """
    cfg = model.config
    U = np.array(initials, dtype=float)
    if U.ndim != 2 or U.shape[1] != cfg.level:
        raise ValueError("initials must have shape (paths, level)")
    n_paths = U.shape[0]
    jumps = _path_jumps(model, seed, n_paths, jumps)
    functionals = functionals or {}
    eig, dt = model.basis.eigenvalues, model.dt
    two_kappa1 = 2.0 * model.params.kappa1

    acc = {name: np.zeros(n_paths) for name in _SERIES_BASE + _SERIES_AUDIT}
    acc["l2_sq"] = np.sum(U**2, axis=1)
    acc["sup_l2_sq"] = acc["l2_sq"].copy()
    acc["sup_energy"] = acc["l2_sq"].copy()
    for name in functionals:
        acc[f"occ_{name}"] = np.zeros(n_paths)
    blow_steps = np.full(n_paths, -1, dtype=np.int64)

    snap_names = (list(_SERIES_BASE) + (list(_SERIES_AUDIT) if track_audit else [])
                  + [f"occ_{name}" for name in functionals])

    def snapshot():
        return {name: acc[name].copy() for name in snap_names}

    snaps, times = [snapshot()], [0.0]  # one per output time
    audited = min(AUDITED_PATHS, n_paths)
    if track_audit:  # the audited rows' per-step ledger and post-step states
        ledger = {column: np.zeros((model.n_steps, audited)) for column in LEDGER_COLUMNS}
        states = np.empty((model.n_steps, audited, cfg.level))
    out = _output_steps(model.n_steps, n_out)
    for block in _march(model, U, blow_steps, jumps, cuts=out, keep_pieces=track_audit):
        k, live, U1 = block.steps.size, block.live, block.U1
        sq = U1**2
        l2 = np.sum(sq, axis=1).reshape(k, n_paths)
        h2 = np.sum(eig * sq, axis=1).reshape(k, n_paths)

        def add(name, values):
            running = _running_sum(acc[name], values, live)
            acc[name] = running[-1]
            return running

        def raise_max(name, values):
            acc[name] = np.maximum(acc[name], np.where(live, values, -np.inf).max(axis=0))

        # a frozen row holds its last live state, so these are its last live values
        acc["l2_sq"] = l2[-1]
        diss = add("diss_int", dt * h2)
        add("diss_r2_int", dt * (h2 * l2))
        raise_max("sup_l2_sq", l2)
        raise_max("sup_energy", l2 + two_kappa1 * diss)
        if track_audit:
            terms = _step_terms(model, dt, *block.pieces)
            terms = {column: v.reshape(k, n_paths) for column, v in terms.items()}
            for name, column in _AUDIT_SUMS.items():
                running = add(name, terms[column])
                if name == "mart_cum":
                    raise_max("mart_sup", np.abs(running))
            # copied: the block's buffers are reused
            span = slice(block.steps[0] - 1, block.steps[-1])
            for column, v in terms.items():
                ledger[column][span] = v[:, :audited]
            states[span] = U1.reshape(k, n_paths, -1)[:, :audited]
        for name, fn in functionals.items():
            add(f"occ_{name}", dt * fn(U1).reshape(k, n_paths))
        if block.steps[-1] in out:
            times.append(block.t[-1])
            snaps.append(snapshot())

    result = EnsembleResult(
        times=np.array(times),
        series={name: np.array([snap[name] for snap in snaps]) for name in snap_names},
        terminal=block.U1[-n_paths:].copy(),
        blown=blow_steps >= 0,
        blow_steps=blow_steps,
    )
    if track_audit:
        ledger["t"][:] = (np.arange(1, model.n_steps + 1) * dt)[:, None]
        ledger["dt"][:] = dt
        # each path's event count and jump variation per step, from its own
        # jump list and its pre-step states
        pre = np.concatenate([U[None, :audited], states[:-1]])
        for p, (times, marks) in enumerate(jumps[:audited]):
            at = _jump_steps(times, dt, model.n_steps)
            amp = model.sigma.gains[marks, None] * model.sigma.core(pre[at, p])
            np.add.at(ledger["n_jumps"][:, p], at, 1.0)
            np.add.at(ledger["qv_jump"][:, p], at, np.sum(amp**2, axis=1))
        result.ledger, result.states = ledger, states
    return result


def run_pairs(model, xi1, xi2, seed, conv_bound, *, n_out=11, jumps=None):
    """Synchronously coupled pair ensemble with the weighted distance.

    Both paths of each pair see the same jump events: pair p those of
    path p's stream, or `jumps[p]` when given.  Tracks the squared
    distance |w|^2 and the weighted distance rho * |w|^2 with
    rho(t) = exp(-(C^2/kappa1) * int ||u1||_2^2 ds), the weight of the
    pathwise contraction estimate (C is the convection-form constant).
    The P pairs step as one batch of 2P rows, `xi1` over `xi2`, and a
    pair is blown when either of its rows is.  The integral folds each
    block of `_march`, cut at the output steps, as in `run_paths`.
    """
    xi1, xi2 = np.asarray(xi1, dtype=float), np.asarray(xi2, dtype=float)
    if xi1.ndim != 2 or xi1.shape != xi2.shape or xi1.shape[1] != model.config.level:
        raise ValueError("xi1 and xi2 must both have shape (pairs, level)")
    n_paths = xi1.shape[0]
    jumps = _path_jumps(model, seed, n_paths, jumps)
    blow_steps = np.full(2 * n_paths, -1, dtype=np.int64)
    diss1 = np.zeros(n_paths)
    wsq0 = np.sum((xi1 - xi2) ** 2, axis=1)
    times, wsq, rho_wsq = [0.0], [wsq0], [wsq0]
    cw = conv_bound**2 / model.params.kappa1
    out = _output_steps(model.n_steps, n_out)
    for block in _march(model, np.concatenate([xi1, xi2]), blow_steps, jumps * 2, cuts=out):
        U1 = block.U1.reshape(block.steps.size, 2, n_paths, -1)  # step, side, pair
        h2 = np.sum(model.basis.eigenvalues * U1[:, 0]**2, axis=2)
        diss1 = _running_sum(diss1, model.dt * h2, block.live[:, :n_paths])[-1]
        if block.steps[-1] in out:
            w = np.sum((U1[-1, 0] - U1[-1, 1]) ** 2, axis=1)
            times.append(block.t[-1])
            wsq.append(w)
            rho_wsq.append(np.exp(-cw * diss1) * w)
    return {
        "times": np.array(times),
        "wsq": np.array(wsq),
        "rho_wsq": np.array(rho_wsq),
        "blown": (blow_steps >= 0).reshape(2, n_paths).any(axis=0),
    }


def run_levels(models, initial_top, seed):
    """Lockstep integration of nested truncations under shared noise.

    `models` are FluidModels of increasing level with a common dt and
    horizon.  Every level of a path sees the same jump realization; the
    initial state is the top-level draw truncated to each level.  Returns
    per consecutive pair the squared terminal gap and the time integral
    of the squared energy-norm gap (fields compared by zero-padding).
    Each level is one `_march`, and the integrals fold the levels' blocks
    side by side.  A path is blown when it blew up at any level; its rows
    at the other levels step on, and its gap integrals stop at the step
    it blew up.
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
    blow_steps = [np.full(n_paths, -1, dtype=np.int64) for _ in models]
    gap_int = [np.zeros(n_paths) for _ in range(len(models) - 1)]
    eig_top, dt = top.basis.eigenvalues, top.dt
    jumps = _draw_jumps(top, seed, n_paths, 0)
    marches = [_march(model, X[:, :lv].copy(), steps, jumps)
               for model, lv, steps in zip(models, levels, blow_steps)]
    for blocks in zip(*marches):
        live = np.logical_and.reduce([block.live for block in blocks])
        for i in range(len(models) - 1):
            lo_lv, hi_lv = levels[i], levels[i + 1]
            d_lo = blocks[i + 1].U1[:, :lo_lv] - blocks[i].U1
            d_hi = blocks[i + 1].U1[:, lo_lv:hi_lv]
            gap_h2 = np.sum(eig_top[:lo_lv] * d_lo**2, axis=1) + np.sum(
                eig_top[lo_lv:hi_lv] * d_hi**2, axis=1
            )
            gap_int[i] = _running_sum(gap_int[i], dt * gap_h2.reshape(-1, n_paths), live)[-1]
    terminals = [block.U1[-n_paths:].copy() for block in blocks]
    gaps_sq = []
    for i in range(len(models) - 1):
        d = terminals[i + 1].copy()
        d[:, : levels[i]] -= terminals[i]
        gaps_sq.append(np.sum(d**2, axis=1))
    return {
        "levels": levels,
        "terminal_gap_sq": gaps_sq,   # list of (P,)
        "energy_gap_int": gap_int,    # list of (P,)
        "terminals": terminals,
        "blown": np.logical_or.reduce([steps >= 0 for steps in blow_steps]),
    }


def energy_audit(ledger):
    """Step-identity and dissipation-inequality audit of one path's ledger.

    `ledger` maps LEDGER_COLUMNS to the path's (n_steps,) per-step values.
    Checks, per step: the convection pairing <B(u,u),u> vanishes within
    1e-10 * (1 + |u|^2 ||u||_2); the stress pairing <Ap(u),u> is above
    -1e-8 * (1 + ||u||_1^2); and the ledger replays the terminal energy
    within 1e-9 relative.  Reports the cumulative slack of the dissipation
    inequality

        |u(t)|^2 + sum(diss) <= |xi|^2 + sum(mart) + sum(qv) + slack(t)
    """
    c = ledger
    scale_skew = 1.0 + c["l2_pre_sq"] * np.sqrt(np.maximum(c["h2_post_sq"], 0.0))
    skew_flags = int(np.sum(np.abs(c["conv_skew"]) > 1e-10 * scale_skew))
    stress_scale = 1.0 + c["l2_pre_sq"] + c["h2_post_sq"]
    stress_flags = int(np.sum(c["ap_pair"] < -1e-8 * stress_scale))

    replay = replay_residual(c)
    energy_scale = 1.0 + np.maximum.accumulate(np.abs(c["l2_post_sq"]))
    replay_max = float(np.max(np.abs(np.cumsum(replay)) / energy_scale))

    l2_0 = c["l2_pre_sq"][0]
    lhs = c["l2_post_sq"] + np.cumsum(c["diss"])
    rhs = l2_0 + np.cumsum(c["mart_pre"]) + np.cumsum(c["qv_disc"])
    slack = rhs - lhs
    slack_min = float(np.min(slack))
    slack_tol = 1e-6 * float(1.0 + np.max(c["l2_post_sq"]))
    return dict(
        n_steps=len(c["t"]),
        skew_flags=skew_flags,
        stress_flags=stress_flags,
        replay_max=replay_max,
        slack_min=slack_min,
        slack_final=float(slack[-1]),
        passed=(
            skew_flags == 0
            and stress_flags == 0
            and replay_max < 1e-9
            and slack_min > -slack_tol
        ),
    )
