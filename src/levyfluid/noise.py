"""Finite-activity Poisson random measure and state-dependent jump amplitudes.

The mark space is a finite set of atoms with strictly positive rates; jump
times are exponential clocks with the total rate and the marks are drawn
categorically, which simulates the random measure exactly.  The jump
amplitude map sigma(t, u, z) carries declared growth / Lipschitz / fourth
moment budgets

    sum_j nu_j |sigma(t, u, z_j)|^2          <= l0 + l1 |u|^2
    sum_j nu_j |sigma(t, u, z_j) - sigma(t, v, z_j)|^2 <= l2 |u - v|^2
    sum_j nu_j |sigma(t, u, z_j)|^4          <= l3 (1 + |u|^4)

which every catalogue entry states in closed form and which
`certify_noise_bounds` checks by randomized sampling.

Randomness comes from counter-keyed Philox streams: one root seed plus a
(kind, index) pair per consumer, so ensembles are reproducible and
independent of execution order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MarkSpace",
    "NoiseBounds",
    "NoiseCoefficient",
    "ZeroNoise",
    "LinearNoise",
    "AdditiveNoise",
    "SaturatingNoise",
    "derive_rng",
    "sample_jumps",
    "compensated_increment",
    "certify_noise_bounds",
    "write_jump_log",
    "STREAM_JUMPS",
    "STREAM_INITIAL",
    "STREAM_STATS",
]

# Stream kinds for the key schedule (root_seed, kind, index).
STREAM_JUMPS = 0
STREAM_INITIAL = 1
STREAM_STATS = 2


def derive_rng(root_seed, kind, index=0):
    """Counter-keyed generator: Philox seeded by (root_seed; kind, index)."""
    ss = np.random.SeedSequence(entropy=int(root_seed), spawn_key=(int(kind), int(index)))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class MarkSpace:
    """Finite mark space: atom rates nu_j > 0 with total rate Lambda."""

    rates: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("mark space needs a 1d, nonempty rate vector")
        if not np.all(r > 0):
            raise ValueError("mark rates must be strictly positive")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "rates", r)
        # the mark cdf as Generator.choice builds it from p = nu / Lambda
        cdf = (r / float(r.sum())).cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        object.__setattr__(self, "cdf", cdf)

    @property
    def size(self):
        return self.rates.size

    @property
    def total_rate(self):
        return float(self.rates.sum())


def sample_jumps(marks, horizon, rng):
    """Exact simulation of the jump events on (0, horizon].

    Exponential inter-arrivals with the total rate, categorical marks with
    probabilities nu_j / Lambda.  Returns (times, mark_indices) sorted in
    time; deterministic given the generator state.  The marks are those of
    `rng.choice(K, size=n, p=nu / Lambda)`, drawn by inverting the mark
    cdf on the same uniforms without re-validating p on every call.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    lam = marks.total_rate
    times = []
    t = 0.0
    block = max(16, int(lam * horizon + 4 * np.sqrt(lam * horizon) + 1))
    while True:
        gaps = rng.exponential(1.0 / lam, size=block)
        arrivals = t + np.cumsum(gaps)
        inside = arrivals[arrivals <= horizon]
        times.append(inside)
        if inside.size < block:
            break
        t = arrivals[-1]
    times = np.concatenate(times) if times else np.empty(0)
    labels = marks.cdf.searchsorted(rng.random(times.size), side="right")
    return times, labels.astype(np.int64)


class NoiseCoefficient:
    """Jump amplitude map with declared moment budgets.

    Subclasses implement `block(t, states)` returning the amplitudes for
    every mark at once, shape (K, P, m) for states of shape (P, m).  The
    catalogue entries are autonomous; `t` is part of the interface for
    time-dependent extensions.  `state_free` declares that the block
    depends on neither t nor the states, only on their shape, so a solver
    may compute it once per batch shape.
    """

    bounds: "NoiseBounds"
    kind = "abstract"
    state_free = False

    def block(self, t, states):
        raise NotImplementedError

    def evaluate(self, t, coeffs, mark):
        """Amplitude for one state and one mark, shape (m,)."""
        return self.block(t, np.asarray(coeffs, dtype=float)[None, :])[mark, 0]


@dataclass(frozen=True)
class NoiseBounds:
    growth_const: float      # l0
    growth_slope: float      # l1
    lipschitz: float         # l2
    fourth_moment: float     # l3

    def as_dict(self):
        return {
            "l0": self.growth_const,
            "l1": self.growth_slope,
            "l2": self.lipschitz,
            "l3": self.fourth_moment,
        }


def _gains(marks, gains):
    g = np.broadcast_to(np.asarray(gains, dtype=float), (marks.size,)).copy()
    return g


class ZeroNoise(NoiseCoefficient):
    kind = "zero"
    state_free = True

    def __init__(self, marks):
        self.marks = marks
        self.bounds = NoiseBounds(0.0, 0.0, 0.0, 0.0)

    def block(self, t, states):
        p, m = states.shape
        return np.zeros((self.marks.size, p, m))


class LinearNoise(NoiseCoefficient):
    """sigma(t, u, z_j) = g_j u: multiplicative, vanishes at the origin."""

    kind = "linear"

    def __init__(self, marks, gains):
        self.marks = marks
        self.gains = _gains(marks, gains)
        c2 = float(np.sum(marks.rates * self.gains**2))
        c4 = float(np.sum(marks.rates * self.gains**4))
        self.bounds = NoiseBounds(0.0, c2, c2, c4)

    def block(self, t, states):
        return self.gains[:, None, None] * states[None, :, :]


class AdditiveNoise(NoiseCoefficient):
    """sigma(t, u, z_j) = g_j h for a fixed field h: state-independent."""

    kind = "additive"
    state_free = True

    def __init__(self, marks, gains, shape_coeffs):
        self.marks = marks
        self.gains = _gains(marks, gains)
        self.shape = np.asarray(shape_coeffs, dtype=float).copy()
        hsq = float(np.sum(self.shape**2))
        c2 = float(np.sum(marks.rates * self.gains**2))
        c4 = float(np.sum(marks.rates * self.gains**4))
        self.bounds = NoiseBounds(c2 * hsq, 0.0, 0.0, c4 * hsq**2)

    def shaped(self, m):
        """Shape coefficients at level m (truncate or zero-pad)."""
        h = np.zeros(m)
        n = min(m, self.shape.size)
        h[:n] = self.shape[:n]
        return h

    def block(self, t, states):
        p, m = states.shape
        h = self.shaped(m)
        return np.broadcast_to(
            self.gains[:, None, None] * h[None, None, :], (self.marks.size, p, m)
        )


class SaturatingNoise(NoiseCoefficient):
    """sigma(t, u, z_j) = g_j u / sqrt(1 + |u|^2): bounded, 1-Lipschitz core."""

    kind = "saturating"

    def __init__(self, marks, gains):
        self.marks = marks
        self.gains = _gains(marks, gains)
        c2 = float(np.sum(marks.rates * self.gains**2))
        c4 = float(np.sum(marks.rates * self.gains**4))
        # |u|^2/(1+|u|^2) <= 1 gives the constant growth budget; the map
        # u -> u/sqrt(1+|u|^2) has operator-norm derivative <= 1.
        self.bounds = NoiseBounds(c2, 0.0, c2, c4)

    def block(self, t, states):
        scale = 1.0 / np.sqrt(1.0 + np.sum(states**2, axis=1))
        return self.gains[:, None, None] * (states * scale[:, None])[None, :, :]


def compensated_increment(sigma, marks, coeffs, t0, t1, jump_times, jump_marks):
    """Integral of sigma against the compensated measure over (t0, t1].

    The state is frozen at its left-endpoint value: the jump part sums
    sigma(t_j, u, z_j) over the events in the window, the compensator part
    subtracts (t1 - t0) * sum_j nu_j sigma(t0, u, z_j).
    """
    if not t1 > t0:
        raise ValueError("window must have positive length")
    u = np.asarray(coeffs, dtype=float)
    blk = sigma.block(t0, u[None, :])[:, 0, :]  # (K, m)
    out = -(t1 - t0) * np.einsum("k,km->m", marks.rates, blk)
    for tj, zj in zip(jump_times, jump_marks):
        out = out + sigma.evaluate(tj, u, int(zj))
    return out


@dataclass
class NoiseCertificate:
    measured: NoiseBounds
    declared: NoiseBounds
    passed: bool
    witness: dict | None

    def as_dict(self):
        return {
            "measured": self.measured.as_dict(),
            "declared": self.declared.as_dict(),
            "passed": self.passed,
            "witness": self.witness,
        }


def certify_noise_bounds(sigma, marks, level, rng, n_samples=2000, box_radius=3.0, rtol=1e-9):
    """Randomized check of the declared moment budgets over a state box.

    Measures the smallest constants compatible with the samples given the
    other declared constant (so a passing certificate means the declared
    inequalities hold on every sample), and returns the first violating
    sample as a witness otherwise.
    """
    if n_samples < 1000:
        raise ValueError("the certificate needs at least 1000 samples")
    decl = sigma.bounds
    u = box_radius * rng.uniform(-1, 1, (n_samples, level))
    u[0] = 0.0  # pin the origin so the constant term is probed
    v = box_radius * rng.uniform(-1, 1, (n_samples, level))
    t = rng.uniform(0.0, 1.0)

    bu = sigma.block(t, u)  # (K, P, m)
    bv = sigma.block(t, v)
    nu = marks.rates
    s2 = np.einsum("k,kpm->p", nu, bu**2)
    s2d = np.einsum("k,kpm->p", nu, (bu - bv) ** 2)
    s4 = np.einsum("k,kp->p", nu, np.sum(bu**2, axis=2) ** 2)
    usq = np.sum(u**2, axis=1)
    dsq = np.sum((u - v) ** 2, axis=1)

    l0_hat = float(np.max(np.maximum(s2 - decl.growth_slope * usq, 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(usq > 0, (s2 - decl.growth_const) / usq, 0.0)
        r2 = np.where(dsq > 0, s2d / dsq, 0.0)
    l1_hat = float(np.max(np.maximum(r1, 0.0)))
    l2_hat = float(np.max(r2))
    l3_hat = float(np.max(s4 / (1.0 + usq**2)))
    measured = NoiseBounds(l0_hat, l1_hat, l2_hat, l3_hat)

    tol = 1.0 + rtol
    checks = [
        ("growth", s2, decl.growth_const + decl.growth_slope * usq),
        ("lipschitz", s2d, decl.lipschitz * dsq),
        ("fourth_moment", s4, decl.fourth_moment * (1.0 + usq**2)),
    ]
    witness = None
    for name, lhs, rhs in checks:
        bad = lhs > rhs * tol + 1e-300
        if bad.any():
            i = int(np.argmax(bad))
            witness = {
                "inequality": name,
                "sample": i,
                "lhs": float(lhs[i]),
                "rhs": float(rhs[i]),
                "state_norm": float(np.sqrt(usq[i])),
            }
            break
    return NoiseCertificate(measured, decl, witness is None, witness)


def write_jump_log(path, times, marks, pre_norms):
    """Jump events as JSONL: one {t, mark, pre_norm} object per line."""
    with open(path, "w") as fh:
        for t, z, nrm in zip(times, marks, pre_norms):
            fh.write(json.dumps({"t": float(t), "mark": int(z), "pre_norm": float(nrm)}))
            fh.write("\n")


def make_noise(kind, marks, *, gains=1.0, shape_coeffs=None):
    """Catalogue constructor used by the config layer."""
    if kind == "zero":
        return ZeroNoise(marks)
    if kind == "linear":
        return LinearNoise(marks, gains)
    if kind == "additive":
        if shape_coeffs is None:
            raise ValueError("additive noise needs shape coefficients")
        return AdditiveNoise(marks, gains, shape_coeffs)
    if kind == "saturating":
        return SaturatingNoise(marks, gains)
    raise ValueError(f"unknown noise kind {kind!r}")
