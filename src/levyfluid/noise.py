"""Finite-activity Poisson random measure and state-dependent jump amplitudes.

The mark space is a finite set of atoms with strictly positive rates; jump
times are exponential clocks with the total rate and the marks are drawn
categorically, which simulates the random measure exactly.  The jump
amplitude map is autonomous and factors as sigma(u, z_j) = g_j c(u), a
per-mark gain times one core.  It carries declared growth / Lipschitz /
fourth moment budgets

    sum_j nu_j |sigma(u, z_j)|^2             <= l0 + l1 |u|^2
    sum_j nu_j |sigma(u, z_j) - sigma(v, z_j)|^2 <= l2 |u - v|^2
    sum_j nu_j |sigma(u, z_j)|^4             <= l3 (1 + |u|^4)

which every catalogue entry states in closed form and which
`certify_noise_bounds` checks by randomized sampling of the core.

Randomness comes from counter-keyed Philox streams: one root seed plus a
(kind, index) pair per consumer, so ensembles are reproducible and
independent of execution order.  A stream's Philox key is the one numpy's
`SeedSequence(entropy=root, spawn_key=(kind, index))` gives; `stream_keys`
computes it for many indices at once, and `keyed_draws` makes the draws
of a whole range of per-path streams on one re-keyed generator.
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
    "keyed_draws",
    "sample_jumps",
    "stream_keys",
    "certify_noise_bounds",
    "write_jump_log",
    "STREAM_JUMPS",
    "STREAM_INITIAL",
    "STREAM_STATS",
    "STREAM_BOUND",
]

# Stream kinds for the key schedule (root_seed, kind, index).
STREAM_JUMPS = 0
STREAM_INITIAL = 1
STREAM_STATS = 2
STREAM_BOUND = 3  # the convection-bound estimate's restarts


# the hash constants of numpy's SeedSequence (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4


def _words(n):
    """Little-endian 32-bit words of a non-negative integer; [0] for 0."""
    n = int(n)
    if n < 0:
        raise ValueError(f"stream keys take non-negative integers, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def stream_keys(root_seed, kind, indices):
    """Philox keys (n, 2) uint64 of the streams (root_seed; kind, index) for
    each of the n `indices` (below 2**64), word for word those of
    `SeedSequence(entropy=root_seed, spawn_key=(kind, index)).generate_state(2, np.uint64)`.

    This is SeedSequence's schedule with a 4-word pool: hash the entropy
    words (the root's, zero-padded to the pool, then the kind's, then the
    index's) into the pool, mix every pool word into every other, then
    hash the pool out into 4 words.  Everything before the index words is
    the same for every index, so it runs once on Python integers; the
    index words, and the output, run on uint64 arrays, masked to 32 bits
    after every product as SeedSequence's uint32 arithmetic wraps.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = (value ^ const) & _MASK32
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        out = (_MIX_L * x - _MIX_R * y) & _MASK32
        return out ^ (out >> 16)

    entropy = _words(root_seed)
    entropy += [0] * (_POOL_WORDS - len(entropy)) + _words(kind)
    pool = [hashmix(w) for w in entropy[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_WORDS:]:
        pool = [mix(x, hashmix(w)) for x in pool]

    index = np.array(indices, dtype=np.uint64).reshape(-1)
    pool = [mix(x, hashmix(index & _MASK32)) for x in np.array(pool, dtype=np.uint64)[:, None]]
    high = index >> 32
    if high.any():  # an index of two words mixes in its second one
        wide = [mix(x, hashmix(high)) for x in pool]
        pool = [np.where(high > 0, b, a) for a, b in zip(pool, wide)]
    const = _INIT_B
    out = []
    for x in pool:
        x = (x ^ const) & _MASK32
        const = const * _MULT_B & _MASK32
        x = x * const & _MASK32
        out.append(x ^ (x >> 16))
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)


def derive_rng(root_seed, kind, index=0):
    """Counter-keyed generator: Philox keyed by (root_seed; kind, index)."""
    return np.random.Generator(np.random.Philox(key=stream_keys(root_seed, kind, [index])[0]))


def keyed_draws(root_seed, kind, indices, draw):
    """[draw(rng) for each index], rng the generator `derive_rng(root_seed,
    kind, index)` returns, in the state it starts in.

    One generator is re-keyed for each index, which costs a fraction of
    building a SeedSequence, a Philox and a Generator per stream.  The
    generator does not outlive the call, so `draw` must return what it
    drew, not the generator.
    """
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    state = bits.state  # counter and buffer as fresh; only the key changes
    out = []
    for key in stream_keys(root_seed, kind, indices):
        state["state"]["key"] = key
        bits.state = state
        out.append(draw(rng))
    return out


@dataclass(frozen=True)
class MarkSpace:
    """Finite mark space: atom rates nu_j > 0 with total rate Lambda
    (`total_rate`, summed once)."""

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
        object.__setattr__(self, "total_rate", float(r.sum()))
        # the mark cdf as Generator.choice builds it from p = nu / Lambda
        cdf = (r / self.total_rate).cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        object.__setattr__(self, "cdf", cdf)

    @property
    def size(self):
        return self.rates.size


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
        arrivals = t + np.cumsum(rng.exponential(1.0 / lam, size=block))
        inside = int(arrivals.searchsorted(horizon, side="right"))
        times.append(arrivals[:inside])
        if inside < block:  # this block's gaps passed the horizon
            break
        t = arrivals[-1]
    times = times[0] if len(times) == 1 else np.concatenate(times)
    labels = marks.cdf.searchsorted(rng.random(times.size), side="right")
    return times, labels.astype(np.int64, copy=False)


class NoiseCoefficient:
    """Jump amplitude map sigma(u, z_j) = g_j c(u) with declared moment budgets.

    Subclasses set the per-mark `gains` g (K,) and implement `core(states)`,
    c(u) of shape (P, m) for states of shape (P, m).  `state_free` declares
    that the core is one row whatever the states, so a solver may compute
    the amplitudes once.
    """

    bounds: "NoiseBounds"
    kind = "abstract"
    state_free = False

    def __init__(self, marks, gains):
        self.marks = marks
        self.gains = np.broadcast_to(np.asarray(gains, dtype=float), (marks.size,)).copy()
        # the mark sums of the budgets: sum_j nu_j g_j^2 and sum_j nu_j g_j^4
        self.c2, self.c4 = (float(np.sum(marks.rates * self.gains**k)) for k in (2, 4))

    def core(self, states):
        raise NotImplementedError


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


class ZeroNoise(NoiseCoefficient):
    kind = "zero"
    state_free = True

    def __init__(self, marks):
        super().__init__(marks, 0.0)
        self.bounds = NoiseBounds(0.0, 0.0, 0.0, 0.0)

    def core(self, states):
        return np.zeros(states.shape)


class LinearNoise(NoiseCoefficient):
    """sigma(u, z_j) = g_j u: multiplicative, vanishes at the origin."""

    kind = "linear"

    def __init__(self, marks, gains):
        super().__init__(marks, gains)
        self.bounds = NoiseBounds(0.0, self.c2, self.c2, self.c4)

    def core(self, states):
        return states


class AdditiveNoise(NoiseCoefficient):
    """sigma(u, z_j) = g_j h for a fixed field h: state-independent."""

    kind = "additive"
    state_free = True

    def __init__(self, marks, gains, shape_coeffs):
        super().__init__(marks, gains)
        self.shape = np.asarray(shape_coeffs, dtype=float).copy()
        hsq = float(np.sum(self.shape**2))
        self.bounds = NoiseBounds(self.c2 * hsq, 0.0, 0.0, self.c4 * hsq**2)

    def shaped(self, m):
        """Shape coefficients at level m (truncate or zero-pad)."""
        h = np.zeros(m)
        n = min(m, self.shape.size)
        h[:n] = self.shape[:n]
        return h

    def core(self, states):
        return np.broadcast_to(self.shaped(states.shape[1]), states.shape)


class SaturatingNoise(NoiseCoefficient):
    """sigma(u, z_j) = g_j u / sqrt(1 + |u|^2): bounded, 1-Lipschitz core."""

    kind = "saturating"

    def __init__(self, marks, gains):
        super().__init__(marks, gains)
        # |u|^2/(1+|u|^2) <= 1 gives the constant growth budget; the map
        # u -> u/sqrt(1+|u|^2) has operator-norm derivative <= 1.
        self.bounds = NoiseBounds(self.c2, 0.0, self.c2, self.c4)

    def core(self, states):
        return states * (1.0 / np.sqrt(1.0 + np.sum(states**2, axis=1)))[:, None]


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


def certify_noise_bounds(sigma, level, rng):
    """Randomized check of the declared moment budgets over a state box.

    Samples 2000 state pairs uniformly in the box [-3, 3]^level and allows
    each inequality a relative slack of 1e-9.  Measures the smallest
    constants compatible with the samples given the other declared
    constant (so a passing certificate means the declared inequalities
    hold on every sample), and returns the first violating sample as a
    witness otherwise.  The sums over the marks are c2 |c(u)|^2, c2 |c(u) - c(v)|^2 and c4 |c(u)|^4, with sigma's own c2
    and c4.  A state-free core would give every sample one row, so it is
    evaluated at the origin and at one box state, each the other's
    partner, and must be bit-equal there.
    """
    decl = sigma.bounds
    if sigma.state_free:
        u = np.zeros((2, level))
        u[1] = 3.0 * rng.uniform(-1, 1, level)
        v = u[::-1]
    else:
        u = 3.0 * rng.uniform(-1, 1, (2000, level))
        u[0] = 0.0  # pin the origin so the constant term is probed
        v = 3.0 * rng.uniform(-1, 1, (2000, level))

    cu, cv = sigma.core(u), sigma.core(v)
    c2, c4 = sigma.c2, sigma.c4
    cu_sq = np.sum(cu**2, axis=1)
    s2 = c2 * cu_sq
    s2d = c2 * np.sum((cu - cv) ** 2, axis=1)
    s4 = c4 * cu_sq**2
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

    tol = 1.0 + 1e-9
    checks = [
        ("growth", s2, decl.growth_const + decl.growth_slope * usq),
        ("lipschitz", s2d, decl.lipschitz * dsq),
        ("fourth_moment", s4, decl.fourth_moment * (1.0 + usq**2)),
    ]
    if sigma.state_free:  # the coefficients in which a row differs from the origin's
        checks.insert(0, ("state_free", np.count_nonzero(cu != cu[0], axis=1), np.zeros(2)))
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
