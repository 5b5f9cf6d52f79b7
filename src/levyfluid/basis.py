"""Divergence-free Fourier basis on the periodic box [0, 2*pi)^d.

The modes are real trigonometric fields

    phi(x) = A * cos(k.x) * e   or   A * sin(k.x) * e,

with integer wavevector k != 0, unit polarization e orthogonal to k, and
A = sqrt(2) / (2*pi)^(d/2) so that each mode has unit L2 norm.  Every mode
is exactly solenoidal (div phi = -A sin(k.x) (k.e) = 0) and has zero mean,
and the family is L2-orthonormal.

All the quadratic forms used by the model are diagonal on this family.
For a unit-mass mode with wavevector k (polarization orthogonal to k):

    int |phi|^2 dx          = 1
    int |grad phi|^2 dx     = |k|^2
    int |E(phi)|^2 dx       = |k|^2 / 2          (E = symmetric gradient)
    int |grad E(phi)|^2 dx  = |k|^4 / 2

The last line is the eigenvalue of the fourth-order dissipation operator;
the factor 1/2 comes from |e (x) k + k (x) e|^2 / 4 = |k|^2 / 2 when e is a
unit vector orthogonal to k.  The closed forms are certified against a
finite-difference quadrature oracle in the test suite.

Levels nest: the basis of size m is a prefix of every larger basis, which
is what makes zero-padding a valid prolongation between levels.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "COS",
    "SIN",
    "GalerkinBasis",
    "build_basis",
    "uniform_grid",
    "mode_values",
    "mode_gradients",
    "mode_strains",
]

COS = 0
SIN = 1
_PHASE_NAMES = ("cos", "sin")
TWO_PI = 2.0 * np.pi


def _is_canonical(k):
    """One representative per {k, -k} pair: first nonzero component positive."""
    for c in k:
        if c != 0:
            return c > 0
    return False


def _polarization_prevectors(k):
    """Integer vectors spanning the plane orthogonal to k.

    Integer arithmetic keeps k . e == 0 exact in floating point.  In 3d the
    pair is built from the coordinate axis a with the smallest |k_a| (ties
    broken by axis index): p1 = k x a and p2 = k (k.a) - a |k|^2, which are
    mutually orthogonal and both orthogonal to k.
    """
    if len(k) == 2:
        return [np.array([-k[1], k[0]], dtype=np.int64)]
    kv = np.asarray(k, dtype=np.int64)
    axis = int(np.argmin(np.abs(kv)))
    a = np.zeros(3, dtype=np.int64)
    a[axis] = 1
    p1 = np.cross(kv, a)
    p2 = kv * int(kv @ a) - a * int(kv @ kv)
    return [p1, p2]


def _enumerate_modes(dim, max_ksq):
    """All modes with |k|^2 <= max_ksq in the frozen canonical order.

    Order: nondecreasing eigenvalue, ties by (|k|^2, k lexicographic on the
    canonical representative, polarization index, phase with cos before
    sin).  The eigenvalue |k|^4/2 is monotone in |k|^2, so the key reduces
    to (|k|^2, k, pol, phase).
    """
    kmax = int(np.floor(np.sqrt(max_ksq)))
    rows = []
    for k in itertools.product(range(-kmax, kmax + 1), repeat=dim):
        ksq = sum(c * c for c in k)
        if ksq == 0 or ksq > max_ksq or not _is_canonical(k):
            continue
        for pol_index, pre in enumerate(_polarization_prevectors(k)):
            pol = pre / np.linalg.norm(pre)
            for phase in (COS, SIN):
                rows.append((ksq, k, pol_index, phase, pol))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    return rows


@dataclass(frozen=True, eq=False)
class GalerkinBasis:
    """First m modes of the canonical ordering, with diagonal form values."""

    dim: int
    size: int
    wavevectors: np.ndarray      # (m, d) int64, canonical representatives
    polarizations: np.ndarray    # (m, d) float64, unit vectors, k.e = 0
    pol_indices: np.ndarray      # (m,) int8
    phases: np.ndarray           # (m,) int8, COS or SIN
    ksq: np.ndarray              # (m,) int64, |k|^2
    eigenvalues: np.ndarray      # (m,) float64, |k|^4 / 2

    @property
    def amplitude(self):
        return np.sqrt(2.0) / TWO_PI ** (self.dim / 2.0)

    @property
    def lambda1(self):
        """Largest lambda1 with ||u||_1^2 <= ||u||_2^2 / lambda1 on the basis.

        Equals min_i ||phi_i||_2^2 / ||phi_i||_1^2 = min |k|^2 / 2, which is
        1/2 whenever the first shell is present.  Since min |k|^2 >= 1 > 1/2,
        the same constant also serves the zeroth-order step |u|^2 <=
        ||u||_1^2 / lambda1, so the chain |u|^2 <= ||u||_2^2 / lambda1^2
        holds as well.
        """
        return float(np.min(self.eigenvalues / self.ksq))

    def fingerprint(self):
        """Content hash of the mode table (layout version 1); cached."""
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            payload = {
                "version": 1,
                "dim": self.dim,
                "modes": [
                    [list(map(int, k)), int(p), int(ph)]
                    for k, p, ph in zip(self.wavevectors, self.pol_indices, self.phases)
                ],
            }
            blob = json.dumps(payload, separators=(",", ":")).encode()
            cached = hashlib.sha256(blob).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def mode_table(self):
        return [
            {
                "index": i,
                "wavevector": [int(c) for c in self.wavevectors[i]],
                "ksq": int(self.ksq[i]),
                "polarization_index": int(self.pol_indices[i]),
                "polarization": [float(c) for c in self.polarizations[i]],
                "phase": _PHASE_NAMES[self.phases[i]],
                "eigenvalue": float(self.eigenvalues[i]),
            }
            for i in range(self.size)
        ]

    def to_json(self):
        return json.dumps(
            {
                "dim": self.dim,
                "size": self.size,
                "lambda1": self.lambda1,
                "fingerprint": self.fingerprint(),
                "modes": self.mode_table(),
            },
            indent=2,
        )


def _freeze(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def build_basis(m, dim=2):
    """First m modes of the canonical ordering on the d-torus.

    Raises ValueError for m < 1 or dim not in {2, 3}.  Cached, so prefix
    bases are shared objects.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"basis size must be a positive integer, got {m}")
    max_ksq = 2
    rows = _enumerate_modes(dim, max_ksq)
    while len(rows) < m:
        max_ksq *= 2
        rows = _enumerate_modes(dim, max_ksq)
    rows = rows[:m]
    kvecs = np.array([r[1] for r in rows], dtype=np.int64)
    ksq = np.array([r[0] for r in rows], dtype=np.int64)
    return GalerkinBasis(
        dim=dim,
        size=m,
        wavevectors=_freeze(kvecs),
        polarizations=_freeze(np.array([r[4] for r in rows])),
        pol_indices=_freeze(np.array([r[2] for r in rows], dtype=np.int8)),
        phases=_freeze(np.array([r[3] for r in rows], dtype=np.int8)),
        ksq=_freeze(ksq),
        eigenvalues=_freeze(ksq.astype(float) ** 2 / 2.0),
    )


def uniform_grid(dim, n):
    """Uniform collocation points on the torus.

    Returns (points, weight) with points of shape (dim, n^dim) and the
    trapezoidal weight (2*pi/n)^dim, which integrates trigonometric
    polynomials of degree < n exactly.
    """
    xs = np.linspace(0.0, TWO_PI, n, endpoint=False)
    mesh = np.meshgrid(*([xs] * dim), indexing="ij")
    points = np.stack([g.reshape(-1) for g in mesh])
    return points, (TWO_PI / n) ** dim


def _phase_tables(basis, points):
    """Scalar factors per mode at arbitrary points: (trig, d(trig)/d(theta)).

    Evaluates cos and sin of the float phases k . x; the reference the
    integer-phase tables of `_grid_waves` are tested against.
    """
    theta = basis.wavevectors @ points  # (m, G)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    is_sin = (basis.phases == SIN)[:, None]
    trig = np.where(is_sin, sin_t, cos_t)
    dtrig = np.where(is_sin, cos_t, -sin_t)
    a = basis.amplitude
    return a * trig, a * dtrig


def _grid_waves(basis, n):
    """Scalar factors per mode on `uniform_grid(basis.dim, n)` and its
    quadrature weight: (trig, dtrig, weight).

    Grid point j (integer coordinates, x = 2*pi*j/n) has the phase
    k . x = 2*pi*(k . j)/n, so exact integers index one length-n evaluation
    of cos and sin: no trigonometric function is evaluated on the (m, G)
    phases, and each table is one gather.  The residues (k_a j_a) mod n are
    summed over the d dimensions; the sum lies in [0, d*n) and indexes d
    periods of the length-n table, which is the same as reducing k . j
    mod n.  Shapes (m, n^d), scaled by the mode amplitude like
    `_phase_tables`.
    """
    m, dim = basis.wavevectors.shape
    period = dim * n
    is_sin = basis.phases == SIN
    residues = (basis.wavevectors[:, :, None] * np.arange(n)) % n  # (m, d, n)
    residues[:, 0] += np.where(is_sin, period, 0)[:, None]  # trig: cos or sin
    phase = residues[:, 0]
    for a in range(1, dim):  # first coordinate slowest, as in uniform_grid
        phase = (phase[:, :, None] + residues[:, a, None, :]).reshape(m, -1)
    x = (TWO_PI / n) * np.arange(n)
    cos_x, sin_x = np.tile(np.cos(x), dim), np.tile(np.sin(x), dim)
    wave = basis.amplitude * np.concatenate([cos_x, sin_x, -sin_x])
    trig = wave[phase]
    phase += np.where(is_sin, -period, 2 * period)[:, None]  # d(trig)/d(theta): -sin or cos
    return trig, wave[phase], (TWO_PI / n) ** dim


def mode_values(basis, points):
    """Mode velocities on the grid, shape (m, d, G)."""
    trig, _ = _phase_tables(basis, points)
    return np.einsum("ma,mg->mag", basis.polarizations, trig)


def mode_gradients(basis, points):
    """Mode velocity gradients d(u_a)/d(x_j) on the grid, shape (m, d, d, G)."""
    _, dtrig = _phase_tables(basis, points)
    return np.einsum("ma,mj,mg->majg", basis.polarizations, basis.wavevectors.astype(float), dtrig)


def mode_strains(basis, points):
    """Mode symmetric gradients on the grid, shape (m, d, d, G)."""
    grad = mode_gradients(basis, points)
    return 0.5 * (grad + grad.transpose(0, 2, 1, 3))
