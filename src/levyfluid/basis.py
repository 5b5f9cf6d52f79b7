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
    "SpectralField",
    "Norms",
    "build_basis",
    "project",
    "extend",
    "difference",
    "norms",
    "strain_norm",
    "poincare_constant",
    "uniform_grid",
    "mode_values",
    "mode_gradients",
    "mode_fields",
    "mode_strain_factors",
    "mode_strains",
    "synthesize",
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
        """min_i ||phi_i||_2^2 / ||phi_i||_1^2 = min |k|^2 / 2."""
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


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A divergence-free field stored as coefficients on a basis prefix."""

    basis: GalerkinBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.basis.size,):
            raise ValueError(
                f"coefficient shape {c.shape} does not match basis size {self.basis.size}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def level(self):
        return self.basis.size

    @classmethod
    def zeros(cls, basis):
        return cls(basis, np.zeros(basis.size))

    def l2(self):
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class Norms:
    l2: float
    h1: float
    h2: float


def norms(field):
    """L2, first-order and second-order norms of a spectral field.

    l2 is the Euclidean norm of the coefficients (Parseval), h1 the square
    root of the gradient form sum(|k|^2 c^2), h2 the square root of the
    strain-gradient form sum(eigenvalue * c^2).
    """
    c2 = field.coeffs**2
    b = field.basis
    return Norms(
        l2=float(np.sqrt(c2.sum())),
        h1=float(np.sqrt((b.ksq * c2).sum())),
        h2=float(np.sqrt((b.eigenvalues * c2).sum())),
    )


def strain_norm(field):
    """L2 norm of the symmetric gradient: sqrt(sum(|k|^2/2 c^2))."""
    b = field.basis
    return float(np.sqrt((b.ksq * field.coeffs**2).sum() / 2.0))


def poincare_constant(basis):
    """Largest lambda1 with ||u||_1^2 <= ||u||_2^2 / lambda1 on the basis.

    Equals min |k|^2 / 2 = 1/2 whenever the first shell is present.  Since
    min |k|^2 >= 1 > 1/2, the same constant also serves the zeroth-order
    step |u|^2 <= ||u||_1^2 / lambda1, so the chain |u|^2 <= ||u||_2^2 /
    lambda1^2 holds as well.
    """
    return basis.lambda1


def project(field, m):
    """Truncate to the first m coefficients (orthogonal projection)."""
    if m > field.level:
        raise ValueError(f"cannot project level {field.level} onto larger level {m}")
    return SpectralField(build_basis(m, field.basis.dim), field.coeffs[:m])


def extend(field, m):
    """Zero-pad to a larger level (valid by basis nesting)."""
    if m < field.level:
        raise ValueError(f"extend target {m} below current level {field.level}")
    c = np.zeros(m)
    c[: field.level] = field.coeffs
    return SpectralField(build_basis(m, field.basis.dim), c)


def difference(u, v):
    """u - v after aligning levels by zero-padding the shorter field."""
    if u.basis.dim != v.basis.dim:
        raise ValueError("fields live on tori of different dimension")
    m = max(u.level, v.level)
    return SpectralField(
        build_basis(m, u.basis.dim), extend(u, m).coeffs - extend(v, m).coeffs
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
    """Scalar factors per mode on the grid: (trig, d(trig)/d(theta))."""
    theta = basis.wavevectors @ points  # (m, G)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    is_sin = (basis.phases == SIN)[:, None]
    trig = np.where(is_sin, sin_t, cos_t)
    dtrig = np.where(is_sin, cos_t, -sin_t)
    a = basis.amplitude
    return a * trig, a * dtrig


def _values(basis, trig):
    return np.einsum("ma,mg->mag", basis.polarizations, trig)


def _gradients(basis, dtrig):
    return np.einsum("ma,mj,mg->majg", basis.polarizations, basis.wavevectors.astype(float), dtrig)


def mode_values(basis, points):
    """Mode velocities on the grid, shape (m, d, G)."""
    return _values(basis, _phase_tables(basis, points)[0])


def mode_gradients(basis, points):
    """Mode velocity gradients d(u_a)/d(x_j) on the grid, shape (m, d, d, G)."""
    return _gradients(basis, _phase_tables(basis, points)[1])


def mode_fields(basis, points):
    """`mode_values` and `mode_gradients` from one evaluation of the phases."""
    trig, dtrig = _phase_tables(basis, points)
    return _values(basis, trig), _gradients(basis, dtrig)


def mode_strain_factors(basis, points):
    """Rank-one factors of the mode strains: (S (m, d, d), dtrig (m, G)).

    E(phi_m)(x) = S_m * dtrig_m(x) with the constant symmetric matrix
    S_m = sym(e_m (x) k_m), whose trace e_m . k_m vanishes, and the scalar
    wave dtrig_m = A * d(trig)/d(theta) at theta = k_m . x.
    """
    _, dtrig = _phase_tables(basis, points)
    ek = np.einsum("ma,mb->mab", basis.polarizations, basis.wavevectors.astype(float))
    return 0.5 * (ek + ek.transpose(0, 2, 1)), dtrig


def mode_strains(basis, points):
    """Mode symmetric gradients on the grid, shape (m, d, d, G)."""
    s, dtrig = mode_strain_factors(basis, points)
    return np.einsum("mab,mg->mabg", s, dtrig)


def synthesize(field, points):
    """Physical-space velocity of a field on the grid, shape (d, G)."""
    return np.einsum("m,mag->ag", field.coeffs, mode_values(field.basis, points))
