"""Spatial operators of the bipolar-fluid system on the spectral basis.

Three operators act on coefficient vectors:

* the linear fourth-order dissipation, diagonal with the basis
  eigenvalues (hyperviscosity), which the solver applies directly;
* the shear-dependent nonlinear stress, defined through the weak pairing
  int gamma(u) E(u):E(v) dx with gamma(u) = (reg + |E(u)|^2)^((p-2)/2),
  evaluated by collocation on an oversampled grid and projected back onto
  the basis.  Strains are stored in an orthonormal frame of the trace-free
  symmetric matrices, k = d(d+1)/2 - 1 coordinates (2 in 2D, 5 in 3D)
  instead of d^2 entries.  This is exact, not an approximation: each mode
  strain is the constant matrix S_m = sym(e_m (x) k_m), trace-free because
  e_m . k_m = 0, times a scalar wave, so every E(u) lies in the frame's
  span; Frobenius products E(u):E(v) are dot products of frame
  coordinates; and gamma(u) E(u) stays in the span.  The operator
  workspace refuses a basis whose mode strains are not trace-free, so the
  frame can never silently drop a component.  Synthesis and projection
  are one matrix product each against an (m, k*G) table, O(m * k * G) per
  row;
* the convection form b(u, v, w) = int u_i d_i(v_j) w_j dx, evaluated in
  divergence form by dealiased collocation (Orszag 1971; Zang 1991 on the
  advective, divergence and rotational forms).  Integrating by parts,
  b(u, v, w) = -int (v (x) u) : grad w dx - int div(u) v . w dx, and the
  last term is zero exactly because every mode is divergence-free.  So
  u and v are synthesized on the uniform grid of 3*kmax + 1 points per
  dimension, the momentum flux v_a u_b is formed pointwise and paired with
  the mode gradients, which span the trace-free matrices: k trace-free
  symmetric (strain) coordinates in the stress's frame and d(d-1)/2
  antisymmetric (rotation) ones (`_gradient_frame`).  For B(u, u) the flux
  u (x) u is symmetric, so its rotation coordinates vanish and only the k
  strain coordinates are projected: per row, d + k passes over (m, G)
  tables (4 in 2D, 8 in 3D) where the advective form (u . grad) v needs
  d + d^2 + d (8 and 15).
  The integrand is a trigonometric polynomial of degree at most 3*kmax,
  which that grid integrates exactly, so the projected coefficients equal
  the Galerkin ones up to rounding and no aliasing error enters.  The
  skew-symmetry b(u, v, v) = -1/2 int u . grad |v|^2 dx
  = 1/2 int div(u) |v|^2 dx = 0 therefore holds to rounding as well: the
  quadrature reproduces the exact integral, and the modes are
  divergence-free exactly.

The shear factor gamma is bounded and smooth for reg > 0, so the stress
collocation error decays spectrally in the grid size.  Measured envelope
at the default oversampling of 4 per dimension (grid refinement against a
24x-oversampled reference, m = 16): relative coefficient error ~2e-3 on
rough unit-variance coefficient vectors, ~3e-5 on spectrally decaying
unit-norm fields, ~2e-7 on decaying fields of norm 0.3; each doubling of
the grid gains two to three orders.  Pointwise monotonicity of the stress
tensor makes the discrete pairing <Ap(u) - Ap(v), u - v> a sum of
nonnegative grid terms, so it is nonnegative to rounding regardless of
the quadrature error in its value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .basis import _grid_waves

__all__ = [
    "FluidParams",
    "SpectralOperators",
    "measure_korn_constants",
    "estimate_convection_bound",
    "measure_stress_lipschitz",
    "trace_free_frame",
]


@dataclass(frozen=True)
class FluidParams:
    """Physical constants of the stress law.

    kappa0: magnitude of the shear-dependent stress.
    kappa1: higher-order (fourth-order) viscosity.
    reg:    additive offset inside the shear factor; keeps it smooth at
            zero strain.
    p:      shear-thinning exponent, restricted to (1, 2].
    """

    kappa0: float = 1.0
    kappa1: float = 1.0
    reg: float = 1.0
    p: float = 2.0

    def __post_init__(self):
        for name in ("kappa0", "kappa1", "reg"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not (1.0 < self.p <= 2.0):
            raise ValueError(f"p must lie in (1, 2], got {self.p}")


def trace_free_frame(dim):
    """Frobenius-orthonormal basis of the trace-free symmetric dim x dim
    matrices, shape (k, dim, dim) with k = dim (dim + 1) / 2 - 1.

    Off-diagonal elements (e_a e_b^T + e_b e_a^T) / sqrt(2), then the
    Helmert diagonals (e_1 e_1^T + ... + e_j e_j^T - j e_{j+1} e_{j+1}^T)
    / sqrt(j (j + 1)) for j = 1 .. dim - 1.
    """
    frame = []
    for a, b in itertools.combinations(range(dim), 2):
        f = np.zeros((dim, dim))
        f[a, b] = f[b, a] = 1.0 / np.sqrt(2.0)
        frame.append(f)
    for j in range(1, dim):
        diag = np.zeros(dim)
        diag[:j] = 1.0
        diag[j] = -float(j)
        frame.append(np.diag(diag / np.sqrt(j * (j + 1.0))))
    return np.array(frame)


def _gradient_frame(dim):
    """Orthonormal basis of the trace-free dim x dim matrices, the span of
    every mode gradient, shape (dim^2 - 1, dim, dim): `trace_free_frame`,
    then the antisymmetric (e_a e_b^T - e_b e_a^T) / sqrt(2) for a < b,
    made from its off-diagonal elements by negating the lower triangle."""
    sym = trace_free_frame(dim)
    off = sym[: dim * (dim - 1) // 2]
    return np.concatenate([sym, np.triu(off) - np.tril(off)])


class SpectralOperators:
    """Per-basis workspace: mode tables on the two collocation grids.

    The stress grid has 4*(kmax + 1) points per dimension; the shear factor
    is not polynomial, so its quadrature error decays spectrally in that
    size (see the module docstring).  The convection grid has 3*kmax + 1
    points per dimension, the fewest on which every triple product of
    basis modes is integrated exactly, so convection is exact to rounding
    and b(u, v, v) = 0 to rounding.  Both grids take their scalar mode
    waves from exact integer phases (`basis._grid_waves`).

    Tables, each O(m * G) memory:

    * stress: the mode strains in the trace-free frame, shape (m, k*G),
      built straight from their rank-one factors; set-up raises
      ValueError when some mode gradient has trace above 1e-12 * max|k|;
    * convection synthesis: the mode velocities, shape (d*G, m);
    * convection projection: the mode gradients in `_gradient_frame`,
      shape (m, (d*d - 1)*G), strain coordinates (the first k*G columns)
      then rotation coordinates.
    """

    def __init__(self, basis, oversample=4):
        self.basis = basis
        dim, m = basis.dim, basis.size
        kmax = int(np.max(np.abs(basis.wavevectors)))
        # grad phi_m = (e_m (x) k_m) * dtrig_m, trace-free because e_m . k_m = 0
        ek = np.einsum("ma,mb->mab", basis.polarizations, basis.wavevectors.astype(float))
        if np.abs(np.trace(ek, axis1=1, axis2=2)).max() > 1e-12 * np.sqrt(basis.ksq.max()):
            raise ValueError("mode strains are not trace-free: polarizations not orthogonal to k")
        frame = _gradient_frame(dim)
        coords = np.einsum("mab,jab->mj", ek, frame)  # (m, d*d - 1)
        self._frame_size = k = dim * (dim + 1) // 2 - 1

        self.stress_grid_size = oversample * (kmax + 1)
        _, dtrig, self._stress_weight = _grid_waves(basis, self.stress_grid_size)
        self._strain_table = (coords[:, :k, None] * dtrig[:, None, :]).reshape(m, -1)
        self._strain_table_t = self._strain_table.T

        trig, dtrig, self._conv_weight = _grid_waves(basis, 3 * kmax + 1)
        self._conv_vals = (basis.polarizations.T[:, None, :] * trig.T[None]).reshape(-1, m)
        self._conv_table = (coords[:, :, None] * dtrig[:, None, :]).reshape(m, -1)
        # the divergence form's sign and the quadrature weight ride on the
        # frame rows that turn the grid products into flux coordinates
        flux_frame = -self._conv_weight * frame.reshape(-1, dim * dim)
        table_t = self._conv_table.T
        self._flux = (flux_frame, table_t)
        self._sym_flux = (flux_frame[:k], table_t[: k * dtrig.shape[1]])

    # -- nonlinear stress ---------------------------------------------------

    def _strain(self, c):
        """Frame coordinates of the strain of a batch (P, m), shape (P, k, G)."""
        return (c @ self._strain_table).reshape(c.shape[0], self._frame_size, -1)

    def nonlinear_stress(self, coeffs, params):
        """Galerkin coefficients of the shear-dependent stress.

        Accepts a single coefficient vector (m,) or a batch (P, m) and
        returns the same shape.
        """
        c, batched = _as_batch(coeffs)
        strain = self._strain(c)
        gamma = np.einsum("pkg,pkg->pg", strain, strain)  # |E(u)|^2, then gamma in place
        gamma += params.reg
        gamma **= (params.p - 2.0) / 2.0
        strain *= gamma[:, None, :]
        out = strain.reshape(c.shape[0], -1) @ self._strain_table_t
        out *= self._stress_weight
        return out if batched else out[0]

    def strain_norm(self, coeffs):
        """||E(u)||_L2 by quadrature on the stress grid; batched over axis 0."""
        c = np.atleast_2d(np.asarray(coeffs, dtype=float))
        strain = self._strain(c)
        out = np.sqrt(self._stress_weight * np.einsum("pkg,pkg->p", strain, strain))
        return out if np.ndim(coeffs) == 2 else float(out[0])

    # -- convection ---------------------------------------------------------

    def convection(self, cu, cv):
        """Coefficients of the convection term B(u, v); batched over axis 0.

        (B(u, v), w) = b(u, v, w) = -int (v (x) u) : grad w dx for every w
        in the truncation.  The momentum flux v (x) u is formed pointwise
        from one synthesis of each field, turned into coordinates in
        `_gradient_frame` and projected against the mode gradients, so the
        cost is O(m * G) per row with no m^3 intermediate.  B(u, u), asked
        for as `convection(u, u)` with one object, projects only the
        trace-free symmetric part: u (x) u has no rotation part.
        """
        u, batched = _as_batch(cu)
        x = self._conv_vals @ u.T  # (d*G, P), component-major
        if cv is cu:
            y, (frame, table_t) = x, self._sym_flux
        else:
            v, _ = _as_batch(cv)
            y, (frame, table_t) = self._conv_vals @ v.T, self._flux
        d = self.basis.dim
        flux = y.reshape(d, 1, -1) * x.reshape(1, d, -1)  # v_a u_b on the grid
        coords = frame @ flux.reshape(d * d, -1)  # (frame size, G*P)
        out = coords.reshape(-1, x.shape[1]).T @ table_t
        return out if batched else out[0]


def _as_batch(coeffs):
    """`coeffs` as a (P, m) float array, and whether it was given as a batch.

    A 2-D float array passes through untouched, the common case of a
    stepping loop.
    """
    if type(coeffs) is np.ndarray and coeffs.ndim == 2 and coeffs.dtype == np.float64:
        return coeffs, True
    return np.atleast_2d(np.asarray(coeffs, dtype=float)), np.ndim(coeffs) == 2


def measure_korn_constants(ops, rng, n_samples=2000):
    """Two-sided strain/gradient norm ratio over random fields.

    Returns (lo, hi) with lo * ||u||_1 <= ||E(u)||_L2 <= hi * ||u||_1.  The
    strain norm is measured by quadrature on the stress collocation grid,
    the arrays the stress operator uses; |E(u)|^2 has degree 2*kmax, which
    that grid integrates exactly.  On the divergence-free torus basis both
    constants equal 1/sqrt(2); the measurement certifies that.
    """
    b = ops.basis
    c = rng.standard_normal((n_samples, b.size))
    h1 = np.sqrt((b.ksq * c**2).sum(axis=1))
    ratio = ops.strain_norm(c) / h1
    return float(ratio.min()), float(ratio.max())


def estimate_convection_bound(ops, rng, n_starts=24, n_rounds=5):
    """Estimate of the sharp constant in |b(u,v,w)| <= C |u| ||v||_1 ||w||_2.

    Alternating maximization: each slot of b is linear, so the optimal u
    (L2-normalized), v (gradient-normalized) and w (energy-normalized) for
    the other two fixed have closed forms.  The gradient in u is the
    projection of (grad v)^T w onto the modes; in v it is -B(u, w), by
    skew-symmetry; in w it is B(u, v).  Randomized restarts, then the best
    value found; deterministic for a given generator state.  The restarts
    run as one batch, each round one operator call per slot, and a slot of
    a restart keeps its value where its update vanishes.
    """
    b = ops.basis
    ksq = b.ksq.astype(float)
    eig = b.eigenvalues
    vals, table = ops._conv_vals, ops._conv_table  # (d*G, m), (m, (d*d - 1)*G)
    frame = _gradient_frame(b.dim)
    n_grid = vals.shape[0] // b.dim
    # (n_starts, m) each, drawn restart by restart
    u, v, w = rng.standard_normal((n_starts, 3, b.size)).transpose(1, 0, 2)

    def update(old, new):
        return np.where(np.linalg.norm(new, axis=1)[:, None] > 0, new, old)

    for _ in range(n_rounds):
        # (grad v)^T w = sum_a d_b(v_a) w_a on the grid, grad v summed from
        # its frame coordinates, then projected
        coords = (v @ table).reshape(n_starts, -1, n_grid)
        w_grid = (w @ vals.T).reshape(n_starts, b.dim, n_grid)
        field = np.einsum("sjg,jab,sag->sbg", coords, frame, w_grid)
        q = ops._conv_weight * (field.reshape(n_starts, -1) @ vals)
        norm = np.linalg.norm(q, axis=1)[:, None]
        u = update(u, q / np.where(norm > 0, norm, 1.0))
        v = update(v, -ops.convection(u, w) / ksq)
        w = update(w, ops.convection(u, v) / eig)
    val = np.abs(np.einsum("sm,sm->s", ops.convection(u, v), w))
    den = (
        np.linalg.norm(u, axis=1)
        * np.sqrt((ksq * v**2).sum(axis=1))
        * np.sqrt((eig * w**2).sum(axis=1))
    )
    pos = den > 0
    return float(np.max(val[pos] / den[pos], initial=0.0))


def stress_jacobians(ops, coeffs, params):
    """Exact Jacobians of the stress map at a batch of states.

    D[Ap](u)[d] pairs gamma(u) E(d) + gamma'(u) 2 (E(u):E(d)) E(u)
    against the mode strains, so the matrix splits into a gamma-weighted
    strain Gram plus a rank-modified gamma'-weighted outer part, both
    assembled on the collocation grid in the trace-free strain frame.
    Returns shape (P, m, m).
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    table = ops._strain_table  # (m, k*G)
    n_states, m = c.shape
    strain = ops._strain(c)  # (P, k, G)
    gsq = np.einsum("pkg,pkg->pg", strain, strain)
    ex = params.p / 2.0 - 1.0
    gamma = (params.reg + gsq) ** ex
    dgamma = ex * (params.reg + gsq) ** (ex - 1.0)
    modes = table.reshape(m, ops._frame_size, -1)  # (m, k, G)
    cross = np.einsum("pkg,mkg->pmg", strain, modes)  # (E(u):E_m) on the grid
    weighted = (gamma[:, None, None, :] * modes).reshape(n_states, m, -1)
    gram = weighted @ table.T
    outer = (2.0 * dgamma[:, None, :] * cross) @ cross.transpose(0, 2, 1)
    return ops._stress_weight * (gram + outer)


def measure_stress_lipschitz(ops, params, rng, n_states=400, scale=2.0):
    """Measured Lipschitz constant of the stress in the dual pairing norm.

    Supremum over sampled states of the local differential norm
    sup_d ||D[Ap](u) d||_* / ||d||_1, computed exactly per state as the
    top singular value of the norm-weighted Jacobian.  Secant ratios are
    segment averages of these slopes, so the measured value dominates
    every difference quotient inside the sampled region.
    """
    b = ops.basis
    w_out = 1.0 / np.sqrt(b.eigenvalues)
    w_in = 1.0 / np.sqrt(b.ksq.astype(float))
    best = 0.0
    per = max(1, n_states // 6)
    batches = []
    for mag in (0.1 * scale, scale, 3.0 * scale):
        batches.append(mag * rng.uniform(-1, 1, (per, b.size)))
        batches.append(mag * rng.standard_normal((per, b.size)))
    batches.append(np.zeros((1, b.size)))
    for states in batches:
        jac = stress_jacobians(ops, states, params)
        weighted = w_out[None, :, None] * jac * w_in[None, None, :]
        sv = np.linalg.svd(weighted, compute_uv=False)
        best = max(best, float(sv[:, 0].max()))
    return best


def stress_lipschitz_reference(params, lambda1, korn_hi=None):
    """Analytic Lipschitz budget for the stress nonlinearity.

    The derivative of the tensor map E -> gamma(E) E is bounded by
    3 * max(reg^((p-2)/2), reg^((p-5)/2)) for p in (1, 2]; combined with
    the strain/gradient equivalence (factor korn_hi per slot) and the
    step from the gradient norm of the test field to the energy norm
    (factor 1/sqrt(lambda1)) this bounds the dual-norm Lipschitz constant
    of the stress.  A sanity ceiling for the measured constant, not a
    test oracle.
    """
    tilde = max(params.reg ** ((params.p - 2.0) / 2.0), params.reg ** ((params.p - 5.0) / 2.0))
    k = 1.0 / np.sqrt(2.0) if korn_hi is None else korn_hi
    return 3.0 * tilde * k * k / np.sqrt(lambda1)

