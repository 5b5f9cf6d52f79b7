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
  frame can never silently drop a component;
* the convection form b(u, v, w) = int u_i d_i(v_j) w_j dx, evaluated in
  divergence form by dealiased collocation (Orszag 1971; Zang 1991 on the
  advective, divergence and rotational forms).  Integrating by parts,
  b(u, v, w) = -int (v (x) u) : grad w dx - int div(u) v . w dx, and the
  last term is zero exactly because every mode is divergence-free.  So
  u and v are synthesized on the uniform grid of 3*kmax + 1 points per
  dimension, the momentum flux v_a u_b is formed pointwise and paired with
  the mode gradients, which span the trace-free matrices.  The flux is
  taken in a basis of rank-one trace-free matrices a_j b_j^T
  (`_product_forms`), so each of its coordinates is one product
  (a_j . v)(b_j . u) of two linear forms of the fields, and the mode
  gradients' coordinates in that basis pair it with them.  For B(u, u)
  the flux u (x) u is symmetric and k coordinates suffice (u_p u_q for
  p < q and u_j^2 - u_d^2 = (u_j - u_d)(u_j + u_d)): per row, d + k
  passes over (m, G) tables (4 in 2D, 8 in 3D) where the advective form
  (u . grad) v needs d + d^2 + d (8 and 15).

  The integrand is a trigonometric polynomial of degree at most 3*kmax,
  which that grid integrates exactly, so the projected coefficients equal
  the Galerkin ones up to rounding and no aliasing error enters.  The
  skew-symmetry b(u, v, v) = -1/2 int u . grad |v|^2 dx
  = 1/2 int div(u) |v|^2 dx = 0 therefore holds to rounding as well: the
  quadrature reproduces the exact integral, and the modes are
  divergence-free exactly.

Every mode is a scalar wave times a constant vector or matrix, so the
workspace keeps one scalar (m, G) table per wave kind and grid (dtrig on
the stress grid; trig and dtrig on the convection grid) and the small
per-mode coordinates beside them.  Synthesis scales the (P, m)
coefficients by each of the n coordinates (frame coordinates,
polarization components) in one broadcast multiply, then makes the n*P
fields in one (n, P, m) @ (m, G) product.  Projection makes the n planes
in one (n, P, G) @ (G, m) product, then scales each by its coordinates
(which carry the quadrature weight) and adds them.  The flops are those
of the n tables scaled by the coordinates, O(m * n * G) per row, from n
times less table memory.  The broadcast multiply and the scale-and-add
are NumPy calls that tables scaled in advance fold into their products:
on batches of a few rows at m <= 16, where each call costs about as
much as a product, a call takes a few microseconds more than with such
tables.

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


def _product_forms(dim):
    """Factors (a, b), each of shape (dim*dim - 1, dim), of a basis of the
    trace-free dim x dim matrices made of rank-one matrices a_j b_j^T.

    First e_p e_q^T for p < q; then (e_j - e_l) (e_j + e_l)^T for j < l,
    with l = dim - 1 the last index; last e_q e_p^T for p < q.  Each
    coordinate v^T (a_j b_j^T) u = (a_j . v) (b_j . u) of a flux v (x) u
    is a product of two linear forms.  The first k = dim(dim+1)/2 - 1 are
    enough for a symmetric flux u (x) u: u_p u_q, then u_j^2 - u_l^2.
    """
    eye = np.eye(dim)
    pairs = list(itertools.combinations(range(dim), 2))
    diag = range(dim - 1)
    a = [eye[p] for p, _ in pairs] + [eye[j] - eye[-1] for j in diag] + [eye[q] for _, q in pairs]
    b = [eye[q] for _, q in pairs] + [eye[j] + eye[-1] for j in diag] + [eye[p] for p, _ in pairs]
    return np.array(a), np.array(b)


def _form_coords(ek):
    """Coordinates, each (n, m), of the trace-free mode gradients `ek`
    (m, d, d) in `_product_forms`: all d*d - 1 for a full flux, and the
    first k for a symmetric one (where e_p e_q^T and e_q e_p^T pair alike).

    X = sum_j c_j a_j b_j^T for X trace-free: (e_j - e_l)(e_j + e_l)^T has
    X_jj on the diagonal and also puts +X_jj at (j, l) and -X_jj at (l, j),
    which the coordinates of e_j e_l^T and e_l e_j^T take back.
    """
    p, q = np.triu_indices(ek.shape[1], 1)
    diag = np.einsum("mjj->mj", ek)[:, :-1]
    at_last = np.where(q == ek.shape[1] - 1, ek[:, p, p], 0.0)
    full = np.concatenate([ek[:, p, q] - at_last, diag, ek[:, q, p] + at_last], axis=1)
    sym = np.concatenate([ek[:, p, q] + ek[:, q, p], diag], axis=1)
    return full.T, sym.T


class SpectralOperators:
    """Per-basis workspace: scalar mode waves on the two collocation grids.

    The stress grid has 4*(kmax + 1) points per dimension; the shear factor
    is not polynomial, so its quadrature error decays spectrally in that
    size (see the module docstring).  The convection grid has 3*kmax + 1
    points per dimension, the fewest on which every triple product of
    basis modes is integrated exactly, so convection is exact to rounding
    and b(u, v, v) = 0 to rounding.  Both grids take their scalar mode
    waves from exact integer phases (`basis._grid_waves`).

    Tables, one scalar (m, G) wave per kind and grid, 8*m*(G_s + 2*G_c)
    bytes in all:

    * stress: dtrig on the stress grid, the scalar factor of every mode
      strain;
    * convection: trig (the velocities' factor) and dtrig (the
      gradients') on the convection grid.

    Beside them sit per-mode coordinates, each of shape (n, 1, m), that
    scale those waves: the mode strains' coordinates in
    `trace_free_frame` (and, times the quadrature weight, the stress
    projection's), the polarizations, and the coordinates that pair a
    flux with the mode gradients in the `_product_forms` basis (times
    minus the quadrature weight), for the symmetric and the full flux.
    Set-up raises ValueError when some mode gradient has trace above
    1e-12 * max|k|.
    """

    def __init__(self, basis, oversample=4):
        self.basis = basis
        dim = basis.dim
        kmax = int(np.max(np.abs(basis.wavevectors)))
        # grad phi_m = (e_m (x) k_m) * dtrig_m, trace-free because e_m . k_m = 0
        ek = np.einsum("ma,mb->mab", basis.polarizations, basis.wavevectors.astype(float))
        if np.abs(np.trace(ek, axis1=1, axis2=2)).max() > 1e-12 * np.sqrt(basis.ksq.max()):
            raise ValueError("mode strains are not trace-free: polarizations not orthogonal to k")
        k = dim * (dim + 1) // 2 - 1
        coords = np.einsum("mab,jab->jm", ek, trace_free_frame(dim))
        self._strain_coords = coords[:, None, :]  # (k, 1, m)
        self._polarizations = basis.polarizations.T.copy()[:, None, :]  # (d, 1, m)

        self.stress_grid_size = oversample * (kmax + 1)
        _, self._stress_dtrig, self._stress_weight = _grid_waves(basis, self.stress_grid_size)
        self._stress_dtrig_t = self._stress_dtrig.T
        # the projection's coordinates carry the quadrature weight
        self._stress_out = self._stress_weight * self._strain_coords

        self._trig, dtrig, weight = _grid_waves(basis, 3 * kmax + 1)
        # dtrig only projects: stored (G, m), so that product multiplies
        # row-major operands, as synthesis does
        self._dtrig_t = np.ascontiguousarray(dtrig.T)
        # the mode gradients' coordinates in the rank-one basis pair a flux
        # with them; the divergence form's sign and the quadrature weight
        # ride on the coordinates
        fa, fb = _product_forms(dim)
        full, half = (-weight * c[:, None, :] for c in _form_coords(ek))
        self._flux = (fa, fb, full)  # coords (d*d - 1, 1, m)
        self._sym_flux = (np.concatenate([fa[:k], fb[:k]]), half)  # (2k, d), (k, 1, m)

    # -- nonlinear stress ---------------------------------------------------

    def _strain(self, c):
        """Frame coordinates of the strain of a batch (P, m), shape (k, P, G)."""
        return _synthesize(c, self._strain_coords, self._stress_dtrig)

    def nonlinear_stress(self, coeffs, params):
        """Galerkin coefficients of the shear-dependent stress.

        Accepts a single coefficient vector (m,) or a batch (P, m) and
        returns the same shape.
        """
        c, batched = _as_batch(coeffs)
        strain = self._strain(c)
        gamma = np.einsum("kpg,kpg->pg", strain, strain)  # |E(u)|^2, then gamma in place
        gamma += params.reg
        gamma **= (params.p - 2.0) / 2.0
        strain *= gamma
        out = _project(strain, self._stress_out, self._stress_dtrig_t)
        return out if batched else out[0]

    def strain_norm(self, coeffs):
        """||E(u)||_L2 by quadrature on the stress grid; batched over axis 0."""
        c = np.atleast_2d(np.asarray(coeffs, dtype=float))
        strain = self._strain(c)
        out = np.sqrt(self._stress_weight * np.einsum("kpg,kpg->p", strain, strain))
        return out if np.ndim(coeffs) == 2 else float(out[0])

    # -- convection ---------------------------------------------------------

    def convection(self, cu, cv):
        """Coefficients of the convection term B(u, v); batched over axis 0.

        (B(u, v), w) = b(u, v, w) = -int (v (x) u) : grad w dx for every w
        in the truncation.  The momentum flux v (x) u is formed pointwise
        from one synthesis of each field, as its coordinates in the
        `_product_forms` basis, and projected against the mode gradients,
        so the cost is O(m * G) per row with no m^3 intermediate.  B(u, u),
        asked for as `convection(u, u)` with one object, projects only the
        k coordinates of the symmetric flux u (x) u.
        """
        u, batched = _as_batch(cu)
        x = _synthesize(u, self._polarizations, self._trig).reshape(len(self._polarizations), -1)
        if cv is cu:
            forms, coords = self._sym_flux
            lin = forms @ x  # a_j . u, then b_j . u; their products in place
            flux = lin[: len(coords)]
            flux *= lin[len(coords):]
        else:
            fa, fb, coords = self._flux
            v = _synthesize(_as_batch(cv)[0], self._polarizations, self._trig)
            flux = (fa @ v.reshape(len(v), -1)) * (fb @ x)
        out = _project(flux.reshape(len(coords), len(u), -1), coords, self._dtrig_t)
        return out if batched else out[0]


def _synthesize(c, coords, waves):
    """Grid fields of a batch c (P, m) whose modes are scalar `waves`
    (m, G) times per-mode coordinates `coords` (n, 1, m): shape (n, P, G),
    plane j the P fields of coordinate j.

    The coordinates scale the coefficients, so the n*P fields come from
    one product of the (n, P, m) scaled coefficients with the waves.
    """
    return np.matmul(coords * c, waves)


def _project(fields, coords, waves_t):
    """Galerkin coefficients (P, m) of grid fields (n, P, G) against modes
    that are scalar waves (m, G), given transposed as `waves_t`, times
    per-mode coordinates `coords` (n, 1, m): one product makes the n
    planes (n, P, m), which are scaled by their coordinates and added in
    order.
    """
    planes = np.matmul(fields, waves_t)
    planes *= coords
    out = planes[0] + planes[1]  # n >= 2: d >= 2 polarizations, k >= 2 coordinates
    for j in range(2, len(planes)):
        out += planes[j]
    return out


def _as_batch(coeffs):
    """`coeffs` as a (P, m) float array, and whether it was given as a batch.

    A 2-D float array passes through untouched, the common case of a
    stepping loop.
    """
    if type(coeffs) is np.ndarray and coeffs.ndim == 2 and coeffs.dtype == np.float64:
        return coeffs, True
    return np.atleast_2d(np.asarray(coeffs, dtype=float)), np.ndim(coeffs) == 2


def measure_korn_constants(ops, rng):
    """Two-sided strain/gradient norm ratio over 2000 random fields.

    Returns (lo, hi) with lo * ||u||_1 <= ||E(u)||_L2 <= hi * ||u||_1.  The
    strain norm is measured by quadrature on the stress collocation grid,
    the arrays the stress operator uses; |E(u)|^2 has degree 2*kmax, which
    that grid integrates exactly.  On the divergence-free torus basis both
    constants equal 1/sqrt(2); the measurement certifies that.
    """
    b = ops.basis
    c = rng.standard_normal((2000, b.size))
    h1 = np.sqrt((b.ksq * c**2).sum(axis=1))
    ratio = ops.strain_norm(c) / h1
    return float(ratio.min()), float(ratio.max())


def estimate_convection_bound(ops, rng):
    """Estimate of the sharp constant in |b(u,v,w)| <= C |u| ||v||_1 ||w||_2.

    Alternating maximization: each slot of b is linear, so the optimal u
    (L2-normalized), v (gradient-normalized) and w (energy-normalized) for
    the other two fixed have closed forms.  The gradient in u is the
    projection of (grad v)^T w onto the modes; in v it is -B(u, w), by
    skew-symmetry; in w it is B(u, v).  24 randomized restarts of 5 rounds,
    then the best value found; deterministic for a given generator state.
    The restarts run as one batch, each round one operator call per slot,
    and a slot of a restart keeps its value where its update vanishes.
    """
    b = ops.basis
    ksq = b.ksq.astype(float)
    eig = b.eigenvalues
    pol, (fa, fb, coords) = ops._polarizations, ops._flux
    # (24, m) each, drawn restart by restart
    u, v, w = rng.standard_normal((24, 3, b.size)).transpose(1, 0, 2)

    def update(old, new):
        return np.where(np.linalg.norm(new, axis=1)[:, None] > 0, new, old)

    for _ in range(5):
        # (grad v)^T w = sum_a d_b(v_a) w_a on the grid: grad v is
        # sum_j a_j b_j^T g_j, so (grad v)^T w = sum_j b_j (a_j . w) g_j.
        # The flux coordinates carry -weight, so projecting gives -q.
        g = _synthesize(v, coords, ops._dtrig_t.T).reshape(len(coords), -1)  # (d*d - 1, S*G)
        w_grid = _synthesize(w, pol, ops._trig).reshape(len(pol), -1)
        field = fb.T @ ((fa @ w_grid) * g)
        q = -_project(field.reshape(len(pol), len(u), -1), pol, ops._trig.T)
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
    waves, coords = ops._stress_dtrig, ops._strain_coords[:, 0]  # (m, G), (k, m)
    strain = ops._strain(c)  # (k, P, G)
    gsq = np.einsum("kpg,kpg->pg", strain, strain)
    ex = params.p / 2.0 - 1.0
    gamma = (params.reg + gsq) ** ex
    dgamma = ex * (params.reg + gsq) ** (ex - 1.0)
    # E_m = coords_m * waves_m, so E_m:E_l = (coords_m . coords_l) waves_m waves_l
    gram = (coords.T @ coords) * ((gamma[:, None, :] * waves) @ waves.T)
    cross = np.einsum("km,kpg->pmg", coords, strain) * waves  # (E(u):E_m) on the grid
    outer = (2.0 * dgamma[:, None, :] * cross) @ cross.transpose(0, 2, 1)
    return ops._stress_weight * (gram + outer)


def measure_stress_lipschitz(ops, params, rng):
    """Measured Lipschitz constant of the stress in the dual pairing norm.

    Supremum over sampled states (66 uniform and 66 gaussian at each
    magnitude 0.2, 2 and 6, and the origin) of the local differential norm
    sup_d ||D[Ap](u) d||_* / ||d||_1, computed exactly per state as the
    top singular value of the norm-weighted Jacobian.  Secant ratios are
    segment averages of these slopes, so the measured value dominates
    every difference quotient inside the sampled region.
    """
    b = ops.basis
    w_out = 1.0 / np.sqrt(b.eigenvalues)
    w_in = 1.0 / np.sqrt(b.ksq.astype(float))
    best = 0.0
    per = 66
    batches = []
    for mag in (0.2, 2.0, 6.0):
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

