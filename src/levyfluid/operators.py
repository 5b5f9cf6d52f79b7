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
workspace keeps one scalar wave transform per kind and grid (dtrig on the
stress grid; trig and dtrig on the convection grid) and the small
per-mode coordinates beside them.  Synthesis scales the (P, m)
coefficients by each of the n coordinates (frame coordinates,
polarization components) in one broadcast multiply, then makes the n*P
fields from the scaled coefficients.  Projection makes the n planes
(n, P, m) of the fields, then scales each by its coordinates (which
carry the quadrature weight) and adds them.  A transform takes one of two
forms, chosen per grid from the dimension, the level and the grid size
(`_grid_transforms`):

* dense (`_DenseWaves`), below the crossover: one (m, G) table, so
  synthesis and projection are one product each, O(m * n * G) flops per
  row.  Every shipped config runs here;
* factored (`_FactoredWaves`), above it: every mode wave is a sum of at
  most 2^(d-1) products of 1-D waves, so the sums factor into a
  stacked product over the last axis and one product over the leading
  ones (sum factorization), at O(m N + J^(d-1) N^d) flops per row and
  coordinate for an N^d grid with J = 2 (kmax + 1) 1-D waves per axis.
  Its tables hold O(m N + J^(d-1) N^(d-1)) entries instead of m N^d, and
  its intermediates go into one module-level scratch arena (`_scratch`)
  that every factored transform in the process shares, so the module is
  not for concurrent use from threads.  It gives the dense results to
  rounding (1e-13 relative in the tests), with each coordinate's values
  in another order, (N^(d-1), P, N) instead of (P, G).  The pointwise
  work between synthesis and projection is the same per point either
  way, so it does not depend on the form; the Jacobians and the strain
  norm, which need the (P, G) split, ask for it (`planes`).

The broadcast multiply and the scale-and-add are NumPy calls that tables
scaled in advance fold into their products: on batches of a few rows at
m <= 16, where each call costs about as much as a product, a call takes
a few microseconds more than with such tables.

The shear factor gamma is bounded and smooth for reg > 0, so the stress
collocation error decays spectrally in the grid size.  Measured envelope
at the oversampling of 4 per dimension, STRESS_OVERSAMPLE (grid
refinement against a 24x-oversampled reference, m = 16): relative
coefficient error ~2e-3 on rough unit-variance coefficient vectors,
~3e-5 on spectrally decaying unit-norm fields, ~2e-7 on decaying fields
of norm 0.3; each doubling of the grid gains two to three orders.
Pointwise monotonicity of the stress tensor makes the discrete pairing
<Ap(u) - Ap(v), u - v> a sum of nonnegative grid terms, so it is
nonnegative to rounding regardless of the quadrature error in its value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import SIN, TWO_PI, _grid_waves

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


STRESS_OVERSAMPLE = 4  # the stress grid has STRESS_OVERSAMPLE * (kmax + 1) points per dimension


class SpectralOperators:
    """Per-basis workspace: scalar mode waves on the two collocation grids.

    The stress grid has 4*(kmax + 1) points per dimension; the shear factor
    is not polynomial, so its quadrature error decays spectrally in that
    size (see the module docstring).  The convection grid has 3*kmax + 1
    points per dimension, the fewest on which every triple product of
    basis modes is integrated exactly, so convection is exact to rounding
    and b(u, v, v) = 0 to rounding.  Both grids take their scalar mode
    waves from exact integer phases (`basis._grid_waves`, or the same
    residues axis by axis in the factored form).

    Transforms, one scalar wave per kind and grid (see the module
    docstring for the two forms):

    * stress: dtrig on the stress grid, the scalar factor of every mode
      strain;
    * convection: trig (the velocities' factor) and dtrig (the
      gradients') on the convection grid.

    A dense grid's tables take 8*m*G bytes per kind, 8*m*(G_s + 2*G_c)
    when both grids are dense.  A factored grid's take
    8*H*K*(M*N + N^(d-1)) bytes per kind for N points per axis, K blocks
    of at most M modes and H = 2^(d-1): 0.1-0.3 MB per kind at m = 256 in
    2D, against 3.3 MB (stress) and 1.6 MB (convection) dense.

    Beside them sit per-mode coordinates, each of shape (n, 1, m), that
    scale those waves: the mode strains' coordinates in
    `trace_free_frame` (and, times the quadrature weight, the stress
    projection's), the polarizations, and the coordinates that pair a
    flux with the mode gradients in the `_product_forms` basis (times
    minus the quadrature weight), for the symmetric and the full flux.
    Set-up raises ValueError when some mode gradient has trace above
    1e-12 * max|k|.
    """

    def __init__(self, basis):
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

        self.stress_grid_size = STRESS_OVERSAMPLE * (kmax + 1)
        _, self._stress_waves, self._stress_weight = _grid_transforms(basis, self.stress_grid_size)
        # the projection's coordinates carry the quadrature weight
        self._stress_out = self._stress_weight * self._strain_coords

        self._trig, dtrig, weight = _grid_transforms(basis, 3 * kmax + 1)
        self._dtrig = dtrig.for_projection()  # dtrig mostly projects
        # the mode gradients' coordinates in the rank-one basis pair a flux
        # with them; the divergence form's sign and the quadrature weight
        # ride on the coordinates
        fa, fb = _product_forms(dim)
        full, half = (-weight * c[:, None, :] for c in _form_coords(ek))
        self._flux = (fa, fb, full)  # coords (d*d - 1, 1, m)
        self._sym_flux = (np.concatenate([fa[:k], fb[:k]]), half)  # (2k, d), (k, 1, m)

    # -- nonlinear stress ---------------------------------------------------

    def _strain(self, c):
        """Frame coordinates of the strain of a batch (P, m) on the stress
        grid, shape (k, ...): (k, P, G) dense, or as `_FactoredWaves` lays
        them out."""
        return self._stress_waves.synthesize(c, self._strain_coords)

    def nonlinear_stress(self, coeffs, params):
        """Galerkin coefficients of the shear-dependent stress.

        Accepts a single coefficient vector (m,) or a batch (P, m) and
        returns the same shape.
        """
        c, batched = _as_batch(coeffs)
        strain = self._strain(c)
        gamma = np.einsum("k...,k...->...", strain, strain)  # |E(u)|^2, then gamma in place
        gamma += params.reg
        gamma **= (params.p - 2.0) / 2.0
        strain *= gamma
        out = self._stress_waves.project(strain, self._stress_out)
        return out if batched else out[0]

    def strain_norm(self, coeffs):
        """||E(u)||_L2 by quadrature on the stress grid; batched over axis 0."""
        c = np.atleast_2d(np.asarray(coeffs, dtype=float))
        strain = self._stress_waves.planes(self._strain(c))
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
        x = self._trig.synthesize(u, self._polarizations).reshape(len(self._polarizations), -1)
        if cv is cu:
            forms, coords = self._sym_flux
            lin = forms @ x  # a_j . u, then b_j . u; their products in place
            flux = lin[: len(coords)]
            flux *= lin[len(coords):]
        else:
            fa, fb, coords = self._flux
            v = self._trig.synthesize(_as_batch(cv)[0], self._polarizations)
            flux = (fa @ v.reshape(len(v), -1)) * (fb @ x)
        out = self._dtrig.project(flux.reshape(len(coords), len(u), -1), coords)
        return out if batched else out[0]


# a grid's waves are factored where its dense (m, G) table would hold at
# least this many entries: the measured crossover of the two transforms,
# in 2D and in 3D, at one BLAS thread (CHANGES.md gives the table)
FACTORED_MIN_ENTRIES = 2**14


def _grid_transforms(basis, n):
    """The modes' scalar waves on `uniform_grid(basis.dim, n)`, and its
    quadrature weight: (trig, dtrig, weight).

    Each wave is a transform that synthesizes grid fields from scaled
    coefficients and projects grid fields back.  Below the crossover in
    `FACTORED_MIN_ENTRIES` it is a dense (m, G) table (`_DenseWaves`);
    above it, sums of products of 1-D waves (`_FactoredWaves`).  The
    choice reads the dimension, the level and the grid size only, so a
    workspace makes it once, whatever the batches it is given.
    """
    if basis.size * n**basis.dim < FACTORED_MIN_ENTRIES:
        trig, dtrig, weight = _grid_waves(basis, n)
        return _DenseWaves(trig), _DenseWaves(dtrig), weight
    return (*_FactoredWaves.on_grid(basis, n), (TWO_PI / n) ** basis.dim)


class _DenseWaves:
    """Scalar waves as one (m, G) table; fields (n, P, G).

    Synthesis scales the (P, m) coefficients by each of the n coordinates
    in one broadcast multiply, then makes the n*P fields in one
    (n, P, m) @ (m, G) product.  Projection makes the n planes in one
    (n, P, G) @ (G, m) product, then scales each by its coordinates and
    adds them.
    """

    def __init__(self, waves):
        self.waves = waves

    def for_projection(self):
        """The same waves stored (G, m), so that projection multiplies
        row-major operands, as synthesis does; for waves that mostly
        project."""
        return _DenseWaves(np.ascontiguousarray(self.waves.T).T)

    def table(self):
        return self.waves

    def planes(self, fields):
        return fields

    def synthesize(self, c, coords):
        return np.matmul(coords * c, self.waves)

    def project(self, fields, coords):
        return _add_planes(np.matmul(fields, self.waves.T), coords)


class _FactoredWaves:
    """Scalar waves as sums of products of 1-D waves (sum factorization;
    Orszag 1980; Deville, Fischer and Mund 2002); fields (n, N^(d-1), P, N).

    trig(k . x) is the real (cos) or the imaginary (sin) part of
    prod_a (cos + i sin)(k_a x_a): a sum of products of 1-D waves, one per
    set of axes that take their sine, of even size for cos and odd size
    for sin, with sign (-1)^(size // 2).  sin(k_a x) = sign(k_a) sin(|k_a| x)
    and sin(0) = 0.  The modes fall into blocks by |k| on the leading d - 1
    axes.  Each choice h of cos or sin on those axes gives one leading
    wave per block, a row of `lead` (H*K, N^(d-1)), H = 2^(d-1); beside it
    each mode of the block has one wave on the last axis, a row of
    `waves` (H, K, M, N), zero where the term vanishes.

    Synthesis gathers the scaled coefficients into their blocks
    (n, P, K, M), makes the last-axis fields of every block and choice in
    one stacked product with `waves`, then sums them against the leading
    waves in one product per coordinate.  Projection is its adjoint, and a
    gather puts each mode back.  The grid keeps the order of
    `uniform_grid` with the P fields between its leading axes and its last
    one.  Per row and
    coordinate this costs O(H K M N + H K N^d) against O(m N^d) for the
    dense table, with H K (M N + N^(d-1)) table entries per kind.
    """

    def __init__(self, lead, waves, block, slot, members):
        self._lead, self._waves = lead, waves
        self._block, self._slot, self._members = block, slot, members

    @classmethod
    def on_grid(cls, basis, n):
        """(trig, dtrig) on `uniform_grid(basis.dim, n)`, from integer
        phases (j*i mod n) as in `basis._grid_waves`, sharing the blocks
        and the leading waves."""
        dim, m = basis.dim, basis.size
        kabs = np.abs(basis.wavevectors)
        width = int(kabs.max()) + 1
        x = (TWO_PI / n) * np.arange(n)
        residues = (np.arange(width)[:, None] * np.arange(n)) % n
        table = np.concatenate([np.cos(x)[residues], np.sin(x)[residues]])  # row j + width*sine
        # a block holds the modes with one |k| on the leading axes; a mode's
        # slot is its rank in its block
        keys, block = np.unique(kabs[:, :-1], axis=0, return_inverse=True)
        block = block.ravel()
        order = np.argsort(block, kind="stable")
        slot = np.empty(m, dtype=np.int64)
        slot[order] = np.arange(m) - np.searchsorted(block[order], block[order])
        members = np.zeros((len(keys), slot.max() + 1), dtype=np.int64)  # padding reads mode 0
        members[block, slot] = np.arange(m)
        sines = np.array(list(itertools.product((0, 1), repeat=dim)))  # (2^d, d), last axis fastest
        rows = keys + width * sines[::2, None, :-1]  # (H, K, d-1): each choice h, each block
        lead = table[rows[..., 0]]
        for a in range(1, dim - 1):
            lead = (lead[..., :, None] * table[rows[..., a]][..., None, :]).reshape(*rows.shape[:2], -1)
        lead = lead.reshape(-1, n ** (dim - 1))
        k = basis.wavevectors.T  # (d, m)
        sines = sines[:, :, None]
        size = sines.sum(axis=1)  # (2^d, 1)
        out = []
        for derivative in (False, True):
            is_sin = basis.phases == SIN
            amp = np.full(m, basis.amplitude)
            if derivative:  # cos' = -sin, sin' = cos
                amp[~is_sin] *= -1.0
                is_sin = ~is_sin
            kept = (size % 2 == is_sin) & ~np.any(sines & (k == 0), axis=1)
            coef = amp * (-1.0) ** (size // 2) * np.prod(np.where(sines, np.sign(k), 1), axis=1)
            last = table[kabs[:, -1] + width * sines[:, -1]]  # (2^d, m, N)
            waves = np.zeros((len(rows), len(keys), members.shape[1], n))
            waves[:, block, slot] = (np.where(kept, coef, 0.0)[:, :, None] * last).reshape(
                len(rows), 2, m, n).sum(axis=1)  # at most one term per choice h
            out.append(cls(lead, waves, block, slot, members))
        return out

    def for_projection(self):
        return self

    def table(self):
        """The dense (m, G) table, built on demand."""
        m = self._block.size
        return self.planes(self.synthesize(np.eye(m), np.ones((1, 1, m))))[0]

    def planes(self, fields):
        """`fields` in the dense layout (n, P, G)."""
        n, _, p, _ = fields.shape
        return np.moveaxis(fields, 2, 1).reshape(n, p, -1)

    def synthesize(self, c, coords):
        s = coords * c
        n, p = s.shape[:2]
        h, k, width, size = self._waves.shape
        # mode="clip" writes `out` directly (the indices are in range)
        blocks = np.take(s, self._members, axis=2, mode="clip",
                         out=_scratch("blocks", (n, p, k, width)))
        last = np.matmul(blocks.transpose(0, 2, 1, 3)[:, None], self._waves,
                         out=_scratch("last", (n, h, k, p, size)))
        return np.matmul(self._lead.T, last.reshape(n, h * k, -1)).reshape(n, -1, p, size)

    def project(self, fields, coords):
        """Galerkin coefficients of `fields`, given in any shape (n, ...)
        that keeps the order of the values synthesis returns."""
        h, k, width, size = self._waves.shape
        fields = fields.reshape(len(fields), self._lead.shape[1], -1)
        n, p = len(fields), fields.shape[2] // size
        last = _scratch("last", (n, h, k, p, size))
        np.matmul(self._lead, fields, out=last.reshape(n, h * k, -1))
        terms = np.matmul(last, self._waves.transpose(0, 1, 3, 2),
                          out=_scratch("terms", (n, h, k, p, width)))
        blocks = terms.sum(axis=1, out=_scratch("sums", (n, k, p, width)))
        planes = blocks[:, self._block, :, self._slot]  # (m, n, P)
        return _add_planes(np.ascontiguousarray(planes.transpose(1, 2, 0)), coords)


# Scratch for the factored transforms' intermediates: one flat float64
# buffer per role, shared by every transform of every workspace in the
# process.  The transforms run one at a time, so each buffer need only be
# as large as its role's largest request.
_ARENA = {}


def _scratch(role, shape):
    """A C-contiguous view of `shape` on the arena's buffer for `role`,
    which grows to the largest request and is reused by every later call.

    Fresh intermediates on every call were handed back to the system by
    the C allocator and faulted in again on the next call: about 1000
    minor page faults per call at m = 256.  A view is only valid until the
    next request for its role, and no transform returns one: synthesis and
    projection return fresh arrays.  So this module is not for concurrent
    use from threads.  Each process has its own arena, and pickling a
    workspace copies none of it.
    """
    size = math.prod(shape)
    flat = _ARENA.get(role)
    if flat is None or flat.size < size:
        flat = _ARENA[role] = np.empty(size)
    return flat[:size].reshape(shape)


def _add_planes(planes, coords):
    """Galerkin coefficients (P, m) from the n planes (n, P, m) of the
    projected fields: each scaled by its per-mode coordinates `coords`
    (n, 1, m), then added in order."""
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
        g = ops._dtrig.synthesize(v, coords).reshape(len(coords), -1)  # (d*d - 1, S*G)
        w_grid = ops._trig.synthesize(w, pol).reshape(len(pol), -1)
        field = fb.T @ ((fa @ w_grid) * g)
        q = -ops._trig.project(field.reshape(len(pol), len(u), -1), pol)
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
    waves, coords = ops._stress_waves.table(), ops._strain_coords[:, 0]  # (m, G), (k, m)
    strain = ops._stress_waves.planes(ops._strain(c))  # (k, P, G)
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


def stress_lipschitz_reference(params, lambda1):
    """Analytic Lipschitz budget for the stress nonlinearity.

    The derivative of the tensor map E -> gamma(E) E is bounded by
    3 * max(reg^((p-2)/2), reg^((p-5)/2)) for p in (1, 2]; combined with
    the strain/gradient equivalence (factor 1/sqrt(2) per slot) and the
    step from the gradient norm of the test field to the energy norm
    (factor 1/sqrt(lambda1)) this bounds the dual-norm Lipschitz constant
    of the stress.  A sanity ceiling for the measured constant, not a
    test oracle.
    """
    tilde = max(params.reg ** ((params.p - 2.0) / 2.0), params.reg ** ((params.p - 5.0) / 2.0))
    k = 1.0 / np.sqrt(2.0)
    return 3.0 * tilde * k * k / np.sqrt(lambda1)

