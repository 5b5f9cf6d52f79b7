import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def fd_derivative(values, axis, n):
    """Fourth-order central difference on the periodic grid (oracle path)."""
    h = 2.0 * np.pi / n
    return (
        -np.roll(values, -2, axis=axis)
        + 8.0 * np.roll(values, -1, axis=axis)
        - 8.0 * np.roll(values, 1, axis=axis)
        + np.roll(values, 2, axis=axis)
    ) / (12.0 * h)


def field_on_mesh(basis, coeffs, n):
    """Synthesize a coefficient vector on an n^d mesh, shape (d, n, ..., n)."""
    from levyfluid.basis import mode_values, uniform_grid

    pts, _ = uniform_grid(basis.dim, n)
    vals = np.einsum("m,mag->ag", coeffs, mode_values(basis, pts))
    return vals.reshape((basis.dim,) + (n,) * basis.dim)


def quadrature_forms(basis, coeffs, n):
    """Grid-oracle values of the L2, gradient, strain and strain-gradient
    forms of one field, using finite differences for every derivative."""
    d = basis.dim
    u = field_on_mesh(basis, coeffs, n)
    w = (2.0 * np.pi / n) ** d
    grad = np.stack([np.stack([fd_derivative(u[a], j, n) for j in range(d)]) for a in range(d)])
    strain = 0.5 * (grad + grad.transpose(1, 0, *range(2, 2 + d)))
    dstrain = np.stack(
        [fd_derivative(strain[a, b], l, n) for a in range(d) for b in range(d) for l in range(d)]
    )
    return {
        "l2_sq": w * float(np.sum(u * u)),
        "grad_sq": w * float(np.sum(grad * grad)),
        "strain_sq": w * float(np.sum(strain * strain)),
        "a_form": w * float(np.sum(dstrain * dstrain)),
    }


def convection_form_grid(ops, cu, cv, cw):
    """b(u, v, w) = int (u . grad v) . w dx in advective form as one grid sum,
    without projecting onto the modes (reference path for `ops.convection`).

    Builds its own tables from float phases (`mode_values`,
    `mode_gradients`) on the 3*kmax + 1 grid, which integrates the
    integrand exactly; none of the operator's tables are read.
    """
    from levyfluid.basis import mode_gradients, mode_values, uniform_grid

    basis = ops.basis
    kmax = int(np.max(np.abs(basis.wavevectors)))
    pts, weight = uniform_grid(basis.dim, 3 * kmax + 1)
    vals = mode_values(basis, pts)
    u = np.einsum("m,mag->ag", cu, vals)
    dv = np.einsum("m,mbag->bag", cv, mode_gradients(basis, pts))
    w = np.einsum("m,mag->ag", cw, vals)
    return float(weight * np.einsum("ag,bag,bg->", u, dv, w))


def compensated_increment(sigma, marks, coeffs, t0, t1, jump_marks):
    """Integral of sigma against the compensated measure over (t0, t1], one path.

    The state is frozen at its left-endpoint value: the jump part sums
    sigma(u, z_j) = g_j c(u) over the marks z_j of the window's events, the
    compensator part subtracts (t1 - t0) * sum_j nu_j (g_j c(u)), one mark
    at a time.  A per-mark and per-event loop, independent of the batched
    `FluidModel.noise_increment`.
    """
    c = sigma.core(np.asarray(coeffs, dtype=float)[None, :])[0]
    comp = np.zeros(c.size)
    for nu, g in zip(marks.rates, sigma.gains):
        comp = comp + nu * (g * c)
    out = -(t1 - t0) * comp
    for zj in jump_marks:
        out = out + sigma.gains[int(zj)] * c
    return out
