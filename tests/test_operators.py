import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfluid import basis as basis_module
from levyfluid.basis import (
    COS,
    SpectralField,
    build_basis,
    mode_gradients,
    mode_strains,
    mode_values,
    norms,
    uniform_grid,
)
from levyfluid.operators import (
    FluidParams,
    SpectralOperators,
    apply_convection,
    apply_hyperviscosity,
    apply_nonlinear_stress,
    convection_form,
    dual_norm,
    estimate_convection_bound,
    hyperviscosity_pairing,
    measure_korn_constants,
    measure_stress_lipschitz,
    stress_jacobians,
    stress_lipschitz_reference,
    trace_free_frame,
)


@pytest.fixture(scope="module")
def ops16():
    return SpectralOperators(build_basis(16, 2))


@pytest.fixture(scope="module")
def params():
    return FluidParams(kappa0=0.5, kappa1=1.0, reg=0.8, p=1.5)


def random_fields(basis, rng, n, scale=1.0):
    return scale * rng.standard_normal((n, basis.size))


def _exp_weights(phases, derivative):
    """c[s] with trig(theta) = sum_s c[s] exp(i s theta) for s = +1, -1.

    cos -> (1/2, 1/2) and sin -> (1/(2i), -1/(2i)); derivatives are
    cos' = -sin and sin' = cos.
    """
    cos_w = np.array([0.5, 0.5], dtype=complex)
    sin_w = np.array([0.5, -0.5]) / 1j
    is_cos = (phases == COS)[:, None]
    if derivative:
        return np.where(is_cos, -sin_w, cos_w)
    return np.where(is_cos, cos_w, sin_w)


def closed_form_convection(basis):
    """T[i, j, k] = b(phi_j, phi_k, phi_i) from the mode table alone.

    With phi = A f(k.x) e, b(phi_j, phi_k, phi_i) = A^3 (e_j . k_k)
    (e_k . e_i) int f_j f_k' f_i dx, and expanding each trig factor into
    exponentials makes the integral (2 pi)^d times the sum of the weight
    products over the signs with s1 k_j + s2 k_k + s3 k_i = 0.  No grid,
    no quadrature and none of the operator tables are involved.
    """
    k = basis.wavevectors
    e = basis.polarizations
    w = _exp_weights(basis.phases, derivative=False)
    wd = _exp_weights(basis.phases, derivative=True)
    integral = np.zeros((basis.size,) * 3, dtype=complex)  # [i, j, k]
    for a, b, c in itertools.product(range(2), repeat=3):
        s1, s2, s3 = (1 - 2 * a, 1 - 2 * b, 1 - 2 * c)
        total = s1 * k[None, :, None] + s2 * k[None, None, :] + s3 * k[:, None, None]
        hit = np.all(total == 0, axis=-1)
        integral += hit * (wd[None, None, :, b] * w[None, :, None, a] * w[:, None, None, c])
    assert np.abs(integral.imag).max() < 1e-15
    geometry = np.einsum("jd,kd->jk", e, k.astype(float))[None] * (e @ e.T)[:, None, :]
    return basis.amplitude**3 * (2 * np.pi) ** basis.dim * geometry * integral.real


class TestFluidParams:
    def test_rejects_shear_thickening(self):
        with pytest.raises(ValueError):
            FluidParams(p=2.5)

    def test_rejects_p_at_one(self):
        with pytest.raises(ValueError):
            FluidParams(p=1.0)

    def test_accepts_p_two(self):
        assert FluidParams(p=2.0).p == 2.0

    @pytest.mark.parametrize("field", ["kappa0", "kappa1", "reg"])
    def test_rejects_nonpositive_constants(self, field):
        with pytest.raises(ValueError):
            FluidParams(**{field: 0.0})


class TestHyperviscosity:
    def test_eigenvector(self):
        b = build_basis(8, 2)
        c = np.zeros(8)
        c[0] = 1.0
        out = apply_hyperviscosity(SpectralField(b, c))
        assert np.allclose(out.coeffs, b.eigenvalues[0] * c)

    def test_self_adjoint_to_rounding(self, rng):
        b = build_basis(16, 2)
        for _ in range(100):
            u = SpectralField(b, rng.standard_normal(16))
            v = SpectralField(b, rng.standard_normal(16))
            lhs = np.dot(apply_hyperviscosity(u).coeffs, v.coeffs)
            rhs = np.dot(u.coeffs, apply_hyperviscosity(v).coeffs)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_pairing_equals_energy_norm(self, rng):
        # the two-sided norm equivalence holds with both constants 1 in
        # the convention where the energy norm is the operator pairing
        b = build_basis(16, 2)
        for _ in range(50):
            u = SpectralField(b, rng.standard_normal(16))
            pair = np.dot(apply_hyperviscosity(u).coeffs, u.coeffs)
            assert pair == pytest.approx(norms(u).h2 ** 2, rel=1e-14)
            assert pair == pytest.approx(hyperviscosity_pairing(u), rel=1e-14)


class TestConvection:
    def test_vanishes_on_repeated_last_slot(self, ops16, rng):
        b = ops16.basis
        n = 10_000
        U = random_fields(b, rng, n)
        V = random_fields(b, rng, n)
        # (B(u, v), v) through the tensor, batched
        BV = ops16.convection(U, V)
        vals = np.einsum("pm,pm->p", BV, V)
        scale = (
            np.linalg.norm(U, axis=1)
            * np.sqrt((b.ksq * V**2).sum(axis=1))
            * np.sqrt((b.eigenvalues * V**2).sum(axis=1))
        )
        assert np.max(np.abs(vals) / np.maximum(scale, 1e-30)) < 1e-10

    def test_antisymmetric_in_last_two_slots(self, ops16, rng):
        for _ in range(100):
            u, v, w = (SpectralField(ops16.basis, rng.standard_normal(16)) for _ in range(3))
            a = convection_form(ops16, u, v, w)
            b = convection_form(ops16, u, w, v)
            assert a + b == pytest.approx(0.0, abs=1e-12 * (1 + abs(a)))

    def test_tensor_matches_quadrature_path(self, ops16, rng):
        # projected coefficients vs one grid sum of the form; both read the
        # same mode tables, so test_matches_closed_form_triads below is the
        # independent oracle
        for _ in range(1000):
            u, v, w = (SpectralField(ops16.basis, rng.standard_normal(16)) for _ in range(3))
            direct = convection_form(ops16, u, v, w)
            projected = float(np.dot(apply_convection(ops16, u, v).coeffs, w.coeffs))
            assert projected == pytest.approx(direct, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("dim,m", [(2, 16), (2, 64), (3, 24)])
    def test_matches_closed_form_triads(self, dim, m):
        # every entry B(phi_j, phi_k)_i against the wavevector-triad oracle
        b = build_basis(m, dim)
        oracle = closed_form_convection(b)
        eye = np.eye(m)
        j, k = np.divmod(np.arange(m * m), m)
        got = SpectralOperators(b).convection(eye[j], eye[k]).reshape(m, m, m)
        want = oracle.transpose(1, 2, 0)  # [j, k, i]
        scale = np.abs(want).max()
        assert scale > 0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    def test_linear_in_first_slot_and_zero_at_origin(self, ops16, rng):
        b = ops16.basis
        v = SpectralField(b, rng.standard_normal(16))
        zero = SpectralField.zeros(b)
        assert np.all(apply_convection(ops16, zero, v).coeffs == 0.0)

    def test_bound_with_estimated_constant(self, ops16, rng):
        c0 = estimate_convection_bound(ops16, np.random.default_rng(7))
        assert c0 > 0
        U = random_fields(ops16.basis, rng, 5000)
        V = random_fields(ops16.basis, rng, 5000)
        W = random_fields(ops16.basis, rng, 5000)
        b = ops16.basis
        vals = np.abs(np.sum(ops16.convection(U, V) * W, axis=1))
        bound = (
            np.linalg.norm(U, axis=1)
            * np.sqrt((b.ksq * V**2).sum(axis=1))
            * np.sqrt((b.eigenvalues * W**2).sum(axis=1))
        )
        assert np.all(vals <= c0 * bound * (1 + 1e-9))

    def test_estimated_constant_stable_across_reruns(self, ops16):
        a = estimate_convection_bound(ops16, np.random.default_rng(7))
        b = estimate_convection_bound(ops16, np.random.default_rng(7))
        c = estimate_convection_bound(ops16, np.random.default_rng(123))
        assert a == b
        assert c == pytest.approx(a, rel=0.05)

    def test_rejects_mismatched_levels(self, ops16, rng):
        u8 = SpectralField(build_basis(8, 2), rng.standard_normal(8))
        v16 = SpectralField(ops16.basis, rng.standard_normal(16))
        with pytest.raises(ValueError):
            apply_convection(ops16, u8, v16)


class TestNonlinearStress:
    def test_zero_strain_gives_zero(self, ops16, params):
        out = apply_nonlinear_stress(ops16, SpectralField.zeros(ops16.basis), params)
        assert np.all(out.coeffs == 0.0)

    def test_p_two_reduces_to_strain_form(self, rng):
        # gamma == 1: the operator is diagonal with |k|^2/2, checked against
        # a fine-grid quadrature oracle of the weak pairing
        b = build_basis(8, 2)
        ops = SpectralOperators(b)
        par = FluidParams(kappa0=1.0, kappa1=1.0, reg=0.7, p=2.0)
        c = rng.standard_normal(8)
        out = ops.nonlinear_stress(c, par)
        assert np.allclose(out, b.ksq / 2.0 * c, rtol=1e-12, atol=1e-13)

        pts, w = uniform_grid(2, 256)
        strains = mode_strains(b, pts)
        eu = np.einsum("m,mabg->abg", c, strains)
        oracle = w * np.einsum("abg,mabg->m", eu, strains)
        assert np.allclose(out, oracle, rtol=1e-10, atol=1e-12)

    def test_monotonicity_over_random_pairs(self, ops16, params, rng):
        n = 10_000
        U = random_fields(ops16.basis, rng, n, scale=1.5)
        V = random_fields(ops16.basis, rng, n, scale=1.5)
        diff = ops16.nonlinear_stress(U, params) - ops16.nonlinear_stress(V, params)
        pair = np.einsum("pm,pm->p", diff, U - V)
        h1_sq = (ops16.basis.ksq * U**2).sum(axis=1) + (ops16.basis.ksq * V**2).sum(axis=1)
        assert np.all(pair >= -1e-8 * (1.0 + h1_sq))

    def test_positivity_of_pairing(self, ops16, params, rng):
        U = random_fields(ops16.basis, rng, 2000, scale=2.0)
        assert np.all(ops16.stress_pairing(U, params) >= 0.0)

    def test_quadrature_residual_within_documented_envelope(self, params, rng):
        # grid refinement against a heavily oversampled reference; budgets
        # match the measured envelope stated in the module docstring
        b = build_basis(16, 2)
        coarse = SpectralOperators(b, oversample=4)
        ref = SpectralOperators(b, oversample=24)
        rough = random_fields(b, rng, 40, scale=0.3)
        smooth = random_fields(b, rng, 40) / b.ksq
        for U, budget in ((rough, 1e-3), (smooth, 3e-4)):
            drift = np.abs(
                coarse.nonlinear_stress(U, params) - ref.nonlinear_stress(U, params)
            ).max()
            assert drift < budget

    def test_quadrature_residual_decays_spectrally(self, params, rng):
        b = build_basis(16, 2)
        ref = SpectralOperators(b, oversample=24)
        U = random_fields(b, rng, 20)
        errs = []
        for ov in (4, 8):
            ops = SpectralOperators(b, oversample=ov)
            errs.append(
                np.abs(ops.nonlinear_stress(U, params) - ref.nonlinear_stress(U, params)).max()
            )
        assert errs[1] < errs[0] / 50.0

    def test_lipschitz_in_dual_norm(self, ops16, params):
        measured = measure_stress_lipschitz(ops16, params, np.random.default_rng(3))
        again = measure_stress_lipschitz(ops16, params, np.random.default_rng(3))
        other = measure_stress_lipschitz(ops16, params, np.random.default_rng(99))
        assert measured == again
        assert other == pytest.approx(measured, rel=0.25)
        ceiling = stress_lipschitz_reference(params, ops16.basis.lambda1)
        assert measured <= ceiling

    def test_dual_norm_definition(self, rng):
        b = build_basis(8, 2)
        f = SpectralField(b, rng.standard_normal(8))
        expected = np.sqrt(np.sum(f.coeffs**2 / b.eigenvalues))
        assert dual_norm(f) == pytest.approx(expected)
        # it is the operator norm against the energy-norm unit ball
        w = f.coeffs / b.eigenvalues
        w /= np.sqrt(np.sum(b.eigenvalues * w**2))
        assert np.dot(f.coeffs, w) == pytest.approx(dual_norm(f), rel=1e-12)


class TestStrainFrame:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_frame_is_orthonormal_and_trace_free(self, dim):
        frame = trace_free_frame(dim)
        assert frame.shape == (dim * (dim + 1) // 2 - 1, dim, dim)
        gram = np.einsum("kab,lab->kl", frame, frame)
        np.testing.assert_allclose(gram, np.eye(len(frame)), atol=1e-15)
        assert np.abs(np.trace(frame, axis1=1, axis2=2)).max() < 1e-15
        assert np.array_equal(frame, frame.transpose(0, 2, 1))

    @pytest.mark.parametrize("dim,m", [(2, 16), (3, 12)])
    def test_matches_full_tensor_quadrature(self, dim, m, params, rng):
        # the same stress grid, but every one of the d^2 strain components
        # taken from the (m, d, d, G) mode strains
        b = build_basis(m, dim)
        ops = SpectralOperators(b)
        pts, w = uniform_grid(dim, ops.stress_grid_size)
        strains = mode_strains(b, pts)
        U = rng.standard_normal((20, m))
        E = np.einsum("pm,mabg->pabg", U, strains)
        ssq = np.einsum("pabg,pabg->pg", E, E)
        gamma = (params.reg + ssq) ** ((params.p - 2.0) / 2.0)
        stress = w * np.einsum("pg,pabg,mabg->pm", gamma, E, strains)
        pairing = w * np.sum(gamma * ssq, axis=1)
        norm = np.sqrt(w * ssq.sum(axis=1))
        for got, want in (
            (ops.nonlinear_stress(U, params), stress),
            (ops.stress_pairing(U, params), pairing),
            (ops.strain_norm(U), norm),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_trace_guard_rejects_polarization_along_k(self):
        b = build_basis(8, 2)
        k = b.wavevectors.astype(float)
        bad = dataclasses.replace(b, polarizations=k / np.linalg.norm(k, axis=1)[:, None])
        with pytest.raises(ValueError, match="trace-free"):
            SpectralOperators(bad)

    @pytest.mark.parametrize("dim,m", [(2, 16), (3, 12)])
    def test_jacobians_match_central_differences(self, dim, m, params, rng):
        ops = SpectralOperators(build_basis(m, dim))
        h = 1e-5
        eye = np.eye(m)
        for u in 0.8 * rng.standard_normal((3, m)):
            plus = ops.nonlinear_stress(u + h * eye, params)
            minus = ops.nonlinear_stress(u - h * eye, params)
            fd = (plus - minus).T / (2.0 * h)  # [i, j] = d Ap_i / d u_j
            jac = stress_jacobians(ops, u, params)[0]
            np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_rows_do_not_depend_on_batch_layout(self, ops16, params, n, seed):
        U = 1.5 * np.random.default_rng(seed).standard_normal((n, 16))
        batch = ops16.nonlinear_stress(U, params)
        for i in range(n):
            row = ops16.nonlinear_stress(U[i : i + 1], params)[0]
            assert np.abs(batch[i] - row).max() <= 1e-13 * np.abs(row).max()

    def test_input_forms_agree(self, ops16, params):
        # a float batch is used as given; vectors, lists and integer arrays
        # are converted to one first, and a vector comes back as a vector
        U = np.random.default_rng(1).integers(-2, 3, (3, 16))
        F = U.astype(float)
        for fn in (lambda x: ops16.nonlinear_stress(x, params),
                   lambda x: ops16.convection(x, x)):
            want = fn(F)
            assert want.shape == (3, 16)
            assert np.array_equal(fn(U), want) and np.array_equal(fn(F.tolist()), want)
            row = fn(F[1])
            assert row.shape == (16,)
            assert np.abs(row - want[1]).max() <= 1e-13 * np.abs(want[1]).max()


class TestKorn:
    def test_two_sided_constants(self, rng):
        for dim, m in ((2, 16), (3, 24)):
            lo, hi = measure_korn_constants(SpectralOperators(build_basis(m, dim)), rng)
            assert lo == pytest.approx(2**-0.5, rel=1e-12)
            assert hi == pytest.approx(2**-0.5, rel=1e-12)
            assert lo <= hi

    def test_strain_norm_is_measured_on_the_grid(self, rng):
        # the quadrature sees the field itself: a coarser grid than 2*kmax+1
        # aliases |E(u)|^2 and misses the closed form
        b = build_basis(16, 2)
        c = rng.standard_normal((50, 16))
        closed = np.sqrt((b.ksq * c**2).sum(axis=1) / 2.0)
        assert np.allclose(SpectralOperators(b).strain_norm(c), closed, rtol=1e-13)
        coarse = SpectralOperators(b, oversample=1)
        assert np.abs(coarse.strain_norm(c) / closed - 1).max() > 1e-3


class TestSetupMemory:
    def test_level_256_builds_small_and_stays_skew(self, rng):
        b = build_basis(256, 2)
        tracemalloc.start()
        try:
            ops = SpectralOperators(b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        U = random_fields(b, rng, 32)
        pair = np.abs(np.sum(ops.convection(U, U) * U, axis=1))
        l2_sq = np.sum(U**2, axis=1)
        h2 = np.sqrt(np.sum(b.eigenvalues * U**2, axis=1))
        assert np.all(pair <= 1e-10 * (1.0 + l2_sq * h2))


class TestSetupTables:
    @pytest.mark.parametrize("level,dim", [(32, 2), (12, 3)])
    def test_one_phase_evaluation_per_grid(self, monkeypatch, level, dim):
        # the convection tables are the per-table builds, bit for bit, from
        # one phase evaluation on each of the two grids
        b = build_basis(level, dim)
        kmax = int(np.max(np.abs(b.wavevectors)))
        pts, _ = uniform_grid(dim, 3 * kmax + 1)
        vals, grads = mode_values(b, pts), mode_gradients(b, pts)
        real, calls = basis_module._phase_tables, []

        def counted(basis, points):
            calls.append(points.shape)
            return real(basis, points)

        monkeypatch.setattr(basis_module, "_phase_tables", counted)
        ops = SpectralOperators(b)
        assert len(calls) == 2 and calls[0] != calls[1]
        assert np.array_equal(ops._conv_vals, vals)
        assert np.array_equal(ops._conv_grads, grads)


class TestFiniteDifferenceOracles:
    """Cross-checks against derivatives taken by finite differences on a
    dense mesh, independent of the analytic mode-derivative tables."""

    def test_convection_form_against_fd_mesh(self, rng):
        from conftest import fd_derivative, field_on_mesh

        b = build_basis(8, 2)
        ops = SpectralOperators(b)
        n = 96
        w = (2 * np.pi / n) ** 2
        for _ in range(5):
            cu, cv, cw = rng.standard_normal((3, 8))
            u = field_on_mesh(b, cu, n)
            v = field_on_mesh(b, cv, n)
            wf = field_on_mesh(b, cw, n)
            dv = np.stack([np.stack([fd_derivative(v[a], j, n) for j in range(2)])
                           for a in range(2)])  # dv[a, j] = d v_a / d x_j
            oracle = w * float(np.einsum("ixy,aixy,axy->", u, dv, wf))
            got = ops.convection_form_grid(cu, cv, cw)
            assert got == pytest.approx(oracle, rel=2e-4, abs=1e-8)

    def test_nonlinear_stress_against_fd_mesh(self, rng):
        from conftest import fd_derivative, field_on_mesh

        b = build_basis(8, 2)
        ops = SpectralOperators(b)
        par = FluidParams(kappa0=1.0, kappa1=1.0, reg=0.6, p=1.4)
        n = 128
        w = (2 * np.pi / n) ** 2

        def strain_fd(c):
            u = field_on_mesh(b, c, n)
            grad = np.stack([np.stack([fd_derivative(u[a], j, n) for j in range(2)])
                             for a in range(2)])
            return 0.5 * (grad + grad.transpose(1, 0, 2, 3))

        cu = 0.7 * rng.standard_normal(8)
        eu = strain_fd(cu)
        gamma = (par.reg + np.einsum("abxy,abxy->xy", eu, eu)) ** ((par.p - 2) / 2)
        oracle = np.empty(8)
        for i in range(8):
            ei = strain_fd(np.eye(8)[i])
            oracle[i] = w * float(np.einsum("xy,abxy,abxy->", gamma, eu, ei))
        got = ops.nonlinear_stress(cu, par)
        assert np.allclose(got, oracle, rtol=5e-4, atol=1e-8)


class TestThreeDimensionalOperators:
    def test_convection_skew_and_consistency(self, rng):
        b = build_basis(12, 3)
        ops = SpectralOperators(b)
        for _ in range(25):
            u, v, w = (SpectralField(b, rng.standard_normal(12)) for _ in range(3))
            assert convection_form(ops, u, v, v) == pytest.approx(0.0, abs=1e-12)
            direct = convection_form(ops, u, v, w)
            via = float(np.dot(apply_convection(ops, u, v).coeffs, w.coeffs))
            assert via == pytest.approx(direct, rel=1e-11, abs=1e-13)

    def test_stress_monotone_and_positive(self, rng):
        b = build_basis(12, 3)
        ops = SpectralOperators(b)
        par = FluidParams(kappa0=0.5, kappa1=1.0, reg=0.8, p=1.5)
        U = rng.standard_normal((500, 12))
        V = rng.standard_normal((500, 12))
        diff = ops.nonlinear_stress(U, par) - ops.nonlinear_stress(V, par)
        assert np.einsum("pm,pm->p", diff, U - V).min() >= -1e-10
        assert ops.stress_pairing(U, par).min() >= 0.0
