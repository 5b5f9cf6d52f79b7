import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfluid.basis import build_basis, mode_values, uniform_grid
from levyfluid.noise import AdditiveNoise, MarkSpace, ZeroNoise
from levyfluid.operators import FluidParams, SpectralOperators
from levyfluid.ergodics import make_functional
from levyfluid.solver import FluidModel, SolverConfig, run_levels, run_paths

from conftest import quadrature_forms

MARKS = MarkSpace(np.array([1.0]))


def shaped(coeffs, m):
    """`coeffs` truncated or zero-padded to level m, the way additive noise
    fits its shape field to a model's level."""
    return AdditiveNoise(MARKS, 1.0, coeffs).shaped(m)


def norms(basis, coeffs):
    """(|u|, ||u||_1, ||u||_2) of coefficient vectors (P, m): the two norms the
    runners integrate, and the gradient norm from the closed form."""
    c = np.atleast_2d(coeffs)
    return (
        np.sqrt(make_functional("sq_norm", basis)(c)),
        np.sqrt(np.sum(basis.ksq * c**2, axis=1)),
        np.sqrt(make_functional("energy_norm_sq", basis)(c)),
    )


class TestConstruction:
    def test_rejects_bad_dimension(self):
        for d in (0, 1, 4):
            with pytest.raises(ValueError):
                build_basis(4, d)

    def test_rejects_empty_basis(self):
        with pytest.raises(ValueError):
            build_basis(0, 2)

    def test_single_mode_is_first_shell(self):
        b = build_basis(1, 2)
        assert int(b.ksq[0]) == 1
        # frozen closed form |k|^4 / 2, certified against the grid oracle below
        assert b.eigenvalues[0] == pytest.approx(0.5, abs=0)

    def test_level_eight_fills_two_shells(self):
        b = build_basis(8, 2)
        assert list(b.ksq[:4]) == [1, 1, 1, 1]
        assert list(b.ksq[4:]) == [2, 2, 2, 2]

    def test_polarizations_orthogonal_to_wavevectors_exactly(self):
        for d in (2, 3):
            b = build_basis(24, d)
            dots = np.einsum("md,md->m", b.wavevectors.astype(float), b.polarizations)
            assert np.all(dots == 0.0)
            assert np.allclose(np.linalg.norm(b.polarizations, axis=1), 1.0, atol=1e-15)

    def test_nesting_up_to_64(self):
        for d in (2, 3):
            big = build_basis(64, d)
            for m in (1, 2, 3, 5, 8, 13, 21, 34, 55, 63):
                small = build_basis(m, d)
                assert np.array_equal(small.wavevectors, big.wavevectors[:m])
                assert np.array_equal(small.phases, big.phases[:m])
                assert np.array_equal(small.pol_indices, big.pol_indices[:m])
                assert np.array_equal(small.eigenvalues, big.eigenvalues[:m])

    def test_eigenvalues_positive_nondecreasing(self):
        b = build_basis(64, 2)
        assert np.all(b.eigenvalues > 0)
        assert np.all(np.diff(b.eigenvalues) >= 0)


class TestQuadratureOracle:
    """Closed-form per-mode values against dense-grid finite differences."""

    @pytest.mark.parametrize("dim,n,m", [(2, 128, 8), (3, 48, 12)])
    def test_eigenvalues_match_grid_oracle(self, dim, n, m):
        b = build_basis(m, dim)
        for i in range(m):
            c = np.zeros(m)
            c[i] = 1.0
            forms = quadrature_forms(b, c, n)
            assert forms["l2_sq"] == pytest.approx(1.0, rel=1e-9)
            assert forms["a_form"] == pytest.approx(b.eigenvalues[i], rel=2e-3)
            assert forms["grad_sq"] == pytest.approx(float(b.ksq[i]), rel=2e-3)
            assert forms["strain_sq"] == pytest.approx(float(b.ksq[i]) / 2.0, rel=2e-3)

    @pytest.mark.parametrize("dim,n,m", [(2, 32, 20), (3, 16, 16)])
    def test_gram_matrix_is_identity(self, dim, n, m):
        b = build_basis(m, dim)
        pts, w = uniform_grid(dim, n)
        vals = mode_values(b, pts)
        gram = w * np.einsum("iag,jag->ij", vals, vals)
        assert np.abs(gram - np.eye(m)).max() < 1e-12

    def test_parseval_against_quadrature(self, rng):
        b = build_basis(16, 2)
        pts, w = uniform_grid(2, 32)
        vals = mode_values(b, pts)
        for _ in range(5):
            c = rng.standard_normal(16)
            grid_l2_sq = w * np.sum(np.einsum("m,mag->ag", c, vals) ** 2)
            assert abs(grid_l2_sq - np.linalg.norm(c) ** 2) <= 1e-10 * grid_l2_sq

    def test_divergence_free_on_grid(self, rng):
        # oracle: finite-difference divergence of a random synthesized field
        from conftest import fd_derivative, field_on_mesh

        b = build_basis(12, 2)
        u = field_on_mesh(b, rng.standard_normal(12), 96)
        div = fd_derivative(u[0], 0, 96) + fd_derivative(u[1], 1, 96)
        assert np.abs(div).max() < 1e-4 * max(1.0, np.abs(u).max())


class TestProjection:
    """Levels nest, so truncating the coefficients is the L2-orthogonal
    projection onto a smaller level and zero-padding is the prolongation."""

    def test_identity_on_own_level(self, rng):
        c = rng.standard_normal(8)
        assert np.array_equal(shaped(c, 8), c)

    def test_contraction_and_orthogonality(self, rng):
        # (u - Pu, Pu) = 0 for the synthesized fields, integrated on a grid
        # fine enough for every product of two level-24 modes
        b = build_basis(24, 2)
        pts, w = uniform_grid(2, 32)
        vals = mode_values(b, pts)
        for _ in range(20):
            c = rng.standard_normal(24)
            g = shaped(c, 7)
            assert np.linalg.norm(g) <= np.linalg.norm(c) + 1e-15
            u = np.einsum("m,mag->ag", c, vals)
            pu = np.einsum("m,mag->ag", shaped(g, 24), vals)
            assert abs(w * np.sum((u - pu) * pu)) < 1e-12 * w * np.sum(u**2)

    def test_rejects_enlargement(self, rng):
        # a state is never reinterpreted at another level
        cfg = SolverConfig(params=FluidParams(), level=8, dt=1e-2, horizon=0.1)
        model = FluidModel(cfg, ZeroNoise(MARKS))
        with pytest.raises(ValueError):
            run_paths(model, rng.standard_normal((2, 4)), 0)

    @given(m_small=st.integers(1, 16), extra=st.integers(0, 16))
    @settings(max_examples=30, deadline=None)
    def test_project_then_extend_idempotent(self, m_small, extra):
        m_big = m_small + extra
        rng = np.random.default_rng(m_small * 100 + extra)
        c = rng.standard_normal(m_big)
        back = shaped(shaped(c, m_small), m_big)
        assert np.array_equal(back[:m_small], c[:m_small])
        assert np.all(back[m_small:] == 0.0)

    def test_difference_aligns_levels(self):
        # run_levels compares a level-4 and a level-6 field by zero-padding;
        # without drift or noise each mode only decays, at the same rate on
        # both levels, so the gap is the level-6 field's last two modes
        models = [FluidModel(SolverConfig(params=FluidParams(), level=m, dt=1e-2, horizon=0.1,
                                          convection=False, stress=False),
                             ZeroNoise(MARKS)) for m in (4, 6)]
        res = run_levels(models, np.ones((1, 6)), 0)
        lo, hi = res["terminals"]
        assert np.array_equal(hi[:, :4], lo)
        assert np.allclose(res["terminal_gap_sq"][0], np.sum(hi[:, 4:] ** 2, axis=1))


class TestNorms:
    def test_zero_field(self):
        b = build_basis(8, 2)
        l2, h1, h2 = norms(b, np.zeros(8))
        assert (l2[0], h1[0], h2[0]) == (0.0, 0.0, 0.0)
        assert SpectralOperators(b).strain_norm(np.zeros(8)) == 0.0

    def test_single_mode_closed_forms(self, rng):
        b = build_basis(8, 2)
        for i in (0, 5):
            amp = float(rng.uniform(0.5, 2.0))
            c = np.zeros(8)
            c[i] = amp
            l2, h1, h2 = norms(b, c)
            assert l2[0] == pytest.approx(amp)
            assert h2[0] ** 2 == pytest.approx(b.eigenvalues[i] * amp**2)
            # the oracle for the mode eigenvalue itself runs in
            # TestQuadratureOracle; here the amplitude scaling is checked
            assert h1[0] ** 2 == pytest.approx(float(b.ksq[i]) * amp**2)

    def test_poincare_chain_on_random_fields(self, rng):
        b = build_basis(32, 2)
        lam1 = b.lambda1
        l2, h1, h2 = norms(b, rng.standard_normal((200, 32)))
        assert np.all(h1**2 <= h2**2 / lam1 * (1 + 1e-12))
        assert np.all(l2**2 <= h1**2 / lam1 * (1 + 1e-12))

    def test_strain_norm_is_h1_over_sqrt2(self, rng):
        b = build_basis(16, 2)
        c = rng.standard_normal(16)
        _, h1, _ = norms(b, c)
        assert SpectralOperators(b).strain_norm(c) == pytest.approx(h1[0] / np.sqrt(2.0))


class TestPoincareConstant:
    def test_value_and_monotonicity(self):
        # frozen: min |k|^2 / 2 over the first shell
        assert build_basis(1, 2).lambda1 == pytest.approx(0.5)
        prev = np.inf
        for m in (1, 4, 8, 16, 32, 64):
            lam1 = build_basis(m, 2).lambda1
            assert lam1 <= prev + 1e-15
            prev = lam1

    def test_per_mode_ratio_definition(self):
        b = build_basis(32, 2)
        ratios = b.eigenvalues / b.ksq
        assert b.lambda1 == pytest.approx(ratios.min())
        assert np.all(ratios >= b.lambda1 - 1e-15)


class TestTaylorInequality:
    """First-order remainder of |x+h|^{2r} against |x|^{2(r-1)}|h|^2 + |h|^{2r}.

    r=1: the remainder is |h|^2 exactly, so constant 1 is sharp.
    r=2: writing a=|x|^2, c=|h|^2, b=(x,h), the remainder is
    |4b^2 + c^2 + 2ac + 4bc|, maximized at b = sqrt(ac); the ratio to
    ac + c^2 peaks at sqrt(c/a) = (sqrt(41)-5)/4 with sharp constant
    (sqrt(41)+3)/(sqrt(41)-5) ~= 6.7016.  In particular no constant
    below 6 can work: x=(1,0,...), h=(eps,0,...) gives remainder
    6 eps^2 + O(eps^3) against eps^2 + O(eps^4).
    """

    SHARP = {1: 1.0, 2: (np.sqrt(41.0) + 3.0) / (np.sqrt(41.0) - 5.0)}

    @pytest.mark.parametrize("r", [1, 2])
    def test_random_pairs(self, r, rng):
        m = 8
        x = rng.standard_normal((10_000, m)) * rng.uniform(0.1, 3.0, (10_000, 1))
        h = rng.standard_normal((10_000, m)) * rng.uniform(0.01, 3.0, (10_000, 1))
        # include aligned pairs, which attain the worst case
        h[:2_000] = x[:2_000] * rng.uniform(0.05, 0.5, (2_000, 1))
        xsq = np.sum(x**2, axis=1)
        hsq = np.sum(h**2, axis=1)
        xh = np.sum(x * h, axis=1)
        lhs = np.abs(
            np.sum((x + h) ** 2, axis=1) ** r
            - xsq**r
            - 2 * r * xsq ** (r - 1) * xh
        )
        rhs = xsq ** (r - 1) * hsq + hsq**r
        assert np.all(lhs <= self.SHARP[r] * rhs * (1 + 1e-9) + 1e-12)

    def test_small_ratio_constants_fail_for_r2(self):
        x = np.array([1.0, 0.0])
        h = np.array([1e-3, 0.0])
        lhs = abs(np.sum((x + h) ** 2) ** 2 - 1.0 - 4.0 * h[0])
        rhs = np.sum(h**2) + np.sum(h**2) ** 2
        assert lhs > 5.99 * rhs  # any claimed constant below 6 is untenable


class TestExport:
    def test_json_table_roundtrip(self):
        import json

        b = build_basis(8, 2)
        doc = json.loads(b.to_json())
        assert doc["size"] == 8
        assert doc["lambda1"] == pytest.approx(0.5)
        assert doc["fingerprint"] == b.fingerprint()
        assert len(doc["modes"]) == 8
        assert doc["modes"][0]["phase"] == "cos"

    def test_fingerprint_distinguishes_layouts(self):
        assert build_basis(8, 2).fingerprint() != build_basis(9, 2).fingerprint()
        assert build_basis(8, 2).fingerprint() != build_basis(8, 3).fingerprint()
        assert build_basis(8, 2).fingerprint() == build_basis(8, 2).fingerprint()
