import numpy as np
import pytest

from levyfluid import ergodics, solver
from levyfluid.basis import build_basis
from levyfluid.ergodics import (
    EnsembleSpec,
    RegimeError,
    additive_drive_rates,
    cauchy_study,
    chapman_kolmogorov,
    draw_initials,
    feller_modulus,
    invariant_moment_bound,
    invariant_moment_check,
    linear_second_moments,
    make_functional,
    mc_moment,
    no_increase_verdict,
    occupation_measure,
    semigroup_eval,
    stationary_second_moments,
    stochastic_gronwall_audit,
    uniqueness_contraction,
)
from levyfluid.noise import AdditiveNoise, LinearNoise, MarkSpace, ZeroNoise
from levyfluid.operators import FluidParams
from levyfluid.solver import FluidModel, SolverConfig, run_paths

MARKS = MarkSpace(np.array([1.0, 3.0]))
PARAMS = FluidParams(kappa0=0.5, kappa1=1.0, reg=1.0, p=1.5)


def additive_sigma(scale=1.0, span=4):
    h = np.zeros(span)
    h[:4] = scale * np.array([0.5, 0.3, 0.2, 0.1])
    return AdditiveNoise(MARKS, np.array([0.4, 0.2]), h)


def make_model(level=8, dt=2e-3, horizon=1.0, sigma=None, **kw):
    cfg = SolverConfig(params=PARAMS, level=level, dt=dt, horizon=horizon, **kw)
    return FluidModel(cfg, sigma if sigma is not None else additive_sigma(), MARKS)


class TestEnsembleSpec:
    def test_needs_paths(self):
        with pytest.raises(ValueError):
            EnsembleSpec(0, 1)

    def test_gaussian_initials_reproducible_and_distinct(self):
        b = build_basis(8, 2)
        spec = EnsembleSpec(4, 7, ("gaussian", 0.5))
        a = draw_initials(spec, b)
        c = draw_initials(spec, b)
        assert np.array_equal(a, c)
        assert not np.allclose(a[0], a[1])

    def test_fixed_initials_truncate(self):
        spec = EnsembleSpec(2, 0, ("fixed", np.arange(1.0, 13.0)))
        out = draw_initials(spec, build_basis(8, 2))
        assert np.array_equal(out[0], np.arange(1.0, 9.0))


class TestLinearOracles:
    def test_stationary_limit_of_recurrence(self):
        lam = np.array([0.5, 2.0])
        drive = np.array([0.3, 0.1])
        dt = 1e-3
        series = linear_second_moments(lam, 1.0, dt, 60_000, drive, np.zeros(2))
        target = stationary_second_moments(lam, 1.0, dt, drive)
        assert np.allclose(series[-1], target, rtol=1e-6)
        # continuous-time limit s / (2 kappa1 lam)
        assert np.allclose(target, drive / (2 * lam), rtol=2e-3)

    def test_mc_matches_lyapunov_recurrence_3sigma(self):
        sigma = additive_sigma()
        model = make_model(dt=2e-3, horizon=2.0, convection=False, stress=False)
        spec = EnsembleSpec(256, 11, ("fixed", np.zeros(8)))
        res = run_paths(model, draw_initials(spec, model.basis), spec.seed)
        drive = additive_drive_rates(sigma, MARKS, 8)
        series = linear_second_moments(
            model.basis.eigenvalues, PARAMS.kappa1, model.dt, model.n_steps,
            drive, np.zeros(8),
        )
        vals = res.series["l2_sq"][-1]
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - series[-1].sum()) <= 3.0 * se

    def test_drive_rates_require_additive(self):
        with pytest.raises(ValueError):
            additive_drive_rates(ZeroNoise(MARKS), MARKS, 4)


class TestMoments:
    def test_zero_system_gives_zero(self):
        model = make_model(sigma=ZeroNoise(MARKS), horizon=0.25)
        spec = EnsembleSpec(8, 3, ("fixed", np.zeros(8)))
        est = mc_moment(model, spec, 1)
        assert est["sup_moment"] == 0.0
        assert est["diss_moment"] == 0.0
        assert est["n_blown"] == 0

    def test_r_validation(self):
        model = make_model(horizon=0.25)
        with pytest.raises(ValueError):
            mc_moment(model, EnsembleSpec(2, 0), 3)

    def test_trend_verdict(self):
        ok, diag = no_increase_verdict([1.0, 0.9, 0.85], [0.05, 0.05, 0.05])
        assert ok and diag["slope_z"] < 0
        bad, diag = no_increase_verdict([1.0, 2.0, 3.0], [0.01, 0.01, 0.01])
        assert not bad and diag["slope_z"] > 1.645


class TestCauchy:
    def test_levels_must_increase(self):
        spec = EnsembleSpec(2, 0)
        with pytest.raises(ValueError):
            cauchy_study(lambda m: make_model(level=m, horizon=0.25), [8, 4], spec)

    def test_equal_level_gap_is_zero(self):
        # degenerate two-level study where the tail is empty
        sigma = ZeroNoise(MARKS)
        spec = EnsembleSpec(2, 1, ("fixed", np.ones(8)))
        out = cauchy_study(
            lambda m: make_model(level=m, horizon=0.25, sigma=sigma,
                                 convection=False, stress=False),
            [4, 8, 16],
            spec,
        )
        # modes 8..15 start at zero and stay zero: second gap vanishes
        assert out["rows"][1]["terminal_gap_sq"] == pytest.approx(0.0, abs=1e-25)

    def test_linear_tail_energy_closed_form(self):
        sigma = ZeroNoise(MARKS)
        xi = np.concatenate([np.linspace(1.0, 0.2, 8), 0.1 * np.ones(8)])
        spec = EnsembleSpec(2, 1, ("fixed", xi))
        out = cauchy_study(
            lambda m: make_model(level=m, dt=1e-3, horizon=0.25, sigma=sigma,
                                 convection=False, stress=False),
            [4, 8, 16],
            spec,
        )
        top = make_model(level=16, dt=1e-3, horizon=0.25, sigma=sigma,
                         convection=False, stress=False)
        decay = (1.0 + top.dt * PARAMS.kappa1 * top.basis.eigenvalues) ** (-top.n_steps)
        terminal = xi * decay
        for i, (lo, hi) in enumerate([(4, 8), (8, 16)]):
            expected = float(np.sum(terminal[lo:hi] ** 2))
            assert out["rows"][i]["terminal_gap_sq"] == pytest.approx(expected, rel=1e-3)


class TestContraction:
    def test_identical_initials_zero_statistic(self):
        model = make_model(horizon=0.25)
        spec = EnsembleSpec(4, 5)
        xi = np.zeros(8)
        out = uniqueness_contraction(model, spec, xi, xi, conv_bound=0.2)
        assert np.all(out["statistic"] == 0.0)

    def test_linear_closed_form_decay(self):
        # no noise, no nonlinearity, base path at rest: the weight is 1 and
        # the statistic is the exact squared geometric decay of mode 1
        model = make_model(sigma=ZeroNoise(MARKS), dt=1e-3, horizon=0.25,
                           convection=False, stress=False)
        spec = EnsembleSpec(2, 5)
        xi1 = np.zeros(8)
        xi2 = np.zeros(8)
        xi2[0] = 0.05
        out = uniqueness_contraction(model, spec, xi1, xi2, conv_bound=0.3)
        lam = model.basis.eigenvalues[0]
        for t, s in zip(out["times"][1:], out["statistic"][1:]):
            n = round(t / model.dt)
            expected = (1.0 + model.dt * PARAMS.kappa1 * lam) ** (-2 * n)
            assert s == pytest.approx(expected, rel=1e-10)

    def test_scale_invariance_within_two_stderr(self):
        model = make_model(sigma=LinearNoise(MARKS, np.array([0.25, 0.1])), horizon=0.5)
        spec = EnsembleSpec(128, 9)
        xi = np.zeros(8)
        d = np.zeros(8)
        d[0] = 1.0
        outs = [
            uniqueness_contraction(model, spec, xi, xi + s * d, conv_bound=0.2)
            for s in (0.1, 0.01)
        ]
        a, b = (o["statistic"][-1] for o in outs)
        ea, eb = (o["stderr"][-1] for o in outs)
        assert abs(a - b) <= 2.0 * (ea + eb)


class TestSemigroup:
    def test_constant_functional_is_one(self):
        model = make_model(horizon=0.25)
        phi = make_functional("one", model.basis)
        val, se = semigroup_eval(model, phi, np.zeros(8), 0.25, 16, seed=3)
        assert val == 1.0 and se == 0.0

    def test_time_zero_evaluates_pointwise(self):
        model = make_model(horizon=0.25)
        xi = np.zeros(8)
        xi[0] = 0.3
        phi = make_functional("gauss_bump", model.basis)
        val, se = semigroup_eval(model, phi, xi, 0.0, 16, seed=3)
        assert val == pytest.approx(np.exp(-0.09))
        assert se == 0.0

    def test_unregistered_functional_rejected(self):
        with pytest.raises(KeyError):
            make_functional("unbounded_energy", build_basis(4, 2))

    def test_chapman_kolmogorov_agreement(self):
        def factory(horizon):
            return make_model(dt=2.5e-3, horizon=horizon)

        phi = make_functional("inv_bump", build_basis(8, 2))
        out = chapman_kolmogorov(factory, phi, np.zeros(8), 0.25, 0.25,
                                 n_outer=32, n_inner=16, seed=5)
        assert out["z"] <= 4.0, out

    def test_feller_modulus_decreases(self):
        model = make_model(dt=2.5e-3, horizon=0.25)
        phi = make_functional("gauss_bump", model.basis)
        d = np.zeros(8)
        d[-1] = 1.0
        out = feller_modulus(model, phi, np.zeros(8), d, [0.4, 0.2, 0.1], 64, seed=6)
        assert out["monotone"], out["rows"]
        assert out["rows"][-1]["modulus"] < out["rows"][0]["modulus"] + 1e-9

    def test_feller_modulus_draws_jumps_once(self, monkeypatch):
        # every delta reuses the base run's jumps: one draw per path, and the
        # rows of a fresh draw per delta, bit for bit
        model = make_model(dt=2.5e-3, horizon=0.25)
        phi = make_functional("gauss_bump", model.basis)
        d = np.zeros(8)
        d[-1] = 1.0
        args = (model, phi, np.zeros(8), d, [0.4, 0.2, 0.1], 24)
        real_sample, real_run = solver.sample_jumps, ergodics.run_paths
        calls = []

        def counted(*a):
            calls.append(a)
            return real_sample(*a)

        monkeypatch.setattr(solver, "sample_jumps", counted)
        out = feller_modulus(*args, seed=6)
        assert len(calls) == 24

        def redraw(*a, jumps=None, **kw):
            return real_run(*a, **kw)

        monkeypatch.setattr(ergodics, "run_paths", redraw)
        calls.clear()
        assert feller_modulus(*args, seed=6) == out
        assert len(calls) == 24 * 4


class TestOccupation:
    def test_unforced_average_decays_to_zero(self):
        model = make_model(sigma=ZeroNoise(MARKS), dt=5e-3, horizon=20.0)
        spec = EnsembleSpec(2, 3, ("fixed", 0.5 * np.ones(8)))
        occ = occupation_measure(model, ("sq_norm",), [14.0, 17.0, 20.0], 10.0, spec)
        rows = occ["sq_norm"]["rows"]
        assert rows[-1]["average"] < 1e-6
        assert occ["sq_norm"]["stabilized"]

    def test_linear_additive_matches_stationary_oracle(self):
        sigma = additive_sigma()
        model = make_model(dt=5e-3, horizon=60.0, sigma=sigma,
                           convection=False, stress=False)
        spec = EnsembleSpec(6, 4, ("fixed", np.zeros(8)))
        occ = occupation_measure(model, ("sq_norm",), [30.0, 45.0, 60.0], 10.0, spec)
        row = occ["sq_norm"]["rows"][-1]
        target = stationary_second_moments(
            model.basis.eigenvalues, PARAMS.kappa1, model.dt,
            additive_drive_rates(sigma, MARKS, 8),
        ).sum()
        assert abs(row["average"] - target) <= 3.0 * row["se"] + 0.05 * target


class TestInvariantBound:
    def test_formula_value(self):
        # l0/(2 k1 lam1^2 - l1) * ((l1+1)/(2 k1) + 1) + l0/(2 k1)
        val = invariant_moment_bound(1.0, 0.5, l0=0.07, l1=0.0)
        assert val == pytest.approx(0.07 / 0.5 * (0.5 + 1.0) + 0.035)

    def test_linearized_stationary_moments_below_bound(self):
        # bound direction: the exact stationary second moments of the
        # additive linear dynamics stay below the closed-form ceiling
        # computed from the same declared constants
        rng = np.random.default_rng(7)
        b = build_basis(12, 2)
        for _ in range(25):
            kappa1 = float(rng.uniform(0.2, 3.0))
            dt = float(rng.uniform(1e-4, 5e-3))
            sigma = AdditiveNoise(
                MARKS, rng.uniform(0.05, 0.5, 2), rng.uniform(-1, 1, 12)
            )
            drive = additive_drive_rates(sigma, MARKS, 12)
            stat = stationary_second_moments(b.eigenvalues, kappa1, dt, drive)
            measured = float(np.sum(stat) + np.sum(b.eigenvalues * stat))
            ceiling = invariant_moment_bound(
                kappa1, b.lambda1, sigma.bounds.growth_const, 0.0
            )
            assert measured <= ceiling

    def test_regime_refusal_is_structured(self):
        with pytest.raises(RegimeError) as err:
            invariant_moment_bound(1.0, 0.5, l0=1.0, l1=2.0)
        assert err.value.report["lhs"] == pytest.approx(0.5)

    def test_check_passes_in_regime(self):
        model = make_model(dt=5e-3, horizon=40.0)
        spec = EnsembleSpec(4, 8, ("fixed", np.zeros(8)))
        out = invariant_moment_check(model, spec, [20.0, 30.0, 40.0], 10.0)
        assert out["passed"]
        assert out["measured"] <= out["bound"] * 1.2

    def test_check_refuses_outside_regime(self):
        sigma = LinearNoise(MARKS, np.array([1.5, 1.5]))  # l1 = 9 > 2 k1 lam1^2
        model = make_model(dt=5e-3, horizon=1.0, sigma=sigma)
        spec = EnsembleSpec(2, 8)
        with pytest.raises(RegimeError):
            invariant_moment_check(model, spec, [0.5, 1.0], 0.25)


class TestGronwallAudit:
    def test_requires_audit_tracking(self):
        model = make_model(horizon=0.25)
        res = run_paths(model, np.zeros((2, 8)), seed=0)
        with pytest.raises(ValueError):
            stochastic_gronwall_audit(res, 2.0 * PARAMS.kappa1)

    def test_zero_processes_trivially_pass(self):
        model = make_model(sigma=ZeroNoise(MARKS), horizon=0.25)
        res = run_paths(model, np.zeros((2, 8)), seed=0, track_audit=True)
        out = stochastic_gronwall_audit(res, 2.0 * PARAMS.kappa1)
        assert out["applicable"] and out["passed"]

    def test_deterministic_decay_bounded_by_twice_initial(self):
        # phi = 0, I = 0: the conclusion degenerates to E[X] <= 2 E[Z]
        model = make_model(sigma=ZeroNoise(MARKS), horizon=0.25)
        X0 = np.tile(np.linspace(0.1, 0.4, 4)[:, None], (1, 8))
        res = run_paths(model, X0, seed=0, track_audit=True)
        out = stochastic_gronwall_audit(res, 2.0 * PARAMS.kappa1)
        assert out["applicable"] and out["passed"]
        assert out["extra"] == 0.0
        assert np.all(out["lhs"] <= out["bound"])

    def test_full_model_passes_with_margin(self):
        model = make_model(horizon=1.0)
        spec = EnsembleSpec(128, 2, ("gaussian", 0.4))
        res = run_paths(model, draw_initials(spec, model.basis), spec.seed,
                        track_audit=True)
        out = stochastic_gronwall_audit(res, 2.0 * PARAMS.kappa1)
        assert out["applicable"], out["hypotheses"]
        assert out["passed"] and out["margin_min"] > 0.0
