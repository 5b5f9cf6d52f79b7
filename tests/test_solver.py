import numpy as np
import pytest

from levyfluid.basis import build_basis
from levyfluid.noise import (
    STREAM_JUMPS,
    AdditiveNoise,
    MarkSpace,
    ZeroNoise,
    derive_rng,
    sample_jumps,
)
from levyfluid.operators import FluidParams
from levyfluid.solver import (
    BlowUpError,
    FluidModel,
    SolverConfig,
    _draw_jumps,
    default_dt,
    energy_audit,
    integrate,
    run_levels,
    run_pairs,
    run_paths,
)

MARKS = MarkSpace(np.array([1.0, 3.0]))
PARAMS = FluidParams(kappa0=0.5, kappa1=1.0, reg=1.0, p=1.5)


def additive_sigma(level=8, scale=1.0):
    h = np.zeros(level)
    h[: min(4, level)] = scale * np.array([0.5, 0.3, 0.2, 0.1])[: min(4, level)]
    return AdditiveNoise(MARKS, np.array([0.4, 0.2]), h)


def make_model(level=8, dt=1e-3, horizon=1.0, sigma=None, **kw):
    cfg = SolverConfig(params=PARAMS, level=level, dt=dt, horizon=horizon, **kw)
    return FluidModel(cfg, sigma if sigma is not None else additive_sigma(level), MARKS)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(params=PARAMS, scheme="leapfrog")
        with pytest.raises(ValueError):
            SolverConfig(params=PARAMS, jump_mode="thinning")
        with pytest.raises(ValueError):
            SolverConfig(params=PARAMS, level=0)
        with pytest.raises(ValueError):
            SolverConfig(params=PARAMS, dt=-1e-3)

    def test_default_dt_formula(self):
        b = build_basis(8, 2)
        assert default_dt(b, 1.0) == pytest.approx(min(1e-3, 0.1 / b.eigenvalues[-1]))
        b64 = build_basis(64, 2)
        assert default_dt(b64, 2.0) == pytest.approx(0.1 / (2.0 * b64.eigenvalues[-1]))

    def test_horizon_must_be_step_multiple(self):
        cfg = SolverConfig(params=PARAMS, level=4, dt=0.3, horizon=1.0)
        with pytest.raises(ValueError):
            FluidModel(cfg, ZeroNoise(MARKS), MARKS)


class TestStep:
    def test_zero_equilibrium(self):
        model = make_model(sigma=ZeroNoise(MARKS), dt=1e-2, horizon=0.5)
        traj = integrate(model, np.zeros(8), seed=0)
        assert np.all(traj.states == 0.0)
        assert np.all(traj.ledger["l2_post_sq"] == 0.0)

    def test_single_mode_geometric_decay(self):
        # linear part only: exact per-step division by 1 + dt*kappa1*lam
        model = make_model(sigma=ZeroNoise(MARKS), dt=1e-2, horizon=0.5,
                           convection=False, stress=False)
        amp = 0.8
        u0 = np.zeros(8)
        u0[0] = amp
        traj = integrate(model, u0, seed=0)
        lam = model.basis.eigenvalues[0]
        expected = amp / (1.0 + model.dt * PARAMS.kappa1 * lam) ** model.n_steps
        assert traj.terminal()[0] == pytest.approx(expected, rel=1e-13)
        assert np.abs(traj.terminal()[1:]).max() == 0.0

    def test_unconditional_linear_stability(self):
        # implicit treatment contracts the L2 norm for any dt
        for dt in (1e-3, 0.1, 10.0):
            model = make_model(sigma=ZeroNoise(MARKS), dt=dt, horizon=10 * dt,
                               convection=False, stress=False)
            rng = np.random.default_rng(0)
            u = rng.standard_normal((1, 8))
            norms = [float(np.sum(u**2))]
            for n in range(model.n_steps):
                u = model.advance(u, dt, np.zeros_like(u), None, None)
                norms.append(float(np.sum(u**2)))
            assert all(b <= a for a, b in zip(norms, norms[1:]))

    def test_full_drift_dissipates_without_noise(self):
        model = make_model(sigma=ZeroNoise(MARKS), dt=1e-3, horizon=0.2)
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal(8) * 0.5
        traj = integrate(model, u0, seed=0)
        led = traj.ledger
        # discrete energy inequality: the post-step energy plus dissipation
        # stays below the pre-step energy up to the explicit-term residual
        gain = led["l2_post_sq"] + led["diss"] - led["l2_pre_sq"]
        resid = np.abs(led["conv_work"]) + np.abs(led["ap_work"])
        assert np.all(gain <= resid + 1e-12)
        assert led["l2_post_sq"][-1] < led["l2_pre_sq"][0]


class TestTrajectory:
    def test_zero_horizon(self):
        cfg = SolverConfig(params=PARAMS, level=8, dt=1e-2, horizon=0.0)
        model = FluidModel(cfg, ZeroNoise(MARKS), MARKS)
        traj = integrate(model, np.ones(8), seed=0)
        assert traj.times.tolist() == [0.0]
        assert np.array_equal(traj.states[0], np.ones(8))

    def test_ledger_replay_reconstructs_energy(self):
        model = make_model(dt=1e-3, horizon=1.0)
        xi = np.zeros(8)
        xi[0] = 1.0
        traj = integrate(model, xi, seed=7)
        led = traj.ledger
        replay = led["l2_pre_sq"][0] + np.sum(
            -led["backward"] - led["diss"] - led["ap_work"] - led["conv_work"]
            + led["mart_work"]
        )
        assert replay == pytest.approx(led["l2_post_sq"][-1], abs=1e-10)
        assert np.abs(led.replay_residual()).max() < 1e-12 * (1 + led["l2_post_sq"].max())

    def test_skew_symmetry_inside_loop(self):
        model = make_model(dt=2e-3, horizon=0.5)
        rng = np.random.default_rng(3)
        traj = integrate(model, 0.5 * rng.standard_normal(8), seed=5)
        led = traj.ledger
        scale = 1e-10 * (1.0 + led["l2_pre_sq"] * np.sqrt(led["h2_post_sq"]))
        assert np.all(np.abs(led["conv_skew"]) <= scale)

    def test_stress_pairing_nonnegative_every_step(self):
        model = make_model(dt=2e-3, horizon=0.5)
        rng = np.random.default_rng(4)
        traj = integrate(model, 0.5 * rng.standard_normal(8), seed=6)
        led = traj.ledger
        assert np.all(led["ap_pair"] >= -1e-8 * (1.0 + led["l2_pre_sq"]))

    def test_jump_adapted_includes_jump_times(self):
        model = make_model(dt=1e-2, horizon=1.0, jump_mode="adapted")
        traj = integrate(model, np.zeros(8), seed=9)
        assert traj.jump_times.size > 0
        for t in traj.jump_times:
            assert np.min(np.abs(traj.times - t)) < 1e-12

    def test_energy_audit_passes(self):
        model = make_model(dt=1e-3, horizon=1.0)
        traj = integrate(model, np.zeros(8), seed=11)
        report = energy_audit(traj, PARAMS)
        assert report["passed"], report
        assert report["slack_min"] > -1e-6

    def test_energy_audit_requires_ledger_and_scheme(self):
        model = make_model(dt=1e-2, horizon=0.1)
        traj = integrate(model, np.zeros(8), seed=0, with_ledger=False)
        with pytest.raises(ValueError):
            energy_audit(traj, PARAMS)


class TestBlowUpPolicy:
    def test_explicit_overstep_aborts_with_report(self):
        # explicit scheme far beyond its stability limit
        par = FluidParams(kappa0=0.5, kappa1=50.0, reg=1.0, p=1.5)
        cfg = SolverConfig(params=par, level=8, dt=0.25, horizon=5.0,
                           scheme="explicit", convection=False, stress=False)
        model = FluidModel(cfg, ZeroNoise(MARKS), MARKS)
        u0 = np.ones(8)
        with pytest.raises(BlowUpError) as err:
            integrate(model, u0, seed=0)
        rep = err.value.report
        assert set(rep) >= {"step", "t", "l2", "level"}

    def test_ensemble_counts_blowups_instead_of_raising(self):
        par = FluidParams(kappa0=0.5, kappa1=50.0, reg=1.0, p=1.5)
        cfg = SolverConfig(params=par, level=8, dt=0.25, horizon=5.0,
                           scheme="explicit", convection=False, stress=False)
        model = FluidModel(cfg, ZeroNoise(MARKS), MARKS)
        res = run_paths(model, np.ones((3, 8)), seed=0)
        assert res.blown.all()
        assert np.all(res.blow_steps >= 0)
        assert np.all(np.isfinite(res.terminal))


class TestSchemes:
    def test_grid_vs_adapted_selfrefinement_order(self):
        # same jump realization at every step size; the gap between the
        # grid-aligned and jump-adapted runs vanishes at order >= 0.5
        sigma = additive_sigma()
        errs, dts = [], [8e-3, 4e-3, 2e-3]
        for dt in dts:
            grid = make_model(dt=dt, horizon=1.0, sigma=sigma)
            adapted = make_model(dt=dt, horizon=1.0, sigma=sigma, jump_mode="adapted")
            tg = integrate(grid, np.zeros(8), seed=17)
            ta = integrate(adapted, np.zeros(8), seed=17)
            assert np.array_equal(tg.jump_times, ta.jump_times)
            errs.append(np.linalg.norm(tg.terminal() - ta.terminal()))
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(rates) >= 0.5, (errs, rates)

    def test_explicit_and_implicit_agree_to_first_order(self):
        sigma = additive_sigma()
        diffs = []
        for dt in (4e-3, 2e-3, 1e-3):
            a = integrate(make_model(dt=dt, horizon=0.5, sigma=sigma), np.zeros(8), seed=2)
            b = integrate(make_model(dt=dt, horizon=0.5, sigma=sigma, scheme="explicit"),
                          np.zeros(8), seed=2)
            diffs.append(np.linalg.norm(a.terminal() - b.terminal()))
        assert diffs[-1] < diffs[0]


class TestCoupledRuns:
    def test_pair_same_initials_identical(self):
        model = make_model(dt=2e-3, horizon=0.5)
        xi = np.zeros(8)
        xi[0] = 0.4
        jumps = [sample_jumps(model.marks, model.config.horizon,
                              derive_rng(3, STREAM_JUMPS, 0))]
        r1 = run_paths(model, xi[None, :], 3, n_out=21, jumps=jumps)
        r2 = run_paths(model, xi[None, :], 3, n_out=21, jumps=jumps)
        assert np.array_equal(r1.terminal, r2.terminal)

    def test_pairs_share_jump_streams_with_single_runs(self):
        model = make_model(dt=2e-3, horizon=0.5)
        xi1 = np.zeros((4, 8))
        xi2 = xi1.copy()
        xi2[:, 0] = 1e-3
        out = run_pairs(model, xi1, xi2, seed=5, conv_bound=0.2)
        assert out["rho_wsq"].shape[1] == 4
        assert np.all(out["rho_wsq"][0] == pytest.approx(1e-6))
        # weighted distance never exceeds the raw distance
        assert np.all(out["rho_wsq"] <= out["wsq"] + 1e-18)

    def test_run_levels_prefix_consistency(self):
        # with zero noise and linear drift the shared modes evolve
        # identically at every level, so each gap is pure tail
        sigma = ZeroNoise(MARKS)
        models = [
            make_model(level=m, dt=2e-3, horizon=0.25, sigma=sigma,
                       convection=False, stress=False)
            for m in (4, 8, 16)
        ]
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 16))
        out = run_levels(models, X, seed=0)
        t4, t8, t16 = out["terminals"]
        assert np.allclose(t8[:, :4], t4, rtol=0, atol=0)
        assert np.allclose(t16[:, :8], t8, rtol=0, atol=0)

    def test_run_levels_validates_ordering(self):
        models = [make_model(level=m, dt=2e-3, horizon=0.25) for m in (8, 4)]
        with pytest.raises(ValueError):
            run_levels(models, np.zeros((1, 8)), seed=0)


class TestSaturatingNoise:
    def test_state_dependent_amplitude_in_the_loop(self):
        from levyfluid.noise import SaturatingNoise

        sigma = SaturatingNoise(MARKS, np.array([0.4, 0.2]))
        model = make_model(dt=2e-3, horizon=0.5, sigma=sigma)
        xi = np.zeros(8)
        xi[0] = 0.8
        traj = integrate(model, xi, seed=15)
        assert np.all(np.isfinite(traj.states))
        rep = energy_audit(traj, PARAMS)
        assert rep["passed"], rep
        # bounded amplitude: every logged jump quadratic variation respects
        # the declared constant budget of the entry
        per_jump_cap = float(np.max(sigma.gains) ** 2)
        led = traj.ledger
        assert np.all(led["qv_jump"] <= per_jump_cap * np.maximum(led["n_jumps"], 1) + 1e-12)


class TestThreeDimensional:
    def test_short_run_stays_finite_and_dissipates(self):
        marks = MARKS
        h = np.zeros(6)
        h[:2] = [0.4, 0.2]
        sigma = AdditiveNoise(marks, np.array([0.3, 0.1]), h)
        cfg = SolverConfig(params=PARAMS, dim=3, level=6, dt=2e-3, horizon=0.2)
        model = FluidModel(cfg, sigma, marks)
        traj = integrate(model, np.zeros(6), seed=1)
        led = traj.ledger
        assert np.all(np.isfinite(traj.states))
        assert np.abs(led.replay_residual()).max() < 1e-12 * (1 + led["l2_post_sq"].max())
        rep = energy_audit(traj, PARAMS)
        assert rep["passed"]


class TestEnsembleEngine:
    def test_matches_single_trajectory(self):
        model = make_model(dt=2e-3, horizon=0.5)
        xi = np.zeros(8)
        xi[1] = 0.3
        traj = integrate(model, xi, seed=13)
        res = run_paths(model, xi[None, :], seed=13, n_out=3)
        # both step on the n*dt grid, so the terminals agree bit for bit
        assert np.array_equal(res.terminal[0], traj.terminal())

    def test_path_streams_independent_of_batch_layout(self):
        # each path owns its stream; the only cross-batch effect is BLAS
        # kernel blocking, which moves results at the 1e-22 level.  Byte
        # equality across worker layouts is guaranteed one level up, where
        # ensembles are split into fixed-size blocks.
        model = make_model(dt=2e-3, horizon=0.5)
        X = np.zeros((6, 8))
        X[:, 0] = np.linspace(0.1, 0.6, 6)
        full = run_paths(model, X, seed=19)
        first = run_paths(model, X[:3], seed=19)
        rest = run_paths(model, X[3:], seed=19, path_offset=3)
        assert np.allclose(full.terminal[:3], first.terminal, rtol=1e-12, atol=1e-15)
        assert np.allclose(full.terminal[3:], rest.terminal, rtol=1e-12, atol=1e-15)

    def test_pair_blocks_reproduce_one_batch(self):
        # run_pairs on two path blocks, each replaying its slice of one
        # jump draw, matches the whole batch to the same BLAS-blocking
        # tolerance as run_paths above
        model = make_model(dt=2e-3, horizon=0.5)
        rng = np.random.default_rng(7)
        X1 = 0.5 * rng.standard_normal((6, 8))
        X2 = X1 + 0.1 * rng.standard_normal((6, 8))
        whole = run_pairs(model, X1, X2, seed=19, conv_bound=0.2)
        jumps = _draw_jumps(model, 19, 6, 0)
        given = run_pairs(model, X1, X2, seed=19, conv_bound=0.2, jumps=jumps)
        for key in whole:
            assert np.array_equal(whole[key], given[key])
        parts = [run_pairs(model, X1[a:b], X2[a:b], seed=19, conv_bound=0.2,
                           jumps=jumps[a:b]) for a, b in ((0, 3), (3, 6))]
        for key in ("wsq", "rho_wsq"):
            joined = np.concatenate([part[key] for part in parts], axis=1)
            assert np.allclose(whole[key], joined, rtol=1e-12, atol=1e-15)
        assert np.array_equal(whole["blown"], np.concatenate([part["blown"] for part in parts]))

    def test_accumulators_consistent_with_ledger(self):
        model = make_model(dt=2e-3, horizon=0.5)
        xi = np.zeros(8)
        xi[0] = 0.5
        res = run_paths(model, xi[None, :], seed=23, n_out=2, track_audit=True)
        traj = integrate(model, xi, seed=23, n_out=2)
        led = traj.ledger
        assert res.series["diss_int"][-1, 0] == pytest.approx(
            float(np.sum(led["diss"])) / (2.0 * PARAMS.kappa1), rel=1e-12
        )
        assert res.series["qv_disc_cum"][-1, 0] == pytest.approx(
            float(np.sum(led["qv_disc"])), rel=1e-12
        )
        assert res.series["mart_cum"][-1, 0] == pytest.approx(
            float(np.sum(led["mart_pre"])), rel=1e-12
        )


def unstable_model(level=8, horizon=5.0):
    # explicit steps with dt * kappa1 = 3: the first shell (eigenvalue 0.5)
    # contracts by 0.5 per step, the second (eigenvalue 2) grows by 5, so a
    # path with second-shell content blows up and one without stays bounded
    par = FluidParams(kappa0=0.5, kappa1=12.0, reg=1.0, p=1.5)
    cfg = SolverConfig(params=par, level=level, dt=0.25, horizon=horizon,
                       scheme="explicit", convection=False, stress=False)
    return FluidModel(cfg, additive_sigma(level), MARKS)


def first_steps(X, seed, k, jumps):
    """States after the first k steps of `unstable_model`, replaying `jumps`."""
    horizon = k * 0.25
    cut = [(t[t <= horizon], m[t <= horizon]) for t, m in jumps]
    return run_paths(unstable_model(X.shape[1], horizon), X, seed, jumps=cut).terminal


class TestOneKernel:
    """Every driver steps through the same kernel, so they agree bit for bit."""

    def test_pair_distance_equals_two_ensemble_runs(self):
        model = make_model(dt=2e-3, horizon=0.5)
        rng = np.random.default_rng(5)
        X1 = 0.5 * rng.standard_normal((5, 8))
        X2 = X1 + 0.1 * rng.standard_normal((5, 8))
        out = run_pairs(model, X1, X2, seed=5, conv_bound=0.2)
        d = run_paths(model, X1, 5).terminal - run_paths(model, X2, 5).terminal
        assert np.array_equal(out["wsq"][-1], np.sum(d**2, axis=1))

    def test_single_level_equals_ensemble_run(self):
        model = make_model(dt=2e-3, horizon=0.5)
        X = 0.5 * np.random.default_rng(5).standard_normal((5, 8))
        out = run_levels([model], X, seed=5)
        assert np.array_equal(out["terminals"][0], run_paths(model, X, 5).terminal)

    def test_pair_blowup_freezes_both_members_at_one_step(self):
        model = unstable_model()
        X1 = np.vstack([np.zeros(8), np.ones(8)])
        X2 = np.vstack([np.zeros(8), 1e-3 * np.ones(8)])
        X2[0, 0] = 0.3
        solo1, solo2 = run_paths(model, X1, 5), run_paths(model, X2, 5)
        k = solo1.blow_steps[1]
        assert solo1.blow_steps[0] == solo2.blow_steps[0] == -1
        # the second member alone would blow up later than the first
        assert 0 < k < solo2.blow_steps[1]
        a, b = first_steps(X1, 5, k, solo1.jumps), first_steps(X2, 5, k, solo2.jumps)
        assert np.array_equal(solo1.terminal[1], a[1])
        out = run_pairs(model, X1, X2, seed=5, conv_bound=0.2)
        assert out["blown"].tolist() == [False, True]
        assert np.all(np.isfinite(out["wsq"]))
        assert out["wsq"][-1, 1] == np.sum((a[1] - b[1]) ** 2)
        assert out["wsq"][-1, 0] == np.sum((solo1.terminal[0] - solo2.terminal[0]) ** 2)

    def test_level_blowup_freezes_every_level_at_one_step(self):
        models = [unstable_model(level=4), unstable_model(level=8)]
        X = np.vstack([np.zeros(8), np.ones(8)])
        solo = [run_paths(m, X[:, : m.config.level], 5) for m in models]
        k = solo[1].blow_steps[1]
        # level 4 holds only the first shell and would never blow up alone
        assert not solo[0].blown.any()
        assert solo[1].blow_steps[0] == -1 and k > 0
        out = run_levels(models, X, seed=5)
        assert out["blown"].tolist() == [False, True]
        for run, terminal in zip(solo, out["terminals"]):
            Xl = X[:, : terminal.shape[1]]
            assert np.all(np.isfinite(terminal))
            assert np.array_equal(terminal[0], run.terminal[0])
            assert np.array_equal(terminal[1], first_steps(Xl, 5, k, run.jumps)[1])
