import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfluid import ergodics, solver
from levyfluid.basis import build_basis
from levyfluid.ergodics import make_functional
from levyfluid.noise import (
    STREAM_JUMPS,
    AdditiveNoise,
    LinearNoise,
    MarkSpace,
    NoiseBounds,
    NoiseCoefficient,
    SaturatingNoise,
    ZeroNoise,
    derive_rng,
    sample_jumps,
)
from levyfluid.operators import FluidParams
from levyfluid.solver import (
    AUDITED_PATHS,
    FLUSH_STEPS,
    LEDGER_COLUMNS,
    BlowUpError,
    FluidModel,
    SolverConfig,
    _draw_jumps,
    _march,
    _step_terms,
    default_dt,
    energy_audit,
    replay_residual,
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
    return FluidModel(cfg, sigma if sigma is not None else additive_sigma(level))


def one_path(model, xi, seed):
    """The audited run of the one path `xi`: (its result, its ledger)."""
    res = run_paths(model, np.asarray(xi)[None, :], seed, track_audit=True)
    return res, {k: v[:, 0] for k, v in res.ledger.items()}


class TestConfig:
    def test_validation(self):
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
            FluidModel(cfg, ZeroNoise(MARKS))

    def test_model_takes_its_mark_space_from_its_noise(self):
        # the draws, the compensator and the budgets read one mark space
        marks = MarkSpace(np.array([2.0, 0.5, 1.0]))
        sigma = LinearNoise(marks, np.array([0.3, 0.1, 0.2]))
        model = make_model(dt=2e-3, horizon=0.2, sigma=sigma)
        assert model.marks is sigma.marks
        assert model._comp == -model.dt * float(np.sum(marks.rates * sigma.gains))
        # every drawn mark indexes sigma's three atoms
        drawn = np.concatenate([z for _, z in _draw_jumps(model, 3, 200, 0)])
        assert set(drawn.tolist()) == {0, 1, 2}

    @pytest.mark.parametrize("kind", ["additive", "linear"])
    def test_model_survives_pickle(self, kind):
        # pool workers started by spawn or forkserver step an unpickled copy
        # of the caller's model: it steps bit for bit like the original,
        # whether pickled before or after its step caches were filled
        sigma = additive_sigma() if kind == "additive" else LinearNoise(MARKS, np.array([0.25, 0.1]))
        model = make_model(dt=2e-3, horizon=0.2, sigma=sigma)
        X = 0.4 * np.random.default_rng(5).standard_normal((6, 8))
        cold = pickle.loads(pickle.dumps(model))
        ref = run_paths(model, X, 9, track_audit=True)
        warm = pickle.loads(pickle.dumps(model))
        for copy in (cold, warm):
            got = run_paths(copy, X, 9, track_audit=True)
            assert np.array_equal(got.terminal, ref.terminal)
            for key in ref.series:
                assert np.array_equal(got.series[key], ref.series[key]), key


class TestStep:
    def test_zero_equilibrium(self):
        model = make_model(sigma=ZeroNoise(MARKS), dt=1e-2, horizon=0.5)
        res, led = one_path(model, np.zeros(8), seed=0)
        assert np.all(res.states == 0.0)
        assert np.all(led["l2_post_sq"] == 0.0)

    def test_single_mode_geometric_decay(self):
        # linear part only: exact per-step division by 1 + dt*kappa1*lam
        model = make_model(sigma=ZeroNoise(MARKS), dt=1e-2, horizon=0.5,
                           convection=False, stress=False)
        amp = 0.8
        u0 = np.zeros(8)
        u0[0] = amp
        terminal = run_paths(model, u0[None, :], seed=0).terminal[0]
        lam = model.basis.eigenvalues[0]
        expected = amp / (1.0 + model.dt * PARAMS.kappa1 * lam) ** model.n_steps
        assert terminal[0] == pytest.approx(expected, rel=1e-13)
        assert np.abs(terminal[1:]).max() == 0.0

    def test_unconditional_linear_stability(self):
        # implicit treatment contracts the L2 norm for any dt
        for dt in (1e-3, 0.1, 10.0):
            model = make_model(sigma=ZeroNoise(MARKS), dt=dt, horizon=10 * dt,
                               convection=False, stress=False)
            rng = np.random.default_rng(0)
            u = rng.standard_normal((1, 8))
            norms = [float(np.sum(u**2))]
            for n in range(model.n_steps):
                u = model.advance(u, np.zeros_like(u), None, None)
                norms.append(float(np.sum(u**2)))
            assert all(b <= a for a, b in zip(norms, norms[1:]))

    def test_full_drift_dissipates_without_noise(self):
        model = make_model(sigma=ZeroNoise(MARKS), dt=1e-3, horizon=0.2)
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal(8) * 0.5
        _, led = one_path(model, u0, seed=0)
        # discrete energy inequality: the post-step energy plus dissipation
        # stays below the pre-step energy up to the explicit-term residual
        gain = led["l2_post_sq"] + led["diss"] - led["l2_pre_sq"]
        resid = np.abs(led["conv_work"]) + np.abs(led["ap_work"])
        assert np.all(gain <= resid + 1e-12)
        assert led["l2_post_sq"][-1] < led["l2_pre_sq"][0]


class TestOnePath:
    def test_zero_horizon(self):
        with pytest.raises(ValueError):
            SolverConfig(params=PARAMS, level=8, dt=1e-2, horizon=0.0)

    @pytest.mark.parametrize("shape", [(1, 7), (1, 9), (8,)])
    def test_initial_of_the_wrong_shape_raises(self, shape):
        model = make_model(dt=1e-2, horizon=0.1)
        with pytest.raises(ValueError, match="initials must have shape"):
            run_paths(model, np.zeros(shape), seed=7)

    def test_ledger_replay_reconstructs_energy(self):
        model = make_model(dt=1e-3, horizon=1.0)
        xi = np.zeros(8)
        xi[0] = 1.0
        _, led = one_path(model, xi, seed=7)
        replay = led["l2_pre_sq"][0] + np.sum(
            -led["backward"] - led["diss"] - led["ap_work"] - led["conv_work"]
            + led["mart_work"]
        )
        assert replay == pytest.approx(led["l2_post_sq"][-1], abs=1e-10)
        assert np.abs(replay_residual(led)).max() < 1e-12 * (1 + led["l2_post_sq"].max())

    def test_skew_symmetry_inside_loop(self):
        model = make_model(dt=2e-3, horizon=0.5)
        rng = np.random.default_rng(3)
        _, led = one_path(model, 0.5 * rng.standard_normal(8), seed=5)
        scale = 1e-10 * (1.0 + led["l2_pre_sq"] * np.sqrt(led["h2_post_sq"]))
        assert np.all(np.abs(led["conv_skew"]) <= scale)

    def test_stress_pairing_nonnegative_every_step(self):
        model = make_model(dt=2e-3, horizon=0.5)
        rng = np.random.default_rng(4)
        _, led = one_path(model, 0.5 * rng.standard_normal(8), seed=6)
        assert np.all(led["ap_pair"] >= -1e-8 * (1.0 + led["l2_pre_sq"]))

    def test_energy_audit_passes(self):
        model = make_model(dt=1e-3, horizon=1.0)
        _, led = one_path(model, np.zeros(8), seed=11)
        report = energy_audit(led)
        assert report["passed"], report
        assert report["slack_min"] > -1e-6

    def test_restart_from_terminal_continues_trajectory(self):
        # integrating to T in one run equals stopping at T/2 and restarting
        # from the terminal state, when the restarted run reuses the same
        # jump stream
        marks = MarkSpace(np.array([2.0]))
        par = FluidParams()
        full_cfg = SolverConfig(params=par, level=6, dt=1e-2, horizon=0.4)
        model = FluidModel(full_cfg, ZeroNoise(marks))
        rng = np.random.default_rng(5)
        xi = 0.5 * rng.standard_normal(6)
        full = run_paths(model, xi[None, :], seed=2)

        half_cfg = SolverConfig(params=par, level=6, dt=1e-2, horizon=0.2)
        half_model = FluidModel(half_cfg, ZeroNoise(marks))
        first = run_paths(half_model, xi[None, :], seed=2)
        assert first.times[-1] == pytest.approx(0.2)
        second = run_paths(half_model, first.terminal, seed=3)
        # deterministic drift: restart reproduces the full run's terminal
        assert np.allclose(second.terminal, full.terminal, rtol=1e-12, atol=1e-14)


class TestBlowUpPolicy:
    def test_report_names_the_first_blowup(self):
        # paths 1 and 2 of four blow up, at steps 5 and 3
        model = unstable_model()
        X = np.vstack([blowing_batch(5), blowing_batch(3)[1:2]])
        res = run_paths(model, X, seed=0)
        assert res.blow_steps.tolist() == [-1, 5, -1, 3]
        err = BlowUpError.of(res, model)
        assert err.report == {"step": 3, "t": 4 * model.dt, "n_blown": 2, "level": 8}
        assert str(err) == "2 blown path(s), the first at step 3 (t=1)"

    def test_ensemble_counts_blowups_instead_of_raising(self):
        model = unstable_model()
        res = run_paths(model, np.ones((3, 8)), seed=0)
        assert res.blown.all()
        assert np.all(res.blow_steps >= 0)
        assert np.all(np.isfinite(res.terminal))


class TestSchemes:
    def test_grid_selfrefinement_order(self):
        # one jump draw per path at every step size; the RMS terminal error
        # against a fine-step reference halves at order >= 0.5 per halving.
        # A single path's errors are too erratic to read an order from.
        sigma = additive_sigma()
        X = np.zeros((32, 8))
        ref = make_model(dt=2.5e-4, horizon=1.0, sigma=sigma)
        jumps = _draw_jumps(ref, 17, X.shape[0], 0)
        want = run_paths(ref, X, 17, jumps=jumps).terminal
        errs = []
        for dt in (8e-3, 4e-3, 2e-3):
            got = run_paths(make_model(dt=dt, horizon=1.0, sigma=sigma), X, 17, jumps=jumps)
            errs.append(np.sqrt(np.mean(np.sum((got.terminal - want) ** 2, axis=1))))
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(rates) >= 0.5, (errs, rates)


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

    @pytest.mark.parametrize("shape2", [(5, 8), (3, 6), (8,)])
    def test_pair_sides_of_other_shapes_raise(self, shape2):
        model = make_model(dt=2e-3, horizon=0.05)
        with pytest.raises(ValueError, match="xi1 and xi2 must both have shape"):
            run_pairs(model, np.zeros((3, 8)), np.zeros(shape2), seed=0, conv_bound=0.2)

    @pytest.mark.parametrize("driver", ["paths", "pairs"])
    @pytest.mark.parametrize("n_lists", [2, 4])
    def test_one_jump_list_per_path(self, driver, n_lists):
        model = make_model(dt=2e-3, horizon=0.05)
        X, jumps = np.zeros((3, 8)), _draw_jumps(model, 0, n_lists, 0)
        with pytest.raises(ValueError, match=f"jumps holds {n_lists} jump lists for 3 paths"):
            if driver == "paths":
                run_paths(model, X, 0, jumps=jumps)
            else:
                run_pairs(model, X, X, 0, conv_bound=0.2, jumps=jumps)


class TestSaturatingNoise:
    def test_state_dependent_amplitude_in_the_loop(self):
        sigma = SaturatingNoise(MARKS, np.array([0.4, 0.2]))
        model = make_model(dt=2e-3, horizon=0.5, sigma=sigma)
        xi = np.zeros(8)
        xi[0] = 0.8
        res, led = one_path(model, xi, seed=15)
        assert np.all(np.isfinite(res.states))
        rep = energy_audit(led)
        assert rep["passed"], rep
        # bounded amplitude: every logged jump quadratic variation respects
        # the declared constant budget of the entry
        per_jump_cap = float(np.max(sigma.gains) ** 2)
        assert np.all(led["qv_jump"] <= per_jump_cap * np.maximum(led["n_jumps"], 1) + 1e-12)


class TestThreeDimensional:
    def test_short_run_stays_finite_and_dissipates(self):
        marks = MARKS
        h = np.zeros(6)
        h[:2] = [0.4, 0.2]
        sigma = AdditiveNoise(marks, np.array([0.3, 0.1]), h)
        cfg = SolverConfig(params=PARAMS, dim=3, level=6, dt=2e-3, horizon=0.2)
        model = FluidModel(cfg, sigma)
        res, led = one_path(model, np.zeros(6), seed=1)
        assert np.all(np.isfinite(res.states))
        assert np.abs(replay_residual(led)).max() < 1e-12 * (1 + led["l2_post_sq"].max())
        rep = energy_audit(led)
        assert rep["passed"]


class TestEnsembleEngine:
    @pytest.mark.parametrize("n_paths", [2, 7])
    def test_audit_keeps_the_batch_rows_of_its_first_paths(self, n_paths):
        # the ledgers and states are those of the audited batch's own rows,
        # bit for bit, not of a second run of the paths
        model = make_model(dt=2e-3, horizon=0.5)
        X = 0.4 * np.random.default_rng(4).standard_normal((n_paths, 8))
        jumps = _draw_jumps(model, 13, n_paths, 0)
        res = run_paths(model, X, 13, n_out=3, track_audit=True, jumps=jumps)
        A = min(AUDITED_PATHS, n_paths)
        assert res.states.shape == (model.n_steps, A, 8)
        assert list(res.ledger) == list(LEDGER_COLUMNS)
        assert all(v.shape == (model.n_steps, A) for v in res.ledger.values())
        led = res.ledger
        for p in range(A):
            assert np.array_equal(res.states[-1, p], res.terminal[p])
            assert led["l2_post_sq"][-1, p] == res.series["l2_sq"][-1, p]
            assert led["h2_post_sq"][-1, p] == np.sum(model.basis.eigenvalues * res.terminal[p]**2)
            assert led["l2_pre_sq"][0, p] == res.series["l2_sq"][0, p]
            assert np.array_equal(led["l2_pre_sq"][1:, p], led["l2_post_sq"][:-1, p])
            assert led["n_jumps"][:, p].sum() == jumps[p][0].size
            for name, column in (("mart_cum", "mart_pre"), ("qv_disc_cum", "qv_disc"),
                                 ("resid_cum", "resid_sq"), ("apwork_cum", "ap_work")):
                assert np.cumsum(led[column][:, p])[-1] == res.series[name][-1, p], name
        assert np.array_equal(led["t"][:, 0], model.dt * np.arange(1, model.n_steps + 1))
        assert run_paths(model, X, 13, n_out=3).ledger is None

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
        rest = run_paths(model, X[3:], seed=19, jumps=_draw_jumps(model, 19, 6, 0)[3:])
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
        res, led = one_path(model, xi, seed=23)
        assert res.series["diss_int"][-1, 0] == pytest.approx(
            float(np.sum(led["diss"])) / (2.0 * PARAMS.kappa1), rel=1e-12
        )
        assert res.series["qv_disc_cum"][-1, 0] == pytest.approx(
            float(np.sum(led["qv_disc"])), rel=1e-12
        )
        assert res.series["mart_cum"][-1, 0] == pytest.approx(
            float(np.sum(led["mart_pre"])), rel=1e-12
        )


class SecondShellPump(NoiseCoefficient):
    """sigma(u, z_j) = g_j (h + P u): a fixed field h = FIRST_SHELL on the
    first four modes (the first shell of a 2D basis) plus the state's part
    P u on the modes from index 4 on: a test noise that drives the second
    shell with the state and the first with additive jumps."""

    kind = "pump"
    FIRST_SHELL = np.array([0.5, 0.3, 0.2, 0.1])

    def __init__(self, marks, gains):
        super().__init__(marks, gains)
        hsq = float(np.sum(self.FIRST_SHELL**2))  # 0.39: (hsq + x)^2 <= 2 (1 + x^2)
        self.bounds = NoiseBounds(self.c2 * hsq, self.c2, self.c2, 2.0 * self.c4)

    def core(self, states):
        c = np.array(states)
        c[:, :4] = self.FIRST_SHELL
        return c


# mark 0 never fires (rate 1e-12); mark 1 (rate 3) jumps by h/16 on the
# first shell and by u/16 on the second; the compensator is
# -dt*(nu_0*g_0 + nu_1*g_1)*(h + P u) = 34*(h + P u) at dt = 0.25
PUMP_MARKS = MarkSpace(np.array([1e-12, 3.0]))
PUMP_GAINS = [-(136.0 + 3.0 / 16.0) / 1e-12, 1.0 / 16.0]


def unstable_model(level=8, horizon=5.0):
    # semi-implicit steps of dt = 0.25 with kappa1 = 12: the first shell
    # (eigenvalue 0.5) contracts by 1/2.5 = 0.4 per step towards the
    # bounded drive 34 h / 1.5, the second (eigenvalue 2) grows by 35/7 = 5
    # on a step without jumps and by (35 + n/16)/7 on a step with n, so a
    # path with second-shell content blows up and one without stays bounded
    par = FluidParams(kappa0=0.5, kappa1=12.0, reg=1.0, p=1.5)
    cfg = SolverConfig(params=par, level=level, dt=0.25, horizon=horizon,
                       convection=False, stress=False)
    return FluidModel(cfg, SecondShellPump(PUMP_MARKS, PUMP_GAINS))


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
        # each level is a march of its own under the shared jumps: its
        # terminals are those of its own `run_paths`
        X = 0.5 * np.random.default_rng(5).standard_normal((5, 8))
        for levels in ((8,), (4, 8), (2, 5, 8)):
            models = [make_model(level=lv, dt=2e-3, horizon=0.5, sigma=additive_sigma(lv))
                      for lv in levels]
            out = run_levels(models, X, seed=5)
            assert len(out["terminals"]) == len(levels)
            for model, terminal in zip(models, out["terminals"]):
                alone = run_paths(model, X[:, :model.config.level], 5).terminal
                assert np.array_equal(terminal, alone), levels

    @pytest.mark.parametrize("side", [0, 1])
    def test_either_row_blowing_up_blows_its_pair(self, side):
        # pair 1's row on `side` blows up: the pair is blown, that row
        # freezes at its step, and the pair's other row and pair 0 step on
        # as they would alone
        model = unstable_model()
        calm, boom = 0.2 * np.eye(8)[0], 1e-3 * np.ones(8)
        sides = [np.vstack([np.zeros(8), calm]), np.vstack([0.3 * np.eye(8)[0], calm])]
        sides[side][1] = boom
        jumps = _draw_jumps(model, 5, 2, 0)
        alone = [[run_paths(model, X[p:p + 1], 5, jumps=jumps[p:p + 1]) for p in range(2)]
                 for X in sides]
        k = alone[side][1].blow_steps[0]
        assert 0 < k < model.n_steps - 1
        assert sum(run.blown.sum() for row in alone for run in row) == 1
        frozen = first_steps(boom[None], 5, k, jumps[1:])[0]  # the state before step k
        assert np.array_equal(alone[side][1].terminal[0], frozen)
        out = run_pairs(model, *sides, seed=5, conv_bound=0.2)
        assert out["blown"].tolist() == [False, True]
        assert np.all(np.isfinite(out["wsq"]))
        for p in range(2):
            want = np.sum((alone[0][p].terminal[0] - alone[1][p].terminal[0]) ** 2)
            assert out["wsq"][-1, p] == pytest.approx(want, rel=1e-12)

    def test_path_blown_at_one_level_is_dropped_from_every_gap(self, monkeypatch):
        # in ten steps of `unstable_model` the second shell grows from 1e-3
        # to about 1e4, and the third (modes 8..11, grown by about 35/25 a
        # step) from 1e7 past the cap: path 1 blows up at level 12 alone,
        # and levels 4 and 8 step it on
        models = [unstable_model(level=lv, horizon=2.5) for lv in (4, 8, 12)]
        X = np.zeros((3, 12))
        X[:, 0] = [0.3, 0.2, 0.1]
        X[:, 4] = [1e-3, 2e-3, 3e-3]
        X[1, 8:] = 1e7
        solo = [run_paths(m, X[:, :m.config.level], 5) for m in models]
        assert [run.blown.tolist() for run in solo] == [[False] * 3] * 2 + [[False, True, False]]
        out = run_levels(models, X, seed=5)
        assert out["blown"].tolist() == [False, True, False]
        for run, terminal in zip(solo, out["terminals"]):
            assert np.array_equal(terminal, run.terminal)
        # the study drops it from the gaps between the levels it did not blow up at too
        monkeypatch.setattr(ergodics, "draw_initials", lambda spec, basis: X)
        rows = ergodics.cauchy_study(models, ergodics.EnsembleSpec(3, 5))["rows"]
        keep = [0, 2]
        assert len(rows) == 2
        for row, gap, integral in zip(rows, out["terminal_gap_sq"], out["energy_gap_int"]):
            assert row["n_blown"] == 1
            assert row["terminal_gap_sq"] == np.mean(gap[keep]) != np.mean(gap)
            assert row["energy_gap_int"] == np.mean(integral[keep]) != np.mean(integral)


class TestLeanStepping:
    """The all-live fast path, the norm functionals and the noise cache are exact."""

    def test_survivors_match_a_run_without_the_blown_path(self):
        # the second path blows up mid-run: steps before it take the
        # all-live path, steps after it the masked one
        model = unstable_model()
        X = np.vstack([0.3 * np.eye(8)[0], np.ones(8), np.zeros(8)])
        fns = {name: make_functional(name, model.basis)
               for name in ("sq_norm", "energy_norm_sq", "gauss_bump")}
        res = run_paths(model, X, 5, n_out=21, track_audit=True, functionals=fns)
        assert res.blown.tolist() == [False, True, False]
        assert 0 < res.blow_steps[1] < model.n_steps - 1
        keep = [0, 2]
        jumps = _draw_jumps(model, 5, 3, 0)
        alone = run_paths(model, X[keep], 5, n_out=21, track_audit=True, functionals=fns,
                          jumps=[jumps[p] for p in keep])
        assert np.array_equal(res.terminal[keep], alone.terminal)
        # the survivors' jumps move them
        none = (np.empty(0), np.empty(0, np.int64))
        assert all(jumps[p][0].size for p in keep)
        still = run_paths(model, X[keep], 5, jumps=[none, none])
        assert np.all(np.abs(alone.terminal - still.terminal).max(axis=1) > 1e-3)
        for name, series in alone.series.items():
            assert np.array_equal(res.series[name][:, keep], series), name
            # the blown path's accumulators stop at its last finite state
            frozen = res.series[name][res.blow_steps[1]:, 1]
            assert np.all(frozen == frozen[0]), name
        assert res.series["l2_sq"][-1, 1] == np.sum(res.terminal[1] ** 2)

    def test_norm_functionals_are_the_step_integrals(self):
        model = make_model(dt=2e-3, horizon=0.2)
        X = 0.5 * np.random.default_rng(3).standard_normal((4, 8))
        seen = []

        def record(states):  # a plain callable, evaluated on every step's states
            seen.append(states.copy())
            return np.zeros(states.shape[0])

        fns = {name: make_functional(name, model.basis) for name in ("sq_norm", "energy_norm_sq")}
        res = run_paths(model, X, 9, n_out=model.n_steps + 1, functionals=dict(fns, seen=record))
        assert np.array_equal(res.series["occ_energy_norm_sq"], res.series["diss_int"])
        for name, fn in fns.items():
            steps = np.array([model.dt * fn(U) for U in seen])
            integral = np.vstack([np.zeros(4), np.cumsum(steps, axis=0)])
            assert np.array_equal(res.series[f"occ_{name}"], integral), name

    def test_one_model_serves_batch_sizes(self):
        # the amplitude and compensator rows built with the model broadcast
        # to every batch size: reusing one model for two batch sizes gives
        # the results of a model that evaluates its core every step
        uncached = additive_sigma()
        uncached.state_free = False

        def reference():
            return make_model(dt=2e-3, horizon=0.5, sigma=uncached)

        model = make_model(dt=2e-3, horizon=0.5)
        rows_before = [r.copy() for r in model._rows]
        X = 0.4 * np.random.default_rng(2).standard_normal((64, 8))
        for rows in (slice(None), slice(3), slice(None)):
            got, want = run_paths(model, X[rows], 7), run_paths(reference(), X[rows], 7)
            assert all(np.array_equal(a, b) for a, b in zip(model._rows, rows_before))
            assert np.array_equal(got.terminal, want.terminal)
            for name in got.series:
                assert np.array_equal(got.series[name], want.series[name]), name

    def test_quiet_windows_share_one_read_only_increment(self):
        # a window without jumps gets the compensator rows, in one array
        # that no caller can write; a window with jumps gets its own
        model = make_model()
        U = np.zeros((5, 8))
        none = (np.empty(0, np.int64), np.empty(0, np.int64))
        M = model.noise_increment(U, *none)
        assert not M.flags.writeable
        assert np.array_equal(M, np.tile(model._rows[1], (5, 1)))
        assert model.noise_increment(U, *none) is M
        J = model.noise_increment(U, np.array([2]), np.array([1]))
        assert J.flags.writeable and J is not M
        assert np.array_equal(J[2], M[2] + model._rows[0][1])
        assert np.array_equal(np.delete(J, 2, axis=0), np.delete(M, 2, axis=0))

    @settings(max_examples=25, deadline=None)
    @given(xi=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
           n=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_pair_distance_ignores_member_order(self, xi, n, seed):
        model = make_model(dt=2e-3, horizon=0.05)
        X1 = np.tile(np.array(xi[:8]), (n, 1)) * np.arange(1, n + 1)[:, None]
        X2 = np.tile(np.array(xi[8:]), (n, 1))
        ab = run_pairs(model, X1, X2, seed, conv_bound=0.2)
        ba = run_pairs(model, X2, X1, seed, conv_bound=0.2)
        assert np.array_equal(ab["wsq"], ba["wsq"])
        assert np.array_equal(ab["blown"], ba["blown"])

    @settings(max_examples=25, deadline=None)
    @given(step=st.integers(1, 18), path=st.integers(0, 2))
    def test_blowup_freezes_its_row_at_once(self, step, path):
        # `unstable_model` scales the second shell by 5: an amplitude of
        # 3e8 / 5^(step+1) first exceeds the cap 1e8 on step `step`
        model = unstable_model()
        U = np.zeros((3, 8))
        U[:, 0] = 0.2
        U[path, 4] = 3e8 / 5.0 ** (step + 1)
        start = U.copy()
        blow_steps = np.full(3, -1)
        jumps = _draw_jumps(model, 11, 3, 0)
        history = []  # per step, the batch's post-step states
        for s in _march(model, U, blow_steps, jumps, cuts={5, 11}):
            history.extend(s.U1.reshape(s.steps.size, 3, 8).copy())  # U1 is reused
        others = [p for p in range(3) if p != path]
        assert blow_steps[path] == step and np.all(blow_steps[others] == -1)
        for n in range(step, model.n_steps):
            assert np.array_equal(history[n][path], history[step - 1][path])
        assert np.isfinite(history[-1]).all()
        assert np.array_equal(U, start)  # the batch it was given is not written

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_freezes_its_row(self, bad):
        # the advance writes `bad` into path 1 on step 4: the path freezes
        # at its step-3 state and counts as blown, and the other paths step
        # as in a run without it
        model = make_model(dt=2e-3, horizon=0.02)
        poisoned = copy.copy(model)
        calls = []

        def advance(U, M, ap, bb):
            U1 = model.advance(U, M, ap, bb)
            if len(calls) == 4:
                U1[1, 2] = bad
            calls.append(None)
            return U1

        poisoned.advance = advance
        X = 0.4 * np.random.default_rng(5).standard_normal((3, 8))
        jumps = _draw_jumps(model, 11, 3, 0)

        def history(model):
            blow_steps, rows = np.full(3, -1), []
            for block in _march(model, X, blow_steps, jumps, cuts={3, 7}):
                # copied: the next block reuses U1
                rows.append(block.U1.reshape(block.steps.size, 3, 8).copy())
            return np.concatenate(rows), blow_steps

        clean, clean_steps = history(model)
        got, blow_steps = history(poisoned)
        assert clean_steps.tolist() == [-1, -1, -1]
        assert blow_steps.tolist() == [-1, 4, -1]
        assert np.array_equal(got[:4], clean[:4])
        assert np.array_equal(got[4:, 1], np.broadcast_to(clean[3, 1], (6, 8)))
        assert np.array_equal(got[:, [0, 2]], clean[:, [0, 2]])
        assert np.isfinite(got).all()


def grouped_initials(sizes, level=8, seed=0):
    """Rows repeated in blocks of `sizes`, one distinct draw per block."""
    distinct = 0.4 * np.random.default_rng(seed).standard_normal((len(sizes), level))
    return np.repeat(distinct, sizes, axis=0), np.repeat(np.arange(len(sizes)), sizes)


def count_drift_rows(model):
    """Replace `model.drift_pieces` by a wrapper that records its batch sizes."""
    rows, inner = [], model.drift_pieces

    def counted(states):
        rows.append(states.shape[0])
        return inner(states)

    model.drift_pieces = counted
    return rows


def rel_close(a, b, rtol=1e-12):
    """Rows of `a` equal rows of `b` to rtol of each row's largest entry."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    scale = np.maximum(np.abs(b).max(axis=-1, keepdims=True), 1e-300)
    return bool(np.all(np.abs(a - b) <= rtol * scale))


def series_close(got, want):
    """EnsembleResult series agree to rel 1e-12, columns (paths) as rows."""
    for name, series in got.items():
        assert rel_close(series.T, want[name].T), name


class TestSharedDrift:
    """Paths that share a state share its drift until their first jump."""

    @pytest.mark.parametrize("tie", ["one_list", "two_lists"])
    def test_drift_rows_are_one_per_class_plus_one_per_dormant_group(self, tie):
        model = make_model(dt=2e-3, horizon=0.2)
        X, group = grouped_initials([4, 3, 1, 2])
        # first jump windows: a tie and a calm path in group 0, every path
        # of group 1 jumping (the last in the step after another leaves), a
        # lone path, and a group that never jumps
        first = np.array([10, 30, 30, model.n_steps, 5, 20, 21, 15,
                          model.n_steps, model.n_steps])
        # the tied paths 1 and 2 have one jump list, or two that differ in a mark
        marks = [np.array([1, 0]) if tie == "two_lists" and p == 2 else np.array([0, 1])
                 for p in range(first.size)]
        jumps = [(np.array([(f + 0.5) * model.dt, 0.15]), marks[p])
                 if f < model.n_steps else (np.empty(0), np.empty(0, np.int64))
                 for p, f in enumerate(first)]
        lists = np.unique([t.tobytes() + m.tobytes() for t, m in jumps], return_inverse=True)[1]
        rows = count_drift_rows(model)
        res = run_paths(model, X, 3, jumps=jumps)

        def want(group, first=first, lists=lists):
            # a jumped path shares with its class (start and jump list), a
            # dormant one with its group (start)
            return [len(set(zip(group[first < n], lists[first < n])))
                    + len(np.unique(group[first >= n])) for n in range(model.n_steps)]

        assert rows == want(group) and min(rows) < X.shape[0]
        assert (res.terminal[1] == res.terminal[2]).all() == (tie == "one_list")
        # every path as a batch of its own, where nothing is shared
        alone = np.vstack([run_paths(model, X[p:p + 1], 3, jumps=jumps[p:p + 1]).terminal
                           for p in range(X.shape[0])])
        assert rel_close(res.terminal, alone)
        # pairs are one batch of both sides, grouped together: path 1's
        # partner splits it from group 0 on the second side only, and no
        # start is on both sides
        X2 = 2 * X
        X2[1, 0] += 0.01
        rows.clear()
        run_pairs(model, X, X2, 3, conv_bound=0.2, jumps=jumps)
        pair_group = group.copy()
        pair_group[1] = group.max() + 1
        both = np.concatenate([group, pair_group + pair_group.max() + 1])
        assert rows == want(both, np.tile(first, 2), np.tile(lists, 2))

    def test_stacked_separations_share_the_base_rows(self):
        # the layout of a contraction block: k separations of P pairs as
        # one batch, the k copies of the P base rows over the kP partners,
        # row i*P + p of each side the pair of separation i and path p
        model = make_model(dt=2e-3, horizon=1.0, sigma=LinearNoise(MARKS, np.array([0.25, 0.1])))
        P, k, seed = 6, 3, 5
        xi1 = 0.4 * np.eye(8)[0]
        jumps = _draw_jumps(model, seed, P, 0)
        first = np.array([np.ceil(t.min() / model.dt) - 1 for t, _ in jumps])
        assert first.max() < model.n_steps - 50  # every path jumps, well before the end
        U = np.concatenate([np.tile(xi1, (k * P, 1))]
                           + [np.tile(xi1 + sep * np.eye(8)[1], (P, 1)) for sep in (0.1, 0.01, 0.001)])
        rows = count_drift_rows(model)
        for block in _march(model, U, np.full(2 * k * P, -1), jumps * (2 * k)):
            pass
        # one drift call per step: one row per path and one per dormant
        # group, once for the k base copies and once per separation's partners
        want = [int(np.sum(first < n)) + int(np.any(first >= n)) for n in range(model.n_steps)]
        assert rows == [(k + 1) * r for r in want]
        assert max(rows[int(first.max()) + 1:]) == (k + 1) * P
        # the base rows of one path are one trajectory in every separation
        ends = block.U1[-2 * k * P:-k * P].reshape(k, P, 8)
        assert np.array_equal(ends, np.broadcast_to(ends[0], ends.shape))
        assert not np.array_equal(ends[0, 0], ends[0, 1])

    def test_distinct_initials_use_the_full_batch(self):
        model = make_model(dt=2e-3, horizon=0.5)
        X = 0.4 * np.random.default_rng(1).standard_normal((6, 8))
        rows = count_drift_rows(model)
        run_paths(model, X, 3)
        assert rows == [6] * model.n_steps

    def test_paths_without_jumps_end_bit_equal(self):
        model = make_model(dt=2e-3, horizon=0.5, sigma=LinearNoise(MARKS, np.array([0.25, 0.1])))
        X, group = grouped_initials([12, 12], seed=4)
        res = run_paths(model, X, 8, track_audit=True)
        calm = np.array([t.size == 0 for t, _ in _draw_jumps(model, 8, len(X), 0)])
        for g in range(2):
            members = np.flatnonzero(calm & (group == g))
            assert members.size >= 2
            assert np.all(res.terminal[members] == res.terminal[members[0]])
            for name, series in res.series.items():
                assert np.all(series[:, members] == series[:, members[:1]]), name

    @pytest.mark.parametrize("kind", ["additive", "linear"])
    def test_drivers_match_single_path_runs(self, kind):
        sigma = additive_sigma() if kind == "additive" else LinearNoise(MARKS, np.array([0.25, 0.1]))
        model = make_model(dt=2e-3, horizon=0.5, sigma=sigma)
        X, _ = grouped_initials([6, 3], seed=2)
        seed = 17
        jumps = _draw_jumps(model, seed, len(X), 0)
        alone = [run_paths(model, X[p:p + 1], seed, jumps=jumps[p:p + 1]).terminal[0]
                 for p in range(9)]
        res = run_paths(model, X, seed)
        assert min(t.size for t, _ in jumps) == 0
        assert rel_close(res.terminal, np.array(alone))
        # pairs: the base path against a shifted partner
        X2 = X + 0.01 * np.eye(8)[0]
        partner = [run_paths(model, X2[p:p + 1], seed, jumps=jumps[p:p + 1]).terminal[0]
                   for p in range(9)]
        pairs = run_pairs(model, X, X2, seed, conv_bound=0.2)
        wsq = np.sum((np.array(alone) - np.array(partner)) ** 2, axis=1)
        assert np.allclose(pairs["wsq"][-1], wsq, rtol=1e-12, atol=0)
        # levels: each truncation against its own single-path run
        models = [make_model(level=lv, dt=2e-3, horizon=0.5, sigma=sigma if kind == "linear"
                             else additive_sigma(lv)) for lv in (4, 8)]
        out = run_levels(models, X, seed)
        for m, terminal in zip(models, out["terminals"]):
            lv = m.config.level
            single = [run_paths(m, X[p:p + 1, :lv], seed, jumps=jumps[p:p + 1]).terminal[0]
                      for p in range(9)]
            assert rel_close(terminal, np.array(single))

    def test_chapman_kolmogorov_start_equals_one_run_per_group(self):
        model = make_model(dt=2e-3, horizon=0.25)
        n_inner = 6
        X, _ = grouped_initials([n_inner] * 4, seed=5)
        jumps = _draw_jumps(model, 21, len(X), 2_000_000)
        whole = run_paths(model, X, 21, n_out=5, track_audit=True, jumps=jumps)
        for g in range(4):
            rows = slice(g * n_inner, (g + 1) * n_inner)
            part = run_paths(model, X[rows], 21, n_out=5, track_audit=True, jumps=jumps[rows])
            assert rel_close(whole.terminal[rows], part.terminal)
            series_close(part.series, {k: v[:, rows] for k, v in whole.series.items()})

    def test_dormant_group_blows_up_at_one_step(self):
        # an amplitude of 3e8 / 5^3 in the second shell first exceeds the
        # cap on step 2 of `unstable_model`; three copies never jump, the
        # fourth jumps in window 0 and leaves the group
        model = unstable_model()
        X = np.zeros((6, 8))
        X[:4, 4] = 3e8 / 5.0**3
        X[4:, 0] = 0.2
        none = (np.empty(0), np.empty(0, np.int64))
        jumps = [none, none, none, (np.array([0.1]), np.array([1])), none, none]
        res = run_paths(model, X, 5, jumps=jumps)
        assert res.blow_steps.tolist() == [2, 2, 2, 2, -1, -1]
        assert np.all(res.terminal[:3] == res.terminal[0]) and np.isfinite(res.terminal).all()
        # frozen at the state after two steps, as a run of one copy shows
        short = first_steps(X[:1], 5, 2, [none])
        assert np.array_equal(res.terminal[0], short[0])
        # the other group is untouched by the blow-up
        calm = run_paths(model, X[4:], 5, jumps=jumps[4:])
        assert np.array_equal(res.terminal[4:], calm.terminal)

    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           shuffle=st.integers(0, 2**16), cut=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    def test_results_do_not_depend_on_batch_layout(self, sizes, shuffle, cut, seed):
        model = make_model(dt=2e-3, horizon=0.1)
        X, _ = grouped_initials(sizes, seed=seed % 7)
        P = X.shape[0]
        jumps = _draw_jumps(model, seed, P, 0)
        base = run_paths(model, X, seed, n_out=3, track_audit=True, jumps=jumps)

        def same(idx, res):
            assert rel_close(res.terminal, base.terminal[idx])
            series_close(res.series, {k: v[:, idx] for k, v in base.series.items()})

        perm = np.random.default_rng(shuffle).permutation(P)
        same(perm, run_paths(model, X[perm], seed, n_out=3, track_audit=True,
                             jumps=[jumps[p] for p in perm]))
        k = int(round(cut * P))
        for idx in (np.arange(k), np.arange(k, P)):
            if idx.size:
                same(idx, run_paths(model, X[idx], seed, n_out=3, track_audit=True,
                                    jumps=[jumps[p] for p in idx]))


def bump_functionals(model):
    return {name: make_functional(name, model.basis)
            for name in ("sq_norm", "energy_norm_sq", "gauss_bump")}


def assert_rows_equal(every, res):
    """`res` equals the every-step run `every` at its output steps, bit for bit."""
    rows = np.searchsorted(every.times, res.times)
    assert np.array_equal(every.times[rows], res.times)
    assert np.array_equal(every.terminal, res.terminal)
    for name, series in res.series.items():
        assert np.array_equal(every.series[name][rows], series), name


def blowing_batch(step):
    """Three paths of `unstable_model`, the second blowing up on step `step`."""
    X = np.zeros((3, 8))
    X[:, 0] = [0.3, 0.2, 0.1]
    X[1, 4] = 3e8 / 5.0 ** (step + 1)
    return X


class TestIntervalFlush:
    """Steps folded a block of `_march` at a time give the bits of per-step updates."""

    def test_audit_ledger_is_evaluated_once_per_block(self, monkeypatch):
        # one evaluation of the step terms per block, on all k*P rows: the
        # audit series and the audited paths' ledger read the same one
        model = make_model(dt=2e-3, horizon=0.3)
        calls, inner = [], solver._step_terms

        def counted(*args):
            calls.append(args[2].shape[0])
            return inner(*args)

        monkeypatch.setattr(solver, "_step_terms", counted)
        X = 0.4 * np.random.default_rng(1).standard_normal((6, 8))
        res = run_paths(model, X, 3, n_out=2, track_audit=True)
        assert res.ledger["t"].shape == (model.n_steps, AUDITED_PATHS)
        assert calls == [6 * (b - a) for a, b in solver._blocks(model.n_steps, {model.n_steps})]
        assert sum(calls) == model.n_steps * 6
        calls.clear()
        run_paths(model, X, 3, n_out=2)
        assert calls == []

    @pytest.mark.parametrize("blowing", [False, True])
    def test_audit_changes_no_bit_of_the_other_outputs(self, blowing):
        # the audit only reads the steps: terminal states, blow-ups and the
        # base and functional series are those of the run without it
        if blowing:
            model, X = unstable_model(horizon=40.0), blowing_batch(60)
        else:
            model = make_model(dt=2e-3, horizon=0.3,
                               sigma=SaturatingNoise(MARKS, np.array([0.4, 0.2])))
            X = 0.5 * np.random.default_rng(4).standard_normal((6, 8))
        kw = dict(n_out=7, functionals=bump_functionals(model))
        plain = run_paths(model, X, 5, **kw)
        audited = run_paths(model, X, 5, track_audit=True, **kw)
        assert audited.blown.any() == blowing
        assert np.array_equal(plain.terminal, audited.terminal)
        assert np.array_equal(plain.blown, audited.blown)
        assert np.array_equal(plain.blow_steps, audited.blow_steps)
        assert np.array_equal(plain.times, audited.times)
        assert set(audited.series) - set(plain.series) == set(solver._SERIES_AUDIT)
        for name, series in plain.series.items():
            assert np.array_equal(audited.series[name], series), name

    def test_run_paths_blocks_end_at_every_output_step(self, monkeypatch):
        model = make_model(dt=2e-3, horizon=0.3)
        X = 0.4 * np.random.default_rng(1).standard_normal((3, 8))
        blocks, inner = [], solver._march

        def recorded(*args, **kw):
            for block in inner(*args, **kw):
                blocks.append(block.steps)
                yield block

        monkeypatch.setattr(solver, "_march", recorded)
        for n_out in (2, 4, 11, model.n_steps + 1):
            blocks.clear()
            res = run_paths(model, X, 4, n_out=n_out)
            assert np.array_equal(np.concatenate(blocks), np.arange(1, model.n_steps + 1))
            assert all(0 < b.size <= FLUSH_STEPS for b in blocks)
            ends = {int(b[-1]) for b in blocks}
            out = np.rint(res.times[1:] / model.dt).astype(int)
            assert out.size == min(n_out, model.n_steps + 1) - 1
            assert set(out.tolist()) <= ends
            assert all(b.size == FLUSH_STEPS for b in blocks if b[-1] not in set(out.tolist()))

    def test_series_do_not_depend_on_the_flush_interval(self, monkeypatch):
        model = make_model(dt=2e-3, horizon=0.3)  # 150 steps: two cap flushes and a rest
        assert model.n_steps > 2 * FLUSH_STEPS
        X = 0.4 * np.random.default_rng(8).standard_normal((5, 8))
        kw = dict(track_audit=True, functionals=bump_functionals(model))
        every = run_paths(model, X, 4, n_out=model.n_steps + 1, **kw)
        # its maxima are the running maxima of what it snapshots every step
        s = every.series
        for name, values in (("sup_l2_sq", s["l2_sq"]), ("mart_sup", np.abs(s["mart_cum"])),
                             ("sup_energy", s["l2_sq"] + 2.0 * PARAMS.kappa1 * s["diss_int"])):
            assert np.array_equal(s[name], np.maximum.accumulate(values)), name
        for n_out in (2, 4, 11):
            assert_rows_equal(every, run_paths(model, X, 4, n_out=n_out, **kw))
        for cap in (1, 7):
            monkeypatch.setattr(solver, "FLUSH_STEPS", cap)
            assert_rows_equal(every, run_paths(model, X, 4, n_out=2, **kw))

    def test_pair_and_level_integrals_do_not_depend_on_the_flush_interval(self, monkeypatch):
        model = make_model(dt=2e-3, horizon=0.3)
        rng = np.random.default_rng(6)
        X1 = 0.5 * rng.standard_normal((4, 8))
        X2 = X1 + 0.1 * rng.standard_normal((4, 8))
        models = [make_model(level=lv, dt=2e-3, horizon=0.3, sigma=additive_sigma(lv))
                  for lv in (4, 8)]
        pairs = run_pairs(model, X1, X2, 3, conv_bound=0.2, n_out=2)
        every = run_pairs(model, X1, X2, 3, conv_bound=0.2, n_out=model.n_steps + 1)
        assert np.array_equal(every["rho_wsq"][[0, -1]], pairs["rho_wsq"])
        levels = run_levels(models, X1, 3)
        for cap in (1, 7):
            monkeypatch.setattr(solver, "FLUSH_STEPS", cap)
            other = run_levels(models, X1, 3)
            for a, b in zip(other["energy_gap_int"], levels["energy_gap_int"]):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_paths", [3, 6])
    def test_kept_audit_rows_do_not_depend_on_the_blocks(self, n_paths):
        # the audited states and ledger outlive the blocks, whose buffers
        # the next block reuses: they are copies, the same for any blocks
        model = make_model(dt=2e-3, horizon=0.3)
        assert model.n_steps > 2 * FLUSH_STEPS
        X = 0.4 * np.random.default_rng(3).standard_normal((n_paths, 8))
        a, b = (run_paths(model, X, 7, n_out=n_out, track_audit=True) for n_out in (2, 11))
        assert np.array_equal(a.states, b.states)
        for column in LEDGER_COLUMNS:
            assert np.array_equal(a.ledger[column], b.ledger[column]), column
        assert np.array_equal(a.states[-1], a.terminal[:AUDITED_PATHS])

    def test_ledger_equals_per_step_terms(self, monkeypatch):
        sigma = SaturatingNoise(MARKS, np.array([0.4, 0.2]))
        model = make_model(dt=2e-3, horizon=0.3, sigma=sigma)
        X = 0.5 * np.random.default_rng(2).standard_normal((6, 8))
        jumps = _draw_jumps(model, 12, 6, 0)
        res = run_paths(model, X, 12, track_audit=True, jumps=jumps)
        want = {k: [] for k in LEDGER_COLUMNS}
        A = AUDITED_PATHS
        monkeypatch.setattr(solver, "FLUSH_STEPS", 1)  # one-step blocks: the per-step terms
        for s in _march(model, X, np.full(6, -1), jumps, keep_pieces=True):
            assert s.steps.size == 1
            # the audited rows' terms, on those rows alone
            pieces = [None if a is None else a[:A] for a in s.pieces]
            d = _step_terms(model, model.dt, *pieces)
            # the audited paths' events in the step's window (n*dt, (n+1)*dt]
            lo, hi = (s.steps[0] - 1) * model.dt, s.steps[0] * model.dt
            events = [marks[(t > lo) & (t <= hi)] for t, marks in jumps[:A]]
            # the jump variation by a per-event oracle: each event of mark z
            # adds |g_z c(u)|^2 at the path's pre-step state u
            amps = [[sigma.gains[z] * sigma.core(u[None, :])[0] for z in zs]
                    for u, zs in zip(pieces[0], events)]
            d.update(t=np.full(A, s.t[0]), dt=np.full(A, model.dt),
                     n_jumps=np.array([zs.size for zs in events], float),
                     qv_jump=np.array([sum(float(a @ a) for a in amp) for amp in amps]))
            for k in want:
                want[k].append(d[k])
        assert len(want["t"]) > FLUSH_STEPS and all(t.size > 0 for t, _ in jumps[:A])
        want = {k: np.array(values) for k, values in want.items()}
        jumped = want["n_jumps"] > 0
        assert np.all(want["qv_jump"][jumped] > 0) and np.all(want["qv_jump"][~jumped] == 0)
        assert res.ledger["qv_jump"] == pytest.approx(want.pop("qv_jump"), rel=1e-13, abs=0.0)
        for k, values in want.items():
            assert np.array_equal(res.ledger[k], values), k

    def test_blowup_mid_interval(self):
        # the second path blows up on step 100, inside the second cap interval
        model = unstable_model(horizon=40.0)
        X = blowing_batch(100)
        kw = dict(track_audit=True, functionals=bump_functionals(model))
        every = run_paths(model, X, 5, n_out=model.n_steps + 1, **kw)
        res = run_paths(model, X, 5, n_out=2, **kw)
        assert res.blow_steps.tolist() == [-1, 100, -1]
        assert_rows_equal(every, res)
        # the blown path's accumulators stop at its last finite state
        for name, series in every.series.items():
            assert np.all(series[100:, 1] == series[100, 1]), name
        assert res.series["l2_sq"][-1, 1] == np.sum(res.terminal[1] ** 2)
        assert res.ledger["h2_post_sq"][-1, 1] == np.sum(model.basis.eigenvalues
                                                          * res.terminal[1] ** 2)
        # and the survivors are those of a run without it
        keep = [0, 2]
        jumps = _draw_jumps(model, 5, 3, 0)
        alone = run_paths(model, X[keep], 5, n_out=2, jumps=[jumps[p] for p in keep], **kw)
        assert np.array_equal(res.terminal[keep], alone.terminal)
        for name, series in alone.series.items():
            assert np.array_equal(res.series[name][:, keep], series), name

    @settings(max_examples=20, deadline=None)
    @given(step=st.integers(0, 150), n_out=st.integers(2, 161), audit=st.booleans())
    def test_blowup_at_any_step_and_interval(self, step, n_out, audit):
        model = unstable_model(horizon=40.0)
        X = blowing_batch(step)
        kw = dict(track_audit=audit, functionals=bump_functionals(model))
        every = run_paths(model, X, 5, n_out=model.n_steps + 1, **kw)
        res = run_paths(model, X, 5, n_out=n_out, **kw)
        assert res.blow_steps.tolist() == [-1, step, -1]
        assert_rows_equal(every, res)
        for name, series in every.series.items():
            assert np.all(series[step:, 1] == series[step, 1]), name
        assert res.series["l2_sq"][-1, 1] == np.sum(res.terminal[1] ** 2)

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["zero", "additive", "linear", "saturating"]),
           p=st.floats(1.05, 2.0), level=st.sampled_from([1, 4, 8, 12]),
           seed=st.integers(0, 2**16))
    def test_ledger_replays_the_terminal_energy(self, kind, p, level, seed):
        gains = np.array([0.4, 0.2])
        sigma = {"zero": lambda: ZeroNoise(MARKS),
                 "additive": lambda: additive_sigma(level),
                 "linear": lambda: LinearNoise(MARKS, gains),
                 "saturating": lambda: SaturatingNoise(MARKS, gains)}[kind]()
        cfg = SolverConfig(params=replace(PARAMS, p=p), level=level, dt=2e-3, horizon=0.2)
        model = FluidModel(cfg, sigma)
        xi = 0.5 * np.random.default_rng(seed).standard_normal(level)
        _, led = one_path(model, xi, seed)
        assert led["t"].size >= model.n_steps > FLUSH_STEPS
        assert energy_audit(led)["replay_max"] < 1e-9
