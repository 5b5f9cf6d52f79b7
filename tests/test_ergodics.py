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
    stationary_second_moments,
    stochastic_gronwall_audit,
    uniqueness_contraction,
)
from levyfluid.noise import AdditiveNoise, LinearNoise, MarkSpace, ZeroNoise
from levyfluid.operators import FluidParams
from levyfluid.solver import FluidModel, SolverConfig, run_pairs, run_paths

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
        drive = additive_drive_rates(sigma, 8)
        series = linear_second_moments(
            model.basis.eigenvalues, PARAMS.kappa1, model.dt, model.n_steps,
            drive, np.zeros(8),
        )
        vals = res.series["l2_sq"][-1]
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - series[-1].sum()) <= 3.0 * se

    def test_drive_rates_require_additive(self):
        with pytest.raises(ValueError):
            additive_drive_rates(ZeroNoise(MARKS), 4)


class TestBootstrap:
    @pytest.mark.parametrize("n", [2, 37, 256, 1000])
    @pytest.mark.parametrize("make_rng", [lambda: np.random.default_rng(5),
                                          lambda: np.random.Generator(np.random.Philox(5))],
                             ids=["pcg64", "philox"])
    def test_chunked_draw_has_the_bits_of_one_draw(self, n, make_rng):
        values = np.random.default_rng(n).standard_normal(n)
        ref = make_rng()
        idx = ref.integers(0, n, size=(400, n))
        want = float(values[idx].mean(axis=1).std(ddof=1))
        rng = make_rng()
        assert ergodics.bootstrap_se(values, rng) == want
        # and the stream is left where the one draw leaves it
        assert rng.integers(0, 2**62, 4).tolist() == ref.integers(0, 2**62, 4).tolist()

    def test_memory_stays_in_chunks(self):
        import tracemalloc

        values = np.random.default_rng(0).standard_normal(256)
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            ergodics.bootstrap_se(values, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestMoments:
    def test_zero_system_gives_zero(self):
        model = make_model(sigma=ZeroNoise(MARKS), horizon=0.25)
        spec = EnsembleSpec(8, 3, ("fixed", np.zeros(8)))
        result = run_paths(model, draw_initials(spec, model.basis), spec.seed)
        est = mc_moment(result, 1, spec.seed)
        assert est["sup_moment"] == 0.0
        assert est["diss_moment"] == 0.0
        assert est["n_blown"] == 0

    def test_r_validation(self):
        result = run_paths(make_model(horizon=0.25), np.zeros((2, 8)), 0)
        with pytest.raises(ValueError):
            mc_moment(result, 3, 0)

    def test_trend_verdict(self):
        ok, diag = no_increase_verdict([1.0, 0.9, 0.85], [0.05, 0.05, 0.05])
        assert ok and diag["slope_z"] < 0
        bad, diag = no_increase_verdict([1.0, 2.0, 3.0], [0.01, 0.01, 0.01])
        assert not bad and diag["slope_z"] > 1.645

    def test_trend_verdict_with_zero_standard_errors(self):
        # a deterministic ensemble: every SE is 0, and the verdict still reads
        # the estimates (under the suite's RuntimeWarning filter, no division
        # by zero either)
        ok, diag = no_increase_verdict([0.5, 0.5, 0.5], [0.0, 0.0, 0.0])
        assert ok and diag["slope_z"] == 0.0
        bad, diag = no_increase_verdict([0.5, 0.5 + 1e-12, 0.5 + 2e-12], [0.0, 0.0, 0.0])
        assert not bad and diag["slope_z"] > 1.645


class TestCauchy:
    def test_levels_must_increase(self):
        spec = EnsembleSpec(2, 0)
        with pytest.raises(ValueError):
            cauchy_study([make_model(level=m, horizon=0.25) for m in (8, 4)], spec)

    def test_equal_level_gap_is_zero(self):
        # degenerate two-level study where the tail is empty
        sigma = ZeroNoise(MARKS)
        spec = EnsembleSpec(2, 1, ("fixed", np.ones(8)))
        out = cauchy_study(
            [make_model(level=m, horizon=0.25, sigma=sigma, convection=False, stress=False)
             for m in (4, 8, 16)],
            spec,
        )
        # modes 8..15 start at zero and stay zero: second gap vanishes
        assert out["rows"][1]["terminal_gap_sq"] == pytest.approx(0.0, abs=1e-25)

    def test_linear_tail_energy_closed_form(self):
        sigma = ZeroNoise(MARKS)
        xi = np.concatenate([np.linspace(1.0, 0.2, 8), 0.1 * np.ones(8)])
        spec = EnsembleSpec(2, 1, ("fixed", xi))
        models = [make_model(level=m, dt=1e-3, horizon=0.25, sigma=sigma,
                             convection=False, stress=False) for m in (4, 8, 16)]
        out = cauchy_study(models, spec)
        top = models[-1]
        decay = (1.0 + top.dt * PARAMS.kappa1 * top.basis.eigenvalues) ** (-top.n_steps)
        terminal = xi * decay
        for i, (lo, hi) in enumerate([(4, 8), (8, 16)]):
            expected = float(np.sum(terminal[lo:hi] ** 2))
            assert out["rows"][i]["terminal_gap_sq"] == pytest.approx(expected, rel=1e-3)


def coupled(model, spec, xi1, xi2, conv_bound):
    """`uniqueness_contraction` of spec.n_paths pairs all started at (xi1, xi2)."""
    X1, X2 = (np.tile(xi, (spec.n_paths, 1)) for xi in (xi1, xi2))
    return uniqueness_contraction(run_pairs(model, X1, X2, spec.seed, conv_bound), xi1, xi2)


class TestContraction:
    def test_identical_initials_zero_statistic(self):
        model = make_model(horizon=0.25)
        spec = EnsembleSpec(4, 5)
        xi = np.zeros(8)
        out = coupled(model, spec, xi, xi, conv_bound=0.2)
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
        out = coupled(model, spec, xi1, xi2, conv_bound=0.3)
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
            coupled(model, spec, xi, xi + s * d, conv_bound=0.2)
            for s in (0.1, 0.01)
        ]
        a, b = (o["statistic"][-1] for o in outs)
        ea, eb = (o["stderr"][-1] for o in outs)
        assert abs(a - b) <= 2.0 * (ea + eb)


class TestSemigroup:
    def test_unregistered_functional_rejected(self):
        with pytest.raises(KeyError):
            make_functional("unbounded_energy", build_basis(4, 2))

    def test_chapman_kolmogorov_agreement(self):
        model_t, model_s, model_ts = (make_model(dt=2.5e-3, horizon=h) for h in (0.25, 0.25, 0.5))
        phis = {"inv_bump": make_functional("inv_bump", build_basis(8, 2))}
        out = chapman_kolmogorov(model_t, model_s, model_ts, phis, np.zeros(8),
                                 n_outer=32, n_inner=16, seed=5)["inv_bump"]
        assert out["z"] <= 4.0, out
        # the direct stage runs to t + s, read from the other two horizons
        with pytest.raises(ValueError, match="horizon"):
            chapman_kolmogorov(model_t, model_s, model_t, phis, np.zeros(8),
                               n_outer=2, n_inner=2, seed=5)

    def test_feller_modulus_decreases(self):
        model = make_model(dt=2.5e-3, horizon=0.25)
        phis = {"gauss_bump": make_functional("gauss_bump", model.basis)}
        d = np.zeros(8)
        d[-1] = 1.0
        out = feller_modulus(model, phis, np.zeros(8), d, [0.4, 0.2, 0.1], 64,
                             seed=6)["gauss_bump"]
        assert out["monotone"], out["rows"]
        assert out["rows"][-1]["modulus"] < out["rows"][0]["modulus"] + 1e-9

    def test_feller_modulus_steps_every_start_in_one_run(self, monkeypatch):
        # one jump draw per path and one run of the base start and every
        # perturbed start, row i*P + p seeing the events of path p; the
        # moduli are those of one run per start on that draw
        model = make_model(dt=2.5e-3, horizon=0.25)
        phi = make_functional("gauss_bump", model.basis)
        d = np.zeros(8)
        d[-1] = 1.0
        deltas = [0.4, 0.2, 0.1]
        real_sample, real_run = solver.sample_jumps, ergodics.run_paths
        calls, runs = [], []

        def counted(*a):
            calls.append(a)
            return real_sample(*a)

        def recorded(model, X, seed, **kw):
            runs.append((X, kw["jumps"]))
            return real_run(model, X, seed, **kw)

        monkeypatch.setattr(solver, "sample_jumps", counted)
        monkeypatch.setattr(ergodics, "run_paths", recorded)
        out = feller_modulus(model, {"gauss_bump": phi}, np.zeros(8), d, deltas, 24,
                             seed=6)["gauss_bump"]
        assert len(calls) == 24 and len(runs) == 1
        X, jumps = runs[0]
        assert X.shape == (4 * 24, 8)
        assert all(jumps[i * 24 + p] is jumps[p] for i in range(4) for p in range(24))
        base = real_run(model, X[:24], 6, n_out=2, jumps=jumps[:24])
        for i, (delta, row) in enumerate(zip(deltas, out["rows"]), 1):
            starts = X[i * 24:(i + 1) * 24]
            assert np.array_equal(starts, X[:24] + delta * d)
            alone = real_run(model, starts, 6, n_out=2, jumps=jumps[:24])
            want = abs(np.mean(phi(alone.terminal) - phi(base.terminal)))
            assert row["modulus"] == pytest.approx(want, rel=1e-9) and row["n_dropped"] == 0

    def test_functionals_share_one_simulation(self, monkeypatch):
        # several functionals in one call step each path set once and give
        # each functional the values of a call of its own, bit for bit
        model_t, model_s, model_ts = (make_model(dt=2.5e-3, horizon=h) for h in (0.25, 0.25, 0.5))
        names = ("gauss_bump", "inv_bump", "cos_coord")
        phis = {name: make_functional(name, model_t.basis) for name in names}
        xi, d = np.zeros(8), np.zeros(8)
        d[-1] = 1.0
        real_run = ergodics.run_paths
        runs = []

        def counted(*a, **kw):
            runs.append(a[0])
            return real_run(*a, **kw)

        monkeypatch.setattr(ergodics, "run_paths", counted)
        ck = chapman_kolmogorov(model_t, model_s, model_ts, phis, xi, 8, 4, seed=5)
        mod = feller_modulus(model_t, phis, xi, d, [0.4, 0.2], 16, seed=6)
        assert len(runs) == 3 + 1  # three stages; every start of the modulus in one run
        for name, phi in phis.items():
            one = {name: phi}
            assert chapman_kolmogorov(model_t, model_s, model_ts, one, xi, 8, 4, seed=5) == {
                name: ck[name]}
            assert feller_modulus(model_t, one, xi, d, [0.4, 0.2], 16, seed=6) == {
                name: mod[name]}


def cap_between(sup_sq, q):
    """A blow-up norm whose square lies between the sorted squared sups at
    quantile q, so that exactly the paths above it blow up."""
    sup_sq = np.sort(sup_sq)
    i = int(q * sup_sq.size)
    assert sup_sq[i - 1] < sup_sq[i]
    return np.sqrt(0.5 * (sup_sq[i - 1] + sup_sq[i]))


class TestBlownPaths:
    """The Feller estimates drop blown paths and count them, checked against
    runs without a cap: a path blows up exactly when its squared norm
    exceeds the cap at some step, and the others keep their trajectories."""

    SIGMA = additive_sigma(scale=5.0)  # jumps of squared size ~1.5

    def models(self, horizons, **kw):
        return [make_model(dt=2.5e-3, horizon=h, sigma=self.SIGMA, **kw) for h in horizons]

    def test_feller_modulus_drops_pairs_with_a_blown_path(self):
        (free,) = self.models([0.25])
        phi = make_functional("inv_bump", free.basis)
        d = np.zeros(8)
        d[-1] = 1.0
        n = 32
        starts = np.concatenate([np.zeros((n, 8)) + delta * d for delta in (0.0, 0.4, 0.2)])
        ref = run_paths(free, starts, 6, n_out=2, jumps=solver._draw_jumps(free, 6, n, 0) * 3)
        sup_sq = ref.series["sup_l2_sq"][-1]
        norm = cap_between(sup_sq, 0.85)
        blown = (sup_sq > norm**2).reshape(3, n)
        values = phi(ref.terminal).reshape(3, n)
        (capped,) = self.models([0.25], blowup_norm=norm)
        out = feller_modulus(capped, {"inv_bump": phi}, np.zeros(8), d, [0.4, 0.2], n,
                             seed=6)["inv_bump"]
        for i, row in enumerate(out["rows"], 1):
            kept = ~(blown[0] | blown[i])
            assert 0 < row["n_dropped"] == n - kept.sum() < n
            want = abs(np.mean(values[i][kept] - values[0][kept]))
            assert row["modulus"] == pytest.approx(want, rel=1e-9)

    def test_chapman_kolmogorov_drops_blown_clusters_and_paths(self):
        n_outer, n_inner, seed = 16, 8, 5
        t, _, ts = self.models([0.25, 0.25, 0.5])
        phi = make_functional("inv_bump", t.basis)
        direct = run_paths(ts, np.zeros((n_outer * n_inner, 8)), seed, n_out=2)
        norm = cap_between(direct.series["sup_l2_sq"][-1], 0.5)
        outer = run_paths(t, np.zeros((n_outer, 8)), seed, n_out=2, path_offset=1_000_000)
        outer_blown = outer.series["sup_l2_sq"][-1] > norm**2
        inner = run_paths(t, np.repeat(outer.terminal, n_inner, axis=0), seed, n_out=2,
                          path_offset=2_000_000)
        kept = (inner.series["sup_l2_sq"][-1] <= norm**2).reshape(n_outer, n_inner)
        kept &= ~outer_blown[:, None]
        values = phi(inner.terminal).reshape(n_outer, n_inner)
        clusters = [values[c][kept[c]].mean() for c in range(n_outer) if kept[c].any()]
        assert len(clusters) < n_outer - outer_blown.sum()  # a cluster left empty is dropped

        out = chapman_kolmogorov(*self.models([0.25, 0.25, 0.5], blowup_norm=norm),
                                 {"inv_bump": phi}, np.zeros(8), n_outer, n_inner,
                                 seed)["inv_bump"]
        direct_blown = direct.series["sup_l2_sq"][-1] > norm**2
        assert out["n_blown_direct"] == direct_blown.sum() > 0
        assert out["n_blown_outer"] == outer_blown.sum() > 0
        assert out["n_blown_inner"] == (~kept & ~outer_blown[:, None]).sum() > 0
        assert out["direct"] == pytest.approx(np.mean(phi(direct.terminal[~direct_blown])),
                                              rel=1e-9)
        assert out["nested"] == pytest.approx(np.mean(clusters), rel=1e-9)


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
            additive_drive_rates(sigma, 8),
        ).sum()
        assert abs(row["average"] - target) <= 3.0 * row["se"] + 0.05 * target

    def test_one_replica_gets_block_bootstrap_error_bars(self):
        # a bootstrap over one replica would give zero; its time blocks give a spread
        model = make_model(dt=5e-3, horizon=4.0)
        spec = EnsembleSpec(1, 5, ("fixed", np.zeros(8)))
        occ = occupation_measure(model, ("sq_norm",), [2.0, 3.0, 4.0], 1.0, spec)
        ses = [r["se"] for r in occ["sq_norm"]["rows"]]
        assert len(ses) == 3 and all(np.isfinite(se) and se > 0 for se in ses)


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
            drive = additive_drive_rates(sigma, 12)
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
