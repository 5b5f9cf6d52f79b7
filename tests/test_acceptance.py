"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run with -s to see them inline).
The tolerances are fixed here, not tuned at runtime: operator identities
at 1e-10 relative, stress monotonicity at -1e-8 * (1 + ||u||_1^2 +
||v||_1^2), Monte Carlo agreements at 3 or 4 standard errors, trend
tests at the one-sided 95% point, the invariant-bound slack at 20%, and
byte equality for reproducibility.
"""

import numpy as np
from scipy import stats

from levyfluid.basis import build_basis
from levyfluid.config import parse_config_text
from levyfluid.ergodics import (
    EnsembleSpec,
    occupation_measure,
)
from levyfluid.experiments import run_experiment
from levyfluid.noise import (
    STREAM_JUMPS,
    MarkSpace,
    ZeroNoise,
    derive_rng,
    sample_jumps,
)
from levyfluid.operators import (
    FluidParams,
    SpectralOperators,
    measure_korn_constants,
    measure_stress_lipschitz,
)
from levyfluid.solver import FluidModel, SolverConfig


def report(number, name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {tag} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def run(text, out, workers=1):
    cfg = parse_config_text(text)
    code, summary = run_experiment(cfg, out_dir=out, workers=workers)
    return code, summary


class TestCriterion1Operators:
    def test_operator_certificates(self):
        rng = np.random.default_rng(101)
        basis = build_basis(16, 2)
        ops = SpectralOperators(basis)
        params = FluidParams(kappa0=0.5, kappa1=1.0, reg=0.8, p=1.5)
        n = 10_000

        U = rng.standard_normal((n, 16)) * rng.uniform(0.2, 2.0, (n, 1))
        V = rng.standard_normal((n, 16)) * rng.uniform(0.2, 2.0, (n, 1))

        # skew-symmetry: b(u, v, v) = 0 to 1e-10 relative
        BV = ops.convection(U, V)
        skew = np.einsum("pm,pm->p", BV, V)
        scale = (
            np.linalg.norm(U, axis=1)
            * np.sqrt((basis.ksq * V**2).sum(axis=1))
            * np.sqrt((basis.eigenvalues * V**2).sum(axis=1))
        )
        skew_ok = bool(np.max(np.abs(skew) / np.maximum(scale, 1e-30)) < 1e-10)

        # stress monotonicity with the quadrature allowance
        dAp = ops.nonlinear_stress(U, params) - ops.nonlinear_stress(V, params)
        pair = np.einsum("pm,pm->p", dAp, U - V)
        h1sq = (basis.ksq * U**2).sum(axis=1) + (basis.ksq * V**2).sum(axis=1)
        mono_ok = bool(np.all(pair >= -1e-8 * (1.0 + h1sq)))

        # Lipschitz constant measured once, stable across reruns
        c_hat = measure_stress_lipschitz(ops, params, np.random.default_rng(55))
        c_rerun = measure_stress_lipschitz(ops, params, np.random.default_rng(55))
        c_other = measure_stress_lipschitz(ops, params, np.random.default_rng(77))
        num = np.sqrt((dAp**2 / basis.eigenvalues).sum(axis=1))
        den = np.sqrt((basis.ksq * (U - V) ** 2).sum(axis=1))
        lip_ok = (
            c_hat == c_rerun
            and abs(c_other - c_hat) <= 0.3 * c_hat
            and bool(np.all(num <= c_hat * den * (1 + 1e-9) + 1e-12))
        )

        # Korn two-sided bounds with measured constants; strain norms by
        # quadrature on the stress collocation grid
        lo, hi = measure_korn_constants(ops, rng)
        strain = ops.strain_norm(U)
        h1 = np.sqrt((basis.ksq * U**2).sum(axis=1))
        korn_ok = bool(
            np.all(strain >= lo * h1 * (1 - 1e-12))
            and np.all(strain <= hi * h1 * (1 + 1e-12))
        )

        report(
            1,
            "operator certificates",
            skew_ok and mono_ok and lip_ok and korn_ok,
            f"skew={skew_ok} mono={mono_ok} lip={lip_ok} (C^={c_hat:.3f}) korn={korn_ok}",
        )


class TestCriterion2Noise:
    def test_noise_calibration(self):
        marks = MarkSpace(np.array([1.0, 3.0]))
        lam, horizon = marks.total_rate, 2.0
        n_paths = 10_000
        counts = np.array(
            [
                sample_jumps(marks, horizon, derive_rng(202, STREAM_JUMPS, i))[0].size
                for i in range(n_paths)
            ]
        )
        mu = lam * horizon
        kmax = int(stats.poisson.ppf(0.9999, mu))
        observed = np.bincount(np.minimum(counts, kmax + 1), minlength=kmax + 2).astype(float)
        expected = stats.poisson.pmf(np.arange(kmax + 2), mu) * n_paths
        expected[-1] = n_paths - expected[:-1].sum() + expected[-1]
        obs_m, exp_m, acc_o, acc_e = [], [], 0.0, 0.0
        for o, e in zip(observed, expected):
            acc_o, acc_e = acc_o + o, acc_e + e
            if acc_e >= 5.0:
                obs_m.append(acc_o)
                exp_m.append(acc_e)
                acc_o = acc_e = 0.0
        obs_m[-1] += acc_o
        exp_m[-1] += acc_e
        chi2 = float(np.sum((np.array(obs_m) - np.array(exp_m)) ** 2 / np.array(exp_m)))
        crit = stats.chi2.ppf(0.99, len(obs_m) - 1)
        mean_band = 3.0 * np.sqrt(mu / n_paths)
        chi_ok = chi2 < crit and abs(counts.mean() - mu) <= mean_band

        # compensated window increments of a frozen two-coordinate amplitude
        gains = np.array([0.3, 0.1])
        amp = np.array([[1.0, 0.5], [0.2, -0.4]])  # per-mark amplitude vectors
        dt, n_win = 0.05, 100_000
        times, labels = sample_jumps(marks, n_win * dt, derive_rng(203, STREAM_JUMPS, 0))
        win = np.minimum((np.ceil(times / dt) - 1).astype(int), n_win - 1)
        cnt = np.zeros((n_win, 2))
        np.add.at(cnt, (win, labels), 1.0)
        sig = gains[:, None] * amp  # (K, 2)
        inc = cnt @ sig - dt * np.einsum("k,kc->c", marks.rates, sig)
        mean_ok = True
        for c in range(2):
            se = inc[:, c].std(ddof=1) / np.sqrt(n_win)
            mean_ok = mean_ok and abs(inc[:, c].mean()) <= 4.0 * se

        sq = np.sum(inc**2, axis=1)
        expected_iso = dt * float(np.sum(marks.rates * np.sum(sig**2, axis=1)))
        se_iso = sq.std(ddof=1) / np.sqrt(n_win)
        iso_ok = abs(sq.mean() - expected_iso) <= 3.0 * se_iso

        report(
            2,
            "noise calibration",
            chi_ok and mean_ok and iso_ok,
            f"chi2={chi2:.1f}<{crit:.1f} mean4se={mean_ok} isometry3se={iso_ok}",
        )


MOMENTS_CFG = """
experiment = moments
fluid.kappa0 = 0.5
fluid.kappa1 = 1.0
fluid.reg = 1.0
fluid.p = 1.5
disc.level = 32
disc.dt = 0.001
disc.horizon = 1.0
noise.kind = additive
noise.gains = [0.4, 0.2]
noise.scale = 0.6
noise.shape_level = 4
ensemble.paths = 1000
ensemble.seed = 31
ensemble.initial = mode1
ensemble.scale = 0.5
moments.levels = [4, 8, 16, 32]
"""

MOMENTS_ORACLE_CFG = """
experiment = moments
fluid.kappa0 = 0.5
fluid.p = 1.5
disc.level = 8
disc.dt = 0.002
disc.horizon = 2.0
disc.convection = false
disc.stress = false
noise.kind = additive
noise.gains = [0.4, 0.2]
noise.scale = 0.6
noise.shape_level = 4
ensemble.paths = 384
ensemble.seed = 33
ensemble.initial = zero
moments.levels = [8]
"""


class TestCriterion3Moments:
    def test_moment_bounds(self, tmp_path):
        code, summary = run(MOMENTS_CFG, tmp_path / "full")
        trend_ok = code == 0 and summary["verdict"] == "PASS"
        code2, s2 = run(MOMENTS_ORACLE_CFG, tmp_path / "oracle")
        oracle = s2["oracle"]
        oracle_ok = oracle is not None and oracle["passed"]
        report(
            3,
            "moment bounds",
            trend_ok and oracle_ok,
            f"trend={trend_ok} oracle_z={oracle['z']:.2f}",
        )


CAUCHY_CFG = """
experiment = cauchy
fluid.kappa0 = 0.5
fluid.p = 1.5
disc.level = 32
disc.dt = 0.001
disc.horizon = 1.0
noise.kind = additive
noise.gains = [0.4, 0.2]
noise.scale = 0.8
noise.shape_level = 20
ensemble.paths = 128
ensemble.seed = 41
ensemble.initial = gaussian
ensemble.scale = 0.5
cauchy.levels = [4, 8, 16, 32]
"""

CAUCHY_ORACLE_CFG = """
experiment = cauchy
fluid.kappa0 = 0.5
fluid.p = 1.5
disc.level = 32
disc.dt = 0.001
disc.horizon = 0.5
disc.convection = false
disc.stress = false
noise.kind = zero
ensemble.paths = 2
ensemble.seed = 43
ensemble.initial = gaussian
ensemble.scale = 0.7
cauchy.levels = [4, 8, 16, 32]
"""


class TestCriterion4Cauchy:
    def test_galerkin_convergence(self, tmp_path):
        code, summary = run(CAUCHY_CFG, tmp_path / "full")
        full_ok = (
            code == 0
            and summary["decreasing"]
            and summary["final_ratio"] < 0.5
        )
        code2, s2 = run(CAUCHY_ORACLE_CFG, tmp_path / "oracle")
        oracle_ok = code2 == 0 and s2["oracle"] is not None and s2["oracle"]["passed"]
        rel = max(s2["oracle"]["rel_errors"]) if s2["oracle"] else float("nan")
        report(
            4,
            "galerkin convergence",
            full_ok and oracle_ok,
            f"ratio={summary['final_ratio']:.3f} oracle_rel_err={rel:.2e}",
        )


CONTRACTION_CFG = """
experiment = contraction
fluid.kappa0 = 0.5
fluid.p = 1.5
disc.level = 16
disc.dt = 0.001
disc.horizon = 1.5
noise.kind = linear
noise.gains = [0.25, 0.1]
ensemble.paths = 1000
ensemble.seed = 51
ensemble.initial = mode1
ensemble.scale = 0.4
contraction.separations = [0.1, 0.01, 0.001]
"""


class TestCriterion5Contraction:
    def test_pathwise_contraction(self, tmp_path):
        code, summary = run(CONTRACTION_CFG, tmp_path / "c")
        finals = summary["finals"]
        stats_txt = " ".join(f"{s:.3f}+-{e:.3f}" for _, s, e in finals)
        report(
            5,
            "pathwise contraction",
            code == 0 and summary["verdict"] == "PASS",
            f"finals: {stats_txt}",
        )


FELLER_CFG = """
experiment = feller
fluid.kappa0 = 0.5
fluid.p = 1.5
disc.level = 8
disc.dt = 0.0025
disc.horizon = 0.5
noise.kind = additive
noise.gains = [0.4, 0.2]
noise.scale = 0.6
ensemble.paths = 64
ensemble.seed = 61
ensemble.initial = mode1
ensemble.scale = 0.4
feller.lag = 0.25
feller.lag2 = 0.25
feller.inner = 24
feller.deltas = [0.4, 0.2, 0.1, 0.05]
"""


class TestCriterion6MarkovFeller:
    def test_markov_feller(self, tmp_path):
        code, summary = run(FELLER_CFG, tmp_path / "f")
        report(
            6,
            "markov-feller",
            code == 0
            and summary["chapman_kolmogorov_passed"]
            and summary["modulus_monotone"],
            f"ck={summary['chapman_kolmogorov_passed']} modulus={summary['modulus_monotone']}",
        )


INVARIANT_CFG = """
experiment = invariant-bound
fluid.kappa0 = 0.5
fluid.kappa1 = 1.0
fluid.p = 1.5
disc.level = 8
disc.dt = 0.005
disc.horizon = 300.0
noise.kind = additive
noise.gains = [0.4, 0.2]
noise.scale = 0.5
noise.shape_level = 4
ensemble.paths = 8
ensemble.seed = 71
occupation.schedule = [150.0, 200.0, 250.0, 300.0]
occupation.burn_in = 50.0
"""


class TestCriterion7InvariantBound:
    def test_invariant_moment_bound(self, tmp_path):
        code, summary = run(INVARIANT_CFG, tmp_path / "inv")
        in_regime_ok = (
            code == 0 and summary["measured"] <= summary["bound"] * 1.2
        )

        # the unforced degenerate case: the bound is zero and the long-run
        # average must decay below 1e-6
        marks = MarkSpace(np.array([1.0, 3.0]))
        cfg = SolverConfig(
            params=FluidParams(kappa0=0.5, kappa1=1.0, reg=1.0, p=1.5),
            level=8, dt=0.005, horizon=30.0,
        )
        model = FluidModel(cfg, ZeroNoise(marks))
        spec = EnsembleSpec(2, 72, ("fixed", 0.5 * np.ones(8)))
        occ = occupation_measure(
            model, ("sq_norm", "energy_norm_sq"), [20.0, 25.0, 30.0], 10.0, spec
        )
        decayed = (
            occ["sq_norm"]["rows"][-1]["average"]
            + occ["energy_norm_sq"]["rows"][-1]["average"]
        )
        decay_ok = decayed < 1e-6
        report(
            7,
            "invariant moment bound",
            in_regime_ok and decay_ok,
            f"measured={summary['measured']:.4f} <= 1.2*bound={1.2*summary['bound']:.4f}; "
            f"unforced avg={decayed:.2e}",
        )


AUDIT_CFG = """
experiment = audit
fluid.kappa0 = 0.5
fluid.p = 1.5
disc.level = 8
disc.dt = 0.001
disc.horizon = 1.0
noise.kind = additive
noise.gains = [0.4, 0.2]
noise.scale = 0.6
ensemble.paths = 256
ensemble.seed = 81
ensemble.initial = gaussian
ensemble.scale = 0.4
"""


class TestCriterion8Gronwall:
    def test_gronwall_audit(self, tmp_path):
        code, summary = run(AUDIT_CFG, tmp_path / "a")
        gron = summary["gronwall"]
        report(
            8,
            "stochastic gronwall audit",
            code == 0 and gron["applicable"] and gron["margin_min"] > 0.0,
            f"margin_min={gron['margin_min']:.4f} gamma={gron['gamma']:.3f}",
        )


class TestCriterion9Reproducibility:
    ARTIFACTS = ("summary.json", "gronwall.csv", "trajectory0.csv",
                 "ledger0.jsonl", "jumps0.jsonl")

    def test_reproducibility(self, tmp_path):
        outs = [tmp_path / f"r{i}" for i in range(3)]
        run(AUDIT_CFG, outs[0], workers=1)
        run(AUDIT_CFG, outs[1], workers=1)
        run(AUDIT_CFG, outs[2], workers=2)
        same_rerun = all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
            for f in self.ARTIFACTS
        )
        same_workers = all(
            (outs[0] / f).read_bytes() == (outs[2] / f).read_bytes()
            for f in self.ARTIFACTS
        )
        report(
            9,
            "reproducibility",
            same_rerun and same_workers,
            f"rerun={same_rerun} workers={same_workers}",
        )
