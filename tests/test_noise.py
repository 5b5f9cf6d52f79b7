import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from levyfluid.noise import (
    STREAM_BOUND,
    STREAM_INITIAL,
    STREAM_JUMPS,
    STREAM_STATS,
    AdditiveNoise,
    LinearNoise,
    MarkSpace,
    SaturatingNoise,
    ZeroNoise,
    certify_noise_bounds,
    derive_rng,
    keyed_draws,
    make_noise,
    sample_jumps,
    stream_keys,
    write_jump_log,
)
from levyfluid.basis import build_basis
from levyfluid.ergodics import EnsembleSpec, draw_initials
from levyfluid.operators import FluidParams
from levyfluid.solver import FluidModel, SolverConfig, _draw_jumps

from conftest import compensated_increment


@pytest.fixture(scope="module")
def marks():
    return MarkSpace(np.array([1.0, 3.0]))


class TestMarkSpace:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            MarkSpace(np.array([1.0, 0.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MarkSpace(np.array([]))

    def test_total_rate(self, marks):
        assert marks.total_rate == 4.0


def test_stream_kinds_are_distinct():
    kinds = (STREAM_JUMPS, STREAM_INITIAL, STREAM_STATS, STREAM_BOUND)
    assert len(set(kinds)) == len(kinds)


def _seed_sequence_rng(seed, kind, index):
    """The per-path generator as numpy builds it from a SeedSequence."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(kind, index))
    return np.random.Generator(np.random.Philox(ss))


class TestKeyedStreams:
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40 + 3, 10**20)
    # one-word indices, the Chapman-Kolmogorov stages' offsets among them,
    # then two-word ones
    INDICES = (0, 1, 1_000_001, 2_000_000, 2_000_017, 2**32 - 1, 2**32, 2**40 + 7)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_equal_seed_sequence(self, seed):
        for kind in range(4):
            want = [np.random.SeedSequence(entropy=seed, spawn_key=(kind, i)).generate_state(
                2, np.uint64) for i in self.INDICES]
            got = stream_keys(seed, kind, self.INDICES)
            assert got.dtype == np.uint64 and np.array_equal(got, want)

    def test_derived_generator_equals_seed_sequence_generator(self):
        for seed, index in ((0, 0), (10**20, 2**32 - 1), (7, 2**40 + 7)):
            a, b = derive_rng(seed, STREAM_STATS, index), _seed_sequence_rng(seed, STREAM_STATS, index)
            assert np.array_equal(a.standard_normal(9), b.standard_normal(9))
            assert a.random() == b.random()

    def test_keyed_draws_start_each_stream_fresh(self):
        # a draw that reads different amounts per stream leaves nothing for the next
        got = keyed_draws(3, STREAM_STATS, range(5, 12), lambda rng: rng.random(rng.integers(1, 9)))
        for index, values in zip(range(5, 12), got):
            rng = _seed_sequence_rng(3, STREAM_STATS, index)
            assert np.array_equal(values, rng.random(rng.integers(1, 9)))

    @pytest.mark.parametrize("horizon", [0.05, 1.525, 40.0])
    def test_jump_draws_equal_per_path_streams(self, marks, horizon):
        # at horizon 1.525 paths 2781 (seed 0), 119 (seed 1) and 937 (seed 2)
        # take a second block of gaps
        model = SimpleNamespace(marks=marks, config=SimpleNamespace(horizon=horizon))
        two_blocks = 0
        for seed, offset in ((0, 2770), (1, 110), (2, 930), (5, 1_000_000), (5, 2_000_000)):
            got = _draw_jumps(model, seed, 20, offset)
            for p, (times, labels) in enumerate(got):
                want = sample_jumps(marks, horizon, _seed_sequence_rng(seed, STREAM_JUMPS, offset + p))
                assert times.dtype == want[0].dtype and times.tobytes() == want[0].tobytes()
                assert labels.dtype == np.int64 and labels.tobytes() == want[1].tobytes()
                two_blocks += times.size >= 16
        assert horizon != 1.525 or two_blocks >= 3

    @pytest.mark.parametrize("m,dim", [(8, 2), (64, 2), (12, 3)])
    def test_gaussian_initials_equal_per_path_streams(self, m, dim):
        basis = build_basis(m, dim)
        got = draw_initials(EnsembleSpec(50, 17, ("gaussian", 0.7)), basis)
        std = 0.7 / np.sqrt(basis.eigenvalues)
        want = np.array([std * _seed_sequence_rng(17, STREAM_INITIAL, p).standard_normal(m)
                         for p in range(50)])
        assert got.tobytes() == want.tobytes()


class TestSampleJumps:
    def test_same_seed_same_events(self, marks):
        t1, z1 = sample_jumps(marks, 10.0, derive_rng(5, STREAM_JUMPS, 0))
        t2, z2 = sample_jumps(marks, 10.0, derive_rng(5, STREAM_JUMPS, 0))
        assert np.array_equal(t1, t2) and np.array_equal(z1, z2)

    def test_distinct_streams_differ(self, marks):
        t1, _ = sample_jumps(marks, 10.0, derive_rng(5, STREAM_JUMPS, 0))
        t2, _ = sample_jumps(marks, 10.0, derive_rng(5, STREAM_JUMPS, 1))
        assert t1.size != t2.size or not np.allclose(t1, t2)

    def test_times_sorted_inside_horizon(self, marks):
        t, z = sample_jumps(marks, 7.5, derive_rng(1, STREAM_JUMPS, 0))
        assert np.all(np.diff(t) > 0)
        assert t.size == 0 or (t[0] > 0 and t[-1] <= 7.5)
        assert set(np.unique(z)) <= {0, 1}

    def test_rejects_bad_horizon(self, marks):
        with pytest.raises(ValueError):
            sample_jumps(marks, 0.0, derive_rng(0, STREAM_JUMPS, 0))

    def test_tiny_rate_mostly_empty(self):
        tiny = MarkSpace(np.array([1e-4]))
        counts = [
            sample_jumps(tiny, 1.0, derive_rng(9, STREAM_JUMPS, i))[0].size
            for i in range(2000)
        ]
        # P(no jump) = exp(-1e-4); mean count 1e-4 per path
        assert np.mean(counts) < 5e-4
        assert np.mean([c == 0 for c in counts]) > 0.995

    def test_poisson_count_law_chi_squared(self, marks):
        lam, horizon, n_paths = marks.total_rate, 2.0, 10_000
        counts = np.array(
            [
                sample_jumps(marks, horizon, derive_rng(11, STREAM_JUMPS, i))[0].size
                for i in range(n_paths)
            ]
        )
        mu = lam * horizon
        kmax = int(stats.poisson.ppf(0.9999, mu))
        edges = np.arange(kmax + 2)
        observed = np.array([(counts == k).sum() for k in edges[:-1]], dtype=float)
        observed[-1] += (counts > kmax).sum()
        expected = stats.poisson.pmf(edges[:-1], mu) * n_paths
        expected[-1] = n_paths - expected[:-1].sum() + expected[-1]
        # merge tail cells until every expected count is at least 5
        obs_m, exp_m = [], []
        acc_o = acc_e = 0.0
        for o, e in zip(observed, expected):
            acc_o += o
            acc_e += e
            if acc_e >= 5.0:
                obs_m.append(acc_o)
                exp_m.append(acc_e)
                acc_o = acc_e = 0.0
        obs_m[-1] += acc_o
        exp_m[-1] += acc_e
        chi2 = float(np.sum((np.array(obs_m) - np.array(exp_m)) ** 2 / np.array(exp_m)))
        crit = stats.chi2.ppf(0.99, len(obs_m) - 1)
        assert chi2 < crit, f"chi2={chi2:.1f} exceeds {crit:.1f}"

    def test_mark_fractions_in_binomial_band(self, marks):
        all_marks = np.concatenate(
            [
                sample_jumps(marks, 10.0, derive_rng(13, STREAM_JUMPS, i))[1]
                for i in range(1000)
            ]
        )
        n = all_marks.size
        frac = (all_marks == 1).mean()
        p = 3.0 / 4.0
        assert abs(frac - p) <= 3.0 * np.sqrt(p * (1 - p) / n)

    def test_marks_match_generator_choice(self, marks):
        # the reference draws the times as sample_jumps does and the marks by
        # Generator.choice; both must leave the generator in the same state
        def reference(space, horizon, rng):
            lam = space.total_rate
            block = max(16, int(lam * horizon + 4 * np.sqrt(lam * horizon) + 1))
            times, t = [], 0.0
            while True:
                arrivals = t + np.cumsum(rng.exponential(1.0 / lam, size=block))
                times.append(arrivals[arrivals <= horizon])
                if times[-1].size < block:
                    break
                t = arrivals[-1]
            times = np.concatenate(times)
            return times, rng.choice(space.size, size=times.size, p=space.rates / lam)

        # at horizon 1.525 the 4.0 total rate needs 16 draws per block, and
        # these paths have 16 or more jumps, so they take a second block
        cases = [(s, p, h) for s in range(3) for p in range(0, 400, 2)
                 for h in (0.05, 1.5, 40.0)]
        cases += [(0, 2781, 1.525), (1, 119, 1.525), (2, 937, 1.525)]
        spaces = (marks, MarkSpace(np.array([0.3, 0.2, 0.7, 1.1])))
        empty = 0
        for space in spaces:
            for seed, path, horizon in cases:
                rng_a = derive_rng(seed, STREAM_JUMPS, path)
                rng_b = derive_rng(seed, STREAM_JUMPS, path)
                t_a, z_a = reference(space, horizon, rng_a)
                t_b, z_b = sample_jumps(space, horizon, rng_b)
                assert np.array_equal(t_a, t_b) and np.array_equal(z_a, z_b)
                assert z_b.dtype == np.int64
                assert rng_a.random() == rng_b.random()
                empty += t_b.size == 0
        assert empty > 0
        for seed, path, horizon in cases[-3:]:
            assert sample_jumps(marks, horizon, derive_rng(seed, STREAM_JUMPS, path))[0].size >= 16

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_determinism_property(self, seed):
        marks = MarkSpace(np.array([2.0]))
        a = sample_jumps(marks, 3.0, derive_rng(seed, STREAM_JUMPS, 0))
        b = sample_jumps(marks, 3.0, derive_rng(seed, STREAM_JUMPS, 0))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestCertificates:
    def test_zero_noise(self, marks):
        cert = certify_noise_bounds(ZeroNoise(marks), 8, derive_rng(0, STREAM_STATS, 0))
        assert cert.passed
        m = cert.measured
        assert (m.growth_const, m.growth_slope, m.lipschitz, m.fourth_moment) == (0, 0, 0, 0)

    def test_linear_closed_form(self, marks):
        g = np.array([0.3, 0.1])
        sig = LinearNoise(marks, g)
        c2 = float(np.sum(marks.rates * g**2))
        assert sig.bounds.growth_slope == pytest.approx(c2)
        cert = certify_noise_bounds(sig, 8, derive_rng(0, STREAM_STATS, 1))
        assert cert.passed
        assert cert.measured.growth_slope == pytest.approx(c2, rel=1e-9)
        assert cert.measured.lipschitz == pytest.approx(c2, rel=1e-9)
        assert cert.measured.growth_const == pytest.approx(0.0, abs=1e-12)

    def test_additive_closed_form(self, marks):
        g = np.array([0.3, 0.1])
        h = np.array([1.0, 0.5, 0.0, 0.0])
        sig = AdditiveNoise(marks, g, h)
        l0 = float(np.sum(marks.rates * g**2) * np.sum(h**2))
        l3 = float(np.sum(marks.rates * g**4) * np.sum(h**2) ** 2)
        cert = certify_noise_bounds(sig, 4, derive_rng(0, STREAM_STATS, 2))
        assert cert.passed
        # certified from the core's one row: nothing to spare past the closed form
        assert cert.measured.growth_const == pytest.approx(l0, rel=1e-12)
        assert cert.measured.fourth_moment == pytest.approx(l3, rel=1e-12)
        assert cert.measured.lipschitz == 0.0 and cert.measured.growth_slope == 0.0

    def test_saturating_bounded(self, marks):
        sig = SaturatingNoise(marks, 0.5)
        cert = certify_noise_bounds(sig, 8, derive_rng(0, STREAM_STATS, 3))
        assert cert.passed
        assert cert.measured.growth_const <= sig.bounds.growth_const * (1 + 1e-9)

    def test_violation_produces_witness(self, marks):
        sig = LinearNoise(marks, np.array([0.3, 0.1]))
        # understate the declared growth budget to force a violation
        sig.bounds = type(sig.bounds)(0.0, sig.bounds.growth_slope / 10.0,
                                      sig.bounds.lipschitz, sig.bounds.fourth_moment)
        cert = certify_noise_bounds(sig, 8, derive_rng(0, STREAM_STATS, 4))
        assert not cert.passed
        assert cert.witness is not None
        assert cert.witness["inequality"] == "growth"
        assert cert.witness["lhs"] > cert.witness["rhs"]

    @pytest.mark.parametrize("kind, field, inequality", [
        ("additive", "growth_const", "growth"),
        ("linear", "lipschitz", "lipschitz"),
    ])
    def test_understated_budget_fails_with_witness(self, marks, kind, field, inequality):
        # a budget declared 1% below the closed form fails on the factored core
        sig = make_noise(kind, marks, gains=np.array([0.3, 0.1]),
                         shape_coeffs=np.array([1.0, 0.5, 0.0, 0.0]))
        assert certify_noise_bounds(sig, 4, derive_rng(0, STREAM_STATS, 5)).passed
        sig.bounds = dataclasses.replace(sig.bounds, **{field: 0.99 * getattr(sig.bounds, field)})
        cert = certify_noise_bounds(sig, 4, derive_rng(0, STREAM_STATS, 5))
        assert not cert.passed
        assert cert.witness["inequality"] == inequality
        assert cert.witness["lhs"] > cert.witness["rhs"]

    def test_state_free_core_must_be_one_row(self, marks):
        # a kind that declares a state-free core whose rows follow the state
        class Mislabelled(LinearNoise):
            state_free = True

        cert = certify_noise_bounds(Mislabelled(marks, 0.3), 6,
                                    derive_rng(0, STREAM_STATS, 6))
        assert not cert.passed
        assert cert.witness["inequality"] == "state_free"
        assert cert.witness["lhs"] > cert.witness["rhs"] == 0.0

    def test_make_noise_factory(self, marks):
        assert make_noise("zero", marks).kind == "zero"
        assert make_noise("linear", marks, gains=0.2).kind == "linear"
        with pytest.raises(ValueError):
            make_noise("pink", marks)
        with pytest.raises(ValueError):
            make_noise("additive", marks)


class TestCompensatedIncrement:
    def test_no_jumps_pure_drift(self, marks):
        sig = LinearNoise(marks, np.array([0.3, 0.1]))
        u = np.arange(1.0, 5.0)
        inc = compensated_increment(sig, marks, u, 0.0, 0.25, [])
        drift = -(0.25) * (1.0 * 0.3 + 3.0 * 0.1) * u
        assert np.allclose(inc, drift, rtol=1e-14)

    @pytest.mark.parametrize("kind", ["zero", "additive", "linear", "saturating"])
    def test_production_increment_matches_oracle(self, marks, kind):
        # the batched FluidModel.noise_increment against the per-path,
        # per-event oracle, on distinct states and a window with several jumps
        gains = np.array([0.3, 0.1])
        sig = make_noise(kind, marks, gains=gains, shape_coeffs=np.linspace(1.0, 0.2, 6))
        cfg = SolverConfig(params=FluidParams(), level=6, dt=0.1, horizon=1.0)
        model = FluidModel(cfg, sig)
        U = np.random.default_rng(3).standard_normal((3, 6)) * np.array([[0.5], [1.0], [2.0]])
        t0, dt = 0.2, 0.1
        jp = np.array([0, 2, 0, 2, 0, 2])  # six events in the window (0.2, 0.3]
        jm = np.array([1, 0, 0, 1, 1, 1])
        M = model.noise_increment(U, jp, jm)
        for p in range(3):
            want = compensated_increment(sig, marks, U[p], t0, t0 + dt, jm[jp == p])
            scale = max(np.abs(want).max(), 1e-300)
            assert np.abs(M[p] - want).max() <= 1e-13 * scale, p

    @pytest.mark.parametrize("kind", ["zero", "additive", "linear", "saturating"])
    def test_jump_amplitudes_are_gain_times_core(self, marks, kind):
        # each event adds gains[mark] * core[path], bit for bit, to the
        # no-jump increment
        sig = make_noise(kind, marks, gains=np.array([0.3, 0.1]),
                         shape_coeffs=np.linspace(1.0, 0.2, 6))
        model = FluidModel(SolverConfig(params=FluidParams(), level=6, dt=0.1, horizon=1.0),
                           sig)
        U = np.random.default_rng(4).standard_normal((4, 6))
        jp, jm = np.array([0, 3, 0, 2, 3]), np.array([1, 0, 0, 1, 1])
        amp = sig.gains[jm][:, None] * sig.core(U)[jp]
        want = np.array(model.noise_increment(U, jp[:0], jm[:0]))
        np.add.at(want, jp, amp)
        assert np.array_equal(model.noise_increment(U, jp, jm), want)

    def _window_increments(self, marks, gains, n_windows, dt, seed):
        """All window increments of a frozen-state additive amplitude,
        computed by bucketing one long exactly simulated event stream."""
        horizon = n_windows * dt
        times, labels = sample_jumps(marks, horizon, derive_rng(seed, STREAM_JUMPS, 0))
        win = np.minimum((np.ceil(times / dt) - 1).astype(int), n_windows - 1)
        counts = np.zeros((n_windows, marks.size))
        np.add.at(counts, (win, labels), 1.0)
        comp = dt * np.sum(marks.rates * gains)
        return counts @ gains - comp  # scalar amplitude per window

    def test_martingale_mean_within_bands(self, marks):
        gains = np.array([0.3, 0.1])
        inc = self._window_increments(marks, gains, 100_000, 0.05, 21)
        se = inc.std(ddof=1) / np.sqrt(inc.size)
        assert abs(inc.mean()) <= 4.0 * se

    def test_partial_sums_centered_at_dyadic_checkpoints(self, marks):
        # compensated partial sums stay mean-zero at every dyadic horizon
        gains = np.array([0.3, 0.1])
        inc = self._window_increments(marks, gains, 65_536, 0.05, 25)
        for frac in (2, 4, 8, 16):
            n = inc.size // frac
            partial = inc[:n]
            se = partial.std(ddof=1) / np.sqrt(n)
            assert abs(partial.mean()) <= 4.0 * se, frac

    def test_isometry_second_moment(self, marks):
        # E |increment|^2 = dt * sum nu_j |amplitude_j|^2 for frozen state
        gains = np.array([0.3, 0.1])
        dt = 0.05
        inc = self._window_increments(marks, gains, 100_000, dt, 22)
        expected = dt * float(np.sum(marks.rates * gains**2))
        m2 = inc**2
        se = m2.std(ddof=1) / np.sqrt(m2.size)
        assert abs(m2.mean() - expected) <= 3.0 * se

    def test_consistency_with_bucketed_path(self, marks):
        # the production routine agrees with the bucketed computation
        sig = AdditiveNoise(marks, np.array([0.3, 0.1]), np.array([1.0, 0.0]))
        times, labels = sample_jumps(marks, 1.0, derive_rng(4, STREAM_JUMPS, 0))
        u = np.array([0.7, -0.2])
        inc = compensated_increment(sig, marks, u, 0.0, 1.0, labels)
        manual = np.zeros(2)
        for z in labels:
            manual += sig.gains[z] * np.array([1.0, 0.0])
        manual -= 1.0 * np.sum(marks.rates * sig.gains) * np.array([1.0, 0.0])
        assert np.allclose(inc, manual, rtol=1e-12)


class TestExport:
    def test_jump_log_jsonl(self, tmp_path, marks):
        times, labels = sample_jumps(marks, 2.0, derive_rng(8, STREAM_JUMPS, 0))
        path = tmp_path / "jumps.jsonl"
        write_jump_log(path, times, labels, np.ones_like(times))
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == times.size
        if lines:
            assert set(lines[0]) == {"t", "mark", "pre_norm"}
