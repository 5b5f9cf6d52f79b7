import ctypes
import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from levyfluid import ergodics, experiments, operators, solver
from levyfluid.config import parse_config_text
from levyfluid.ergodics import EnsembleSpec, cauchy_study, draw_initials
from levyfluid.experiments import build_model, run_ensemble, run_experiment
from levyfluid.solver import run_pairs, run_paths


BASE = """
experiment = moments
fluid.kappa0 = 0.5
fluid.p = 1.5
disc.level = 8
disc.dt = 0.002
disc.horizon = 0.5
noise.kind = additive
noise.gains = [0.4, 0.2]
noise.shape_level = 4
ensemble.paths = 40
ensemble.seed = 3
ensemble.initial = mode1
ensemble.scale = 0.5
moments.levels = [4, 8]
"""


def _level_models(cfg):
    """The models of `cfg` at levels 4 and 8, and their initials."""
    models = [build_model(cfg, level=4), build_model(cfg, level=8)]
    spec = EnsembleSpec(cfg.n_paths, cfg.seed, ("gaussian", 0.3))
    return models, [draw_initials(spec, m.basis) for m in models]


def _assert_same(a, b):
    """Two EnsembleResults agree bit for bit."""
    for name in ("times", "terminal", "blown", "blow_steps"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.series.keys() == b.series.keys()
    for key in a.series:
        assert np.array_equal(a.series[key], b.series[key]), key


def _numpy_openblas(symbol):
    """numpy's bundled OpenBLAS, or a skip where it lacks `symbol`."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_-*.so")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, symbol):
            return lib
    pytest.skip(f"no numpy-bundled OpenBLAS with {symbol}")


def _blas_threads(models):
    return _numpy_openblas("scipy_openblas_get_num_threads64_").scipy_openblas_get_num_threads64_()


class TestRunEnsemble:
    def test_block_split_is_byte_stable(self, monkeypatch):
        # force several blocks and compare serial vs pooled execution
        monkeypatch.setattr(experiments, "ENSEMBLE_BLOCK", 8)
        cfg = parse_config_text(BASE)
        model = build_model(cfg)
        spec = EnsembleSpec(cfg.n_paths, cfg.seed, cfg.initial_law())
        initials = draw_initials(spec, model.basis)
        (serial,) = run_ensemble([model], [initials], cfg.seed, track_audit=True, workers=1)
        (pooled,) = run_ensemble([model], [initials], cfg.seed, track_audit=True, workers=3)
        assert np.array_equal(serial.terminal, pooled.terminal)
        for key in serial.series:
            assert np.array_equal(serial.series[key], pooled.series[key])

    def test_factored_model_is_byte_stable(self, monkeypatch):
        # at level 128 both grids are above the crossover and take the
        # factored waves; serial and pooled runs agree bit for bit
        monkeypatch.setattr(experiments, "ENSEMBLE_BLOCK", 8)
        cfg = parse_config_text(BASE.replace("disc.level = 8", "disc.level = 128")
                                .replace("disc.horizon = 0.5", "disc.horizon = 0.1"))
        model = build_model(cfg)
        for waves in (model.ops._stress_waves, model.ops._trig, model.ops._dtrig):
            assert isinstance(waves, operators._FactoredWaves)
        initials = draw_initials(EnsembleSpec(cfg.n_paths, cfg.seed, ("gaussian", 0.3)),
                                 model.basis)
        (serial,) = run_ensemble([model], [initials], cfg.seed, track_audit=True, workers=1)
        (pooled,) = run_ensemble([model], [initials], cfg.seed, track_audit=True, workers=2)
        _assert_same(serial, pooled)
        assert not serial.blown.any()

    def test_merge_preserves_path_order(self, monkeypatch):
        monkeypatch.setattr(experiments, "ENSEMBLE_BLOCK", 16)
        cfg = parse_config_text(BASE)
        model = build_model(cfg)
        initials = draw_initials(
            EnsembleSpec(cfg.n_paths, cfg.seed, ("gaussian", 0.3)), model.basis
        )
        (split,) = run_ensemble([model], [initials], cfg.seed, workers=1)
        from levyfluid.solver import run_paths

        whole = run_paths(model, initials, cfg.seed)
        assert np.allclose(split.terminal, whole.terminal, rtol=1e-12, atol=1e-15)

    def test_levels_form_matches_single_level_calls(self, monkeypatch):
        # five 8-path blocks, each running both levels under one jump draw
        monkeypatch.setattr(experiments, "ENSEMBLE_BLOCK", 8)
        cfg = parse_config_text(BASE)
        models, batches = _level_models(cfg)
        runs = {}
        for workers in (1, 2):
            out = run_ensemble(models, batches, cfg.seed, track_audit=True, workers=workers)
            assert isinstance(out, experiments.LevelResults) and len(out) == 2
            assert out.blown.shape == (2, cfg.n_paths)
            for model, X, res in zip(models, batches, out):
                (alone,) = run_ensemble([model], [X], cfg.seed, track_audit=True,
                                        workers=workers)
                _assert_same(res, alone)
            runs[workers] = out
        for a, b in zip(runs[1], runs[2]):
            _assert_same(a, b)

    def _count_draws(self, monkeypatch, tmp_path):
        """Path to a file that gains a line per sample_jumps call, in this
        process or a forked worker."""
        log = tmp_path / "draws"
        real = solver.sample_jumps

        def logged(*args):
            with open(log, "a") as fh:
                fh.write("x\n")
            return real(*args)

        monkeypatch.setattr(solver, "sample_jumps", logged)
        return log

    def test_levels_form_draws_jumps_once_per_path(self, monkeypatch, tmp_path):
        monkeypatch.setattr(experiments, "ENSEMBLE_BLOCK", 8)
        cfg = parse_config_text(BASE)
        models, batches = _level_models(cfg)
        log = self._count_draws(monkeypatch, tmp_path)
        for workers in (1, 2):
            log.write_text("")
            run_ensemble(models, batches, cfg.seed, workers=workers)
            assert len(log.read_text().split()) == cfg.n_paths

    def test_dt_ladder_runs_under_one_draw(self, monkeypatch, tmp_path):
        # two models that differ in dt only: one jump draw per path, and
        # each model's rows equal its own single-model call bit for bit
        monkeypatch.setattr(experiments, "ENSEMBLE_BLOCK", 8)
        cfg = parse_config_text(BASE)
        models = [build_model(cfg), build_model(cfg, dt=0.001)]
        assert [m.n_steps for m in models] == [250, 500]
        X = draw_initials(EnsembleSpec(cfg.n_paths, cfg.seed, ("gaussian", 0.3)),
                          models[0].basis)
        log = self._count_draws(monkeypatch, tmp_path)
        for workers in (1, 2):
            log.write_text("")
            out = run_ensemble(models, [X, X], cfg.seed, workers=workers)
            assert len(log.read_text().split()) == cfg.n_paths
            for model, res in zip(models, out):
                (alone,) = run_ensemble([model], [X], cfg.seed, workers=workers)
                _assert_same(res, alone)

    def test_blowup_at_one_level_leaves_the_others(self, monkeypatch):
        monkeypatch.setattr(experiments, "ENSEMBLE_BLOCK", 8)
        cfg = parse_config_text(BASE)
        models, batches = _level_models(cfg)
        batches[1][11, 0] = 2e8  # path 11 starts past the blow-up norm at level 8 only
        for workers in (1, 2):
            out = run_ensemble(models, batches, cfg.seed, workers=workers)
            assert not out.blown[0].any()
            assert np.flatnonzero(out.blown[1]).tolist() == [11]
            for model, X, res in zip(models, batches, out):
                (alone,) = run_ensemble([model], [X], cfg.seed, workers=workers)
                _assert_same(res, alone)

    def test_pool_workers_run_one_blas_thread(self):
        # the parent runs two BLAS threads, so the worker's 1 is its own setting
        lib = _numpy_openblas("scipy_openblas_get_num_threads64_")
        parent = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(2)
        try:
            with ProcessPoolExecutor(max_workers=2, initializer=experiments._start_worker,
                                     initargs=([],)) as pool:
                counts = list(pool.map(experiments._in_worker, [(_blas_threads, ())] * 2))
        finally:
            lib.scipy_openblas_set_num_threads64_(parent)
        assert counts == [1, 1]

    @pytest.mark.parametrize("override", [{"disc.horizon": 0.25}, {"noise.rates": "[1.0, 2.0]"}],
                             ids=["horizon", "mark_rates"])
    def test_models_share_horizon_and_mark_rates(self, override):
        # one jump draw serves every model only under a common jump law
        cfg = parse_config_text(BASE)
        models, batches = _level_models(cfg)
        other = build_model(parse_config_text(BASE, override), level=8)
        with pytest.raises(ValueError, match="horizon and the mark rates"):
            run_ensemble([models[0], other], batches, cfg.seed)

    def test_one_model_per_call(self, monkeypatch, tmp_path):
        # each runner builds each distinct model once, in the calling
        # process, and no pool worker builds one: every SpectralOperators
        # set-up, here or in a forked worker, logs its process id
        monkeypatch.setattr(experiments, "ENSEMBLE_BLOCK", 8)
        monkeypatch.setattr(experiments, "PAIR_BLOCK", 8)
        log = tmp_path / "builds"
        real = operators.SpectralOperators.__init__

        def logged(self, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            real(self, *args, **kwargs)

        monkeypatch.setattr(operators.SpectralOperators, "__init__", logged)
        audit = BASE.replace("experiment = moments", "experiment = audit")
        # equal feller lags: the t and s models are one model
        equal_lags = FELLER.replace("feller.lag2 = 0.04", "feller.lag2 = 0.02")
        for text, n_models in ((BASE, 2), (audit, 1), (CONTRACTION, 1), (CAUCHY, 3),
                               (FELLER, 3), (equal_lags, 2)):
            log.write_text("")
            code, _ = run_experiment(parse_config_text(text), out_dir=tmp_path / "run",
                                     workers=2)
            assert code == 0
            assert log.read_text().split() == [str(os.getpid())] * n_models


CONTRACTION = """
experiment = contraction
fluid.kappa0 = 0.5
fluid.p = 1.5
disc.level = 8
disc.dt = 0.002
disc.horizon = 0.1
noise.kind = linear
noise.gains = [0.25, 0.1]
ensemble.paths = 20
ensemble.seed = 5
ensemble.initial = mode1
ensemble.scale = 0.4
contraction.separations = [0.1, 0.01]
"""


class TestContractionRunner:
    def test_byte_stable_across_worker_counts(self, monkeypatch, tmp_path):
        # 20 pairs in blocks of 8, 8 and 4, run serially and on two workers
        monkeypatch.setattr(experiments, "PAIR_BLOCK", 8)
        cfg = parse_config_text(CONTRACTION)
        for workers in (1, 2):
            run_experiment(cfg, out_dir=tmp_path / f"w{workers}", workers=workers)
        for name in ("summary.json", "contraction.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()
        # one blown count per separation
        assert json.loads((tmp_path / "w1" / "summary.json").read_text())["n_blown"] == [0, 0]

    def test_pair_merge_preserves_path_order(self, monkeypatch):
        monkeypatch.setattr(experiments, "PAIR_BLOCK", 8)
        cfg = parse_config_text(CONTRACTION)
        model = build_model(cfg)
        rng = np.random.default_rng(3)
        X1 = 0.4 * rng.standard_normal((cfg.n_paths, 8))
        partners = [X1 + 0.1 * rng.standard_normal(X1.shape) for _ in range(2)]
        merged = run_ensemble([model], [X1], cfg.seed, partners=partners, conv_bound=0.2)
        # times once; every per-path array with the partner first, the path last
        n_out = merged["times"].size
        assert merged["wsq"].shape == merged["rho_wsq"].shape == (2, n_out, cfg.n_paths)
        assert merged["blown"].shape == (2, cfg.n_paths)
        for k, X2 in enumerate(partners):
            whole = run_pairs(model, X1, X2, cfg.seed, 0.2)
            assert np.allclose(merged["times"], whole["times"], rtol=1e-12, atol=1e-15)
            for key in ("wsq", "rho_wsq"):
                assert np.allclose(merged[key][k], whole[key], rtol=1e-12, atol=1e-15)
            assert np.array_equal(merged["blown"][k], whole["blown"])

    def test_blown_partner_flags_only_its_separation(self):
        # |u|^2 is capped at 1: a partner 2.0 away in the second mode blows
        # up on the first step, while every other member stays near 0.4
        cfg = parse_config_text(CONTRACTION)
        model = build_model(cfg, blowup_norm=1.0)
        X1 = np.tile(cfg.initial_coeffs(), (cfg.n_paths, 1))
        partners = [X1 + sep * np.eye(8)[1] for sep in (0.1, 0.01, 0.001)]
        # the last separation blows up on every path but the first; its base
        # rows stand for the shared base trajectories (the highest index of
        # each), so a stale share would feed their frozen drift to the others
        doomed = np.arange(cfg.n_paths) > 0
        partners[-1][doomed, 1] = 2.0
        full = run_ensemble([model], [X1], cfg.seed, partners=partners, conv_bound=0.2)
        assert not full["blown"][:-1].any()
        assert np.array_equal(full["blown"][-1], doomed)
        rest = run_ensemble([model], [X1], cfg.seed, partners=partners[:-1], conv_bound=0.2)
        for key in ("wsq", "rho_wsq"):
            assert np.allclose(full[key][:-1], rest[key], rtol=1e-12, atol=0), key


class TestMomentsRunner:
    def test_gaussian_initial_oracle_branch(self, tmp_path):
        text = BASE.replace("ensemble.initial = mode1", "ensemble.initial = gaussian")
        text = text.replace("moments.levels = [4, 8]", "moments.levels = [8]")
        text += "disc.convection = false\ndisc.stress = false\n"
        text = text.replace("ensemble.paths = 40", "ensemble.paths = 256")
        cfg = parse_config_text(text)
        code, summary = run_experiment(cfg, out_dir=tmp_path, workers=1)
        assert summary["oracle"] is not None
        assert summary["oracle"]["passed"], summary["oracle"]
        assert code == 0

    def test_bound_constants_reported_per_level(self, tmp_path):
        cfg = parse_config_text(BASE)
        code, summary = run_experiment(cfg, out_dir=tmp_path, workers=1)
        assert len(summary["bound_constants"]) == 2
        assert all(c > 0 for c in summary["bound_constants"])


CAUCHY = """
experiment = cauchy
fluid.kappa0 = 0.5
fluid.p = 1.5
disc.level = 16
disc.dt = 0.002
disc.horizon = 0.1
noise.kind = additive
noise.gains = [0.4, 0.2]
noise.shape_level = 4
ensemble.paths = 8
ensemble.seed = 3
ensemble.initial = gaussian
ensemble.scale = 0.5
cauchy.levels = [4, 8, 16]
"""


FELLER = """
experiment = feller
fluid.kappa0 = 0.5
fluid.p = 1.5
disc.level = 8
disc.dt = 0.002
disc.horizon = 0.1
noise.kind = additive
noise.gains = [0.4, 0.2]
ensemble.paths = 8
ensemble.seed = 4
ensemble.initial = mode1
ensemble.scale = 0.4
feller.lag = 0.02
feller.lag2 = 0.04
feller.inner = 2
feller.deltas = [0.2, 0.1]
"""


class TestCauchyRunner:
    def test_summary_reports_refine_dt_flag(self, tmp_path):
        cfg = parse_config_text(CAUCHY)
        run_experiment(cfg, out_dir=tmp_path, workers=1)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert isinstance(summary["refine_dt"], bool)
        spec = EnsembleSpec(cfg.n_paths, cfg.seed, cfg.initial_law())
        study = cauchy_study([build_model(cfg, level=level) for level in (4, 8, 16)], spec)
        assert summary["refine_dt"] is study["refine_dt"]


OCCUPATION = """
fluid.kappa0 = 0.5
fluid.p = 1.5
disc.level = 8
disc.dt = 0.005
disc.horizon = 1.0
noise.kind = additive
noise.gains = [0.4, 0.2]
noise.scale = 0.5
noise.shape_level = 4
ensemble.paths = 8
ensemble.seed = 5
occupation.schedule = [0.5, 0.75, 1.0]
occupation.burn_in = 0.25
"""


class TestBlownCounts:
    @pytest.mark.parametrize("text", [
        CAUCHY,
        "experiment = occupation\n" + OCCUPATION,
        "experiment = invariant-bound\n" + OCCUPATION,
    ], ids=["cauchy", "occupation", "invariant-bound"])
    def test_summary_reports_blown_paths(self, text, tmp_path, monkeypatch):
        # paths 2 and 5 start past the blow-up norm, so they freeze at the
        # first step and drop out of every statistic
        real = ergodics.draw_initials

        def doomed(spec, basis):
            out = real(spec, basis)
            out[[2, 5], 0] = 2e8
            return out

        monkeypatch.setattr(ergodics, "draw_initials", doomed)
        run_experiment(parse_config_text(text), out_dir=tmp_path, workers=1)
        assert json.loads((tmp_path / "summary.json").read_text())["n_blown"] == 2

    def test_audit_reports_blown_paths(self, tmp_path, monkeypatch):
        # a blow-up norm between the paths' suprema drops those above it
        # from the ensemble; paths 0-3, whose ledgers the audit reads, stay below
        text = (BASE.replace("experiment = moments", "experiment = audit")
                .replace("ensemble.initial = mode1", "ensemble.initial = gaussian")
                .replace("moments.levels = [4, 8]\n", ""))
        cfg = parse_config_text(text)
        model = build_model(cfg)
        X = draw_initials(EnsembleSpec(cfg.n_paths, cfg.seed, cfg.initial_law()), model.basis)
        sup = np.sqrt(run_paths(model, X, cfg.seed).series["sup_l2_sq"][-1])
        above = np.sort(sup[sup > sup[:4].max()])
        assert above.size > 0
        cap = 0.5 * (sup[:4].max() + above[0])
        monkeypatch.setattr(experiments, "build_model",
                            lambda cfg: build_model(cfg, blowup_norm=cap))
        run_experiment(cfg, out_dir=tmp_path, workers=1)
        assert json.loads((tmp_path / "summary.json").read_text())["n_blown"] == above.size


class TestArtifacts:
    def test_summary_has_traceability_fields(self, tmp_path):
        cfg = parse_config_text(BASE)
        run_experiment(cfg, out_dir=tmp_path, workers=1)
        summary = json.loads((tmp_path / "summary.json").read_text())
        for key in ("config", "config_hash", "seed", "basis_fingerprint", "lambda1"):
            assert key in summary
        # defaults echoed: the manifest carries the full effective config
        assert summary["config"]["noise"]["rates"] == [1.0, 3.0]

    def test_csv_header_carries_config_hash(self, tmp_path):
        cfg = parse_config_text(BASE)
        run_experiment(cfg, out_dir=tmp_path, workers=1)
        first = (tmp_path / "moments.csv").read_text().splitlines()[0]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config_hash"] in first
