import json
import os

import numpy as np
import pytest

from levyfluid import experiments, solver
from levyfluid.config import parse_config_text
from levyfluid.ergodics import EnsembleSpec, cauchy_study, draw_initials
from levyfluid.experiments import build_model, run_ensemble, run_experiment
from levyfluid.solver import run_pairs


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


LEVEL_OVERRIDES = [{"level": 4}, {"level": 8}]


def _level_batches(cfg):
    spec = EnsembleSpec(cfg.n_paths, cfg.seed, ("gaussian", 0.3))
    return [draw_initials(spec, build_model(cfg, **o).basis) for o in LEVEL_OVERRIDES]


def _assert_same(a, b):
    """Two EnsembleResults agree bit for bit."""
    for name in ("times", "terminal", "blown", "blow_steps", "n_jumps"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.series.keys() == b.series.keys()
    for key in a.series:
        assert np.array_equal(a.series[key], b.series[key]), key
    assert len(a.jumps) == len(b.jumps)
    for (ta, za), (tb, zb) in zip(a.jumps, b.jumps):
        assert np.array_equal(ta, tb) and np.array_equal(za, zb)


class TestRunEnsemble:
    def test_block_split_is_byte_stable(self, monkeypatch):
        # force several blocks and compare serial vs pooled execution
        monkeypatch.setattr(experiments, "ENSEMBLE_BLOCK", 8)
        cfg = parse_config_text(BASE)
        model = build_model(cfg)
        spec = EnsembleSpec(cfg.n_paths, cfg.seed, cfg.initial_law())
        initials = draw_initials(spec, model.basis)
        serial = run_ensemble(cfg, initials, cfg.seed, track_audit=True, workers=1)
        pooled = run_ensemble(cfg, initials, cfg.seed, track_audit=True, workers=3)
        assert np.array_equal(serial.terminal, pooled.terminal)
        for key in serial.series:
            assert np.array_equal(serial.series[key], pooled.series[key])
        assert np.array_equal(serial.n_jumps, pooled.n_jumps)

    def test_merge_preserves_path_order(self, monkeypatch):
        monkeypatch.setattr(experiments, "ENSEMBLE_BLOCK", 16)
        cfg = parse_config_text(BASE)
        model = build_model(cfg)
        initials = draw_initials(
            EnsembleSpec(cfg.n_paths, cfg.seed, ("gaussian", 0.3)), model.basis
        )
        split = run_ensemble(cfg, initials, cfg.seed, workers=1)
        from levyfluid.solver import run_paths

        whole = run_paths(model, initials, cfg.seed)
        assert np.allclose(split.terminal, whole.terminal, rtol=1e-12, atol=1e-15)

    def test_levels_form_matches_single_level_calls(self, monkeypatch):
        # five 8-path blocks, each running both levels under one jump draw
        monkeypatch.setattr(experiments, "ENSEMBLE_BLOCK", 8)
        cfg = parse_config_text(BASE)
        batches = _level_batches(cfg)
        runs = {}
        for workers in (1, 2):
            out = run_ensemble(cfg, batches, cfg.seed, overrides=LEVEL_OVERRIDES,
                               track_audit=True, workers=workers)
            assert isinstance(out, experiments.LevelResults) and len(out) == 2
            assert out.blown.shape == (2, cfg.n_paths)
            for o, X, res in zip(LEVEL_OVERRIDES, batches, out):
                _assert_same(res, run_ensemble(cfg, X, cfg.seed, overrides=o,
                                               track_audit=True, workers=workers))
            runs[workers] = out
        for a, b in zip(runs[1], runs[2]):
            _assert_same(a, b)

    def test_levels_form_draws_jumps_once_per_path(self, monkeypatch, tmp_path):
        # every sample_jumps call, in this process or a forked worker, logs a line
        monkeypatch.setattr(experiments, "ENSEMBLE_BLOCK", 8)
        cfg = parse_config_text(BASE)
        batches = _level_batches(cfg)
        log = tmp_path / "draws"
        real = solver.sample_jumps

        def logged(*args):
            with open(log, "a") as fh:
                fh.write("x\n")
            return real(*args)

        monkeypatch.setattr(solver, "sample_jumps", logged)
        for workers in (1, 2):
            log.write_text("")
            run_ensemble(cfg, batches, cfg.seed, overrides=LEVEL_OVERRIDES, workers=workers)
            assert len(log.read_text().split()) == cfg.n_paths

    def test_blowup_at_one_level_leaves_the_others(self, monkeypatch):
        monkeypatch.setattr(experiments, "ENSEMBLE_BLOCK", 8)
        cfg = parse_config_text(BASE)
        batches = _level_batches(cfg)
        batches[1][11, 0] = 2e8  # path 11 starts past the blow-up norm at level 8 only
        for workers in (1, 2):
            out = run_ensemble(cfg, batches, cfg.seed, overrides=LEVEL_OVERRIDES,
                               workers=workers)
            assert not out.blown[0].any()
            assert np.flatnonzero(out.blown[1]).tolist() == [11]
            for o, X, res in zip(LEVEL_OVERRIDES, batches, out):
                _assert_same(res, run_ensemble(cfg, X, cfg.seed, overrides=o,
                                               workers=workers))

    def test_levels_differ_in_level_only(self):
        cfg = parse_config_text(BASE)
        batches = _level_batches(cfg)
        with pytest.raises(ValueError):
            run_ensemble(cfg, batches, cfg.seed,
                         overrides=[{"level": 4}, {"level": 8, "horizon": 0.25}])

    def test_one_model_per_call(self, monkeypatch, tmp_path):
        # five 8-path blocks per level: one build per call when serial, at
        # most one per worker when pooled (each build logs its process id)
        monkeypatch.setattr(experiments, "ENSEMBLE_BLOCK", 8)
        monkeypatch.setattr(experiments, "PAIR_BLOCK", 8)
        cfg = parse_config_text(BASE)
        spec = EnsembleSpec(cfg.n_paths, cfg.seed, cfg.initial_law())
        log = tmp_path / "builds"
        real = experiments.build_model

        def logged(cfg, **overrides):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {overrides.get('level', cfg.solver.level)}\n")
            return real(cfg, **overrides)

        monkeypatch.setattr(experiments, "build_model", logged)
        for workers in (1, 2):
            for level in (4, 8):
                log.write_text("")
                initials = draw_initials(spec, real(cfg, level=level).basis)
                run_ensemble(cfg, initials, cfg.seed, overrides={"level": level},
                             workers=workers)
                builds = log.read_text().split()
                pids, levels = builds[::2], builds[1::2]
                assert set(levels) == {str(level)}
                if workers == 1:
                    assert pids == [str(os.getpid())]
                else:
                    assert 1 <= len(pids) <= workers and len(set(pids)) == len(pids)
                    assert str(os.getpid()) not in pids
        # a pooled levels call builds each level once per worker, in its
        # initializer, and none in the caller
        batches = [draw_initials(spec, real(cfg, **o).basis) for o in LEVEL_OVERRIDES]
        log.write_text("")
        run_ensemble(cfg, batches, cfg.seed, overrides=LEVEL_OVERRIDES, workers=2)
        builds = log.read_text().split()
        per_worker = {}
        for pid, level in zip(builds[::2], builds[1::2]):
            per_worker.setdefault(pid, []).append(level)
        assert 1 <= len(per_worker) <= 2 and str(os.getpid()) not in per_worker
        assert all(levels == ["4", "8"] for levels in per_worker.values())
        # a serial runner hands its own model to run_ensemble: one build
        # per level for moments, one for audit and for contraction
        audit = BASE.replace("experiment = moments", "experiment = audit")
        for text, levels in ((BASE, ["4", "8"]), (audit, ["8"]), (CONTRACTION, ["8"])):
            log.write_text("")
            code, _ = run_experiment(parse_config_text(text), out_dir=tmp_path / "run",
                                     workers=1)
            assert code == 0
            builds = log.read_text().split()
            assert builds[::2] == [str(os.getpid())] * len(levels)
            assert builds[1::2] == levels


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

    def test_pair_merge_preserves_path_order(self, monkeypatch):
        monkeypatch.setattr(experiments, "PAIR_BLOCK", 8)
        cfg = parse_config_text(CONTRACTION)
        model = build_model(cfg)
        rng = np.random.default_rng(3)
        X1 = 0.4 * rng.standard_normal((cfg.n_paths, 8))
        partners = [X1 + 0.1 * rng.standard_normal(X1.shape) for _ in range(2)]
        merged = run_ensemble(cfg, X1, cfg.seed, partners=partners, conv_bound=0.2)
        for k, X2 in enumerate(partners):
            whole = run_pairs(model, X1, X2, cfg.seed, 0.2)
            for key in ("times", "wsq", "rho_wsq", "wsq0"):
                assert np.allclose(merged[key][k], whole[key], rtol=1e-12, atol=1e-15)
            assert np.array_equal(merged["blown"][k], whole["blown"])


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


class TestCauchyRunner:
    def test_summary_reports_refine_dt_flag(self, tmp_path):
        cfg = parse_config_text(CAUCHY)
        run_experiment(cfg, out_dir=tmp_path, workers=1)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert isinstance(summary["refine_dt"], bool)
        spec = EnsembleSpec(cfg.n_paths, cfg.seed, cfg.initial_law())
        study = cauchy_study(lambda level: build_model(cfg, level=level), [4, 8, 16], spec)
        assert summary["refine_dt"] is study["refine_dt"]


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
