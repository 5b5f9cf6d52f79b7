import json
import os

import numpy as np

from levyfluid import experiments
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
