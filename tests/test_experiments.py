import json

import numpy as np

from levyfluid import experiments
from levyfluid.config import parse_config_text
from levyfluid.ergodics import EnsembleSpec, cauchy_study, draw_initials
from levyfluid.experiments import build_model, run_ensemble, run_experiment


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
