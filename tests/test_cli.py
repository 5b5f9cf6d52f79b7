import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from levyfluid.cli import main

BASE = """
experiment = audit
fluid.kappa0 = 0.5
fluid.p = 1.5
disc.level = 8
disc.dt = 0.002
disc.horizon = 0.5
noise.kind = additive
noise.gains = [0.4, 0.2]
ensemble.paths = 32
ensemble.seed = 6
ensemble.initial = gaussian
ensemble.scale = 0.4
"""

# the explicit scheme at dt = 0.25 multiplies each mode by 1 - 12.5*lambda:
# integrate aborts the audit's first path with exit code 3, and as an
# occupation run every replica blows up, which exits 3 too
BLOWUP = """
experiment = audit
fluid.kappa1 = 50.0
disc.level = 8
disc.dt = 0.25
disc.horizon = 5.0
disc.scheme = explicit
disc.convection = false
disc.stress = false
noise.kind = zero
ensemble.paths = 4
ensemble.initial = mode1
ensemble.scale = 1.0
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestBasisCommand:
    def test_dumps_mode_table(self, capsys):
        assert main(["basis", "--m", "8", "--d", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == 8
        assert doc["lambda1"] == pytest.approx(0.5)

    def test_writes_file(self, tmp_path):
        out = tmp_path / "basis.json"
        assert main(["basis", "--m", "4", "--d", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dim"] == 3

    def test_rejects_bad_dimension(self, capsys):
        assert main(["basis", "--m", "4", "--d", "5"]) == 2
        assert "error" in capsys.readouterr().err


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE)
        assert main(["validate", "--config", cfg]) == 0
        assert "ok: audit" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE.replace("fluid.p = 1.5", "fluid.p = 2.5"))
        assert main(["validate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "fluid.p" in err and "(1, 2]" in err

    def test_duplicate_key_reports_both_lines(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE + "fluid.p = 1.9\n")
        assert main(["validate", "--config", cfg]) == 2
        assert "duplicate key" in capsys.readouterr().err

    def test_adapted_jump_mode_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE + "disc.jump_mode = adapted\n")
        assert main(["validate", "--config", cfg]) == 2
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "disc.jump_mode" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, line", [
        ("cauchy", "cauchy.levels = [8]"),
        ("moments", "noise.profile = bogus"),
        ("moments", "noise.shape_level = 0"),
        ("moments", "disc.scheme = implicit"),
        ("occupation", "occupation.burn_in = 1.0"),
        ("feller", "feller.functionals = gauss_bump,bogus"),
    ])
    def test_option_value_a_runner_cannot_measure_with(self, tmp_path, capsys, experiment, line):
        # a config error from both commands, before anything is run or written
        cfg = write_cfg(tmp_path, f"experiment = {experiment}\n{line}\n")
        assert main(["validate", "--config", cfg]) == 2
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        # one problem from each command, naming its line and key
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert err[0].startswith(f"config error: line 2: {line.split(' =')[0]}: ")
        assert not (tmp_path / "out").exists()

    def test_missing_file(self, capsys):
        assert main(["validate", "--config", "/nonexistent.cfg"]) == 2


class TestRunCommand:
    def test_pass_writes_bundle(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "bundle"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdict"] == "PASS"
        assert summary["config_hash"]
        assert (out / "gronwall.csv").exists()
        assert (out / "run_meta.json").exists()
        assert (out / "trajectory0.csv").exists()
        assert (out / "ledger0.jsonl").exists()
        assert (out / "jumps0.jsonl").exists()

    @pytest.mark.parametrize("text, code", [(BASE, 0), (BLOWUP, 3)], ids=["pass", "blowup"])
    def test_run_meta_records_the_duration(self, tmp_path, text, code):
        # wall_time is the run's duration, not a timestamp: positive and no
        # longer than the call that made it
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "meta"
        start = time.perf_counter()
        assert main(["run", "--config", cfg, "--out", str(out)]) == code
        elapsed = time.perf_counter() - start
        meta = json.loads((out / "run_meta.json").read_text())
        assert 0.0 < meta["wall_time"] <= elapsed
        assert meta["clock"] and meta["workers"] >= 1

    @pytest.mark.parametrize("text, code", [(BASE, 0), (BLOWUP, 3)], ids=["pass", "blowup"])
    def test_run_meta_times_its_phases(self, tmp_path, text, code):
        # the certificate, the runner and the writes, each within the run's
        # duration and none of them in the byte-stable summary
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "meta"
        assert main(["run", "--config", cfg, "--out", str(out)]) == code
        meta = json.loads((out / "run_meta.json").read_text())
        phases = [meta[key] for key in ("certify_s", "run_s", "write_s")]
        assert all(p >= 0.0 for p in phases)
        assert sum(phases) <= meta["wall_time"]
        summary = (out / "summary.json").read_text()
        assert not any(key in summary for key in ("certify_s", "run_s", "write_s", "wall_time"))

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        o1, o2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(o1)])
        main(["run", "--config", cfg, "--out", str(o2), "--seed", "123"])
        s1 = json.loads((o1 / "summary.json").read_text())
        s2 = json.loads((o2 / "summary.json").read_text())
        assert s1["config_hash"] != s2["config_hash"]
        assert s2["seed"] == 123

    def test_verdict_failure_exit_one(self, tmp_path):
        # zero forcing degenerates the invariant bound to a decay floor the
        # short transient cannot reach: deterministic verdict failure
        text = (
            "experiment = invariant-bound\n"
            "disc.level = 8\n"
            "disc.dt = 0.005\n"
            "disc.horizon = 2.0\n"
            "noise.kind = zero\n"
            "ensemble.paths = 2\n"
            "ensemble.initial = mode1\n"
            "ensemble.scale = 1.0\n"
            "occupation.schedule = [1.0, 1.5, 2.0]\n"
            "occupation.burn_in = 0.5\n"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "fail"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdict"] == "FAIL"
        assert summary["bound"] == 0.0
        assert summary["measured"] > 1e-6

    @pytest.mark.parametrize("experiment", ["audit", "occupation", "invariant-bound"])
    def test_blowup_exit_three_with_truncation_marker(self, tmp_path, experiment):
        text = BLOWUP.replace("experiment = audit", f"experiment = {experiment}")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "boom"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert (out / "TRUNCATED").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["truncated"] is True
        assert summary["blow_up"]["step"] == 11
        if experiment != "audit":  # every replica blows up: none is left to average
            assert summary["blow_up"]["n_blown"] == 4

    def test_regime_violation_rejected_at_parse(self, tmp_path, capsys):
        text = (
            "experiment = invariant-bound\n"
            "noise.kind = linear\n"
            "noise.gains = [2.0, 2.0]\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", cfg]) == 2
        assert "dissipative regime" in capsys.readouterr().err


class TestWorkersEnv:
    def test_env_var_sets_default(self, monkeypatch):
        from levyfluid.experiments import default_workers

        monkeypatch.setenv("LEVYFLUID_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("LEVYFLUID_WORKERS", "not-a-number")
        assert default_workers() == 1
        monkeypatch.delenv("LEVYFLUID_WORKERS")
        assert default_workers() == 1


class TestRunAllScript:
    def test_unknown_only_stem_runs_nothing(self, tmp_path):
        # a typo in --only exits 2, names the stem, and runs no config
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_all.py"), "--only", "moments_oracle",
             "momnets", "--out-root", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "momnets" in proc.stderr and "moments_oracle" not in proc.stderr
        assert proc.stdout == "" and not any(tmp_path.iterdir())


    def test_total_line_reports_peak_memory(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_all.py"), "--only", "cauchy_oracle",
             "--workers", "1", "--out-root", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        total = proc.stdout.splitlines()[-1]
        assert total.startswith("total") and "workers=1" in total
        peak = float(total.split("peak_rss=")[1].removesuffix("MB"))
        assert 10.0 < peak < 4096.0


class TestCompareArtifactsScript:
    def bundle(self, root, modulus, verdict, extra=None):
        out = root / "results" / "feller"
        out.mkdir(parents=True)
        (out / "feller_modulus.csv").write_text(
            "# config_hash: abc\nfunctional,delta,modulus\n"
            f"gauss_bump,0.4,{modulus}\ngauss_bump,0.2,0.25\n")
        summary = {"verdict": verdict, "noise_certificate": {"measured": {"l1": 0.0}}}
        (out / "summary.json").write_text(json.dumps(dict(summary, **(extra or {}))))
        (out / "run_meta.json").write_text(json.dumps({"wall_time": modulus}))
        return root

    def run(self, a, b):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "compare_artifacts.py"), str(a), str(b)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_reports_the_largest_relative_change_and_the_keys(self, tmp_path):
        a = self.bundle(tmp_path / "a", 0.5, "PASS")
        b = self.bundle(tmp_path / "b", 0.5 * (1 + 3e-15), "PASS", {"n_blown": {"outer": 0}})
        csv, summary = self.run(a, b)
        name, value = csv.split()
        assert name == "results/feller/feller_modulus.csv"
        assert float(value) == pytest.approx(3e-15, rel=1e-2)
        assert summary == "results/feller/summary.json: n_blown.outer"

    def test_equal_bundles_and_one_sided_files(self, tmp_path):
        a = self.bundle(tmp_path / "a", 0.5, "PASS")
        b = self.bundle(tmp_path / "b", 0.5, "FAIL")
        (a / "results" / "feller" / "extra.csv").write_text("x\n1\n")
        lines = self.run(a, b)
        assert lines[0].split() == ["results/feller/extra.csv", "only", "in", "A"]
        assert lines[1].split() == ["results/feller/feller_modulus.csv", "0"]
        assert lines[2] == "results/feller/summary.json: verdict"
