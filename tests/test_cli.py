import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from levyfluid import experiments
from levyfluid.cli import main
from levyfluid.config import _RETIRED

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"

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

# a mark that never fires (rate 1e-12) whose compensator adds the additive
# shape h (|h| = 0.5, on the first shell) at every step of 0.25: from zero,
# u_n = 8 h (1 - 1.125^-n), whose norm passes BLOWUP_CAP at step 11 (after
# 12 steps); with the models' blow-up norm at that cap every path blows up,
# so the audit has no whole ledger for its audited paths and exits 3, and an
# occupation run has no replica left to average, which exits 3 too
BLOWUP = """
experiment = audit
disc.level = 8
disc.dt = 0.25
disc.horizon = 5.0
disc.convection = false
disc.stress = false
noise.kind = additive
noise.rates = [1e-12]
noise.gains = [-4e12]
ensemble.paths = 4
"""
BLOWUP_CAP = 2.95  # between 4 (1 - 1.125^-11) = 2.91 and 4 (1 - 1.125^-12) = 3.03


def cap_the_models(monkeypatch):
    """Every model the runners build blows up above BLOWUP_CAP."""
    build = experiments.build_model
    monkeypatch.setattr(experiments, "build_model",
                        lambda cfg, **kw: build(cfg, blowup_norm=BLOWUP_CAP, **kw))


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

    @pytest.mark.parametrize("key", sorted(_RETIRED))
    def test_retired_key_exit_code(self, tmp_path, capsys, key):
        experiment = "feller" if key.startswith("feller.") else "audit"
        text = BASE.replace("experiment = audit", f"experiment = {experiment}")
        cfg = write_cfg(tmp_path, text + f"{key} = {_RETIRED[key]}\n")
        assert main(["validate", "--config", cfg]) == 2
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        line = len(text.splitlines()) + 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: line {line}: {key}: unknown key"] * 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, line", [
        ("cauchy", "cauchy.levels = [8]"),
        ("moments", "noise.shape_level = 0"),
        ("occupation", "occupation.burn_in = 1.0"),
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

    @pytest.mark.parametrize("experiment", ["occupation", "invariant-bound"])
    def test_burn_in_that_snaps_onto_the_first_scheduled_time(self, tmp_path, capsys,
                                                              experiment):
        # 1000 steps, 64 output times: 0.995 snaps to the output time 1.0,
        # the only scheduled time, which would leave no average to take
        text = (f"experiment = {experiment}\ndisc.level = 8\ndisc.dt = 0.001\n"
                "disc.horizon = 1.0\nnoise.kind = additive\nensemble.paths = 4\n"
                "occupation.schedule = [1.0]\noccupation.burn_in = {}\n")
        cfg = write_cfg(tmp_path, text.format(0.995))
        assert main(["validate", "--config", cfg]) == 2
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert err[0].startswith("config error: line 8: occupation.burn_in: snaps to output time 1,")
        assert not (tmp_path / "out").exists()
        # 0.99 snaps to the output time before it
        assert main(["validate", "--config", write_cfg(tmp_path, text.format(0.99))]) == 0

    @pytest.mark.parametrize("experiment", ["occupation", "invariant-bound"])
    @pytest.mark.parametrize("dt", [0.003, 1.5])
    def test_horizon_that_is_no_whole_number_of_steps(self, tmp_path, capsys, experiment, dt):
        # the occupation averages need the horizon's step count; a dt past
        # the horizon is reported there too, not as a burn-in problem
        cfg = write_cfg(tmp_path, f"experiment = {experiment}\ndisc.level = 8\n"
                        f"disc.dt = {dt}\ndisc.horizon = 1.0\nnoise.kind = additive\n")
        assert main(["validate", "--config", cfg]) == 2
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert err[0].startswith("config error: line 4: disc.horizon: horizon 1 is not a whole number")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stem", ["audit", "moments"])
    def test_shipped_config_whose_horizon_is_no_whole_number_of_steps(self, tmp_path, capsys,
                                                                      stem):
        # every model the runner builds steps the horizon: 1.0 is 333.3 steps of 0.003
        text = (CONFIG_DIR / f"{stem}.cfg").read_text()
        assert "disc.dt = 0.001\n" in text
        cfg = write_cfg(tmp_path, text.replace("disc.dt = 0.001\n", "disc.dt = 0.003\n"))
        assert main(["validate", "--config", cfg]) == 2
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        line = text.splitlines().index("disc.horizon = 1.0") + 1
        assert err[0] == (f"config error: line {line}: disc.horizon: horizon 1 is not a whole "
                          "number >= 1 of steps of dt = 0.003")
        assert not (tmp_path / "out").exists()

    def test_cauchy_levels_whose_default_dt_differs(self, tmp_path, capsys):
        # with no disc.dt the default dt is 1e-3 up to level 32 and 5e-4 at
        # 64; the levels step in lockstep, so they must share one dt
        text = (CONFIG_DIR / "cauchy.cfg").read_text()
        text = (text.replace("disc.dt = 0.001\n", "").replace("disc.level = 32", "disc.level = 64")
                .replace("disc.horizon = 1.0", "disc.horizon = 0.01")
                .replace("cauchy.levels = [4, 8, 16, 32]", "cauchy.levels = [16, 32, 64]"))
        cfg = write_cfg(tmp_path, text)
        assert main(["validate", "--config", cfg]) == 2
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        line = text.splitlines().index("cauchy.levels = [16, 32, 64]") + 1
        assert err[0].startswith(f"config error: line {line}: cauchy.levels: the levels must "
                                 "share one dt")
        assert not (tmp_path / "out").exists()
        # one disc.dt for every level: the config is fine
        assert main(["validate", "--config", write_cfg(tmp_path, text + "disc.dt = 0.0005\n")]) == 0

    @pytest.mark.parametrize("start, bad", [
        ("ensemble.initial = mode1\nensemble.scale = 0.4\n", "1e-17"),  # 0.4 + 1e-17 == 0.4
        ("", "1e-170"),  # from zero, the squared distance underflows
    ], ids=["mode1", "zero"])
    def test_separation_that_leaves_the_pairs_at_one_start(self, tmp_path, capsys, start, bad):
        text = ("experiment = contraction\ndisc.level = 8\ndisc.horizon = 0.05\n"
                f"ensemble.paths = 20\n{start}contraction.separations = [0.1, {bad}]\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["validate", "--config", cfg]) == 2
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        line = len(text.splitlines())
        assert err[0].startswith(f"config error: line {line}: contraction.separations: {bad}: ")
        assert not (tmp_path / "out").exists()
        ok = write_cfg(tmp_path, text.replace(bad, "1e-3"))
        assert main(["validate", "--config", ok]) == 0

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
    def test_run_meta_records_the_duration(self, tmp_path, monkeypatch, text, code):
        # wall_time is the run's duration, not a timestamp: positive and no
        # longer than the call that made it
        if code == 3:
            cap_the_models(monkeypatch)
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "meta"
        start = time.perf_counter()
        assert main(["run", "--config", cfg, "--out", str(out)]) == code
        elapsed = time.perf_counter() - start
        meta = json.loads((out / "run_meta.json").read_text())
        assert 0.0 < meta["wall_time"] <= elapsed
        assert meta["clock"] and meta["workers"] >= 1

    @pytest.mark.parametrize("text, code", [(BASE, 0), (BLOWUP, 3)], ids=["pass", "blowup"])
    def test_run_meta_times_its_phases(self, tmp_path, monkeypatch, text, code):
        # the certificate, the runner and the writes, each within the run's
        # duration and none of them in the byte-stable summary
        if code == 3:
            cap_the_models(monkeypatch)
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "meta"
        assert main(["run", "--config", cfg, "--out", str(out)]) == code
        meta = json.loads((out / "run_meta.json").read_text())
        phases = [meta[key] for key in ("certify_s", "run_s", "write_s")]
        assert all(p >= 0.0 for p in phases)
        assert sum(phases) <= meta["wall_time"]
        summary = (out / "summary.json").read_text()
        assert not any(key in summary for key in ("certify_s", "run_s", "write_s", "wall_time"))

    def test_run_meta_records_the_blas_threads(self, tmp_path):
        # the calling process's OpenBLAS thread count, or null where numpy
        # bundles no OpenBLAS with the symbol; never in the summary
        from levyfluid.experiments import _openblas

        get_threads = _openblas("scipy_openblas_get_num_threads64_")
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "meta"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["blas_threads"] == (None if get_threads is None else get_threads())
        if get_threads is not None:
            assert meta["blas_threads"] >= 1
        assert "blas_threads" not in (out / "summary.json").read_text()

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
    def test_blowup_exit_three_with_truncation_marker(self, tmp_path, monkeypatch, experiment):
        cap_the_models(monkeypatch)
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

    def test_jsonl_records_and_numeric_summary_keys(self, tmp_path):
        # logs compare field by field, naming the field of the largest change;
        # a summary key that differs in numbers only carries its largest change
        audits = [{"path": 0, "replay_max": 6.8e-15}, {"path": 1, "replay_max": 2.6e-14}]
        roots = []
        for name, scale in (("a", 1.0), ("b", 1.0 + 4e-3)):
            root = self.bundle(tmp_path / name, 0.5, "PASS", {
                "path_audits": [dict(audits[0], replay_max=6.8e-15 * scale), audits[1]],
                "gronwall": {"gamma": 0.0, "extra": 0.12 * scale}})
            out = root / "results" / "feller"
            (out / "ledger0.jsonl").write_text(
                json.dumps({"t": 0.001, "conv_skew": 1e-17 * scale, "n": 0}) + "\n"
                + json.dumps({"t": 0.002, "conv_skew": 2e-17, "n": 1}) + "\n")
            (out / "jumps0.jsonl").write_text(json.dumps({"t": 0.5, "mark": 1}) + "\n")
            roots.append(root)
        (roots[1] / "results" / "feller" / "jumps0.jsonl").write_text(
            json.dumps({"t": 0.5, "mark": 1}) + "\n" + json.dumps({"t": 0.7, "mark": 0}) + "\n")
        lines = self.run(*roots)
        assert lines[1].split() == ["results/feller/jumps0.jsonl", "record", "counts", "differ"]
        name, value, field = lines[2].split()
        assert name == "results/feller/ledger0.jsonl" and field == "(conv_skew)"
        assert float(value) == pytest.approx(4e-3, rel=1e-2)
        keys = lines[3].removeprefix("results/feller/summary.json: ").split(", ")
        assert [key.split()[0] for key in keys] == ["gronwall.extra", "path_audits"]
        assert all(float(key.split()[1]) == pytest.approx(4e-3, rel=1e-2) for key in keys)
