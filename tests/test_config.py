from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfluid.basis import build_basis
from levyfluid.config import (
    EXPERIMENTS,
    ConfigError,
    config_hash,
    parse_config,
    parse_config_text,
)
from levyfluid.ergodics import RegimeError, invariant_moment_bound
from levyfluid.noise import LinearNoise, MarkSpace

MINIMAL = "experiment = moments\n"
CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"
# config_hash of every shipped config; a change here changes the hash in
# every summary.json and CSV header of that experiment
SHIPPED_HASHES = {
    "audit": "1c7c34f4e885c25b8a7c0c7f2c687a5d8ea60e007bd8a88c2e3f8ea02466f0b8",
    "cauchy": "a4d0bf0ec573393651d90f33ebb8a20eaf6daf2f83580179cc61107626e5f468",
    "cauchy_oracle": "2dae03b14ef2386d45984dbe53f8fe71151340869c9ee507592e521ce364e86b",
    "contraction": "da7b2afe2325b2565d6d5be10fa9bf0d6f6274a0ffa8a742466ebacaed3a8588",
    "feller": "4d9bd1b7cdbcb0f97ee05a1a0a8bbc1dfad4cf44b8ab5abad7e074c03ef7588b",
    "invariant_bound": "1732e566c7bc0efc0e5d47aa0fd9560679599723245791784b332a4622120bf6",
    "moments": "40f7ed977c83ee30d0e2c351fb9a837f52f1f9683e82050701169c86ee1dc2b0",
    "moments_oracle": "3b876e7c6a352764494340232f33d1c7fc963ef39356820969500600d99c376d",
    "occupation": "07f998317b1e1332a76e57d3c1d2e28a2e66f70875fa35bc05a9405eebd7a460",
}


def problems_of(text, overrides=None):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text, overrides)
    return err.value.problems


class TestParsing:
    def test_minimal_file_gets_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.experiment == "moments"
        assert cfg.fluid.p == 1.5
        assert cfg.solver.level == 16
        assert cfg.options["levels"] == [4, 8, 16, 32]
        # defaults echoed into the canonical manifest
        assert cfg.canonical()["fluid"]["p"] == 1.5
        assert cfg.canonical()["ensemble"]["paths"] == 128

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# top\n\nexperiment = cauchy\n# tail\n")
        assert cfg.experiment == "cauchy"

    def test_duplicate_key_reports_both_lines(self):
        problems = problems_of("experiment = moments\nfluid.p = 1.5\nfluid.p = 1.2\n")
        assert any(
            key == "fluid.p" and ln == 3 and "line 2" in msg
            for ln, key, msg in problems
        )

    def test_unknown_key_is_an_error(self):
        problems = problems_of(MINIMAL + "fluid.kapa0 = 1.0\n")
        assert any(key == "fluid.kapa0" and msg == "unknown key" for _, key, msg in problems)

    def test_missing_equals_sign(self):
        problems = problems_of(MINIMAL + "fluid.kappa0 1.0\n")
        assert any(ln == 2 for ln, _, _ in problems)

    def test_value_type_errors_carry_lines(self):
        problems = problems_of(MINIMAL + "disc.level = many\n")
        assert any(ln == 2 and key == "disc.level" for ln, key, _ in problems)

    def test_multiple_problems_collected(self):
        text = MINIMAL + "disc.level = many\nnope = 1\n"
        assert len(problems_of(text)) == 2


class TestValidation:
    def test_p_out_of_range_names_interval(self):
        problems = problems_of(MINIMAL + "fluid.p = 2.5\n")
        (ln, key, msg) = next(p for p in problems if p[1] == "fluid.p")
        assert ln == 2 and "(1, 2]" in msg

    def test_unknown_experiment(self):
        problems = problems_of("experiment = turbulence\n")
        assert any("must be one of" in msg for _, _, msg in problems)

    def test_negative_rates(self):
        problems = problems_of(MINIMAL + "noise.rates = [1.0, -2.0]\n")
        assert any(key == "noise.rates" for _, key, _ in problems)

    def test_gains_arity(self):
        problems = problems_of(MINIMAL + "noise.gains = [0.1, 0.2, 0.3]\n")
        assert any(key == "noise.gains" for _, key, _ in problems)

    def test_regime_gate_for_invariant_bound(self):
        text = (
            "experiment = invariant-bound\n"
            "noise.kind = linear\n"
            "noise.gains = [1.5, 1.5]\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        # the parse-time gate is the bound's own check, with its message
        assert isinstance(err.value.__cause__, RegimeError)
        bounds = LinearNoise(MarkSpace(np.array([1.0, 3.0])), 1.5).bounds
        with pytest.raises(RegimeError) as want:
            invariant_moment_bound(1.0, build_basis(16, 2).lambda1, bounds.growth_const,
                                   bounds.growth_slope)
        assert err.value.problems == [(None, "noise", str(want.value))]
        assert "dissipative regime" in str(err.value)

    def test_occupation_schedule_must_end_at_horizon(self):
        text = (
            "experiment = occupation\n"
            "disc.horizon = 2.0\n"
            "occupation.schedule = [1.0, 1.5]\n"
        )
        problems = problems_of(text)
        assert any(key == "occupation.schedule" for _, key, _ in problems)


    @pytest.mark.parametrize("experiment,line", [
        # a runner would raise on these, or pass with nothing measured
        ("feller", "feller.lag = 0"),
        ("feller", "feller.lag2 = -0.25"),
        ("feller", "feller.lag = 0.0005"),  # below the default dt = 1e-3
        ("feller", "feller.lag2 = 0.0025"),  # 2.5 steps of dt
        ("feller", "feller.inner = 0"),
        ("feller", "feller.deltas = []"),
        ("feller", "feller.functionals = ,"),
        ("moments", "moments.levels = []"),
        ("moments", "moments.levels = [8, 4]"),
        ("moments", "moments.levels = [0, 4]"),
        ("cauchy", "cauchy.levels = [8]"),
        ("cauchy", "cauchy.levels = [8, 4]"),
        ("cauchy", "cauchy.levels = [4, 4, 8]"),
        ("cauchy", "cauchy.levels = [0, 4]"),
        ("contraction", "contraction.separations = []"),
        ("contraction", "contraction.separations = [0.1, 0.0]"),
        ("moments", "noise.profile = bogus"),
        ("moments", "noise.shape_level = 0"),
        ("moments", "disc.scheme = implicit"),
        ("moments", "ensemble.seed = -1"),
        ("occupation", "occupation.burn_in = 1.0"),  # the horizon, past the first scheduled time
        ("occupation", "occupation.burn_in = -1"),
        ("feller", "feller.functionals = gauss_bump,bogus"),
        ("audit", "audit.beta = 0.75"),
        ("invariant-bound", "invariant.tolerance = -0.1"),
    ])
    def test_option_values_a_runner_cannot_measure_with(self, experiment, line):
        problems = problems_of(f"experiment = {experiment}\n{line}\n")
        assert [(ln, key) for ln, key, _ in problems] == [(2, line.split(" =")[0])]

    @pytest.mark.parametrize("mode", ["adapted", "thinning"])
    def test_jump_mode_other_than_grid(self, mode):
        # every run steps on the n*dt grid: disc.jump_mode is no key, for any
        # value, grid included; the manifest still records the grid
        for value in (mode, "grid"):
            problems = problems_of(MINIMAL + f"disc.jump_mode = {value}\n")
            assert [(ln, key) for ln, key, _ in problems] == [(2, "disc.jump_mode")]
        assert parse_config_text(MINIMAL).canonical()["disc"]["jump_mode"] == "grid"


class TestOverridesAndHash:
    def test_seed_override(self):
        cfg = parse_config_text(MINIMAL, {"ensemble.seed": 99})
        assert cfg.seed == 99

    def test_hash_stability_and_sensitivity(self):
        a = parse_config_text(MINIMAL)
        b = parse_config_text(MINIMAL + "# comment only\n")
        c = parse_config_text(MINIMAL + "ensemble.seed = 1\n")
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_shipped_config_hashes_are_pinned(self):
        found = {p.stem: config_hash(parse_config(p)) for p in sorted(CONFIG_DIR.glob("*.cfg"))}
        assert found == SHIPPED_HASHES

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL + "ensemble.paths = 9\n")
        cfg = parse_config(path)
        assert cfg.n_paths == 9

    @given(
        p=st.floats(1.01, 2.0),
        kappa0=st.floats(0.01, 10.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_numeric_values_roundtrip_through_text(self, p, kappa0, seed):
        text = (
            f"experiment = audit\nfluid.p = {p!r}\nfluid.kappa0 = {kappa0!r}\n"
            f"ensemble.seed = {seed}\n"
        )
        cfg = parse_config_text(text)
        assert cfg.fluid.p == p
        assert cfg.fluid.kappa0 == kappa0
        assert cfg.seed == seed


class TestDerivedObjects:
    def test_marks_and_sigma(self):
        cfg = parse_config_text(MINIMAL + "noise.kind = additive\nnoise.scale = 0.7\n")
        marks = cfg.marks()
        sigma = cfg.make_sigma(marks)
        assert sigma.kind == "additive"
        assert np.linalg.norm(sigma.shape) == pytest.approx(0.7)

    def test_every_experiment_name_parses(self):
        for name in EXPERIMENTS:
            extra = ""
            if name == "invariant-bound":
                extra = "noise.kind = additive\n"
            cfg = parse_config_text(f"experiment = {name}\n{extra}")
            assert cfg.experiment == name

    def test_canonical_roundtrip_is_lossless(self):
        text = (
            "experiment = cauchy\n"
            "fluid.kappa0 = 0.75\n"
            "fluid.p = 1.25\n"
            "disc.level = 12\n"
            "disc.dt = 0.004\n"
            "noise.kind = saturating\n"
            "noise.gains = [0.2, 0.05]\n"
            "ensemble.paths = 17\n"
            "ensemble.seed = 5\n"
            "cauchy.levels = [4, 12]\n"
        )
        cfg = parse_config_text(text)
        doc = cfg.canonical()
        # regenerate a config file from the canonical manifest and reparse
        lines = [f"experiment = {doc['experiment']}"]
        for section in ("fluid", "disc", "noise", "ensemble"):
            names = {"ensemble": {"paths": "paths", "seed": "seed",
                                  "initial": "initial", "scale": "scale"}}
            for key, val in doc[section].items():
                if val is None or (section, key) == ("disc", "jump_mode"):
                    continue  # None is a default; jump_mode echoes the grid, no key
                if isinstance(val, bool):
                    val = str(val).lower()
                elif isinstance(val, list):
                    val = "[" + ", ".join(repr(v) for v in val) + "]"
                lines.append(f"{section}.{key} = {val}")
        lines.append("cauchy.levels = [4, 12]")
        reparsed = parse_config_text("\n".join(lines) + "\n")
        assert config_hash(reparsed) == config_hash(cfg)
