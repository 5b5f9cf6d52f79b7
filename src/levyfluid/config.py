"""Experiment configuration: a flat key = value text format.

One assignment per line, full-line comments with '#', dotted keys for
namespacing.  Values are numbers, booleans, strings, or bracketed lists
of numbers.  The parser reports every problem it finds with its line
number: unknown keys are errors (no silent typo tolerance), duplicate
keys are errors naming both lines, and field validation failures name
the field and the admissible range.  Defaults are applied for absent
keys and are echoed into the output manifest, so a run records the full
effective configuration.

Example::

    experiment = moments
    out = results/moments
    fluid.kappa0 = 0.5
    fluid.p = 1.5
    disc.level = 16
    noise.kind = additive
    noise.rates = [1.0, 3.0]
    noise.gains = [0.3, 0.1]
    ensemble.paths = 128
    ensemble.seed = 7
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .basis import build_basis
from .ergodics import RegimeError, invariant_moment_bound
from .noise import MarkSpace, make_noise
from .operators import FluidParams
from .solver import SolverConfig, _whole_steps, default_dt

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "parse_config",
    "parse_config_text",
    "config_hash",
    "EXPERIMENTS",
]

EXPERIMENTS = (
    "moments",
    "cauchy",
    "contraction",
    "feller",
    "occupation",
    "invariant-bound",
    "audit",
)

_KEY_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


def _as_bool(s):
    if s.lower() in ("true", "yes", "on"):
        return True
    if s.lower() in ("false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _as_list(s):
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"expected a bracketed list, got {s!r}")
    body = s[1:-1].strip()
    if not body:
        return []
    return [float(x) for x in body.split(",")]


def _as_int_list(s):
    return [int(x) for x in _as_list(s)]


# key -> (parser, default, help); None default means "computed later"
SCHEMA = {
    "experiment": (str, None, "one of " + ", ".join(EXPERIMENTS)),
    "out": (str, "results", "output directory"),
    "fluid.kappa0": (float, 0.5, "stress magnitude, > 0"),
    "fluid.kappa1": (float, 1.0, "higher-order viscosity, > 0"),
    "fluid.reg": (float, 1.0, "shear-factor offset, > 0"),
    "fluid.p": (float, 1.5, "shear-thinning exponent in (1, 2]"),
    "disc.dim": (int, 2, "torus dimension, 2 or 3"),
    "disc.level": (int, 16, "number of basis modes"),
    "disc.dt": (float, None, "time step; default min(1e-3, 0.1/(kappa1*lam_max))"),
    "disc.horizon": (float, 1.0, "final time"),
    "disc.scheme": (str, "semi-implicit", "semi-implicit or explicit"),
    "disc.convection": (_as_bool, True, "include the convection term"),
    "disc.stress": (_as_bool, True, "include the nonlinear stress"),
    "noise.kind": (str, "additive", "zero, linear, additive, saturating"),
    "noise.rates": (_as_list, [1.0, 3.0], "mark rates nu_j > 0"),
    "noise.gains": (_as_list, [0.3, 0.1], "per-mark gains g_j"),
    "noise.profile": (str, "smooth", "additive shape: mode1 or smooth"),
    "noise.scale": (float, 0.5, "additive shape norm"),
    "noise.shape_level": (int, 4, "modes carried by the additive shape"),
    "ensemble.paths": (int, 128, "trajectory count"),
    "ensemble.seed": (int, 0, "root seed"),
    "ensemble.initial": (str, "zero", "zero, gaussian, or mode1"),
    "ensemble.scale": (float, 0.5, "initial-condition scale"),
    "moments.levels": (_as_int_list, [4, 8, 16, 32], "truncation levels"),
    "cauchy.levels": (_as_int_list, [4, 8, 16, 32], "nested truncation levels"),
    "contraction.separations": (_as_list, [1e-1, 1e-2, 1e-3], "|xi1 - xi2| values"),
    "feller.functionals": (str, "gauss_bump,inv_bump,cos_coord", "registered names"),
    "feller.lag": (float, 0.25, "first semigroup time t"),
    "feller.lag2": (float, 0.25, "second semigroup time s"),
    "feller.inner": (int, 32, "nested estimator inner paths"),
    "feller.deltas": (_as_list, [0.4, 0.2, 0.1, 0.05], "approach distances"),
    "occupation.schedule": (_as_list, None, "increasing checkpoint times"),
    "occupation.burn_in": (float, None, "time dropped before averaging"),
    "invariant.tolerance": (float, 0.2, "relative slack on the moment bound"),
    "audit.beta": (float, 0.25, "martingale majorant weight, 2*beta <= 1"),
}


def _levels_ok(n_min):
    return lambda v: len(v) >= n_min and v[0] >= 1 and all(b > a for a, b in zip(v, v[1:]))


# option values under which a runner would crash or pass without measuring
# anything: key -> (accepts the parsed value, problem message)
_OPTION_RULES = {
    "moments.levels": (_levels_ok(1), "need one or more levels, strictly increasing and >= 1"),
    "cauchy.levels": (_levels_ok(2), "need two or more levels, strictly increasing and >= 1"),
    "contraction.separations": (lambda v: len(v) > 0 and min(v) > 0, "need one or more, each > 0"),
    "feller.inner": (lambda v: v >= 1, "must be >= 1"),
    "feller.deltas": (lambda v: len(v) > 0, "need one or more distances"),
    "feller.functionals": (lambda v: any(n.strip() for n in v.split(",")),
                           "need one or more functional names"),
}


class ConfigError(ValueError):
    """Carries a list of (line, key, message) problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(
            f"line {ln}: {key}: {msg}" if ln else f"{key}: {msg}"
            for ln, key, msg in self.problems
        )
        super().__init__(lines)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    out: str
    fluid: FluidParams
    solver: SolverConfig
    noise_kind: str
    noise_rates: tuple
    noise_gains: tuple
    noise_profile: str
    noise_scale: float
    noise_shape_level: int
    n_paths: int
    seed: int
    initial: str
    initial_scale: float
    options: dict = field(default_factory=dict)

    def canonical(self):
        """Deterministic dictionary of the full effective configuration."""
        return {
            "experiment": self.experiment,
            "fluid": {
                "kappa0": self.fluid.kappa0,
                "kappa1": self.fluid.kappa1,
                "reg": self.fluid.reg,
                "p": self.fluid.p,
            },
            "disc": {
                "dim": self.solver.dim,
                "level": self.solver.level,
                "dt": self.solver.dt,
                "horizon": self.solver.horizon,
                "scheme": self.solver.scheme,
                # not a key (every run steps on the n*dt grid); echoed so
                # that every config_hash and summary.json stays as it was
                "jump_mode": "grid",
                "convection": self.solver.convection,
                "stress": self.solver.stress,
            },
            "noise": {
                "kind": self.noise_kind,
                "rates": list(self.noise_rates),
                "gains": list(self.noise_gains),
                "profile": self.noise_profile,
                "scale": self.noise_scale,
                "shape_level": self.noise_shape_level,
            },
            "ensemble": {
                "paths": self.n_paths,
                "seed": self.seed,
                "initial": self.initial,
                "scale": self.initial_scale,
            },
            "options": {k: self.options[k] for k in sorted(self.options)},
        }

    def marks(self):
        return MarkSpace(np.asarray(self.noise_rates))

    def shape_coeffs(self):
        """Additive amplitude profile on the first shape_level modes."""
        basis = build_basis(self.noise_shape_level, self.solver.dim)
        if self.noise_profile == "mode1":
            h = np.zeros(basis.size)
            h[0] = 1.0
        elif self.noise_profile == "smooth":
            h = 1.0 / basis.ksq.astype(float)
        else:
            raise ConfigError([(None, "noise.profile", f"unknown profile {self.noise_profile!r}")])
        return self.noise_scale * h / np.linalg.norm(h)

    def make_sigma(self, marks):
        shape = self.shape_coeffs() if self.noise_kind == "additive" else None
        return make_noise(
            self.noise_kind, marks, gains=np.asarray(self.noise_gains), shape_coeffs=shape
        )

    def initial_coeffs(self):
        """Fixed part of the initial condition at the configured level."""
        m = self.solver.level
        c = np.zeros(m)
        if self.initial == "mode1":
            c[0] = self.initial_scale
        return c

    def initial_law(self):
        if self.initial == "gaussian":
            return ("gaussian", self.initial_scale)
        return ("fixed", self.initial_coeffs())


def config_hash(config):
    blob = json.dumps(config.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _scan(text):
    """Raw key/value/line triples plus lexical problems."""
    entries = {}
    problems = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            problems.append((ln, line.split()[0], "expected 'key = value'"))
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not _KEY_RE.match(key):
            problems.append((ln, key, "malformed key"))
            continue
        if key in entries:
            problems.append(
                (ln, key, f"duplicate key (first set on line {entries[key][1]})")
            )
            continue
        entries[key] = (value, ln)
    return entries, problems


def parse_config_text(text, overrides=None):
    """Parse and validate a config document; collects all errors."""
    entries, problems = _scan(text)
    for key, value in (overrides or {}).items():
        entries[key] = (str(value), 0)

    values = {}
    for key, (raw, ln) in entries.items():
        if key not in SCHEMA:
            problems.append((ln, key, "unknown key"))
            continue
        parser = SCHEMA[key][0]
        try:
            values[key] = parser(raw)
        except (ValueError, TypeError) as exc:
            problems.append((ln, key, str(exc)))

    def get(key):
        if key in values:
            return values[key]
        return SCHEMA[key][1]

    def line_of(key):
        return entries.get(key, (None, None))[1]

    if problems:
        raise ConfigError(sorted(problems, key=lambda p: (p[0] or 0)))

    experiment = get("experiment")
    if experiment is None:
        problems.append((None, "experiment", "missing (required)"))
    elif experiment not in EXPERIMENTS:
        problems.append(
            (line_of("experiment"), "experiment", f"must be one of {', '.join(EXPERIMENTS)}")
        )

    try:
        fluid = FluidParams(
            kappa0=get("fluid.kappa0"),
            kappa1=get("fluid.kappa1"),
            reg=get("fluid.reg"),
            p=get("fluid.p"),
        )
    except ValueError as exc:
        msg = str(exc)
        first = msg.split()[0]
        key = f"fluid.{first}" if f"fluid.{first}" in SCHEMA else "fluid"
        problems.append((line_of(key), key, msg))
        fluid = FluidParams()

    if get("disc.dim") not in (2, 3):
        problems.append((line_of("disc.dim"), "disc.dim", "dimension must be 2 or 3"))
    if get("disc.level") < 1:
        problems.append((line_of("disc.level"), "disc.level", "level must be >= 1"))
    if get("disc.dt") is not None and not get("disc.dt") > 0:
        problems.append((line_of("disc.dt"), "disc.dt", "dt must be positive"))
    if not get("disc.horizon") > 0:
        problems.append((line_of("disc.horizon"), "disc.horizon", "horizon must be positive"))
    try:
        solver = SolverConfig(
            params=fluid,
            dim=get("disc.dim") if get("disc.dim") in (2, 3) else 2,
            level=max(1, get("disc.level")),
            dt=get("disc.dt"),
            horizon=get("disc.horizon"),
            scheme=get("disc.scheme"),
            convection=get("disc.convection"),
            stress=get("disc.stress"),
        )
    except ValueError as exc:
        problems.append((None, "disc", str(exc)))
        solver = SolverConfig(params=fluid)

    rates = get("noise.rates")
    if not rates or any(r <= 0 for r in rates):
        problems.append((line_of("noise.rates"), "noise.rates", "rates must be positive"))
        rates = [1.0]
    gains = get("noise.gains")
    if len(gains) not in (1, len(rates)):
        problems.append(
            (line_of("noise.gains"), "noise.gains", "need one gain or one per mark")
        )
        gains = [0.0]
    if len(gains) == 1:
        gains = gains * len(rates)
    if get("noise.kind") not in ("zero", "linear", "additive", "saturating"):
        problems.append((line_of("noise.kind"), "noise.kind", "unknown noise kind"))
    if get("ensemble.paths") < 1:
        problems.append((line_of("ensemble.paths"), "ensemble.paths", "need >= 1 path"))
    if get("ensemble.initial") not in ("zero", "gaussian", "mode1"):
        problems.append(
            (line_of("ensemble.initial"), "ensemble.initial", "unknown initial law")
        )

    options = {}
    if experiment in EXPERIMENTS:
        prefixes = {experiment}
        if experiment == "invariant-bound":
            prefixes = {"invariant", "occupation"}
        for key in SCHEMA:
            ns, _, rest = key.partition(".")
            if rest and ns in prefixes:
                options[rest] = get(key)
                accepts, msg = _OPTION_RULES.get(key, (lambda v: True, None))
                if not accepts(options[rest]):
                    problems.append((line_of(key), key, msg))
        if "schedule" in options:
            horizon = get("disc.horizon")
            if options["schedule"] is None:
                options["schedule"] = [horizon / 2, 3 * horizon / 4, horizon]
            if options.get("burn_in") is None:
                options["burn_in"] = 0.25 * horizon
            sched = options["schedule"]
            if sorted(sched) != sched or not sched or abs(sched[-1] - horizon) > 1e-12:
                problems.append(
                    (
                        line_of("occupation.schedule"),
                        "occupation.schedule",
                        "must be increasing and end at disc.horizon",
                    )
                )

    if experiment == "feller":  # each lag is the horizon of a model the runner builds
        dt = solver.dt or default_dt(build_basis(solver.level, solver.dim), fluid.kappa1)
        for key in ("feller.lag", "feller.lag2"):
            try:
                _whole_steps(get(key), dt)
            except ValueError as exc:
                problems.append((line_of(key), key, str(exc)))

    if problems:
        raise ConfigError(sorted(problems, key=lambda p: (p[0] or 0)))

    cfg = ExperimentConfig(
        experiment=experiment,
        out=get("out"),
        fluid=fluid,
        solver=solver,
        noise_kind=get("noise.kind"),
        noise_rates=tuple(rates),
        noise_gains=tuple(gains),
        noise_profile=get("noise.profile"),
        noise_scale=get("noise.scale"),
        noise_shape_level=get("noise.shape_level"),
        n_paths=get("ensemble.paths"),
        seed=get("ensemble.seed"),
        initial=get("ensemble.initial"),
        initial_scale=get("ensemble.scale"),
        options=options,
    )

    if experiment == "invariant-bound":
        sigma = cfg.make_sigma(cfg.marks())
        lam1 = build_basis(cfg.solver.level, cfg.solver.dim).lambda1
        try:
            invariant_moment_bound(fluid.kappa1, lam1, sigma.bounds.growth_const,
                                   sigma.bounds.growth_slope)
        except RegimeError as exc:
            raise ConfigError([(None, "noise", str(exc))]) from exc
    return cfg


def parse_config(path, overrides=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), overrides)
