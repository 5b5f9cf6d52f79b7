"""Experiment configuration: a flat key = value text format.

One assignment per line, full-line comments with '#', dotted keys for
namespacing.  Values are numbers, booleans, strings, or bracketed lists
of numbers.  The parser reports every problem it finds with its line
number: unknown keys are errors (no silent typo tolerance), duplicate
keys are errors naming both lines, and a value outside its key's range
is an error naming the key and the admissible range.  Each key's parser,
default and range rule sit together in SCHEMA; the few rules that tie
two keys together follow the per-key rules in `parse_config_text`.  A
config that parses therefore cannot fail on a value at run time.
Defaults are applied for absent keys and are echoed into the output
manifest, so a run records the full effective configuration.

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

import copy
import hashlib
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .basis import build_basis
from .ergodics import (FELLER_FUNCTIONALS, GRONWALL_BETA, RegimeError, invariant_moment_bound,
                       occupation_grid)
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

# the namespaces of the model, echoed into the manifest for every experiment;
# the others hold the options of one experiment each
_MANIFEST = ("fluid", "disc", "noise", "ensemble")

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


# range rules: (accepts the parsed value, problem message)
def _one_of(*names):
    return (lambda v: v in names, "must be one of " + ", ".join(map(str, names)))


def _levels(n_min, count):
    return (lambda v: len(v) >= n_min and v[0] >= 1 and all(b > a for a, b in zip(v, v[1:])),
            f"need {count} or more levels, strictly increasing and >= 1")


_POSITIVE = (lambda v: 0 < v < math.inf, "must be positive and finite")
_ALL_POSITIVE = (lambda v: len(v) > 0 and all(0 < x < math.inf for x in v),
                 "need one or more, each positive and finite")
_FINITE = (math.isfinite, "must be finite")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")

# key -> (parser, default, help, rule); a None default is computed during
# parsing, and a rule is None or (accepts the parsed value, problem message)
SCHEMA = {
    "experiment": (str, None, "one of " + ", ".join(EXPERIMENTS), _one_of(*EXPERIMENTS)),
    "out": (str, "results", "output directory", None),
    "fluid.kappa0": (float, 0.5, "stress magnitude, > 0", _POSITIVE),
    "fluid.kappa1": (float, 1.0, "higher-order viscosity, > 0", _POSITIVE),
    "fluid.reg": (float, 1.0, "shear-factor offset, > 0", _POSITIVE),
    "fluid.p": (float, 1.5, "shear-thinning exponent in (1, 2]",
                (lambda v: 1 < v <= 2, "must lie in (1, 2]")),
    "disc.dim": (int, 2, "torus dimension, 2 or 3", _one_of(2, 3)),
    "disc.level": (int, 16, "number of basis modes", _AT_LEAST_ONE),
    "disc.dt": (float, None, "time step; default min(1e-3, 0.1/(kappa1*lam_max))", _POSITIVE),
    "disc.horizon": (float, 1.0, "final time", _POSITIVE),
    "disc.convection": (_as_bool, True, "include the convection term", None),
    "disc.stress": (_as_bool, True, "include the nonlinear stress", None),
    "noise.kind": (str, "additive", "zero, linear, additive, saturating",
                   _one_of("zero", "linear", "additive", "saturating")),
    "noise.rates": (_as_list, [1.0, 3.0], "mark rates nu_j > 0", _ALL_POSITIVE),
    "noise.gains": (_as_list, [0.3, 0.1], "per-mark gains g_j",
                    (lambda v: all(map(math.isfinite, v)), "each must be finite")),
    "noise.scale": (float, 0.5, "additive shape norm", _FINITE),
    "noise.shape_level": (int, 4, "modes carried by the additive shape", _AT_LEAST_ONE),
    "ensemble.paths": (int, 128, "trajectory count", _AT_LEAST_ONE),
    "ensemble.seed": (int, 0, "root seed", (lambda v: v >= 0, "must be >= 0")),
    "ensemble.initial": (str, "zero", "zero, gaussian, or mode1",
                         _one_of("zero", "gaussian", "mode1")),
    "ensemble.scale": (float, 0.5, "initial-condition scale", _FINITE),
    "moments.levels": (_as_int_list, [4, 8, 16, 32], "truncation levels", _levels(1, "one")),
    "cauchy.levels": (_as_int_list, [4, 8, 16, 32], "nested truncation levels",
                      _levels(2, "two")),
    "contraction.separations": (_as_list, [1e-1, 1e-2, 1e-3], "|xi1 - xi2| values",
                                _ALL_POSITIVE),
    "feller.lag": (float, 0.25, "first semigroup time t", _POSITIVE),
    "feller.lag2": (float, 0.25, "second semigroup time s", _POSITIVE),
    "feller.inner": (int, 32, "nested estimator inner paths", _AT_LEAST_ONE),
    "feller.deltas": (_as_list, [0.4, 0.2, 0.1, 0.05], "approach distances", _ALL_POSITIVE),
    "occupation.schedule": (_as_list, None, "increasing checkpoint times", None),
    "occupation.burn_in": (float, None, "time dropped before averaging", None),
    "invariant.tolerance": (float, 0.2, "relative slack on the moment bound",
                            (lambda v: 0 <= v < math.inf, "must be >= 0 and finite")),
}

# retired keys, each fixed at the one value every run used; the manifest still
# records them (a model key always, an option for its experiment only), so that
# every config_hash and summary.json stays as it was
_RETIRED = {
    "disc.jump_mode": "grid",  # every run steps on the n*dt grid
    "disc.scheme": "semi-implicit",
    "noise.profile": "smooth",  # the additive shape 1/|k|^2
    "feller.functionals": ",".join(FELLER_FUNCTIONALS),
    "audit.beta": GRONWALL_BETA,
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


def _namespace(values, ns):
    return {key.partition(".")[2]: v for key, v in values.items() if key.startswith(ns + ".")}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated configuration.

    `values` maps every SCHEMA key to its effective value, defaults
    applied and noise.gains broadcast to one gain per mark; `fluid` and
    `solver` are built from its fluid.* and disc.* keys, and `options`
    maps the running experiment's option names to their values.
    """

    values: dict
    fluid: FluidParams
    solver: SolverConfig
    options: dict

    experiment = property(lambda self: self.values["experiment"])
    out = property(lambda self: self.values["out"])
    noise_kind = property(lambda self: self.values["noise.kind"])
    n_paths = property(lambda self: self.values["ensemble.paths"])
    seed = property(lambda self: self.values["ensemble.seed"])
    initial = property(lambda self: self.values["ensemble.initial"])
    initial_scale = property(lambda self: self.values["ensemble.scale"])

    def canonical(self):
        """Deterministic dictionary of the full effective configuration."""
        doc = {ns: _namespace(self.values, ns) for ns in _MANIFEST}
        options = dict(self.options)
        for key, value in _RETIRED.items():
            ns, _, name = key.partition(".")
            if ns in _MANIFEST:
                doc[ns][name] = value
            elif ns == self.experiment:
                options[name] = value
        doc["experiment"] = self.experiment
        doc["options"] = dict(sorted(options.items()))
        return doc

    def marks(self):
        return MarkSpace(np.asarray(self.values["noise.rates"]))

    def make_sigma(self, marks):
        shape = None
        if self.noise_kind == "additive":  # the profile 1/|k|^2 on the first shape_level modes
            h = 1.0 / build_basis(self.values["noise.shape_level"], self.solver.dim).ksq
            shape = self.values["noise.scale"] * h / np.linalg.norm(h)
        return make_noise(self.noise_kind, marks, gains=np.asarray(self.values["noise.gains"]),
                          shape_coeffs=shape)

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


def _raise_any(problems):
    if problems:
        raise ConfigError(sorted(problems, key=lambda p: (p[0] or 0)))


def parse_config_text(text, overrides=None):
    """Parse and validate a config document; collects all errors.

    Lexical and type problems are reported first, then every key's range
    rule, then the rules that tie keys together, each stage with all of
    its problems.
    """
    entries, problems = _scan(text)
    for key, value in (overrides or {}).items():
        entries[key] = (str(value), 0)

    values = {key: copy.deepcopy(spec[1]) for key, spec in SCHEMA.items()}
    for key, (raw, ln) in entries.items():
        if key not in SCHEMA:
            problems.append((ln, key, "unknown key"))
            continue
        try:
            values[key] = SCHEMA[key][0](raw)
        except (ValueError, TypeError) as exc:
            problems.append((ln, key, str(exc)))
    _raise_any(problems)

    def problem(key, msg):
        return (entries.get(key, (None, None))[1], key, msg)

    experiment = values["experiment"]
    if experiment is None:
        problems.append((None, "experiment", "missing (required)"))
    horizon = values["disc.horizon"]
    if values["occupation.schedule"] is None:
        values["occupation.schedule"] = [horizon / 2, 3 * horizon / 4, horizon]
    if values["occupation.burn_in"] is None:
        values["occupation.burn_in"] = 0.25 * horizon

    # the model's keys and the running experiment's options; the options of
    # the other experiments are neither checked nor recorded
    prefixes = {"invariant-bound": ("invariant", "occupation")}.get(experiment, (experiment,))
    options = {}
    for key, (_, _, _, rule) in SCHEMA.items():
        ns, _, name = key.partition(".")
        if ns in prefixes:
            options[name] = values[key]
        elif name and ns not in _MANIFEST:
            continue
        if rule is not None and values[key] is not None and not rule[0](values[key]):
            problems.append(problem(key, rule[1]))
    _raise_any(problems)

    rates, gains = values["noise.rates"], values["noise.gains"]
    if len(gains) not in (1, len(rates)):
        problems.append(problem("noise.gains", "need one gain or one per mark"))
    values["noise.gains"] = gains * len(rates) if len(gains) == 1 else gains
    # the runner builds one model per level of moments and cauchy, else one at
    # disc.level; each steps its horizon (feller: each lag) in whole steps of its dt
    dts = {level: values["disc.dt"] or default_dt(build_basis(level, values["disc.dim"]),
                                                   values["fluid.kappa1"])
           for level in options.get("levels", [values["disc.level"]])}
    for key in ("feller.lag", "feller.lag2") if experiment == "feller" else ("disc.horizon",):
        for dt in dict.fromkeys(dts.values()):
            try:
                _whole_steps(values[key], dt)
            except ValueError as exc:
                problems.append(problem(key, str(exc)))
                break
    if experiment == "cauchy" and len(set(dts.values())) > 1:  # the levels step in lockstep
        problems.append(problem("cauchy.levels", "the levels must share one dt, but the default "
                                "dt differs between them: set disc.dt"))
    if "schedule" in options:
        sched = options["schedule"]
        if sorted(sched) != sched or not sched or abs(sched[-1] - horizon) > 1e-12:
            problems.append(
                problem("occupation.schedule", "must be increasing and end at disc.horizon"))
        elif all(key != "disc.horizon" for _, key, _ in problems):
            # the runner averages over the horizon's steps from the burn-in on
            (dt,) = dts.values()
            try:
                occupation_grid(_whole_steps(horizon, dt), dt, sched, options["burn_in"])
            except ValueError as exc:
                problems.append(problem("occupation.burn_in", str(exc)))
    _raise_any(problems)

    fluid = FluidParams(**_namespace(values, "fluid"))
    cfg = ExperimentConfig(values, fluid, SolverConfig(params=fluid, **_namespace(values, "disc")),
                           options)
    if experiment == "contraction":  # the runner starts each partner at xi1 + sep * e_1
        x0 = float(cfg.initial_coeffs()[0])
        same = [f"{sep:g}" for sep in options["separations"] if ((x0 + sep) - x0) ** 2 == 0.0]
        if same:  # the pairs would measure nothing
            raise ConfigError([problem("contraction.separations", f"{', '.join(same)}: the "
                                       f"partner's squared distance from the start {x0:g} is 0")])
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
