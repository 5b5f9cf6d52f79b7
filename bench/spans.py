"""Spans around calls into the levyfluid layers, recorded from outside.

The tracer replaces public functions and methods of the package with thin
wrappers that record one span per call: (name, start, end, parent, run id,
pid, tag).  A function is replaced at every module attribute bound to it,
so calls are caught where they are looked up (``levyfluid.ergodics.run_paths``
as well as ``levyfluid.solver.run_paths``); ``uninstall`` puts the originals
back.  Spans stay in memory and are written out when a run ends.

Ensemble blocks run in pool workers forked from the traced process; the
workers inherit the wrappers and append their spans to one JSONL file per
worker in the run's trace directory, named by the environment variable
``TRACE_DIR_ENV``, which the parent sets before each run.

The outcome probe is separate and always on: it wraps the ensemble and
driver calls that the experiment runners make (a handful per run) and
counts the paths they integrate and the paths that blew up.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

TRACE_DIR_ENV = "LEVYFLUID_BENCH_TRACE_DIR"

# (span name, module, attribute); a dotted attribute names a method
TRACED = (
    ("config.parse", "levyfluid.config", "parse_config_text"),
    ("basis.build", "levyfluid.basis", "build_basis"),
    ("operators.setup", "levyfluid.operators", "SpectralOperators.__init__"),
    ("operators.stress", "levyfluid.operators", "SpectralOperators.nonlinear_stress"),
    ("operators.convection", "levyfluid.operators", "SpectralOperators.convection"),
    ("operators.bound", "levyfluid.operators", "estimate_convection_bound"),
    ("noise.sample", "levyfluid.noise", "sample_jumps"),
    ("noise.certify", "levyfluid.noise", "certify_noise_bounds"),
    ("solver.increment", "levyfluid.solver", "FluidModel.noise_increment"),
    ("solver.advance", "levyfluid.solver", "FluidModel.advance"),
    ("solver.run_paths", "levyfluid.solver", "run_paths"),
    ("solver.run_pairs", "levyfluid.solver", "run_pairs"),
    ("solver.run_levels", "levyfluid.solver", "run_levels"),
    ("ergodics.draw_initials", "levyfluid.ergodics", "draw_initials"),
    ("ergodics.mc_moment", "levyfluid.ergodics", "mc_moment"),
    ("ergodics.cauchy_study", "levyfluid.ergodics", "cauchy_study"),
    ("ergodics.uniqueness_contraction", "levyfluid.ergodics", "uniqueness_contraction"),
    ("ergodics.occupation_measure", "levyfluid.ergodics", "occupation_measure"),
    ("ergodics.make_functional", "levyfluid.ergodics", "make_functional"),
    ("ergodics.no_increase_verdict", "levyfluid.ergodics", "no_increase_verdict"),
    ("experiments.run", "levyfluid.experiments", "run_experiment"),
    ("experiments.build_model", "levyfluid.experiments", "build_model"),
    ("experiments.ensemble", "levyfluid.experiments", "run_ensemble"),
    ("reporting.write", "levyfluid.reporting", "write_series"),
    ("reporting.write", "levyfluid.reporting", "write_summary"),
    ("reporting.write", "levyfluid.reporting", "write_run_meta"),
)

# spans whose tag records the size of the call
_TAGGERS = {
    # workspace key: (dim, level)
    "operators.setup": lambda a, kw, r: [a[1].dim, a[1].size],
    # (paths, level) of one batched step
    "solver.advance": lambda a, kw, r: list(a[1].shape),
    # jumps drawn
    "noise.sample": lambda a, kw, r: int(r[0].size),
}


def _resolve(module_name, attr):
    owner = sys.modules[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "levyfluid" or n.startswith("levyfluid."))]


def _origin(fn):
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, main_pid):
        self.main_pid = main_pid
        self.spans = []
        self.stack = []
        self.run_id = "setup"
        self._written = 0
        self._saved = []  # (owner, attribute, value before install)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        # a pool worker starts with none of its parent's spans
        self.spans.clear()
        self.stack.clear()
        self._written = 0

    def wrap(self, name, fn):
        tagger = _TAGGERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (name, t0, t1, parent, self.run_id, os.getpid(), None)
            if tagger is not None:
                spans[index] = spans[index][:6] + (tagger(args, kwargs, result),)
            if not stack and os.getpid() != self.main_pid:
                self._flush_worker()
            return result

        return traced

    def install(self):
        """Wrap each traced function at its definition and wherever it was imported."""
        for name, module, attr in TRACED:
            owner, leaf = _resolve(module, attr)
            if isinstance(owner, type):
                sites = [(owner, leaf, owner.__dict__[leaf])]
            else:
                target = _origin(getattr(owner, leaf))
                sites = [(mod, key, value) for mod in _package_modules()
                         for key, value in list(vars(mod).items())
                         if callable(value) and _origin(value) is target]
            for site, key, value in sites:
                self._saved.append((site, key, value))
                setattr(site, key, self.wrap(name, value))

    def uninstall(self):
        for site, key, value in reversed(self._saved):
            setattr(site, key, value)
        self._saved.clear()

    def _flush_worker(self):
        """Append a worker's finished spans to its file and forget them."""
        trace_dir = os.environ.get(TRACE_DIR_ENV)
        if trace_dir:
            path = Path(trace_dir) / f"spans-{os.getpid()}.jsonl"
            base = self._written
            with open(path, "a", encoding="utf-8") as fh:
                for s in self.spans:
                    parent = s[3] + base if s[3] >= 0 else -1
                    fh.write(json.dumps(s[:3] + (parent,) + s[4:]) + "\n")
            self._written += len(self.spans)
        self.spans.clear()

    def take(self, run_id, trace_dir=None):
        """Spans of one run: this process's, then every worker's, re-indexed.

        The caller sets ``run_id`` before the run and takes its spans after
        it, so the in-memory list holds this run's spans only.
        """
        out = list(self.spans)
        self.spans.clear()
        for path in sorted(Path(trace_dir).glob("spans-*.jsonl")) if trace_dir else ():
            offset = len(out)
            worker = [tuple(json.loads(line)) for line in path.read_text().splitlines()]
            for s in worker:
                parent = s[3] + offset if s[3] >= 0 else -1
                out.append((s[0], s[1], s[2], parent, run_id, s[5], s[6]))
        return out


class OutcomeProbe:
    """Counts paths integrated and paths blown, per run, at the runner level."""

    SITES = (
        ("levyfluid.experiments", "run_ensemble"),
        ("levyfluid.ergodics", "run_paths"),
        ("levyfluid.ergodics", "run_pairs"),
        ("levyfluid.ergodics", "run_levels"),
    )

    def __init__(self):
        self.paths = 0
        self.blown = 0

    def install(self):
        for module, attr in self.SITES:
            mod = sys.modules[module]
            setattr(mod, attr, self._wrap(getattr(mod, attr)))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            result = fn(*args, **kwargs)
            blown = result["blown"] if isinstance(result, dict) else result.blown
            self.paths += int(blown.size)
            self.blown += int(blown.sum())
            return result

        return probed

    def reset(self):
        counts = (self.paths, self.blown)
        self.paths = self.blown = 0
        return counts


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
