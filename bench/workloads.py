"""The benchmark's workloads: one experiment config each, all at d=2.

Each workload stresses a different layer (see NOTES.md for the reasons and
the shares of wall time).  The seed is not part of the text: the benchmark
passes its ``--seed`` as ``ensemble.seed``.  ``smoke`` overrides shrink a
workload to a second or two for the benchmark's own tests.
"""

FLUID = """\
fluid.kappa0 = 0.5
fluid.kappa1 = 1.0
fluid.reg = 1.0
fluid.p = 1.5
disc.dim = 2
out = artifacts
"""

WORKLOADS = {
    # the only workload through run_ensemble's process pool: four 64-path
    # blocks per level; convection dominates the drift at m=32
    "ensemble": {
        "config": FLUID + """\
experiment = moments
disc.level = 32
disc.dt = 0.001
disc.horizon = 0.25
noise.kind = additive
noise.rates = [1.0, 3.0]
noise.gains = [0.4, 0.2]
noise.scale = 0.6
noise.shape_level = 4
ensemble.paths = 256
ensemble.initial = mode1
ensemble.scale = 0.5
moments.levels = [4, 8, 16, 32]
""",
        # enough jumps that the paths are not all identical (see NOTES.md)
        "smoke": {"ensemble.paths": 128, "disc.horizon": 0.05},
    },
    # 1000 coupled pairs in one batch with linear noise: the stress on a
    # wide batch, two drift calls per step, one process whatever the workers
    "pairs": {
        "config": FLUID + """\
experiment = contraction
disc.level = 16
disc.dt = 0.001
disc.horizon = 0.05
noise.kind = linear
noise.gains = [0.25, 0.1]
ensemble.paths = 1000
ensemble.initial = mode1
ensemble.scale = 0.4
contraction.separations = [0.1, 0.01, 0.001]
""",
        # enough jumps that the pairs are not all identical (see NOTES.md)
        "smoke": {"ensemble.paths": 100, "disc.horizon": 0.02},
    },
    # 8 replicas for 8000 steps at m=8: tiny arrays, so per-call overhead of
    # the solver loop, the noise increment and einsum dispatch dominates
    "long": {
        "config": FLUID + """\
experiment = occupation
disc.level = 8
disc.dt = 0.005
disc.horizon = 40.0
noise.kind = additive
noise.gains = [0.4, 0.2]
noise.scale = 0.5
noise.shape_level = 4
ensemble.paths = 8
occupation.schedule = [16.0, 24.0, 32.0, 40.0]
occupation.burn_in = 8.0
""",
        "smoke": {"disc.horizon": 2.0, "occupation.schedule": "[0.8, 1.2, 1.6, 2.0]",
                  "occupation.burn_in": 0.4},
    },
    # nested levels up to m=256 in lockstep: the only run_levels workload and
    # the only one with large workspaces (a 134 MB dense tensor at m=256)
    "levels": {
        "config": FLUID + """\
experiment = cauchy
disc.level = 256
disc.dt = 0.001
disc.horizon = 0.01
noise.kind = additive
noise.gains = [0.4, 0.2]
noise.scale = 0.8
noise.shape_level = 20
ensemble.paths = 64
ensemble.initial = gaussian
ensemble.scale = 0.5
cauchy.levels = [32, 64, 128, 256]
""",
        "smoke": {"disc.level": 64, "cauchy.levels": "[8, 16, 32, 64]",
                  "ensemble.paths": 16, "disc.horizon": 0.005},
    },
}


def model_overrides(cfg):
    """One FluidModel per truncation level the experiment runs."""
    levels = cfg.options.get("levels")
    return [{"level": level} for level in levels] if levels else [{}]


def copies_per_path(cfg):
    """Trajectories integrated per configured path at each level."""
    if cfg.experiment == "contraction":
        return 2 * len(cfg.options["separations"])  # both members, each separation
    return 1
