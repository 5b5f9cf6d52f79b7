"""Spectral Galerkin simulation lab for jump-driven nonlinear bipolar fluids.

A divergence-free Fourier truncation of the stochastic evolution equation

    du + [kappa1 A u + 2 kappa0 Ap(u) + B(u, u)] dt = integral sigma d(eta~)

on the periodic box, driven by a compensated finite-activity Poisson
random measure, with a semi-implicit Euler scheme on a uniform time grid,
per-step energy ledgers, and Monte Carlo studies of the provable
properties: operator certificates, moment bounds, inter-level mean-square
convergence, pathwise contraction, Markov-Feller continuity, occupation
averages and the invariant second-moment bound.
"""

from .basis import GalerkinBasis, build_basis
from .noise import MarkSpace, derive_rng, sample_jumps
from .operators import FluidParams, SpectralOperators
from .solver import FluidModel, SolverConfig

__version__ = "0.1.0"

__all__ = [
    "GalerkinBasis",
    "build_basis",
    "MarkSpace",
    "sample_jumps",
    "derive_rng",
    "FluidParams",
    "SpectralOperators",
    "SolverConfig",
    "FluidModel",
    "__version__",
]
