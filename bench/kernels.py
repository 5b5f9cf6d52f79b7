"""Computed kernel counts and the environment record of a benchmark run.

The counts describe the seed's dense kernels at a given (dim, level, batch)
and repeat exactly; they are computed from array shapes, not measured, so
bytes ignore cache hits and misses.

* Stress: strain synthesis ``pm,mabg->pabg``, the shear factor on the
  collocation grid, and the projection ``pabg,mabg->pm``.  Only d(d+1)/2 of
  the d*d strain components are independent; that share is its useful
  fraction.
* Convection: the dense contraction ``ijk,pj,pk->pi``.  Its useful fraction
  is the share of the m^3 tensor entries that are structurally nonzero,
  counted by quadrature over the wavevector triads k_i = +-k_j +- k_k, the
  only ones that can couple.
"""

from __future__ import annotations

import functools
import os
import platform
from pathlib import Path

import numpy as np

from levyfluid.basis import build_basis, mode_gradients, mode_values, uniform_grid

F8 = 8  # bytes per float64
STRESS_OVERSAMPLE = 4  # collocation points per wavenumber and dimension


def _kmax(basis):
    return int(np.max(np.abs(basis.wavevectors)))


def stress_counts(dim, level, batch):
    """Per path-step flops, bytes and useful fraction of the dense stress."""
    basis = build_basis(level, dim)
    g = (STRESS_OVERSAMPLE * (_kmax(basis) + 1)) ** dim
    comps = dim * dim
    indep = dim * (dim + 1) // 2

    def flops(c):
        # synthesis and projection 2*m*c*G each, |E|^2 2cG, weighting cG,
        # shear factor 2G, output weight m
        return 4 * level * c * g + 3 * c * g + 2 * g + level

    # modes read twice and shared by the batch; per path the strain is
    # written, read three times and the weighted copy written once
    nbytes = F8 * (2 * level * comps * g / batch + 5 * comps * g + 2 * g + 2 * level)
    return {
        "grid_points": g,
        "flops": flops(comps),
        "bytes": nbytes,
        "useful_frac": flops(indep) / flops(comps),
        "modes_mb": F8 * level * comps * g / 1e6,
    }


@functools.lru_cache(maxsize=None)
def structural_nonzeros(level, dim):
    """Entries of the antisymmetrized convection tensor that are not zero."""
    basis = build_basis(level, dim)
    k = basis.wavevectors
    cand = np.zeros((level, level, level), dtype=bool)
    for s1 in (1, -1):
        for s2 in (1, -1):
            cand |= np.all(k[:, None, None, :] == s1 * k[None, :, None, :]
                           + s2 * k[None, None, :, :], axis=-1)
    i, j, kk = np.nonzero(cand)
    if i.size == 0:
        return 0
    pts, w = uniform_grid(dim, 3 * _kmax(basis) + 1)
    vals = mode_values(basis, pts)      # (m, d, G)
    grads = mode_gradients(basis, pts)  # (m, d, d, G)
    t = np.empty(i.size)
    for a in range(0, i.size, 4096):
        s = slice(a, a + 4096)
        half = np.einsum("cag,cbag->cbg", vals[j[s]], grads[kk[s]])
        t[s] = w * np.einsum("cbg,cbg->c", half, vals[i[s]])
    # the candidate set is closed under swapping i and k (flat order is sorted)
    flat = (i * level + j) * level + kk
    swapped = np.searchsorted(flat, (kk * level + j) * level + i)
    anti = np.abs(0.5 * (t - t[swapped]))
    return int(np.count_nonzero(anti > 1e-12 * anti.max()))


def convection_counts(dim, level, batch):
    """Per path-step flops, bytes and useful fraction of the dense convection."""
    m = level
    nnz = structural_nonzeros(level, dim)
    return {
        "nonzeros": nnz,
        "flops": 2 * m**3 + 2 * m**2,
        # tensor shared by the batch; the (m, m) intermediate written and read
        "bytes": F8 * (m**3 / batch + 2 * m**2 + 3 * m),
        "useful_frac": nnz / m**3,
        "tensor_mb": F8 * m**3 / 1e6,
    }


def kernel_counts(dim, per_level):
    """Counts per level, and path-step weighted totals for the workload.

    ``per_level`` maps each level to (path-steps, rows per operator call).
    """
    levels = {}
    for level in sorted(per_level):
        path_steps, batch = per_level[level]
        levels[level] = {
            "path_steps": path_steps,
            "batch": batch,
            "stress": stress_counts(dim, level, batch),
            "convection": convection_counts(dim, level, batch),
        }
    total = sum(v["path_steps"] for v in levels.values())

    def per_step(kernel, key):
        return sum(v["path_steps"] * v[kernel][key] for v in levels.values()) / total

    dense = sum(v["path_steps"] * m**3 for m, v in levels.items())
    useful = sum(v["path_steps"] * v["convection"]["nonzeros"] for v in levels.values())
    return {
        "levels": {str(m): v for m, v in levels.items()},
        "stress_flops": per_step("stress", "flops"),
        "stress_bytes": per_step("stress", "bytes"),
        "stress_useful_frac": per_step("stress", "useful_frac"),
        "convection_flops": per_step("convection", "flops"),
        "convection_bytes": per_step("convection", "bytes"),
        "convection_useful_frac": useful / dense,
        "convection_tensor_mb": max(v["convection"]["tensor_mb"] for v in levels.values()),
        "stress_modes_mb": max(v["stress"]["modes_mb"] for v in levels.values()),
    }


def working_set(dim, levels):
    """Dense convection tensor and stress mode array per level, in MB."""
    return {str(m): {"tensor_mb": F8 * m**3 / 1e6,
                     "stress_modes_mb": stress_counts(dim, m, 1)["modes_mb"]}
            for m in levels}


def _cache_sizes():
    """Cache sizes of cpu0 from sysfs (read-only), e.g. {"L2": "2048K"}."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def environment(workers):
    """What a number depends on besides the code: machine, libraries, threads."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "caches": _cache_sizes(),
    }
