"""Heat-kernel coarsening: the renormalized coefficient b_r.

b_r(x) maps Gaussian-smoothed corrected-plane gradients to their smoothed
fluxes: with G and Q the d x d matrices whose k-th columns are the smoothed
gradient and flux of the corrected plane psi_k = l_{e_k} + phi_{e_k}, each
smoothed at the point x alone by a direct sum over the kernel's support,
b_hat = Q G^-1.  The result blends b_hat toward the homogenized matrix,
b_r = chi b_hat + (1 - chi) abar, through the cutoff chi = clip(2 - X/r, 0, 1)
of the local minimal scale X: the side of the smallest triadic cube around x
whose duality gap is at most PROXY_DELTA (Lam - lam).  Where
cond(G) > COND_GATE, b_r is abar itself.  The ensemble studies of b_r and of
cube averages across scales live in `hlab.harness`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coarse import coarse_matrices, duality_defect
from .correctors import CorrectorSet
from .fields import CoefficientField
from .lattice import GridSpec, TriadicCube, cell_index, discrete_gradient
from .solver import SolveOptions

__all__ = [
    "HeatCoarsening",
    "heat_kernel_1d",
    "heat_point_value",
    "coarse_grained_b",
]

COND_GATE = 1e3
PROXY_DELTA = 0.25    # duality-gap threshold of the local minimal-scale proxy, in units of Lam - lam
PROXY_CAP = 4         # highest cube level the local proxy searches
KERNEL_SUPPORT = 6.0  # support radius in units of r


def heat_kernel_1d(r: float, h: float):
    """Truncated discrete Gaussian factor at cell offsets, unit mass.

    The kernel at scale r has per-coordinate variance 2 r^2; truncation at
    |x| = 6r discards erfc(3) ~ 2e-5 of the raw mass, at every r, restored by
    normalization.
    """
    if r < h:
        raise ValueError(f"smoothing radius {r} below the grid cell {h}")
    n = int(np.floor(KERNEL_SUPPORT * r / h))
    x = np.arange(-n, n + 1) * h
    w = np.exp(-(x**2) / (4.0 * r**2))
    return w / w.sum()


def heat_point_value(f: np.ndarray, r: float, h: float, point) -> np.ndarray:
    """(f * Phi_r)(x) at one cell center of a periodic field, by direct sum.

    `point` holds the integer indices of the cell along the leading len(point)
    axes of `f`; they wrap periodically.
    """
    f = np.asarray(f, dtype=float)
    w = heat_kernel_1d(r, h)
    n = (w.size - 1) // 2
    d = len(point)
    point = cell_index(point, f.shape[:d], periodic=True)
    out = f
    for ax in range(d):
        idx = (point[ax] + np.arange(-n, n + 1)) % f.shape[ax]
        out = np.take(out, idx, axis=ax)
    for _ in range(d):
        out = np.tensordot(w, out, axes=([0], [0]))
    return out


@dataclass
class HeatCoarsening:
    points: list                 # cell-index tuples
    b_hat: list                  # Q G^-1, or None where the gate rejects G
    cond: list                   # condition number of G
    chi: list                    # cutoff values in [0, 1]
    b: list                      # blended chi b_hat + (1 - chi) abar


def _containing_cube(point_cell, grid: GridSpec, n: int) -> TriadicCube:
    s = 3**n
    off = tuple((int(c) // grid.k // s) * s for c in point_cell)
    return TriadicCube(n, off)


def _local_min_scale(a_field: CoefficientField, point, delta: float,
                     cap: int, opts: SolveOptions = None) -> float:
    """Smallest 3^n whose containing cube has duality gap <= delta (Lam - lam).

    Levels whose cubes hold a single grid cell are skipped (their gap is
    identically zero by construction, not by convergence).
    """
    grid = a_field.grid
    thresh = delta * (a_field.Lam - a_field.lam)
    cap = min(cap, grid.m)
    for n in range(cap + 1):
        if 3**n * grid.k < 2:
            continue
        cube = _containing_cube(point, grid, n)
        if duality_defect(coarse_matrices(a_field, cube, opts))["gap"] <= thresh:
            return float(3**n)
    return float(2 * 3 ** (cap + 1))  # sentinel: beyond the searched range


def coarse_grained_b(cset: CorrectorSet, a_field: CoefficientField, r: float,
                     points, opts: SolveOptions = None) -> HeatCoarsening:
    """b_r at the given cell centers from a periodic corrector set."""
    if cset.mode != "periodic":
        raise ValueError("heat coarsening needs a periodic corrector set")
    grid = cset.grid
    d, h = grid.d, grid.h
    if grid.length < 12.0 * r:
        raise ValueError(f"torus side {grid.length} < 12 r = {12 * r}")

    grads = [np.eye(d)[k] + discrete_gradient(cset.phi[k], h, periodic=True)
             for k in range(d)]
    fluxes = [cset.g[k] + cset.abar[:, k] for k in range(d)]

    b_hats, conds, chis, bs = [], [], [], []
    for pt in points:
        G = np.column_stack([heat_point_value(grads[k], r, h, pt) for k in range(d)])
        Q = np.column_stack([heat_point_value(fluxes[k], r, h, pt) for k in range(d)])
        c = float(np.linalg.cond(G))
        X = _local_min_scale(a_field, pt, PROXY_DELTA, PROXY_CAP, opts)
        chi = float(np.clip(2.0 - X / r, 0.0, 1.0))
        if c <= COND_GATE:
            b_hat = Q @ np.linalg.inv(G)
            b = chi * b_hat + (1.0 - chi) * cset.abar
        else:
            b_hat = None
            b = cset.abar.copy()
        b_hats.append(b_hat); conds.append(c); chis.append(chi); bs.append(b)
    return HeatCoarsening(points=list(points), b_hat=b_hats, cond=conds, chi=chis, b=bs)

