"""Heat-kernel coarsening: the renormalized coefficient b_r.

b_r(x) maps Gaussian-smoothed corrected-plane gradients to their smoothed
fluxes: with G and Q the d x d matrices whose k-th columns are the smoothed
gradient and flux of the corrected plane psi_k = l_{e_k} + phi_{e_k}, each
smoothed at x alone by a direct sum over the kernel window (2 floor(6r/h) + 1
cells per axis, all that is read of the d torus cell solutions), b_hat = Q G^-1.
It blends toward the homogenized matrix, b_r = chi b_hat + (1 - chi) abar,
through the cutoff chi = clip(2 - X/r, 0, 1) of the local minimal scale X: the
side of the smallest triadic cube around x whose duality gap is at most
PROXY_DELTA (Lam - lam).  Where cond(G) > COND_GATE, b_r is abar itself.  The
ensemble studies of b_r and of cube averages across scales live in `hlab.harness`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coarse import coarse_matrices, duality_defect
from .correctors import mean_flux_matrix
from .fields import CoefficientField
from .lattice import TriadicCube, cell_index
from .solver import SolveOptions, solve_periodic_cell

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


def _window(f: np.ndarray, point, n: int) -> np.ndarray:
    """The cells of `f` within n of `point` along its leading axes, wrapping periodically."""
    for ax, c in enumerate(point):
        f = np.take(f, (c + np.arange(-n, n + 1)) % f.shape[ax], axis=ax)
    return f


def heat_point_value(f: np.ndarray, r: float, h: float, point) -> np.ndarray:
    """(f * Phi_r)(x) at one cell center of a periodic field, by direct sum.

    `point` holds the integer indices of the cell along the leading len(point)
    axes of `f`; they wrap periodically.
    """
    f = np.asarray(f, dtype=float)
    w = heat_kernel_1d(r, h)
    d = len(point)
    out = _window(f, cell_index(point, f.shape[:d], periodic=True), (w.size - 1) // 2)
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
        cube = TriadicCube(n, tuple(c // grid.k // 3**n * 3**n for c in point))
        if duality_defect(coarse_matrices(a_field, cube, opts))["gap"] <= thresh:
            return float(3**n)
    return float(2 * 3 ** (cap + 1))  # sentinel: beyond the searched range


def coarse_grained_b(a_field: CoefficientField, r: float, points,
                     opts: SolveOptions = None) -> HeatCoarsening:
    """b_r at cell centers of a periodic field: one torus cell solve, read in each kernel window."""
    grid = a_field.grid
    d, h = grid.d, grid.h
    if grid.length < 12.0 * r:
        raise ValueError(f"torus side {grid.length} < 12 r = {12 * r}")
    cells = [cell_index(pt, grid.cell_shape, periodic=True) for pt in points]
    n = (heat_kernel_1d(r, h).size - 1) // 2
    centre = (n,) * d                   # the point's cell inside its window
    sol = solve_periodic_cell(a_field, np.eye(d), opts)
    abar = mean_flux_matrix(sol.flux)
    means = [flux.reshape(-1, d).mean(axis=0) for flux in sol.flux]

    b_hats, conds, chis, bs = [], [], [], []
    for cell in cells:
        grads = [_window(sol.gradient[k], cell, n) + np.eye(d)[k] for k in range(d)]
        fluxes = [_window(sol.flux[k], cell, n) - means[k] + abar[:, k] for k in range(d)]
        G = np.column_stack([heat_point_value(g, r, h, centre) for g in grads])
        Q = np.column_stack([heat_point_value(q, r, h, centre) for q in fluxes])
        c = float(np.linalg.cond(G))
        X = _local_min_scale(a_field, cell, PROXY_DELTA, PROXY_CAP, opts)
        chi = float(np.clip(2.0 - X / r, 0.0, 1.0))
        if c <= COND_GATE:
            b_hat = Q @ np.linalg.inv(G)
            b = chi * b_hat + (1.0 - chi) * abar
        else:
            b_hat = None
            b = abar.copy()
        b_hats.append(b_hat); conds.append(c); chis.append(chi); bs.append(b)
    return HeatCoarsening(points=list(points), b_hat=b_hats, cond=conds, chi=chis, b=bs)
