"""Heat-kernel coarsening: the renormalized coefficient b_r.

b_r(x) maps Gaussian-smoothed corrected-plane gradients to their smoothed
fluxes: with G and Q the d x d matrices whose k-th columns are the smoothed
gradient and flux of the corrected plane psi_k = l_{e_k} + phi_{e_k},
b_r(x) = Q G^-1 wherever G is well conditioned.  Ill-conditioned or
unconverged points are blended toward the homogenized matrix through the
cutoff chi_r built from a windowed minimal-scale proxy.  The ensemble
studies of b_r and of cube averages across scales live in `hlab.harness`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import erfc

import numpy as np
import scipy.ndimage

from .coarse import coarse_matrices, partition_matrices
from .correctors import CorrectorSet
from .fields import CoefficientField
from .lattice import GridSpec, TriadicCube, discrete_gradient
from .solver import SolveOptions

__all__ = [
    "HeatCoarsening",
    "heat_kernel_1d",
    "heat_convolve",
    "heat_point_value",
    "coarse_grained_b",
    "minimal_scale_proxy",
]

COND_GATE = 1e3
KERNEL_SUPPORT = 6.0  # support radius in units of r


def heat_kernel_1d(r: float, h: float):
    """Truncated discrete Gaussian factor at cell offsets, unit mass.

    The kernel at scale r has per-coordinate variance 2 r^2; truncation at
    |x| = 6r discards ~2e-5 of the raw mass, restored by normalization and
    recorded as the second return value.
    """
    if r < h:
        raise ValueError(f"smoothing radius {r} below the grid cell {h}")
    n = int(np.floor(KERNEL_SUPPORT * r / h))
    x = np.arange(-n, n + 1) * h
    w = np.exp(-(x**2) / (4.0 * r**2))
    total = w.sum()
    # tail of the continuous factor relative to its full mass
    tail = erfc((KERNEL_SUPPORT * r) / (2.0 * r))
    return w / total, float(tail)


def heat_convolve(f: np.ndarray, r: float, h: float, periodic: bool = True,
                  spatial_dims: int = None, info: dict = None) -> np.ndarray:
    """Separable Gaussian smoothing over the leading spatial axes.

    Periodic fields wrap; otherwise the field is extended by zero and the
    worst-case boundary mass loss is recorded in `info`.
    """
    f = np.asarray(f, dtype=float)
    nd = f.ndim if spatial_dims is None else spatial_dims
    w, tail = heat_kernel_1d(r, h)
    mode = "wrap" if periodic else "constant"
    out = f
    for ax in range(nd):
        if w.size > f.shape[ax] and periodic:
            raise ValueError("kernel support exceeds the torus period")
        out = scipy.ndimage.convolve1d(out, w, axis=ax, mode=mode, cval=0.0)
    if info is not None:
        info["kernel_tail_mass"] = tail
        if not periodic:
            ones = np.ones(f.shape[:nd])
            cov = ones
            for ax in range(nd):
                cov = scipy.ndimage.convolve1d(cov, w, axis=ax, mode="constant", cval=0.0)
            info["boundary_mass_loss_max"] = float(1.0 - cov.min())
    return out


def heat_point_value(f: np.ndarray, r: float, h: float, point) -> np.ndarray:
    """(f * Phi_r)(x) at one cell center of a periodic field, by direct sum."""
    f = np.asarray(f, dtype=float)
    w, _ = heat_kernel_1d(r, h)
    n = (w.size - 1) // 2
    d = len(point)
    out = f
    for ax in range(d):
        idx = (point[ax] + np.arange(-n, n + 1)) % f.shape[ax]
        out = np.take(out, idx, axis=ax)
    for _ in range(d):
        out = np.tensordot(w, out, axes=([0], [0]))
    return out


@dataclass
class HeatCoarsening:
    r: float
    points: list                 # cell-index tuples
    G: list                      # d x d smoothed-gradient matrices
    Q: list                      # d x d smoothed-flux matrices
    b_hat: list                  # Q G^-1, or None where the gate rejects G
    cond: list
    chi: list                    # cutoff values in [0, 1]
    b: list                      # blended chi b_hat + (1 - chi) abar
    abar: np.ndarray
    metadata: dict = field(default_factory=dict)


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
        res = coarse_matrices(a_field, cube, opts)
        if np.linalg.norm(res.a_upper - res.a_lower, ord=2) <= thresh:
            return float(3**n)
    return float(2 * 3 ** (cap + 1))  # sentinel: beyond the searched range


def coarse_grained_b(cset: CorrectorSet, a_field: CoefficientField, r: float,
                     points, delta: float = 0.25, proxy_cap: int = 4,
                     opts: SolveOptions = None) -> HeatCoarsening:
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

    Gs, Qs, b_hats, conds, chis, bs = [], [], [], [], [], []
    _, tail = heat_kernel_1d(r, h)
    for pt in points:
        G = np.column_stack([heat_point_value(grads[k], r, h, pt) for k in range(d)])
        Q = np.column_stack([heat_point_value(fluxes[k], r, h, pt) for k in range(d)])
        c = float(np.linalg.cond(G))
        X = _local_min_scale(a_field, pt, delta, proxy_cap, opts)
        chi = float(np.clip(2.0 - X / r, 0.0, 1.0))
        if c <= COND_GATE:
            b_hat = Q @ np.linalg.inv(G)
            b = chi * b_hat + (1.0 - chi) * cset.abar
        else:
            b_hat = None
            b = cset.abar.copy()
        Gs.append(G); Qs.append(Q); b_hats.append(b_hat)
        conds.append(c); chis.append(chi); bs.append(b)
    return HeatCoarsening(
        r=r, points=list(points), G=Gs, Q=Qs, b_hat=b_hats,
        cond=conds, chi=chis, b=bs, abar=cset.abar,
        metadata={"kernel_tail_mass": tail, "cond_gate": COND_GATE,
                  "delta": delta, "proxy_cap": proxy_cap},
    )


def minimal_scale_proxy(a_field: CoefficientField, delta: float,
                        opts: SolveOptions = None) -> float:
    """Smallest triadic scale 3^n with all windowed duality gaps below threshold.

    Windows at level n are the level-n subcubes of the level-min(m, n+1) cube
    at the origin; single-cell windows are skipped as trivially converged.
    Returns inf when no level qualifies.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    grid = a_field.grid
    thresh = delta * (a_field.Lam - a_field.lam)
    for n in range(grid.m + 1):
        if 3**n * grid.k < 2:
            continue
        region = TriadicCube(min(grid.m, n + 1), (0,) * grid.d)
        if all(np.linalg.norm(res.a_upper - res.a_lower, ord=2) <= thresh
               for res in partition_matrices(a_field, region, n, opts)):
            return float(3**n)
    return float("inf")
