"""Correctors, flux correctors, the homogenized matrix, and sublinearity.

Periodic mode solves the d cell problems on the torus and reads the
homogenized matrix off the mean flux.  Finite-volume mode builds correctors
from Dirichlet solves on a triadic cube and the flux corrector on the
periodic extension of the centered flux.

The flux corrector s is antisymmetric by construction: each entry potential
s_ij (i < j) solves a constant-coefficient Poisson problem on the torus.
Because all discrete derivative symbols share one phase factor, the discrete
divergence (row-wise, d/dx_j of s_ij) reproduces any discretely
divergence-free g exactly; for fluxes that are divergence-free only up to
the solver tolerance or a periodization seam, the residual is measured and
reported in the weak norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .fields import CoefficientField
from .lattice import (
    GridSpec,
    TriadicCube,
    discrete_gradient,
    gradient_adjoint,
    node_to_cell,
    weak_norm_estimate,
)
from .solver import SolveOptions, solve_dirichlet_affine, solve_periodic_cell

__all__ = [
    "CorrectorSet",
    "periodic_homogenized_matrix",
    "finite_volume_correctors",
    "flux_corrector",
    "sublinearity_R",
]


@dataclass
class CorrectorSet:
    """Correctors for all basis directions plus the homogenized estimate."""

    mode: str                  # "periodic" | "finite-volume"
    grid: GridSpec             # grid of one period (periodic) or of the cube
    level: int                 # cube level (finite-volume); grid.m for periodic
    phi: list                  # per direction: mean-zero node field
    g: list                    # per direction: centered flux, cell vector field
    s: list                    # per direction: skew matrix cell field (*cells, d, d)
    s_potentials: list         # per direction: dict {(i, j): node potential}, i < j
    abar: np.ndarray           # homogenized / coarse matrix estimate
    div_residuals: list        # per direction: weak-norm of (div s - g)
    metadata: dict = field(default_factory=dict)


def _skew_cell_field(potentials, d, h, cell_shape):
    """Assemble the skew matrix cell field from the node entry potentials."""
    s = np.zeros(cell_shape + (d, d))
    for (i, j), pot in potentials.items():
        vals = node_to_cell(pot, periodic=True)
        s[..., i, j] = vals
        s[..., j, i] = -vals
    return s


def flux_corrector(g: np.ndarray, h: float, grid: GridSpec = None,
                   mean_tol: float = 1e-10):
    """Skew matrix potential of a mean-zero periodic cell vector field.

    Entry potentials solve  -lap s_ij = d_i g_j - d_j g_i  on the torus,
    mean zero.  Returns (s_cell, potentials, div_residual_weak_norm) where
    the residual compares the discrete row divergence of s against g.
    """
    g = np.asarray(g, dtype=float)
    d = g.shape[-1]
    cell_shape = g.shape[:-1]
    means = g.reshape(-1, d).mean(axis=0)
    if np.abs(means).max() > mean_tol * max(1.0, np.abs(g).max()):
        raise ValueError(f"flux corrector input must be mean zero, got {means}")

    symbol = spectral.torus_symbol(cell_shape, h)
    potentials = {}
    for i in range(d):
        for j in range(i + 1, d):
            b = (gradient_adjoint(_lift(g[..., i], j, d), h, periodic=True)
                 - gradient_adjoint(_lift(g[..., j], i, d), h, periodic=True))
            pot = spectral.torus_solve_nodespace(b, h, symbol)
            potentials[(i, j)] = pot - pot.mean()

    div_s = _row_divergence(potentials, d, h, cell_shape)
    resid = div_s - g
    if grid is None:
        # weak norm needs triadic structure; fall back to volume-normalized L2
        residual = float(np.sqrt((resid**2).sum(axis=-1).mean()))
    else:
        residual = weak_norm_estimate(resid, grid)
    s_cell = _skew_cell_field(potentials, d, h, cell_shape)
    return s_cell, potentials, residual


def _lift(comp, j, d):
    """Embed a scalar cell field as the j-th component of a vector field."""
    out = np.zeros(comp.shape + (d,))
    out[..., j] = comp
    return out


def _row_divergence(potentials, d, h, cell_shape):
    """(div s)_i = sum_j d/dx_j s_ij as a cell vector field."""
    div = np.zeros(cell_shape + (d,))
    for (i, j), pot in potentials.items():
        grad = discrete_gradient(pot, h, periodic=True)
        div[..., i] += grad[..., j]
        div[..., j] -= grad[..., i]
    return div


def periodic_homogenized_matrix(a_field: CoefficientField,
                                opts: SolveOptions = None,
                                with_flux_correctors: bool = True) -> CorrectorSet:
    """Solve the d periodic cell problems; abar e = torus-average flux."""
    opts = opts or SolveOptions()
    grid = a_field.grid
    d, h = grid.d, grid.h

    sol = solve_periodic_cell(a_field, np.eye(d), opts)
    phis, fluxes = list(sol.u), sol.flux          # flux k: a (e_k + grad phi_k)
    abar = fluxes.mean(axis=tuple(range(1, d + 1))).T

    drift = float(np.abs(abar - abar.T).max())
    abar = 0.5 * (abar + abar.T)

    gs, ss, pots, resids = [], [], [], []
    for k in range(d):
        g = fluxes[k] - abar[:, k]        # centered flux, discretely div-free
        g = g - g.reshape(-1, d).mean(axis=0)
        gs.append(g)
        if with_flux_correctors:
            s_cell, pot, res = flux_corrector(g, h, grid)
            ss.append(s_cell)
            pots.append(pot)
            resids.append(res)

    return CorrectorSet(
        mode="periodic", grid=grid, level=grid.m,
        phi=phis, g=gs, s=ss, s_potentials=pots,
        abar=abar, div_residuals=resids,
        metadata={"symmetry_drift": drift},
    )


def finite_volume_correctors(a_field: CoefficientField, m: int,
                             opts: SolveOptions = None) -> CorrectorSet:
    """Correctors from Dirichlet solves on the origin level-m cube.

    phi_{m,e} = v - l_e;  g_{m,e} = a grad v - (mean flux) e-column, which has
    exactly zero cube average; the flux corrector is built on the periodic
    extension of g (one period = the cube), where the periodization seam
    contributes the reported divergence residual.
    """
    opts = opts or SolveOptions()
    d = a_field.grid.d
    cube = TriadicCube(m, (0,) * d)
    sub = a_field if a_field.grid.m == m else a_field.restrict(cube)
    grid = sub.grid
    h = grid.h

    sol = solve_dirichlet_affine(a_field, cube, np.eye(d), opts)
    a_cube = sol.flux.mean(axis=tuple(range(1, d + 1))).T
    nodes = np.meshgrid(*[np.arange(n + 1) * h for n in grid.cell_shape], indexing="ij")
    phis, gs, ss, pots, resids = [], [], [], [], []
    for k in range(d):
        phi = sol.u[k] - nodes[k]
        phis.append(phi - phi.mean())
        g = sol.flux[k] - a_cube[:, k]
        g = g - g.reshape(-1, d).mean(axis=0)
        gs.append(g)
        s_cell, pot, res = flux_corrector(g, h, grid)
        ss.append(s_cell)
        pots.append(pot)
        resids.append(res)

    drift = float(np.abs(a_cube - a_cube.T).max())
    a_cube = 0.5 * (a_cube + a_cube.T)
    return CorrectorSet(
        mode="finite-volume", grid=grid, level=m,
        phi=phis, g=gs, s=ss, s_potentials=pots,
        abar=a_cube, div_residuals=resids,
        metadata={"symmetry_drift": drift},
    )


def sublinearity_R(cset: CorrectorSet) -> float:
    """R(m) = 3^-m (||phi - (phi)|| + ||s - (s)||), volume-normalized L2,
    maximized over the basis directions."""
    if cset.mode != "finite-volume":
        raise ValueError("sublinearity applies to finite-volume corrector sets")
    d = cset.grid.d
    worst = 0.0
    for phi, s in zip(cset.phi, cset.s):
        pc = phi - phi.mean()
        phi_norm = float(np.sqrt((pc**2).mean()))
        sc = s - s.reshape(-1, d, d).mean(axis=0)
        s_norm = float(np.sqrt((sc**2).sum(axis=(-2, -1)).mean()))
        worst = max(worst, phi_norm + s_norm)
    return float(3.0 ** (-cset.level) * worst)
