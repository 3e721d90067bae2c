"""Correctors, flux correctors, the homogenized matrix, and sublinearity.

Periodic mode solves the d cell problems on the torus and reads the
homogenized matrix off the mean flux.  Finite-volume mode builds correctors
from Dirichlet solves on a triadic cube and the flux corrector on the
periodic extension of the centered flux.  Both hand their d fluxes to one
builder, which centres each flux by its own cell mean.

The flux corrector s is antisymmetric by construction: each entry potential
s_ij (i < j) solves a constant-coefficient Poisson problem on the torus.
Because all discrete derivative symbols share one phase factor, the discrete
divergence (row-wise, d/dx_j of s_ij) reproduces exactly any discretely
divergence-free g without Fourier modes of angle pi on two or more axes.  Those
exist on even-sided tori: no gradient has them, so they stay in the residual
(in 2d the parity field (-1)^(i_1 + i_2) times a constant vector).  For fluxes
that are divergence-free only up to the solver tolerance or a periodization
seam, the residual is measured and reported in the weak norm.
"""

from __future__ import annotations

from dataclasses import dataclass

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

_MEAN_TOL = 1e-10  # largest cell mean of a flux, relative to max(1, |g|), that counts as zero


@dataclass
class CorrectorSet:
    """Correctors for all basis directions plus the homogenized estimate."""

    mode: str                  # "periodic" | "finite-volume"
    grid: GridSpec             # grid of one period (periodic) or of the cube
    level: int                 # cube level (finite-volume); grid.m for periodic
    phi: list                  # per direction: mean-zero node field
    g: list                    # per direction: centered flux, cell vector field
    s: list                    # per direction: skew matrix cell field (*cells, d, d)
    abar: np.ndarray           # homogenized / coarse matrix estimate
    div_residuals: list        # per direction: weak-norm of (div s - g)


def flux_corrector(g: np.ndarray, grid: GridSpec):
    """Skew matrix potential of a mean-zero periodic cell vector field on `grid`.

    Entry potentials solve  -lap s_ij = d_i g_j - d_j g_i  on the torus,
    mean zero.  Returns (s_cell, div_residual_weak_norm) where the residual
    compares the discrete row divergence of s against g.
    """
    g = np.asarray(g, dtype=float)
    d, h = grid.d, grid.h
    if g.shape != grid.cell_shape + (d,):
        raise ValueError(f"flux of shape {g.shape} does not match the grid's cell vector "
                         f"field shape {grid.cell_shape + (d,)}")
    means = g.reshape(-1, d).mean(axis=0)
    if np.abs(means).max() > _MEAN_TOL * max(1.0, np.abs(g).max()):
        raise ValueError(f"flux corrector input must be mean zero, got {means}")

    inverse = spectral.pseudo_inverse(spectral.torus_symbol(grid.cell_shape, h))
    s = np.zeros(grid.cell_shape + (d, d))
    div_s = np.zeros_like(g)
    for i in range(d):
        for j in range(i + 1, d):
            rotated = np.zeros_like(g)
            rotated[..., j], rotated[..., i] = g[..., i], -g[..., j]
            pot = spectral.torus_solve_nodespace(gradient_adjoint(rotated, h, periodic=True),
                                                 h, inverse=inverse)
            pot = pot - pot.mean()
            s[..., i, j] = node_to_cell(pot, periodic=True)
            s[..., j, i] = -s[..., i, j]
            grad = discrete_gradient(pot, h, periodic=True)
            div_s[..., i] += grad[..., j]
            div_s[..., j] -= grad[..., i]
    return s, weak_norm_estimate(div_s - g, grid)


def _corrector_set(mode, grid, level, phis, fluxes, with_flux_correctors=True):
    """abar (the symmetrised cell mean of the d stacked fluxes), the centred
    fluxes and, unless switched off, their flux correctors."""
    d = grid.d
    abar = fluxes.mean(axis=tuple(range(1, d + 1))).T
    gs = [flux - flux.reshape(-1, d).mean(axis=0) for flux in fluxes]
    built = [flux_corrector(g, grid) for g in gs] if with_flux_correctors else []
    return CorrectorSet(
        mode=mode, grid=grid, level=level, phi=phis, g=gs,
        s=[s for s, _ in built], abar=0.5 * (abar + abar.T),
        div_residuals=[res for _, res in built],
    )


def periodic_homogenized_matrix(a_field: CoefficientField,
                                opts: SolveOptions = None,
                                with_flux_correctors: bool = True) -> CorrectorSet:
    """Solve the d periodic cell problems; abar e = torus-average flux."""
    grid = a_field.grid
    sol = solve_periodic_cell(a_field, np.eye(grid.d), opts or SolveOptions())
    # flux k: a (e_k + grad phi_k), discretely divergence-free
    return _corrector_set("periodic", grid, grid.m, list(sol.u), sol.flux,
                          with_flux_correctors)


def finite_volume_correctors(a_field: CoefficientField, m: int,
                             opts: SolveOptions = None) -> CorrectorSet:
    """Correctors from Dirichlet solves on the origin level-m cube.

    phi_{m,e} = v - l_e;  g_{m,e} = a grad v minus its cube mean; the flux
    corrector is built on the periodic extension of g (one period = the cube),
    where the periodization seam contributes the reported divergence residual.
    """
    d = a_field.grid.d
    grid = GridSpec(d, m, a_field.grid.k)
    sol = solve_dirichlet_affine(a_field, TriadicCube(m, (0,) * d), np.eye(d),
                                 opts or SolveOptions())
    nodes = np.meshgrid(*[np.arange(n + 1) * grid.h for n in grid.cell_shape], indexing="ij")
    phis = [u - x for u, x in zip(sol.u, nodes)]
    return _corrector_set("finite-volume", grid, m, [phi - phi.mean() for phi in phis],
                          sol.flux)


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
