"""Two-scale expansion w^eps and Dirichlet homogenization errors.

The macro domain is the unit cube; the heterogeneous problem lives on the
triadic lattice cube of side 3^M with a unit-periodic microstructure, so the
scale ratio is eps = 3^-M.  The macro data is affine, u(x) = p.x, given by
its slope p: it solves the homogenized equation for every homogenized
matrix, and the expansion has no macro discretization error.  The corrector
factor comes from a periodic corrector set on one unit cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import CoefficientField
from .correctors import CorrectorSet
from .lattice import GridSpec, discrete_gradient, weak_norm_estimate
from .solver import SolveOptions, solve_dirichlet_data

__all__ = [
    "TwoScaleReport",
    "scale_level",
    "build_two_scale",
    "dirichlet_error",
    "error_table_rows",
]


@dataclass
class TwoScaleReport:
    eps: float
    macro_label: str
    grad_error: float        # ||grad u_eps - grad w_eps||, L2 over the unit domain
    l2_error: float          # ||u_eps - u||, L2
    weak_grad_defect: float  # weak norm of grad u_eps - grad u
    weak_flux_defect: float  # weak norm of a grad u_eps - abar grad u


def _tile_corrector_nodes(phi: np.ndarray, reps: int) -> np.ndarray:
    """Periodic extension of a unit-cell node field to reps^d cells of nodes.

    Torus node fields have one node per cell, so the tiled field's last node plane
    on each axis is closed by periodicity."""
    return np.pad(np.tile(phi, (reps,) * phi.ndim), [(0, 1)] * phi.ndim, mode="wrap")


def scale_level(eps: float) -> int:
    """The level M of the scale ratio eps = 3^-M; a ValueError unless M is an integer >= 0."""
    M = round(-np.log(eps) / np.log(3.0)) if 0.0 < eps < np.inf else -1
    if M < 0 or not np.isclose(eps, 3.0 ** (-M)):
        raise ValueError(f"scale ratio {eps} is not a nonnegative power of 1/3")
    return M


def _unit_nodes(grid: GridSpec) -> np.ndarray:
    """The grid's nodes as points of the unit macro domain, shape (*nodes, d)."""
    coords = np.meshgrid(*[np.arange(n) / grid.side for n in grid.node_shape], indexing="ij")
    return np.stack(coords, axis=-1)


def build_two_scale(p, cset: CorrectorSet, eps: float) -> np.ndarray:
    """w^eps = x.p + eps sum_j p_j phi_j(x/eps) at the nodes of the lattice cube.

    The corrector set must be periodic with a single-unit-cell grid; eps must
    equal 3^-M for an integer M, and the returned node array lives on the
    grid of side 3^M unit cells at the corrector's resolution.
    """
    if cset.mode != "periodic" or cset.grid.m != 0:
        raise ValueError("two-scale expansion needs a periodic unit-cell corrector set")
    p = np.asarray(p, dtype=float)
    M = scale_level(eps)
    w = _unit_nodes(GridSpec(cset.grid.d, M, cset.grid.k)) @ p
    for j in range(cset.grid.d):
        w = w + eps * p[j] * _tile_corrector_nodes(cset.phi[j], 3**M)
    return w


def dirichlet_error(a_field: CoefficientField, p, cset: CorrectorSet,
                    eps: float, opts: SolveOptions = None) -> TwoScaleReport:
    """Solve the heterogeneous Dirichlet problem with the affine data x.p and compare.

    `a_field` must be the unit-periodic microstructure tiled over the lattice
    cube of side 1/eps at the corrector resolution.  Affine data solves the
    homogenized equation, so the fine problem has no bulk forcing.
    """
    opts = opts or SolveOptions()
    p = np.asarray(p, dtype=float)
    M = scale_level(eps)
    grid = a_field.grid
    if grid.m != M or grid.k != cset.grid.k:
        raise ValueError("coefficient grid does not match the eps/corrector pair")

    U = _unit_nodes(grid) @ p
    sol = solve_dirichlet_data(a_field, grid.macro_cube(), U, opts)

    w = build_two_scale(p, cset, eps)
    # lattice gradients are d/dx with x = X / eps; unit-domain gradients scale by 3^M
    scale = float(3**M)
    grad_err_cells = scale * (sol.gradient - discrete_gradient(w, grid.h, periodic=False))
    grad_error = float(np.sqrt((grad_err_cells**2).sum(axis=-1).mean()))
    l2_error = float(np.sqrt(((sol.u - U) ** 2).mean()))

    # the lattice estimator weighs level-n cubes by 3^n lattice lengths; one
    # factor eps converts those weights to unit-domain scales
    weak_grad = eps * weak_norm_estimate(scale * sol.gradient - p, grid)
    weak_flux = eps * weak_norm_estimate(scale * sol.flux - cset.abar @ p, grid)

    return TwoScaleReport(
        eps=eps, macro_label=f"affine_{p.tolist()}",
        grad_error=grad_error, l2_error=l2_error,
        weak_grad_defect=weak_grad, weak_flux_defect=weak_flux,
    )


def error_table_rows(reports) -> list:
    """Plot-ready rows keyed by eps (dicts, CSV-friendly)."""
    return [
        {
            "eps": r.eps, "macro": r.macro_label,
            "grad_error": r.grad_error, "l2_error": r.l2_error,
            "weak_grad_defect": r.weak_grad_defect,
            "weak_flux_defect": r.weak_flux_defect,
        }
        for r in sorted(reports, key=lambda r: -r.eps)
    ]
