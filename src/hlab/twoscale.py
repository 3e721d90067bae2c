"""Two-scale expansion w^eps and Dirichlet homogenization errors.

The macro domain is the unit cube; the heterogeneous problem lives on the
triadic lattice cube of side 3^M with a unit-periodic microstructure, so the
scale ratio is eps = 3^-M.  Macro data is supplied analytically
(value/gradient/Hessian callbacks), keeping the expansion free of macro
discretization error; the corrector factor comes from a periodic
corrector set on one unit cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import CoefficientField
from .correctors import CorrectorSet
from .lattice import GridSpec, discrete_gradient, weak_norm_estimate
from .solver import SolveOptions, solve_dirichlet_data

__all__ = [
    "MacroFunction",
    "TwoScaleReport",
    "macro_affine",
    "macro_harmonic_quadratic",
    "scale_level",
    "build_two_scale",
    "dirichlet_error",
    "error_table_rows",
]


@dataclass(frozen=True)
class MacroFunction:
    """Smooth function on the unit macro cube, given analytically."""

    value: Callable      # (..., d) -> (...)
    gradient: Callable   # (..., d) -> (..., d)
    hessian: Callable    # (..., d) -> (..., d, d)
    label: str = "macro"


def macro_affine(p, c: float = 0.0) -> MacroFunction:
    p = np.asarray(p, dtype=float)
    d = p.size
    return MacroFunction(
        value=lambda x: x @ p + c,
        gradient=lambda x: np.broadcast_to(p, x.shape).copy(),
        hessian=lambda x: np.zeros(x.shape + (d,)),
        label=f"affine_{p.tolist()}",
    )


def macro_harmonic_quadratic(B, abar) -> MacroFunction:
    """u(x) = 1/2 x.Bx with B symmetric and trace(abar B) = 0 (abar-harmonic)."""
    B = np.asarray(B, dtype=float)
    abar = np.asarray(abar, dtype=float)
    if not np.allclose(B, B.T, atol=1e-12):
        raise ValueError("quadratic coefficient matrix must be symmetric")
    tr = float(np.trace(abar @ B))
    if abs(tr) > 1e-10 * max(1.0, np.abs(abar @ B).max()):
        raise ValueError(f"quadratic is not abar-harmonic: trace(abar B) = {tr}")
    d = B.shape[0]
    return MacroFunction(
        value=lambda x: 0.5 * np.einsum("...i,ij,...j->...", x, B, x),
        gradient=lambda x: x @ B,
        hessian=lambda x: np.broadcast_to(B, x.shape + (d,)).copy(),
        label="harmonic_quadratic",
    )


@dataclass
class TwoScaleReport:
    eps: float
    macro_label: str
    grad_error: float        # ||grad u_eps - grad w_eps||, L2 over the unit domain
    l2_error: float          # ||u_eps - u||, L2
    weak_grad_defect: float  # weak norm of grad u_eps - grad u
    weak_flux_defect: float  # weak norm of a grad u_eps - abar grad u


def _tile_corrector_nodes(phi: np.ndarray, reps: int) -> np.ndarray:
    """Periodic extension of a unit-cell node field to reps^d cells of nodes."""
    d = phi.ndim
    tiled = np.tile(phi, (reps,) * d)  # torus node fields have one node per cell
    # close the last node plane on each axis by periodicity
    for ax in range(d):
        first = [slice(None)] * d
        first[ax] = slice(0, 1)
        tiled = np.concatenate([tiled, tiled[tuple(first)]], axis=ax)
    return tiled


def scale_level(eps: float) -> int:
    """The level M of the scale ratio eps = 3^-M; a ValueError unless M is an integer >= 0."""
    M = round(-np.log(eps) / np.log(3.0)) if 0.0 < eps < np.inf else -1
    if M < 0 or not np.isclose(eps, 3.0 ** (-M)):
        raise ValueError(f"scale ratio {eps} is not a nonnegative power of 1/3")
    return M


def build_two_scale(u: MacroFunction, cset: CorrectorSet, eps: float) -> np.ndarray:
    """w^eps = u + eps sum_k (d_k u) phi_k(./eps) at the nodes of the lattice cube.

    The corrector set must be periodic with a single-unit-cell grid; eps must
    equal 3^-M for an integer M, and the returned node array lives on the
    grid of side 3^M unit cells at the corrector's resolution.
    """
    if cset.mode != "periodic" or cset.grid.m != 0:
        raise ValueError("two-scale expansion needs a periodic unit-cell corrector set")
    M = scale_level(eps)
    d, k = cset.grid.d, cset.grid.k
    reps = 3**M
    macro_grid = GridSpec(d, M, k)
    coords = np.meshgrid(*[np.arange(n) / (k * reps) for n in macro_grid.node_shape],
                         indexing="ij")
    X = np.stack(coords, axis=-1)
    w = u.value(X)
    du = u.gradient(X)
    for j in range(d):
        w = w + eps * du[..., j] * _tile_corrector_nodes(cset.phi[j], reps)
    return w


def dirichlet_error(a_field: CoefficientField, u: MacroFunction, cset: CorrectorSet,
                    eps: float, opts: SolveOptions = None) -> TwoScaleReport:
    """Solve the heterogeneous Dirichlet problem with macro data and compare.

    `a_field` must be the unit-periodic microstructure tiled over the lattice
    cube of side 1/eps at the corrector resolution.  The macro function must
    satisfy the homogenized equation for the set's matrix (checked at cell
    centers); the fine problem then has no bulk forcing.
    """
    opts = opts or SolveOptions()
    M = scale_level(eps)
    grid = a_field.grid
    d, k, h = grid.d, grid.k, grid.h
    if grid.m != M or k != cset.grid.k:
        raise ValueError("coefficient grid does not match the eps/corrector pair")
    reps = 3**M

    centers = np.meshgrid(*[(np.arange(n) + 0.5) / (k * reps) for n in grid.cell_shape],
                          indexing="ij")
    Xc = np.stack(centers, axis=-1)
    hess = u.hessian(Xc)
    harmonic_defect = np.abs(np.einsum("ij,...ij->...", cset.abar, hess)).max()
    if harmonic_defect > 1e-6:
        raise ValueError(
            f"macro function is not homogenized-harmonic (defect {harmonic_defect:.2e})")

    node_coords = np.meshgrid(*[np.arange(n) / (k * reps) for n in grid.node_shape],
                              indexing="ij")
    Xn = np.stack(node_coords, axis=-1)
    U = u.value(Xn)
    sol = solve_dirichlet_data(a_field, grid.macro_cube(), U, opts)

    w = build_two_scale(u, cset, eps)
    # lattice gradients are d/dx with x = X / eps; unit-domain gradients scale by 3^M
    scale = float(reps)
    grad_err_cells = scale * (sol.gradient - discrete_gradient(w, h, periodic=False))
    grad_error = float(np.sqrt((grad_err_cells**2).sum(axis=-1).mean()))
    l2_error = float(np.sqrt(((sol.u - U) ** 2).mean()))

    # the lattice estimator weighs level-n cubes by 3^n lattice lengths; one
    # factor eps converts those weights to unit-domain scales
    du_c = u.gradient(Xc)
    weak_grad = eps * weak_norm_estimate(scale * sol.gradient - du_c, grid)
    weak_flux = eps * weak_norm_estimate(
        scale * sol.flux - du_c @ cset.abar.T, grid)

    return TwoScaleReport(
        eps=eps, macro_label=u.label,
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
