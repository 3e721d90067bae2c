"""Coarse-grained matrices on triadic cubes and their convexity bookkeeping.

The Dirichlet energy over affine boundary data defines a(U); the dual
(Neumann) energy defines a*(U).  Both are exactly quadratic in the discrete
setting and the extremals are linear in the data, so the d basis solves of
each kind determine each matrix through the bilinear form.  All same-level
subcubes of a triadic partition are solved together: each kind of basis
problem is one solve call, which runs one CG per direction over every
subcube of the partition (`partition_matrices`), and a single cube is the
partition of itself (`coarse_matrices`).  The Neumann solve starts from the
Dirichlet extremals combined through a(U)^-1.  The gap functional
J(U, p, q) = 1/2 p.a(U)p + 1/2 q.a*(U)^-1 q - p.q >= 0 and the
subadditivity/duality ledgers quantify how fast the two pinch together
under coarsening.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import CoefficientField
from .lattice import TriadicCube, triadic_partition
from .solver import SolveOptions, solve_dirichlet_affine, solve_neumann_affine

__all__ = [
    "CoarseGrainResult",
    "CascadeRecord",
    "coarse_matrices",
    "partition_matrices",
    "duality_defect",
    "subadditivity_slacks",
    "subadditivity_ledger",
    "spatial_average_identities",
    "cascade_record",
]


@dataclass
class CoarseGrainResult:
    """Coarse pair on one cube, with the cell means of its basis extremals kept for audits."""

    cube: TriadicCube
    a_upper: np.ndarray          # a(U): Dirichlet coarse-grained matrix
    a_lower: np.ndarray          # a*(U): dual (Neumann) coarse-grained matrix
    dirichlet_means: np.ndarray  # (2, d, d): cell-mean gradient and flux, row i for the
                                 # slope-e_i minimizer (None for 1-cell cubes)
    neumann_means: np.ndarray    # (2, d, d): the same, row i for the flux-e_i maximizer
    basis_iterations: np.ndarray  # (2, d): CG iterations per basis solve, Dirichlet then Neumann
    iterations: int
    residual: float


@dataclass
class CascadeRecord:
    """Per-level summary of the coarse-graining cascade on one sample."""

    level: int
    a_upper_mean: np.ndarray
    a_upper_var: np.ndarray      # entrywise variance over the partition
    a_lower_harmonic: np.ndarray
    gap_mean: float              # mean over subcubes of |a - a*| (spectral norm)
    defect_bound_mean: float     # mean of sum_i J(U, e_i, a*(U) e_i) = tr(a - a*) / 2


def _bilinear_form(grad, flux):
    """Per cube, the mean over cells of grad_i . flux_j of the basis columns i, j.

    Both arrays are (basis, cube, *cells, d); the result is (cube, basis, basis).
    """
    nbasis, ncube = grad.shape[:2]
    g = grad.reshape(nbasis, ncube, -1)
    f = flux.reshape(nbasis, ncube, -1)
    return np.einsum("ibn,jbn->bij", g, f) / grad[0, 0, ..., 0].size


def _symmetric(m):
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def partition_matrices(a_field: CoefficientField, cube: TriadicCube, n: int,
                       opts: SolveOptions = None) -> list:
    """Coarse pair of every level-n subcube of `cube`, in `triadic_partition` order.

    Each matrix comes from the d basis extremals of its energy.  With v_i the
    Dirichlet minimizer of slope e_i and w_i the Neumann maximizer of flux
    e_i (cube means over cells):

        a(U)_ij       = mean(grad v_i . a grad v_j)
        a*(U)^-1_ij   = G_ij + G_ji - mean(grad w_i . a grad w_j),  G_ij = mean(d_i w_j)

    The subcubes share one grid and the basis directions one operator, so
    the partition takes one Dirichlet and one Neumann solve call, each with a
    column per (direction, subcube).  The Neumann CG starts from the Dirichlet
    extremals combined through a(U)^-1, w_i ~ sum_j (a(U)^-1)_ij v_j, which
    saves iterations but not accuracy: the stopping rule is unchanged.  Each
    result keeps the cell means and CG counts of its basis solves, not the
    extremals, and the Dirichlet batch is freed before the Neumann CG starts.
    """
    opts = opts or SolveOptions()
    grid = a_field.grid
    d = grid.d
    cubes = triadic_partition(cube, n)

    # closed form for single-cell cubes: both energies reduce to the cell matrix
    if cubes[0].side_cells(grid) == 1:
        out = []
        for c in cubes:
            acell = np.asarray(a_field.a[c.cell_slices(grid)]).reshape(d, d)
            out.append(CoarseGrainResult(c, acell.copy(), acell.copy(), None, None,
                                         np.zeros((2, d), dtype=int), 0, 0.0))
        return out

    es = np.eye(d)
    cells = tuple(range(2, d + 2))
    dirs = solve_dirichlet_affine(a_field, cubes, es, opts)
    a_up = _symmetric(_bilinear_form(dirs.gradient, dirs.flux))
    d_means = np.stack([dirs.gradient.mean(axis=cells), dirs.flux.mean(axis=cells)])
    d_its, d_res, v = dirs.column_iterations, dirs.column_residuals, dirs.u
    del dirs            # the warm start and the Neumann CG run without the Dirichlet batch
    # warm start: w_i ~ sum_j (a(U)^-1)_ij v_j, as both extremals are near affine + corrector;
    # C order lets the Neumann CG take the guess over as its iterate
    x0 = np.einsum("bij,jb...->ib...", np.linalg.inv(a_up), v, order="C")
    del v
    neus = solve_neumann_affine(a_field, cubes, es, opts, x0=x0)

    n_grad = neus.gradient.mean(axis=cells)
    G = np.moveaxis(n_grad, 0, -1)
    a_lo = _symmetric(np.linalg.inv(G + np.swapaxes(G, 1, 2)
                                    - _bilinear_form(neus.gradient, neus.flux)))
    n_means = np.stack([n_grad, neus.flux.mean(axis=cells)])

    # per cube k: means[k] is (2, d, d) and its[k] is (2, d)
    d_means, n_means = (np.moveaxis(m, 2, 0) for m in (d_means, n_means))
    its = np.moveaxis(np.stack([d_its, neus.column_iterations]), -1, 0)
    iterations = its.sum(axis=(1, 2))
    residual = np.maximum(d_res.max(axis=0), neus.column_residuals.max(axis=0))
    return [CoarseGrainResult(c, a_up[k], a_lo[k], d_means[k], n_means[k], its[k],
                              int(iterations[k]), float(residual[k]))
            for k, c in enumerate(cubes)]


def coarse_matrices(a_field: CoefficientField, cube: TriadicCube,
                    opts: SolveOptions = None) -> CoarseGrainResult:
    """Compute a(U) and a*(U) on one cube: the one-cube case of `partition_matrices`."""
    return partition_matrices(a_field, cube, cube.level, opts)[0]


def _gaps_and_bounds(a_upper, a_lower):
    """Spectral-norm gaps |a - a*| and bounds tr(a - a*) / 2 of stacked (..., d, d) pairs."""
    diff = a_upper - a_lower
    return np.linalg.norm(diff, ord=2, axis=(-2, -1)), 0.5 * np.trace(diff, axis1=-2, axis2=-1)


def duality_defect(r: CoarseGrainResult) -> dict:
    """Spectral-norm gap |a(U) - a*(U)| and the duality-defect bound sum_i J(U, e_i, a*(U) e_i).

    J(U, p, q) is smallest over q at q = a*(U) p, where it equals 1/2 p.(a(U) - a*(U))p, so the
    bound is tr(a(U) - a*(U)) / 2; as a(U) - a*(U) >= 0, the gap is at most twice the bound.
    """
    gap, bound = _gaps_and_bounds(r.a_upper, r.a_lower)
    return {"gap": float(gap), "bound": float(bound)}


def subadditivity_slacks(parent: CoarseGrainResult, children) -> dict:
    """Smallest eigenvalues of the slacks of the parent's coarse pair against its children's.

    Subadditivity: a(parent) <= arithmetic mean of a(child) and
    a*(parent) >= harmonic mean of a*(child), in the matrix order.  The
    returned slack eigenvalues are nonnegative up to solver noise.
    """
    up_mean = np.mean([c.a_upper for c in children], axis=0)
    lo_harm = np.linalg.inv(np.mean([np.linalg.inv(c.a_lower) for c in children], axis=0))
    return {"upper_slack_min_eig": float(np.linalg.eigvalsh(up_mean - parent.a_upper).min()),
            "lower_slack_min_eig": float(np.linalg.eigvalsh(parent.a_lower - lo_harm).min())}


def subadditivity_ledger(a_field: CoefficientField, m: int, n: int,
                         opts: SolveOptions = None) -> dict:
    """Coarse matrices on the origin level-m cube vs. its level-n children.

    Returns their `subadditivity_slacks`.
    """
    if not 0 <= n < m:
        raise ValueError(f"need 0 <= n < m, got n={n}, m={m}")
    cube = TriadicCube(m, (0,) * a_field.grid.d)
    return subadditivity_slacks(coarse_matrices(a_field, cube, opts),
                                partition_matrices(a_field, cube, n, opts))


def spatial_average_identities(r: CoarseGrainResult) -> dict:
    """First-variation averages of the basis extremals, from their stored cell means.

    The Dirichlet slope-e_i minimizer has cell-average gradient exactly e_i
    and cell-average flux a(U) e_i; the Neumann flux-e_i maximizer has
    cell-average flux exactly e_i and cell-average gradient a*(U)^-1 e_i.
    Returns the four sup-norm drifts and their max (all zero on a 1-cell cube).
    """
    if r.dirichlet_means is None:
        return {"grad_exact": 0.0, "flux_vs_matrix": 0.0,
                "flux_exact": 0.0, "grad_vs_matrix": 0.0, "max": 0.0}
    (d_grad, d_flux), (n_grad, n_flux) = r.dirichlet_means, r.neumann_means
    eye = np.eye(len(d_grad))
    # row i of each mean belongs to basis e_i, so it is compared with column i of a matrix
    out = {"grad_exact": float(np.abs(d_grad - eye).max()),
           "flux_vs_matrix": float(np.abs(d_flux - r.a_upper.T).max()),
           "flux_exact": float(np.abs(n_flux - eye).max()),
           "grad_vs_matrix": float(np.abs(n_grad - np.linalg.inv(r.a_lower).T).max())}
    out["max"] = max(out.values())
    return out


def cascade_record(level: int, results) -> CascadeRecord:
    """Partition statistics of the coarse pairs of one level."""
    ups = np.array([r.a_upper for r in results])
    lows = np.array([r.a_lower for r in results])
    gaps, bounds = _gaps_and_bounds(ups, lows)
    return CascadeRecord(
        level=level,
        a_upper_mean=ups.mean(axis=0),
        a_upper_var=ups.var(axis=0),
        a_lower_harmonic=np.linalg.inv(np.linalg.inv(lows).mean(axis=0)),
        gap_mean=float(gaps.mean()),
        defect_bound_mean=float(bounds.mean()),
    )

