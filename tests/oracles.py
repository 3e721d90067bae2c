"""Reference implementations that the tests check the package against.

Each one computes a quantity the package computes another way, by a route
that is slower or needs more machinery but is easy to trust: the whole-field
convolution behind `renorm.heat_point_value`, the exact dual norm that
`lattice.weak_norm_estimate` bounds, and the gap functional J whose basis sum
`coarse.duality_defect` gives in closed form.  `restrict` cuts a field down to
a subcube, for comparing a solve on a cube of a field with one on its own grid.
"""

import numpy as np
import scipy.ndimage

from hlab.fields import CoefficientField
from hlab.lattice import GridSpec, _pair_adj, discrete_gradient
from hlab.renorm import heat_kernel_1d
from hlab.spectral import neumann_solve_nodespace


def heat_convolve(f: np.ndarray, r: float, h: float, spatial_dims: int = None) -> np.ndarray:
    """Separable Gaussian smoothing of a periodic field over its leading spatial axes.

    The whole-field reference that `heat_point_value` is checked against.
    """
    f = np.asarray(f, dtype=float)
    nd = f.ndim if spatial_dims is None else spatial_dims
    w = heat_kernel_1d(r, h)
    out = f
    for ax in range(nd):
        if w.size > f.shape[ax]:
            raise ValueError("kernel support exceeds the torus period")
        out = scipy.ndimage.convolve1d(out, w, axis=ax, mode="wrap")
    return out


def cell_to_node_adjoint(f: np.ndarray, periodic: bool = False) -> np.ndarray:
    """Adjoint of node_to_cell; spreads cell data to nodes."""
    v = f
    for axis in range(f.ndim - 1, -1, -1):
        v = _pair_adj(v, axis, periodic, np.add, 2.0)
    return v


def dual_norm_oracle(f: np.ndarray, grid: GridSpec) -> float:
    """Energy norm of the Neumann solution of -lap v = f - (f) on the macro cube.

    Solved exactly in the cosine basis of the constant-coefficient operator.
    """
    block = np.asarray(f, dtype=float)[grid.macro_cube().cell_slices(grid)]
    if block.ndim != grid.d:
        raise ValueError("dual_norm_oracle expects a scalar cell field")
    block = block - block.mean()
    h = grid.h
    b = cell_to_node_adjoint(block, periodic=False) * h**grid.d
    v = neumann_solve_nodespace(b, h)
    g = discrete_gradient(v, h, periodic=False)
    vol = float(block.size) * h**grid.d
    return float(np.sqrt(h**grid.d * (g**2).sum() / vol))


def J_value(r, p, q) -> float:
    """Gap functional J(U, p, q) = 1/2 p.a(U)p + 1/2 q.a*(U)^-1 q - p.q (>= 0) of a coarse pair."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(0.5 * p @ r.a_upper @ p
                 + 0.5 * q @ np.linalg.solve(r.a_lower, q) - p @ q)


def restrict(f: CoefficientField, cube) -> CoefficientField:
    """The field on a triadic subcube, re-indexed to its own grid."""
    sub = GridSpec(f.grid.d, cube.level, f.grid.k)
    return CoefficientField(sub, np.ascontiguousarray(f.a[cube.cell_slices(f.grid)]),
                            f.lam, f.Lam, dict(f.provenance))
