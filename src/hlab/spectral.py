"""Exact fast solvers for the constant-coefficient cell-centered element operator.

The operator sum_k Gk^T Gk (Gk = cell-centered gradient component) is
diagonalized by Fourier modes on the torus, by sine modes on the Dirichlet
interior grid, and by cosine modes on the free (Neumann) node grid.  Each solve
applies the real transform of its boundary condition: a real FFT on the torus
(symbols hold the rfftn half-spectrum, the last axis keeping n//2 + 1 modes),
a DST-I on the Dirichlet interior and a DCT-I on the Neumann grid.  These
solves back both the identity-Laplacian problems and the preconditioner that
keeps conjugate-gradient iteration counts bounded by the ellipticity ratio.
A solve acts on the trailing d axes of b, d being the symbol's dimension, so
leading batch axes (one column per subcube of a partition) share one symbol.
A caller that applies one symbol many times, as a preconditioner does, builds
its `pseudo_inverse` once and passes it to each solve, so that a solve divides
by the symbol with one multiply.
The torus solve also takes the pseudo-inverse of any other rfftn half-spectrum
symbol, such as that of the cell network's nearest-neighbour Laplacian, which
preconditions the random-conductance solves.
Solves run in float32 on request: a solve keeps its input's dtype, so a float32
load with a float32 `inverse` transforms in single precision (about half the
time of float64), and a float64 load gives the exact float64 solve.
A solve never writes to its load; it transforms the arrays it made itself
(the spectrum, and the Neumann solve's weighted copy of the load) in place.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft

__all__ = [
    "torus_symbol",
    "network_symbol",
    "dirichlet_symbol",
    "neumann_symbol",
    "pseudo_inverse",
    "torus_solve_nodespace",
    "dirichlet_solve_nodespace",
    "neumann_solve_nodespace",
]

_EIG_FLOOR = 1e-12


def _symbol(theta, h, network=False):
    """sum_k (4 sin2_k / h^2) prod_{j!=k} cos2_j at the per-axis mode angles theta.

    The cell network's Laplacian has no cos2 weights.
    """
    d = len(theta)
    sin2 = [np.sin(t / 2.0) ** 2 for t in theta]
    cos2 = [np.ones_like(t) if network else np.cos(t / 2.0) ** 2 for t in theta]
    total = None
    for k in range(d):
        term = None
        for j in range(d):
            f = (4.0 * sin2[j] / h**2) if j == k else cos2[j]
            shape = [1] * d
            shape[j] = f.size
            f = f.reshape(shape)
            term = f if term is None else term * f
        total = term if total is None else total + term
    return total


def pseudo_inverse(symbol):
    """1 / symbol, and zero on the modes whose symbol is below the eigenvalue floor."""
    keep = symbol > _EIG_FLOOR * symbol.max()
    return np.divide(1.0, symbol, out=np.zeros_like(symbol), where=keep)


def _torus_angles(shape):
    """Angles 2 pi k / n of the rfftn modes: all n on leading axes, n//2 + 1 on the last."""
    kept = list(shape[:-1]) + [shape[-1] // 2 + 1]
    return [2.0 * np.pi * np.arange(k) / n for k, n in zip(kept, shape)]


def torus_symbol(shape, h):
    """rfftn half-spectrum symbol of the periodic constant operator on `shape` nodes."""
    return _symbol(_torus_angles(shape), h)


def network_symbol(shape, h):
    """rfftn half-spectrum symbol of the periodic cell network's nearest-neighbour Laplacian."""
    return _symbol(_torus_angles(shape), h, network=True)


def _columns(b, inverse):
    """b and the axes to transform: the trailing inverse.ndim axes of b.

    Leading axes that hold a single column are dropped, so that one-column
    solves skip the transforms' handling of an `axes` argument.
    """
    d = inverse.ndim
    if b.ndim > d and b.size == math.prod(b.shape[-d:]):
        b = b.reshape(b.shape[-d:])
    return b, (None if b.ndim == d else tuple(range(-d, 0)))


def torus_solve_nodespace(b: np.ndarray, h: float, *, inverse=None) -> np.ndarray:
    """Pseudoinverse of the periodic constant operator applied to b.

    `inverse`, the `pseudo_inverse` of an rfftn half-spectrum symbol (as returned
    by `torus_symbol` or `network_symbol`), replaces the constant operator's when given.
    """
    if inverse is None:
        inverse = pseudo_inverse(torus_symbol(b.shape, h))
    x, axes = _columns(b, inverse)
    xh = fft.rfftn(x, axes=axes)
    xh *= inverse
    return fft.irfftn(xh, s=b.shape[-inverse.ndim:], axes=axes, overwrite_x=True).reshape(b.shape)


def dirichlet_symbol(shape, h):
    """Sine-basis symbol on an interior node grid of `shape` (N = shape[axis] + 1 cells)."""
    return _symbol([np.pi * np.arange(1, n + 1) / (n + 1) for n in shape], h)


def dirichlet_solve_nodespace(b: np.ndarray, h: float, *, inverse=None) -> np.ndarray:
    """Inverse of the constant operator on the zero-boundary interior grid.

    `inverse`, the `pseudo_inverse` of its `dirichlet_symbol`, saves rebuilding it.
    """
    if inverse is None:
        inverse = pseudo_inverse(dirichlet_symbol(b.shape, h))
    x, axes = _columns(b, inverse)
    xh = fft.dstn(x, type=1, axes=axes)
    xh *= inverse
    return fft.idstn(xh, type=1, axes=axes, overwrite_x=True).reshape(b.shape)


def neumann_symbol(shape, h):
    """Cosine-basis symbol on a free node grid of `shape` (angles pi k / (n - 1))."""
    return _symbol([np.pi * np.arange(n) / (n - 1) for n in shape], h)


def neumann_solve_nodespace(b: np.ndarray, h: float, *, inverse=None) -> np.ndarray:
    """Pseudoinverse of the constant operator on the free node grid.

    Boundary-plane loads carry weight 2 per extreme coordinate; the DCT-I of
    the weighted load is the Fourier transform of its even reflection onto
    the double-size torus, so the cosine solve matches the boxed quadratic
    form exactly.  `inverse`, the `pseudo_inverse` of its `neumann_symbol`,
    saves rebuilding it.
    """
    if inverse is None:
        inverse = pseudo_inverse(neumann_symbol(b.shape, h))
    x, axes = _columns(b, inverse)
    w = x.astype(np.result_type(x, 1.0), copy=True)     # float32 stays float32
    for axis in range(-inverse.ndim, 0):
        ends = [slice(None)] * w.ndim
        ends[axis] = [0, -1]
        w[tuple(ends)] *= 2.0
    xh = fft.dctn(w, type=1, axes=axes, overwrite_x=True)
    xh *= inverse
    return fft.idctn(xh, type=1, axes=axes, overwrite_x=True).reshape(b.shape)
