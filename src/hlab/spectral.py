"""Exact fast solvers for the constant-coefficient cell-centered element operator.

The operator sum_k Gk^T Gk (Gk = cell-centered gradient component) is
diagonalized by Fourier modes on the torus, by sine modes on the Dirichlet
interior grid, and by cosine modes on the free (Neumann) node grid.  These
solves back both the identity-Laplacian problems and the preconditioner that
keeps conjugate-gradient iteration counts bounded by the ellipticity ratio.
The torus solve also accepts the symbol of the cell network's nearest-neighbour
Laplacian, which preconditions the random-conductance solves.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

__all__ = [
    "torus_symbol",
    "network_symbol",
    "dirichlet_symbol",
    "torus_solve_nodespace",
    "dirichlet_solve_nodespace",
    "neumann_solve_nodespace",
]

_EIG_FLOOR = 1e-12


def _symbol_from_1d(sin2, cos2, h):
    """Assemble sum_k (4 sin2_k / h^2) prod_{j!=k} cos2_j by outer products."""
    d = len(sin2)
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


def _divide_above_floor(bh, symbol):
    """bh / symbol, and zero on the modes whose symbol is below the eigenvalue floor."""
    return np.divide(bh, symbol, out=np.zeros_like(bh), where=symbol > _EIG_FLOOR * symbol.max())


def _torus_1d(shape):
    theta = [2.0 * np.pi * np.arange(n) / n for n in shape]
    return [np.sin(t / 2.0) ** 2 for t in theta], [np.cos(t / 2.0) ** 2 for t in theta]


def torus_symbol(shape, h):
    return _symbol_from_1d(*_torus_1d(shape), h)


def network_symbol(shape, h):
    """Symbol of the nearest-neighbour Laplacian of the periodic cell network."""
    sin2, cos2 = _torus_1d(shape)
    return _symbol_from_1d(sin2, [np.ones_like(c) for c in cos2], h)


def torus_solve_nodespace(b: np.ndarray, h: float, symbol=None) -> np.ndarray:
    """Pseudoinverse of the periodic constant operator (or of `symbol`'s) applied to b."""
    if symbol is None:
        symbol = torus_symbol(b.shape, h)
    return np.fft.ifftn(_divide_above_floor(np.fft.fftn(b), symbol)).real


def dirichlet_symbol(shape, h):
    """Sine-basis symbol on an interior node grid of `shape` (N = shape[axis] + 1 cells)."""
    sin2 = []
    cos2 = []
    for n in shape:
        N = n + 1
        omega = np.pi * np.arange(1, N) / N
        sin2.append(np.sin(omega / 2.0) ** 2)
        cos2.append(np.cos(omega / 2.0) ** 2)
    return _symbol_from_1d(sin2, cos2, h)


def dirichlet_solve_nodespace(b: np.ndarray, h: float, symbol=None) -> np.ndarray:
    """Inverse of the constant operator on the zero-boundary interior grid."""
    if symbol is None:
        symbol = dirichlet_symbol(b.shape, h)
    return scipy.fft.idstn(_divide_above_floor(scipy.fft.dstn(b, type=1), symbol), type=1)


def neumann_solve_nodespace(b: np.ndarray, h: float, symbol=None) -> np.ndarray:
    """Pseudoinverse of the constant operator on the free node grid.

    Free-boundary problems are folded onto a double-size torus by even
    reflection; boundary-plane loads carry weight 2 per extreme coordinate so
    the reflected quadratic form matches the boxed one exactly.
    """
    w = b.astype(float, copy=True)
    for axis in range(b.ndim):
        first = [slice(None)] * b.ndim
        last = [slice(None)] * b.ndim
        first[axis] = slice(0, 1)
        last[axis] = slice(-1, None)
        w[tuple(first)] *= 2.0
        w[tuple(last)] *= 2.0
    for axis in range(b.ndim):
        mirror = [slice(None)] * w.ndim
        mirror[axis] = slice(-2, 0, -1)
        w = np.concatenate([w, w[tuple(mirror)]], axis=axis)
    v = torus_solve_nodespace(w, h, symbol=symbol)
    keep = tuple(slice(0, n) for n in b.shape)
    return v[keep]
