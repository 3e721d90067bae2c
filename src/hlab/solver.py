"""Discrete variational solves of -div(a grad u) = div f on triadic cubes.

All problems are symmetric positive (semi)definite and solved by
preconditioned conjugate gradients on the node grid, matrix-free.  The
preconditioner inverts the constant-coefficient operator exactly in a fast
transform basis, which caps the condition number by the ellipticity ratio.
Every Dirichlet problem shares one interior solve and every periodic problem
one torus solve.

The cell-centered element has zero-energy node modes beyond constants: the
parity fields (-1)^(i_r + i_s) over two or more axes.  They are projected
out of free-boundary and even-sided periodic solves; reported gradients,
fluxes, and energies are invariant along them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .fields import CoefficientField
from .lattice import (
    TriadicCube,
    discrete_gradient,
    gradient_adjoint,
    cell_to_node_adjoint,
)

__all__ = [
    "SolveOptions",
    "Solution",
    "SolverError",
    "solve_dirichlet_affine",
    "solve_dirichlet_data",
    "solve_neumann_affine",
    "solve_periodic_cell",
    "solve_forced",
    "solve_poisson_periodic",
]


class SolverError(RuntimeError):
    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-8
    maxiter: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.tol <= 1e-2:
            raise ValueError("tolerance must lie in (0, 1e-2]")
        if self.maxiter < 1:
            raise ValueError("max iterations must be >= 1")


@dataclass
class Solution:
    u: np.ndarray          # node field
    gradient: np.ndarray   # cell field, = discrete_gradient(u)
    flux: np.ndarray       # cell field, a . gradient (plus affine part where noted)
    residual: float
    iterations: int
    energy: float          # volume-normalized functional value


# ---------------------------------------------------------------------------
# operator plumbing
# ---------------------------------------------------------------------------


def _amul(a, g):
    """Cell-wise matrix-vector product a(x) g(x)."""
    return np.einsum("...ij,...j->...i", a, g)


def _apply(a, u, h, periodic):
    return gradient_adjoint(_amul(a, discrete_gradient(u, h, periodic)), h, periodic)


def _parity_modes(shape, periodic):
    """Normalized zero-energy parity modes (two or more alternating axes)."""
    d = len(shape)
    modes = []
    import itertools

    for rsize in range(2, d + 1):
        for axes in itertools.combinations(range(d), rsize):
            if periodic and any(shape[ax] % 2 for ax in axes):
                continue
            m = np.ones(shape)
            for ax in axes:
                sgn = (-1.0) ** np.arange(shape[ax])
                sh = [1] * d
                sh[ax] = shape[ax]
                m = m * sgn.reshape(sh)
            modes.append(m / np.linalg.norm(m))
    return modes


def _make_projector(shape, periodic, include_constant):
    modes = _parity_modes(shape, periodic)
    if include_constant:
        c = np.ones(shape)
        modes.insert(0, c / np.linalg.norm(c))

    if not modes:
        return _identity

    def project(v):
        out = v
        for m in modes:
            out = out - (out * m).sum() * m
        return out

    return project


def _identity(v):
    return v


def _cg(apply_op, b, M, project, tol, maxiter):
    """Preconditioned CG; returns (x, relative residual, iterations)."""
    b = project(b)
    bnorm = np.sqrt((b * b).sum())
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0.0, 0
    r = b.copy()
    z = project(M(r))
    p = z.copy()
    rz = (r * z).sum()
    relres = 1.0
    for it in range(1, maxiter + 1):
        Ap = project(apply_op(p))
        pAp = (p * Ap).sum()
        if pAp <= 0.0:
            raise SolverError("operator lost positive definiteness in CG", relres, it)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        relres = np.sqrt((r * r).sum()) / bnorm
        if relres <= tol:
            return x, float(relres), it
        z = project(M(r))
        rz_new = (r * z).sum()
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"CG failed to reach tol {tol} in {maxiter} iterations (residual {relres:.3e})",
        float(relres), maxiter,
    )


def _preconditioner(shape, h, bc):
    """Exact constant-operator inverse for bc in {'dirichlet', 'neumann', 'periodic'}.

    `shape` is that of the residuals: interior nodes for 'dirichlet', all
    nodes otherwise.  The symbol is built once per solve.
    """
    if bc == "periodic":
        symbol = spectral.torus_symbol(shape, h)
        return lambda r: spectral.torus_solve_nodespace(r, h, symbol)
    if bc == "dirichlet":
        symbol = spectral.dirichlet_symbol(shape, h)
        return lambda r: spectral.dirichlet_solve_nodespace(r, h, symbol)
    symbol = spectral.neumann_symbol(shape, h)
    return lambda r: spectral.neumann_solve_nodespace(r, h, symbol)


def _vol_energy(a, grad, h):
    d = grad.shape[-1]
    vol = np.prod(grad.shape[:-1]) * h**d
    return float(h**d * 0.5 * np.einsum("...i,...ij,...j->...", grad, a, grad).sum() / vol)


def _solution(a, u, h, periodic, res, its):
    grad = discrete_gradient(u, h, periodic)
    return Solution(u, grad, _amul(a, grad), res, its, _vol_energy(a, grad, h))


def _plane(p, grid):
    """Node values of the affine function x -> p . x."""
    axes = np.meshgrid(*[np.arange(n + 1) * grid.h for n in grid.cell_shape], indexing="ij")
    return sum(p[i] * axes[i] for i in range(grid.d))


def _restrict(a_field: CoefficientField, cube: TriadicCube):
    if cube.level == a_field.grid.m and all(z == 0 for z in cube.offset):
        return a_field
    return a_field.restrict(cube)


# ---------------------------------------------------------------------------
# the shared interior-Dirichlet and torus solves
# ---------------------------------------------------------------------------


def _dirichlet_solve(a, u, b, h, opts):
    """Add to u the zero-boundary v with (grad^T a grad v) = b on the interior nodes."""
    inner = tuple(slice(1, -1) for _ in range(u.ndim))
    res, its = 0.0, 0
    if u[inner].size:
        def apply_inner(v):
            full = np.zeros_like(u)
            full[inner] = v
            return _apply(a, full, h, periodic=False)[inner]

        M = _preconditioner(u[inner].shape, h, "dirichlet")
        corr, res, its = _cg(apply_inner, b[inner], M, _identity, opts.tol, opts.maxiter)
        u[inner] += corr
    return _solution(a, u, h, False, res, its)


def _torus_solve(a, b, h, opts):
    """Mean-zero periodic u with grad^T a grad u = b, up to the operator kernel."""
    shape = a.shape[:-2]
    project = _make_projector(shape, periodic=True, include_constant=True)
    M = _preconditioner(shape, h, "periodic")
    u, res, its = _cg(lambda v: _apply(a, v, h, True), b, M, project, opts.tol, opts.maxiter)
    return u - u.mean(), res, its


# ---------------------------------------------------------------------------
# the four variational solves
# ---------------------------------------------------------------------------


def solve_dirichlet_affine(a_field: CoefficientField, cube: TriadicCube, p, opts: SolveOptions = None) -> Solution:
    """Minimize the volume-normalized energy over u = l_p on the cube boundary."""
    sub = _restrict(a_field, cube)
    h = sub.grid.h
    lp = _plane(np.asarray(p, dtype=float), sub.grid)
    return _dirichlet_solve(sub.a, lp, -_apply(sub.a, lp, h, periodic=False), h,
                            opts or SolveOptions())


def solve_dirichlet_data(a_field: CoefficientField, cube: TriadicCube, boundary: np.ndarray,
                         opts: SolveOptions = None) -> Solution:
    """Minimize the energy with prescribed node values on the cube boundary.

    `boundary` is a full node array; only its boundary values matter (its
    interior serves as the initial lift).
    """
    sub = _restrict(a_field, cube)
    grid = sub.grid
    if boundary.shape != grid.node_shape:
        raise ValueError(f"boundary array shape {boundary.shape} != {grid.node_shape}")
    u = boundary.astype(float, copy=True)
    return _dirichlet_solve(sub.a, u, -_apply(sub.a, u, grid.h, periodic=False), grid.h,
                            opts or SolveOptions())


def solve_neumann_affine(a_field: CoefficientField, cube: TriadicCube, q, opts: SolveOptions = None) -> Solution:
    """Maximize the concave dual functional over mean-zero node fields.

    The reported flux average is pinned to q exactly by an affine
    post-correction (the first-variation identity of the continuum problem).
    """
    opts = opts or SolveOptions()
    sub = _restrict(a_field, cube)
    grid = sub.grid
    h, d = grid.h, grid.d
    q = np.asarray(q, dtype=float)

    qcell = np.broadcast_to(q, grid.cell_shape + (d,))
    b = gradient_adjoint(qcell, h, periodic=False)
    project = _make_projector(grid.node_shape, periodic=False, include_constant=True)
    M = _preconditioner(grid.node_shape, h, "neumann")
    w, res, its = _cg(lambda v: _apply(sub.a, v, h, False), b, M, project, opts.tol, opts.maxiter)

    grad = discrete_gradient(w, h, periodic=False)
    flux = _amul(sub.a, grad)
    mean_flux = flux.mean(axis=tuple(range(d)))
    abar_cell = sub.a.mean(axis=tuple(range(d)))
    c = np.linalg.solve(abar_cell, q - mean_flux)
    if np.abs(c).max() > 0:
        w = w + _plane(c, grid)
        w = w - w.mean()
        grad = discrete_gradient(w, h, periodic=False)
        flux = _amul(sub.a, grad)

    # value = volume mean of (q . grad w  -  1/2 grad w . a grad w)
    value = float((grad @ q).sum() / grad[..., 0].size)
    value -= _vol_energy(sub.a, grad, h)
    return Solution(w - w.mean(), grad, flux, res, its, value)


def solve_periodic_cell(a_field: CoefficientField, e, opts: SolveOptions = None) -> Solution:
    """First-order corrector on the torus: -div a (e + grad phi) = 0, phi mean zero."""
    grid = a_field.grid
    h, d = grid.h, grid.d
    e = np.asarray(e, dtype=float)
    ecell = np.broadcast_to(e, grid.cell_shape + (d,))
    b = -gradient_adjoint(_amul(a_field.a, ecell), h, periodic=True)
    phi, res, its = _torus_solve(a_field.a, b, h, opts or SolveOptions())
    grad = discrete_gradient(phi, h, periodic=True)
    corrected = grad + e
    flux = _amul(a_field.a, corrected)
    return Solution(phi, grad, flux, res, its, _vol_energy(a_field.a, corrected, h))


def solve_forced(a_field: CoefficientField, cube: TriadicCube, f, bc: str = "dirichlet-zero",
                 opts: SolveOptions = None) -> Solution:
    """Solve -div a grad psi = div f weakly: (grad v, a grad psi) = -(grad v, f)."""
    opts = opts or SolveOptions()
    sub = _restrict(a_field, cube)
    grid = sub.grid
    h, d = grid.h, grid.d
    f = np.asarray(f, dtype=float)
    if f.shape != grid.cell_shape + (d,):
        raise ValueError(f"forcing shape {f.shape} incompatible with the cube grid")

    if bc == "dirichlet-zero":
        b = -gradient_adjoint(f, h, periodic=False)
        return _dirichlet_solve(sub.a, np.zeros(grid.node_shape), b, h, opts)
    if bc != "periodic":
        raise ValueError(f"unknown boundary condition {bc!r}")
    b = -gradient_adjoint(f, h, periodic=True)
    psi, res, its = _torus_solve(sub.a, b, h, opts)
    return _solution(sub.a, psi, h, True, res, its)


def solve_poisson_periodic(rhs: np.ndarray, h: float) -> np.ndarray:
    """Mean-zero periodic solution of -lap u = rhs (cell scalar data).

    Constant coefficients: solved exactly in the Fourier basis.
    """
    rhs = np.asarray(rhs, dtype=float)
    if abs(rhs.mean()) > 1e-10 * max(1.0, np.abs(rhs).max()):
        raise ValueError("periodic Poisson data must have zero mean")
    d = rhs.ndim
    b = cell_to_node_adjoint(rhs - rhs.mean(), periodic=True) * h**d
    u = spectral.torus_solve_nodespace(b, h)
    return u - u.mean()
