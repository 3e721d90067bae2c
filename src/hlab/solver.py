"""Discrete variational solves of -div(a grad u) = div f on triadic cubes.

All problems are symmetric positive (semi)definite and solved by
preconditioned conjugate gradients on the node grid, matrix-free.  The
preconditioner inverts the constant-coefficient operator exactly in a fast
transform basis, which caps the condition number by the ellipticity ratio.
Every Dirichlet problem shares one interior solve and every periodic problem
one torus solve.

The CG is column-batched: its arrays carry a leading column axis, with step
sizes, residuals and iteration counts kept per column.  The affine Dirichlet
and Neumann solves take a list of same-level cubes and solve them as one
batch (coefficient blocks stacked as (B, *cells, d, d), one spectral symbol
for all), which removes the per-call overhead that dominates tiny cubes.  A
single cube, and every other solve, is a one-column batch.

The cell-centered element has zero-energy node modes beyond constants: the
parity fields (-1)^(i_r + i_s) over two or more axes.  They are projected
out of free-boundary and even-sided periodic solves; reported gradients,
fluxes, and energies are invariant along them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .fields import CoefficientField
from .lattice import (
    GridSpec,
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
    """Extremal on one cube, or on a batch of same-level cubes.

    A batched solve puts a leading cube axis on u, gradient, flux and energy
    and keeps the per-cube CG counts in `cube_iterations` and
    `cube_residuals`; its `iterations` is their total and `residual` their
    maximum.
    """

    u: np.ndarray          # node field
    gradient: np.ndarray   # cell field, = discrete_gradient(u)
    flux: np.ndarray       # cell field, a . gradient (plus affine part where noted)
    residual: float
    iterations: int
    energy: float          # volume-normalized functional value
    cube_iterations: np.ndarray = None
    cube_residuals: np.ndarray = None

    def for_cube(self, i: int) -> "Solution":
        """The i-th cube's Solution of a batch; its arrays are views into the batch."""
        return Solution(self.u[i], self.gradient[i], self.flux[i], float(self.cube_residuals[i]),
                        int(self.cube_iterations[i]), float(self.energy[i]))


def _batch_solution(u, grad, flux, res, its, energy):
    return Solution(u, grad, flux, float(res.max()), int(its.sum()), energy, its, res)


# ---------------------------------------------------------------------------
# operator plumbing: arrays carry a leading column axis, one column per cube
# ---------------------------------------------------------------------------


def _amul(a, g):
    """Cell-wise matrix-vector product a(x) g(x)."""
    return np.einsum("...ij,...j->...i", a, g)


def _apply(a, u, h, periodic):
    g = discrete_gradient(u, h, periodic, d=a.shape[-1])
    return gradient_adjoint(_amul(a, g), h, periodic)


def _parity_modes(shape, periodic):
    """Normalized zero-energy parity modes (two or more alternating axes)."""
    d = len(shape)
    modes = []
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
    """Projector off the modes on the trailing `shape` axes, column by column."""
    modes = _parity_modes(shape, periodic)
    if include_constant:
        c = np.ones(shape)
        modes.insert(0, c / np.linalg.norm(c))

    if not modes:
        return _identity

    flat = [m.ravel() for m in modes]

    def project(v):
        out = v.reshape(len(v), -1)
        for m in flat:
            out = out - np.vecdot(out, m)[:, None] * m
        return out.reshape(v.shape)

    return project


def _identity(v):
    return v


def _cg(apply_op, b, M, project, tol, maxiter, labels=None):
    """Column-batched preconditioned CG.

    b carries a leading column axis; apply_op, M and project act column by
    column on arrays of its shape.  Step sizes, residual norms and iteration
    counts are kept per column, and a column stops updating once its relative
    residual is <= tol.  Returns (x, relative residuals, iterations), the
    last two per column.  A SolverError names the first failing column
    (by `labels[i]` when given, e.g. its cube) and carries its residual and
    iteration count.
    """
    ncol = b.shape[0]
    col = (ncol,) + (1,) * (b.ndim - 1)

    def dot(u, v):
        return np.vecdot(u.reshape(ncol, -1), v.reshape(ncol, -1))

    def fail(message, i, its):
        where = "" if labels is None else f" on {labels[i]}"
        raise SolverError(message + where, float(relres[i]), int(its))

    b = project(b)
    bnorm = np.sqrt(dot(b, b))
    x = np.zeros_like(b)
    relres = np.zeros(ncol)
    its = np.zeros(ncol, dtype=int)
    running = bnorm > 0.0
    nrun = np.count_nonzero(running)
    if nrun == 0:
        return x, relres, its
    relres[running] = 1.0
    bnorm[~running] = 1.0          # zero columns keep x = 0 and residual 0
    r = b.copy()
    z = project(M(r))
    p = z * running.reshape(col)
    rz = dot(r, z)
    for it in range(1, maxiter + 1):
        Ap = project(apply_op(p))
        pAp = dot(p, Ap)
        if nrun < ncol:
            # finished columns have p = Ap = 0: a unit denominator keeps their step finite
            pAp = np.where(running, pAp, 1.0)
        if pAp.min() <= 0.0:
            fail("operator lost positive definiteness in CG", np.argmax(pAp <= 0.0), it)
        alpha = (rz / pAp).reshape(col)
        x += alpha * p
        r -= alpha * Ap
        relres = np.sqrt(dot(r, r)) / bnorm
        its += running
        if relres.max() <= tol:
            return x, relres, its
        running = ~(relres <= tol)
        nrun = np.count_nonzero(running)
        z = project(M(r))
        rz_new = dot(r, z)
        if nrun < ncol:
            rz = np.where(running, rz, 1.0)
        p = z + (rz_new / rz).reshape(col) * p
        if nrun < ncol:
            p *= running.reshape(col)
        rz = rz_new
    i = np.argmax(running)
    fail(f"CG failed to reach tol {tol} in {maxiter} iterations (residual {relres[i]:.3e})",
         i, maxiter)


def _preconditioner(shape, h, bc):
    """Exact constant-operator inverse for bc in {'dirichlet', 'neumann', 'periodic'}.

    `shape` is that of one column's residual: interior nodes for 'dirichlet',
    all nodes otherwise.  The symbol is built once per solve and shared by
    every column.
    """
    if bc == "periodic":
        symbol = spectral.torus_symbol(shape, h)
        return lambda r: spectral.torus_solve_nodespace(r, h, symbol)
    if bc == "dirichlet":
        symbol = spectral.dirichlet_symbol(shape, h)
        return lambda r: spectral.dirichlet_solve_nodespace(r, h, symbol)
    symbol = spectral.neumann_symbol(shape, h)
    return lambda r: spectral.neumann_solve_nodespace(r, h, symbol)


def _cell_axes(d):
    return tuple(range(1, d + 1))


def _vol_energy(a, grad, h):
    """Volume-normalized energy 1/2 grad . a grad of each column."""
    d = grad.shape[-1]
    ncol = grad.shape[0]
    vol = math.prod(grad.shape[1:-1]) * h**d
    e = np.einsum("...i,...ij,...j->...", grad, a, grad).reshape(ncol, -1).sum(axis=1)
    return h**d * 0.5 * e / vol


def _solution(a, u, h, periodic, res, its):
    grad = discrete_gradient(u, h, periodic, d=a.shape[-1])
    return _batch_solution(u, grad, _amul(a, grad), res, its, _vol_energy(a, grad, h))


def _plane(p, grid):
    """Node values of the affine function x -> p . x, one plane per row of p (..., d)."""
    axes = np.meshgrid(*[np.arange(n + 1) * grid.h for n in grid.cell_shape], indexing="ij")
    p = np.asarray(p, dtype=float)
    lead = p.shape[:-1] + (1,) * grid.d
    return sum(p[..., i].reshape(lead) * axes[i] for i in range(grid.d))


def _blocks(a_field: CoefficientField, cube):
    """(cubes, grid of one cube, coefficient blocks stacked as (B, *cells, d, d)).

    `cube` is one TriadicCube or a list of cubes of one level.
    """
    cubes = [cube] if isinstance(cube, TriadicCube) else list(cube)
    levels = sorted({c.level for c in cubes})
    if len(levels) != 1:
        raise ValueError(f"a batched solve needs cubes of one level, got levels {levels}")
    g = a_field.grid
    blocks = [a_field.a[c.cell_slices(g)] for c in cubes]
    a = np.ascontiguousarray(blocks[0])[None] if len(blocks) == 1 else np.stack(blocks)
    return cubes, GridSpec(g.d, levels[0], g.k), a


def _result(sol: Solution, cube) -> Solution:
    """The batch for a list of cubes, the one cube's Solution otherwise."""
    return sol.for_cube(0) if isinstance(cube, TriadicCube) else sol


# ---------------------------------------------------------------------------
# the shared interior-Dirichlet and torus solves
# ---------------------------------------------------------------------------


def _dirichlet_solve(a, u, b, h, opts, cubes):
    """Add to each column of u the zero-boundary v with grad^T a grad v = b on interior nodes."""
    inner = (slice(None),) + tuple(slice(1, -1) for _ in range(u.ndim - 1))
    res, its = np.zeros(len(u)), np.zeros(len(u), dtype=int)
    if u[inner].size:
        def apply_inner(v):
            full = np.zeros_like(u)
            full[inner] = v
            return _apply(a, full, h, periodic=False)[inner]

        M = _preconditioner(u[inner].shape[1:], h, "dirichlet")
        corr, res, its = _cg(apply_inner, b[inner], M, _identity, opts.tol, opts.maxiter, cubes)
        u[inner] += corr
    return _solution(a, u, h, False, res, its)


def _torus_solve(a, b, h, opts):
    """Mean-zero periodic u with grad^T a grad u = b per column, up to the operator kernel."""
    shape = b.shape[1:]
    project = _make_projector(shape, periodic=True, include_constant=True)
    M = _preconditioner(shape, h, "periodic")
    u, res, its = _cg(lambda v: _apply(a, v, h, True), b, M, project, opts.tol, opts.maxiter)
    return u - u.mean(axis=_cell_axes(len(shape)), keepdims=True), res, its


# ---------------------------------------------------------------------------
# the four variational solves
# ---------------------------------------------------------------------------


def solve_dirichlet_affine(a_field: CoefficientField, cube, p,
                           opts: SolveOptions = None) -> Solution:
    """Minimize the volume-normalized energy over u = l_p on the cube boundary.

    `cube` may be a list of same-level cubes, solved as one batch.
    """
    cubes, grid, a = _blocks(a_field, cube)
    lp = _plane(p, grid)
    u = np.repeat(lp[None], len(cubes), axis=0)
    sol = _dirichlet_solve(a, u, -_apply(a, u, grid.h, periodic=False), grid.h,
                           opts or SolveOptions(), cubes)
    return _result(sol, cube)


def solve_dirichlet_data(a_field: CoefficientField, cube: TriadicCube, boundary: np.ndarray,
                         opts: SolveOptions = None) -> Solution:
    """Minimize the energy with prescribed node values on the cube boundary.

    `boundary` is a full node array; only its boundary values matter (its
    interior serves as the initial lift).
    """
    cubes, grid, a = _blocks(a_field, cube)
    if boundary.shape != grid.node_shape:
        raise ValueError(f"boundary array shape {boundary.shape} != {grid.node_shape}")
    u = boundary.astype(float, copy=True)[None]
    return _dirichlet_solve(a, u, -_apply(a, u, grid.h, periodic=False), grid.h,
                            opts or SolveOptions(), cubes).for_cube(0)


def solve_neumann_affine(a_field: CoefficientField, cube, q, opts: SolveOptions = None) -> Solution:
    """Maximize the concave dual functional over mean-zero node fields.

    The reported flux average is pinned to q exactly by an affine
    post-correction (the first-variation identity of the continuum problem).
    `cube` may be a list of same-level cubes, solved as one batch.
    """
    opts = opts or SolveOptions()
    cubes, grid, a = _blocks(a_field, cube)
    h, d = grid.h, grid.d
    axes = _cell_axes(d)
    q = np.asarray(q, dtype=float)

    qcell = np.broadcast_to(q, grid.cell_shape + (d,))
    b = np.broadcast_to(gradient_adjoint(qcell, h, periodic=False), (len(cubes),) + grid.node_shape)
    project = _make_projector(grid.node_shape, periodic=False, include_constant=True)
    M = _preconditioner(grid.node_shape, h, "neumann")
    w, res, its = _cg(lambda v: _apply(a, v, h, False), b, M, project, opts.tol, opts.maxiter,
                      cubes)

    grad = discrete_gradient(w, h, periodic=False, d=d)
    flux = _amul(a, grad)
    mean_flux = flux.mean(axis=axes)
    abar_cell = a.mean(axis=axes)
    c = np.linalg.solve(abar_cell, (q - mean_flux)[..., None])[..., 0]
    w = w + _plane(c, grid)
    w = w - w.mean(axis=axes, keepdims=True)
    grad = discrete_gradient(w, h, periodic=False, d=d)
    flux = _amul(a, grad)

    # value = volume mean of (q . grad w  -  1/2 grad w . a grad w)
    value = (grad @ q).reshape(len(cubes), -1).sum(axis=1) / grad[0, ..., 0].size
    value -= _vol_energy(a, grad, h)
    sol = _batch_solution(w - w.mean(axis=axes, keepdims=True), grad, flux, res, its, value)
    return _result(sol, cube)


def solve_periodic_cell(a_field: CoefficientField, e, opts: SolveOptions = None) -> Solution:
    """First-order corrector on the torus: -div a (e + grad phi) = 0, phi mean zero."""
    grid = a_field.grid
    h, d = grid.h, grid.d
    a = a_field.a[None]
    e = np.asarray(e, dtype=float)
    ecell = np.broadcast_to(e, grid.cell_shape + (d,))
    b = -gradient_adjoint(_amul(a_field.a, ecell), h, periodic=True)
    phi, res, its = _torus_solve(a, b[None], h, opts or SolveOptions())
    grad = discrete_gradient(phi, h, periodic=True, d=d)
    corrected = grad + e
    flux = _amul(a, corrected)
    return _batch_solution(phi, grad, flux, res, its, _vol_energy(a, corrected, h)).for_cube(0)


def solve_forced(a_field: CoefficientField, cube: TriadicCube, f, bc: str = "dirichlet-zero",
                 opts: SolveOptions = None) -> Solution:
    """Solve -div a grad psi = div f weakly: (grad v, a grad psi) = -(grad v, f)."""
    opts = opts or SolveOptions()
    cubes, grid, a = _blocks(a_field, cube)
    h, d = grid.h, grid.d
    f = np.asarray(f, dtype=float)
    if f.shape != grid.cell_shape + (d,):
        raise ValueError(f"forcing shape {f.shape} incompatible with the cube grid")

    if bc == "dirichlet-zero":
        b = -gradient_adjoint(f, h, periodic=False)[None]
        return _dirichlet_solve(a, np.zeros(b.shape), b, h, opts, cubes).for_cube(0)
    if bc != "periodic":
        raise ValueError(f"unknown boundary condition {bc!r}")
    b = -gradient_adjoint(f, h, periodic=True)[None]
    psi, res, its = _torus_solve(a, b, h, opts)
    return _solution(a, psi, h, True, res, its).for_cube(0)


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
