"""Discrete variational solves of -div(a grad u) = div f on triadic cubes.

All problems are symmetric positive (semi)definite and solved by
preconditioned conjugate gradients on the node grid.  One function writes the
node stencil of grad^T a grad, on the free grid or on the torus, one offset at
a time, and each solve call assembles it once as a sparse matrix
(`lattice.stencil_matrix`: CSR on the torus, and on the free grid diagonals
allocated once, into which each offset's array is streamed and then freed).
The Dirichlet solves take the interior block of the free-grid stencil as their
operator and the stencil's rows at interior nodes for the load of the lifted
boundary data, both from one pass over the offsets.  The preconditioner
inverts the constant-coefficient operator exactly in a fast transform basis,
which caps the condition number by the ellipticity ratio.  It need not be
exact to do so: a solve with tolerance tol >= 1e-12 applies it in float32, at
about half the transform cost, and a smaller tol in float64 (see
`SolveOptions`).  The CG itself (iterate, residual, dot products and stopping
rule) is float64 either way.

The CG is column-batched, with step sizes, residuals and iteration counts
kept per column.  The affine solves take a stack of slopes or fluxes, so the
d basis directions of a coarse matrix or corrector set share one assembly;
the affine Dirichlet and Neumann solves also take a list of same-level cubes
(coefficient blocks stacked as (B, *cells, d, d), a block-diagonal operator,
one spectral symbol for all), which removes the per-call overhead that
dominates tiny cubes.  The affine Neumann solve takes an initial guess `x0`,
which `coarse.partition_matrices` builds from the Dirichlet extremals.  A
solve hands its load and guess over to the CG, which works in their buffers,
so no full-size copy of either stays alive beside the CG's own arrays.

The basis directions of a solve run one CG each.  Each direction's CG takes
over its row of the load and leaves its solution there, or in the guess's
row, so the CG's work arrays (search direction, product, preconditioned
residual and the transforms' buffers) are those of one direction, not of d.
A Neumann direction's load is made right before its CG, and the Dirichlet
lift is dropped through the CGs and made again to take the correction; the
cell-wise products, energies and flux averages afterwards work one direction
row at a time.  So no phase of a coarse pair holds more than its CG's working
set.  A column's CG steps do not depend on the other columns of its batch, so
every output is the one that a CG over all directions gives, bit for bit.

The cell-centered element has zero-energy node modes beyond constants: the
parity fields (-1)^(i_r + i_s) over two or more axes, in 3d times any function
of the third index.  `_solve` projects the constants and the parity fields (on
the torus, of even-sided axes) off the loads, guesses and solutions of free and
periodic solves, outside the CG; reported gradients, fluxes, and energies are
invariant along these modes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import spectral
from .fields import CoefficientField
from .lattice import (
    GridSpec,
    TriadicCube,
    discrete_gradient,
    gradient_adjoint,
    raise_problem,
    stencil_matrix,
)

__all__ = [
    "SolveOptions",
    "options_problem",
    "Solution",
    "SolverError",
    "cg",
    "solve_dirichlet_affine",
    "solve_dirichlet_data",
    "solve_neumann_affine",
    "solve_periodic_cell",
]


class SolverError(RuntimeError):
    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


# the smallest tolerance whose solves precondition in float32
_SINGLE_TOL = 1e-12


@dataclass(frozen=True)
class SolveOptions:
    """CG stopping rule: ||r|| <= tol ||b|| per column, within maxiter iterations.

    A solve with tol >= 1e-12 applies its spectral preconditioner in float32,
    at about half the transform cost; below 1e-12 it stays in float64, since an
    inexact preconditioner can stall the CG there (a 2d level-5 checkerboard
    pair at tol 1e-14).  Either way the iterate, the residual, its norm and the
    stopping rule are float64, so tol bounds the residual the same way.
    """

    tol: float = 1e-8
    maxiter: int = 10_000

    def __post_init__(self):
        raise_problem(options_problem(self.tol, self.maxiter))


def options_problem(tol: float, maxiter: int):
    """Why `SolveOptions` rejects these values, as (argument name, reason), or None."""
    if not 0.0 < tol <= 1e-2:
        return "tol", f"tolerance must lie in (0, 1e-2], got {tol}"
    if maxiter < 1:
        return "maxiter", f"max iterations must be >= 1, got {maxiter}"
    return None


@dataclass
class Solution:
    """Extremal on one cube, or a batch of them.

    A batch puts leading axes on u, gradient, flux and energy (the stack axes
    of the slopes or fluxes, then the cube axis of a list of cubes) and keeps
    the per-column CG counts in `column_iterations` and `column_residuals`;
    `iterations` is their total and `residual` their maximum.
    """

    u: np.ndarray          # node field
    gradient: np.ndarray   # cell field, = discrete_gradient(u)
    flux: np.ndarray       # cell field, a . gradient (plus affine part where noted)
    residual: float
    iterations: int
    energy: float          # volume-normalized functional value
    column_iterations: np.ndarray = None
    column_residuals: np.ndarray = None


def _batch_solution(u, grad, flux, res, its, energy):
    if np.ndim(its) == 0:
        return Solution(u, grad, flux, float(res), int(its), float(energy))
    return Solution(u, grad, flux, float(res.max()), int(its.sum()), energy, its, res)


# ---------------------------------------------------------------------------
# the assembled operator; arrays carry leading (column, cube) axes
# ---------------------------------------------------------------------------


def _amul(a, g):
    """Cell-wise matrix-vector product a(x) g(x), summed over the columns of a in order.

    g carries a leading row axis (the columns of a solve) ahead of a's axes; each
    row is written straight into the output, through one row-sized buffer.
    """
    out = np.empty(g.shape[:1] + np.broadcast_shapes(a.shape[:-1], g.shape[1:]))
    buf = np.empty(out.shape[1:]) if g.shape[-1] > 1 else None
    for row, gr in zip(out, g):
        np.multiply(a[..., 0], gr[..., :1], out=row)
        for j in range(1, g.shape[-1]):
            row += np.multiply(a[..., j], gr[..., j:j + 1], out=buf)
    return out


def _stencil(a, h, periodic):
    """grad^T a grad on the free node grid or the torus, as a node stencil streamed one
    offset at a time: (B, *nodes) arrays, one block per cube of a (B, *cells, d, d).

    Returns the offsets delta in {-1, 0, 1}^d that it computes, in order, and a
    generator of (delta, coefficients) pairs over them, which makes each array
    only once the previous one is released.  Entry (x, x + delta) sums, over the
    cells c = x - sigma holding both nodes, eps . a(c) eta / (h^2 4^(d-1)) with
    the gradient's corner signs eps = 2 sigma - 1 and eta = 2 (sigma + delta) - 1.
    Summing cell by cell makes isotropic cells cancel exactly, so those entries
    are zero, and an offset whose entries all vanish is not yielded.  When every
    cell is isotropic (a = a_00 I, bit for bit) the 2d axis offsets are such
    offsets, and they are not computed at all.  The interior-Dirichlet operator
    is the interior block of the free-grid stencil.
    """
    d = a.shape[-1]
    nodes = tuple(n + (not periodic) for n in a.shape[1:1 + d])
    nonzero = [(k, l) for k, l in itertools.product(range(d), repeat=2) if a[..., k, l].any()]
    isotropic = (d == 2 and nonzero == [(0, 0), (1, 1)]
                 and np.array_equal(a[..., 0, 0], a[..., 1, 1]))
    offsets = [delta for delta in itertools.product((-1, 0, 1), repeat=d)
               if not (isotropic and sum(map(abs, delta)) == 1)]

    def coefficients():
        # pad the cells so that node x's cell x - sigma sits at x + 1 - sigma; isotropic
        # cells share one padded component
        pad = [(0, 0)] + [(1, 0) if periodic else (1, 1)] * d
        comps = {}
        for k, l in nonzero:
            comps[k, l] = (comps[0, 0] if isotropic and k else
                           np.pad(a[..., k, l], pad, mode="wrap" if periodic else "constant"))
        for delta in offsets:
            coef = np.zeros(a.shape[:1] + nodes)
            for sigma in itertools.product((0, 1), repeat=d):
                tau = [s + t for s, t in zip(sigma, delta)]
                if not all(0 <= t <= 1 for t in tau):
                    continue
                view = (slice(None),) + tuple(slice(1 - s, 1 - s + n) for s, n in zip(sigma, nodes))
                for (k, l), comp in comps.items():
                    (np.add if (2 * sigma[k] - 1) * (2 * tau[l] - 1) > 0 else np.subtract)(
                        coef, comp[view], out=coef)
            if coef.any():
                coef /= h * h * 4 ** (d - 1)
                yield delta, coef
            del coef

    return offsets, coefficients()


def _make_projector(shape, periodic):
    """In-place projector, per column, off the constants and the parity fields
    (-1)^(sum of i_ax) over two or more axes (on the torus, even-sided axes only).

    On an odd number of nodes per axis these modes are not orthogonal, so they are
    Gram-Schmidt orthogonalised before any is normalised; on even counts their dot
    products are exact integer zeros, which leaves them as they are."""
    d = len(shape)
    subsets = [()] + [s for r in range(2, d + 1) for s in itertools.combinations(range(d), r)]
    modes = []
    for axes in subsets:
        if periodic and any(shape[ax] % 2 for ax in axes):
            continue
        m = functools.reduce(np.multiply.outer, [(-1.0) ** np.arange(n) if ax in axes else
                                                 np.ones(n) for ax, n in enumerate(shape)]).ravel()
        for q in modes:
            m = m - (m @ q) / (q @ q) * q
        modes.append(m)
    flat = [m / np.linalg.norm(m) for m in modes]

    def project(v):
        out = v.reshape(len(v), -1)
        for m in flat:
            out -= np.vecdot(out, m)[:, None] * m
        return out.reshape(v.shape)

    return project


def cg(A, b, precondition, tol, maxiter, labels=None, x0=None, overwrite=False):
    """Column-batched preconditioned CG for the symmetric sparse operator A.

    b carries a leading column axis, and A spans all of b: one column, or the columns of a
    block-diagonal A (the cubes of a partition).  `precondition` maps the residual to a
    b-shaped array, a new one or the residual itself: each preconditioned residual is
    consumed before r changes, so the identity `lambda r: r` runs plain CG.  A singular A
    needs b in its range; r stays there, and the kernel parts of the preconditioned
    residuals reach only x, for the caller to project off.  The iterate starts at the guess
    x0 (b-shaped) when given, so the residual starts as b - A x0, and at zero otherwise; a
    zero column of b keeps x = 0 whatever its guess.  Each column stops once ||r|| <= tol
    ||b||, so a guess changes the work but not the accuracy, and a guess that already meets
    the tolerance takes no iteration.  b and x0 are copied unless `overwrite`, which hands
    them over: a writable C-contiguous float64 b becomes the residual and such an x0 the
    iterate, in place, and any other array is copied as before.  Returns (x, relative
    residuals, iterations), the last two per column.  A SolverError names the first failing
    column (by `labels[i]` when given) and carries its residual and iteration count.
    """
    ncol = b.shape[0]
    col = (ncol,) + (1,) * (b.ndim - 1)

    def apply_op(v):
        return (A @ v.ravel()).reshape(v.shape)

    def dot(u, v):
        return np.vecdot(u.reshape(ncol, -1), v.reshape(ncol, -1))

    def fail(message, i, its):
        where = "" if labels is None else f" on {labels[i]}"
        raise SolverError(message + where, float(relres[i]), int(its))

    def own(v):
        return np.require(v, float, "CW") if overwrite else np.array(v, dtype=float)

    # the residual starts in b's buffer when handed over, else in a private copy of b;
    # either way this function holds no other copy of b
    r = own(b)
    del b
    bnorm = np.sqrt(dot(r, r))
    nonzero = bnorm > 0.0
    bnorm[~nonzero] = 1.0          # zero columns keep x = 0 and residual 0
    if x0 is None:
        x = np.zeros_like(r)
        relres = nonzero.astype(float)
    else:
        x = own(x0).reshape(r.shape)
        x[~nonzero] = 0.0
        r -= apply_op(x)
        relres = np.sqrt(dot(r, r)) / bnorm
    its = np.zeros(ncol, dtype=int)
    running = ~(relres <= tol)
    nrun = np.count_nonzero(running)
    if nrun == 0:
        return x, relres, its
    # z is dropped once it has entered p, so each product runs beside x, r and p only
    z = precondition(r)
    p = z * running.reshape(col)
    rz = dot(r, z)
    del z
    for it in range(1, maxiter + 1):
        Ap = apply_op(p)
        pAp = dot(p, Ap)
        if nrun < ncol:
            # finished columns have p = Ap = 0: a unit denominator keeps their step finite
            pAp = np.where(running, pAp, 1.0)
        if pAp.min() <= 0.0:
            fail("operator lost positive definiteness in CG", np.argmax(pAp <= 0.0), it)
        alpha = (rz / pAp).reshape(col)
        r -= np.multiply(alpha, Ap, out=Ap)
        x += np.multiply(alpha, p, out=Ap)      # Ap's buffer holds the step
        del Ap
        relres = np.sqrt(dot(r, r)) / bnorm
        its += running
        if relres.max() <= tol:
            return x, relres, its
        running = ~(relres <= tol)
        nrun = np.count_nonzero(running)
        z = precondition(r)
        rz_new = dot(r, z)
        if nrun < ncol:
            rz = np.where(running, rz, 1.0)
        p *= (rz_new / rz).reshape(col)
        p += z
        del z
        if nrun < ncol:
            p *= running.reshape(col)
        rz = rz_new
    i = np.argmax(running)
    fail(f"CG failed to reach tol {tol} in {maxiter} iterations (residual {relres[i]:.3e})",
         i, maxiter)


def _solve(A, load, x, h, bc, opts, labels=None, warm=False):
    """Solve A x[i] = load(i) for each direction row i of x (k, B, *nodes); (k, B) counts.

    A is grad^T a grad, block-diagonal over the cubes, on the nodes of `bc` in
    {'dirichlet' (interior), 'neumann', 'periodic'}; `bc` picks the spectral
    preconditioner.  Each direction runs its own CG.  `load(i)` gives row i's load, a
    writable C-contiguous (B, *nodes) array (made right before the CG, or a row of x),
    which the CG takes over as its residual.  The solution lands in x's row, whose
    values start the CG when `warm` and are ignored otherwise.  The free and periodic
    solves project the operator's kernel off each load and guess, in place, and off
    each solution, but not inside the CG; the Dirichlet operator has no kernel.
    """
    lead, shape = x.shape[:2], x.shape[2:]
    kind = "torus" if bc == "periodic" else bc
    dtype = np.float32 if opts.tol >= _SINGLE_TOL else np.float64
    inverse = spectral.pseudo_inverse(getattr(spectral, f"{kind}_symbol")(shape, h)).astype(dtype)
    solve = getattr(spectral, f"{kind}_solve_nodespace")
    project = (lambda v: v) if bc == "dirichlet" else _make_projector(shape, bc == "periodic")

    def precondition(r):
        return solve(r.astype(dtype, copy=False), h, inverse=inverse).astype(float, copy=False)

    res, its = np.empty(lead), np.empty(lead, dtype=int)
    for i in range(lead[0]):
        xi, res[i], its[i] = cg(A, project(load(i)), precondition, opts.tol, opts.maxiter,
                                labels, project(x[i]) if warm else None, overwrite=True)
        xi = project(xi)
        if not np.may_share_memory(xi, x[i]):
            x[i] = xi       # row i's CG is done with its residual, which may be this row
        del xi
    return res, its


def _mean_dot(x, y):
    """Cell mean of x . y per column (k, B) of the cell fields x (k, B, *cells, d) and y
    (broadcast to x), made one row of x at a time."""
    return np.stack([np.einsum("...i,...i->...", xr, yr).reshape(len(xr), -1).mean(axis=-1)
                     for xr, yr in zip(x, np.broadcast_to(y, x.shape))])


def _vol_energy(grad, flux):
    """Volume-normalized energy of each column: the cell mean of 1/2 grad . flux, flux = a grad."""
    return 0.5 * _mean_dot(grad, flux)


def _plane(p, grid):
    """Node values of the affine function x -> p . x, one plane per row of p (..., d)."""
    p = np.asarray(p, dtype=float)
    out = np.zeros(p.shape[:-1] + grid.node_shape)
    for i, n in enumerate(grid.node_shape):
        x = (np.arange(n) * grid.h).reshape((n,) + (1,) * (grid.d - 1 - i))
        out += p[..., i].reshape(p.shape[:-1] + (1,) * grid.d) * x
    return out


def _flux_load(q, ncube, grid):
    """gradient_adjoint of the constant cell field q (d,) on each of `ncube` cubes, bit for bit.

    Its values depend only on whether a node is first, inner or last along each
    axis (the inner differences of a constant cancel exactly, so the load lives
    on the boundary), so they are read off the adjoint on 2 cells per axis.
    """
    d = grid.d
    out = np.empty((ncube,) + grid.node_shape)
    v = gradient_adjoint(np.broadcast_to(q, (2,) * d + (d,)), grid.h)
    for axis, n in enumerate(grid.node_shape):
        position = np.minimum(np.arange(n), 1) + (np.arange(n) == n - 1)  # 0, 1 ... 1, 2
        v = np.take(v, position, axis=axis, out=out[0] if axis == d - 1 else None, mode="clip")
    out[1:] = out[0]
    return out


def _stack(p, d):
    """A stack of slopes or fluxes (..., d) as rows (k, d), and its stack shape."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (d,):
        raise ValueError(f"slopes and fluxes need a trailing axis of length {d}, got {p.shape}")
    return p.reshape(-1, d), p.shape[:-1]


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


def _result(sol: Solution, stack, cube) -> Solution:
    """The (k, B) batch reshaped to the stack axes, then the cube axis unless `cube` is one cube."""
    lead = stack + (() if isinstance(cube, TriadicCube) else sol.u.shape[1:2])
    return _batch_solution(*(x.reshape(lead + x.shape[2:]) for x in (
        sol.u, sol.gradient, sol.flux, sol.column_residuals, sol.column_iterations, sol.energy)))


# ---------------------------------------------------------------------------
# the shared interior-Dirichlet solve
# ---------------------------------------------------------------------------


def _dirichlet_solve(a, lift, h, opts, cubes):
    """The extremals with the boundary values of the lift() columns (k, B, *nodes).

    The interior of the lift is the initial guess; the correction solves the interior
    block of the free-grid stencil against the stencil's load -grad^T a grad u on
    interior nodes.  One pass over the stencil's offsets writes each into its diagonal
    and adds its part of the load, one direction row at a time.  Only the operator
    and the load live through the CGs, which leave the correction in the load; the
    lift is made again afterwards to take it.
    """
    d = a.shape[-1]
    inner = (...,) + (slice(1, -1),) * d
    u = lift()
    res, its = np.zeros(u.shape[:2]), np.zeros(u.shape[:2], dtype=int)
    if u[inner].size:
        load = np.zeros(u[inner].shape)
        offsets, stencil = _stencil(a, h, False)

        def interior():
            for delta, c in stencil:
                c = c[inner]
                shifted = u[(...,) + tuple(slice(1 + t, n - 1 + t)
                                           for t, n in zip(delta, u.shape[2:]))]
                for row, ur in zip(load, shifted):
                    row -= c * ur
                yield delta, c
                del c

        A = stencil_matrix(interior(), offsets=offsets)
        del u
        res, its = _solve(A, load.__getitem__, load, h, "dirichlet", opts, cubes)
        del A
        u = lift()
        u[inner] += load
        del load
    grad = discrete_gradient(u, h, False, d=d)
    flux = _amul(a, grad)
    return _batch_solution(u, grad, flux, res, its, _vol_energy(grad, flux))


# ---------------------------------------------------------------------------
# the four variational solves
# ---------------------------------------------------------------------------


def solve_dirichlet_affine(a_field: CoefficientField, cube, p,
                           opts: SolveOptions = None) -> Solution:
    """Minimize the volume-normalized energy over u = l_p on the cube boundary.

    `p` may be a stack of slopes (..., d), and `cube` a list of same-level
    cubes; every (slope, cube) pair is one column of one batched solve.
    """
    cubes, grid, a = _blocks(a_field, cube)
    p, stack = _stack(p, grid.d)
    planes = np.broadcast_to(p[:, None], (len(p), len(cubes), grid.d))
    sol = _dirichlet_solve(a, lambda: _plane(planes, grid), grid.h, opts or SolveOptions(), cubes)
    return _result(sol, stack, cube)


def solve_dirichlet_data(a_field: CoefficientField, cube: TriadicCube, boundary: np.ndarray,
                         opts: SolveOptions = None) -> Solution:
    """Minimize the energy with prescribed node values on the cube boundary.

    `boundary` is a full node array; only its boundary values matter (its
    interior serves as the initial lift).
    """
    cubes, grid, a = _blocks(a_field, cube)
    if boundary.shape != grid.node_shape:
        raise ValueError(f"boundary array shape {boundary.shape} != {grid.node_shape}")
    sol = _dirichlet_solve(a, lambda: boundary.astype(float, copy=True)[None, None], grid.h,
                           opts or SolveOptions(), cubes)
    return _result(sol, (), cube)


def solve_neumann_affine(a_field: CoefficientField, cube, q, opts: SolveOptions = None,
                         x0=None) -> Solution:
    """Maximize the concave dual functional over mean-zero node fields.

    The reported flux average is pinned to q exactly by an affine
    post-correction (the first-variation identity of the continuum problem).
    `q` may be a stack of fluxes (..., d), and `cube` a list of same-level
    cubes; every (flux, cube) pair is one column of one batched solve.
    The CG starts from the node fields x0, shaped like the returned `u`, when
    given (a warm start: it changes the work, not the stopping rule); a writable
    C-contiguous float64 x0 is overwritten, as its buffer becomes the CG iterate
    and then the returned `u`.
    """
    opts = opts or SolveOptions()
    cubes, grid, a = _blocks(a_field, cube)
    h, d = grid.h, grid.d
    axes = tuple(range(2, d + 2))
    q, stack = _stack(q, d)
    qcol = q.reshape((len(q), 1) + (1,) * d + (d,))     # broadcasts over (k, B, *cells, d)
    shape = (len(q), len(cubes)) + grid.node_shape
    w = np.empty(shape) if x0 is None else np.require(np.reshape(x0, shape), float, "CW")
    offsets, stencil = _stencil(a, h, False)
    A = stencil_matrix(stencil, offsets=offsets)
    # each direction's load is made right before its CG, which takes it over as its residual
    res, its = _solve(A, lambda i: _flux_load(q[i], len(cubes), grid), w, h, "neumann", opts,
                      cubes, warm=x0 is not None)
    del A

    grad = discrete_gradient(w, h, periodic=False, d=d)
    mean_flux = _amul(a, grad).mean(axis=axes)
    del grad
    abar_cell = a.mean(axis=tuple(range(1, d + 1)))
    c = np.linalg.solve(abar_cell, (q[:, None] - mean_flux)[..., None])[..., 0]
    w += _plane(c, grid)
    w -= w.mean(axis=axes, keepdims=True)
    grad = discrete_gradient(w, h, periodic=False, d=d)
    flux = _amul(a, grad)

    # value = volume mean of (q . grad w  -  1/2 grad w . a grad w)
    value = _mean_dot(grad, qcol)
    value -= _vol_energy(grad, flux)
    sol = _batch_solution(w, grad, flux, res, its, value)
    return _result(sol, stack, cube)


def solve_periodic_cell(a_field: CoefficientField, e, opts: SolveOptions = None) -> Solution:
    """First-order corrector on the torus: -div a (e + grad phi) = 0, phi mean zero.

    `e` may be a stack of directions (..., d), one column each.
    """
    grid = a_field.grid
    h, d = grid.h, grid.d
    a = a_field.a[None]
    e, stack = _stack(e, d)
    ecol = e.reshape((len(e), 1) + (1,) * d + (d,))
    phi = -gradient_adjoint(_amul(a, ecol), h, periodic=True)
    res, its = _solve(stencil_matrix(_stencil(a, h, True)[1], periodic=True), phi.__getitem__,
                      phi, h, "periodic", opts or SolveOptions())
    grad = discrete_gradient(phi, h, periodic=True, d=d)
    corrected = grad + ecol
    flux = _amul(a, corrected)
    sol = _batch_solution(phi, grad, flux, res, its, _vol_energy(corrected, flux))
    return _result(sol, stack, grid.macro_cube())
