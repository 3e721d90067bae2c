"""Reference implementations that the tests check the package against.

Each one computes a quantity the package computes another way, by a route
that is slower or needs more machinery but is easy to trust: the whole-field
convolution behind `renorm.heat_point_value`, the exact dual norm that
`lattice.weak_norm_estimate` bounds, and the gap functional J whose basis sum
`coarse.duality_defect` gives in closed form.  `restrict` cuts a field down to
a subcube, for comparing a solve on a cube of a field with one on its own grid.
`zero_start_green` steps the Green function from zero guesses with the exact
constant-coefficient inverse as preconditioner, a solver independent of the
package's warm-started, unpreconditioned steps.  `event_loop_walks` runs the
walk jump by jump, and `uniformized_laws` gives the exact law of its
uniformized displacement from dense tilted matrices, both independent of the
package's block tables.

The free-grid solves are also checked, bit for bit, against the whole-array
route they replaced: the stencil built as a dict of every nonzero offset's
node array, its matrix assembled from that dict, the loads made for all
directions at once (the Neumann one by `gradient_adjoint`), the lift held
through the CG, and each cell-wise product formed for all rows at once.
"""

import itertools
import math

import numpy as np
import scipy.ndimage
import scipy.sparse

from hlab import renorm, solver, spectral
from hlab.correctors import periodic_homogenized_matrix
from hlab.fields import CoefficientField
from hlab.lattice import GridSpec, _pair_adj, discrete_gradient, gradient_adjoint
from hlab.renorm import heat_kernel_1d, heat_point_value
from hlab.spectral import neumann_solve_nodespace
from hlab.stochproc import STEP_TOL, build_network, network_operator


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


def corrector_set_b(a_field, r, points, opts=None) -> list:
    """(b, b_hat, cond, chi) of b_r at each point by the corrector-set route: the
    full-torus corrected planes e_k + grad phi_k and g_k + abar e_k of
    `periodic_homogenized_matrix`, each smoothed by `heat_point_value`."""
    cset = periodic_homogenized_matrix(a_field, opts)
    d, h, shape = a_field.grid.d, a_field.grid.h, a_field.grid.cell_shape
    grads = [np.eye(d)[k] + discrete_gradient(cset.phi[k], h, periodic=True) for k in range(d)]
    fluxes = [cset.g[k] + cset.abar[:, k] for k in range(d)]
    out = []
    for pt in points:
        G = np.column_stack([heat_point_value(grads[k], r, h, pt) for k in range(d)])
        Q = np.column_stack([heat_point_value(fluxes[k], r, h, pt) for k in range(d)])
        c = float(np.linalg.cond(G))
        X = renorm._local_min_scale(a_field, tuple(x % s for x, s in zip(pt, shape)),
                                    renorm.PROXY_DELTA, renorm.PROXY_CAP, opts)
        chi = float(np.clip(2.0 - X / r, 0.0, 1.0))
        if c <= renorm.COND_GATE:
            b_hat = Q @ np.linalg.inv(G)
            out.append((chi * b_hat + (1.0 - chi) * cset.abar, b_hat, c, chi))
        else:
            out.append((cset.abar.copy(), None, c, chi))
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


# ---------------------------------------------------------------------------
# the whole-array route of the free-grid solves
# ---------------------------------------------------------------------------


def amul(a, g):
    """a(x) g(x) cell by cell, each column of a's product formed for all rows of g at once."""
    out = a[..., 0] * g[..., :1]
    for j in range(1, g.shape[-1]):
        out += a[..., j] * g[..., j:j + 1]
    return out


def zero_start_green(a_field, t_final, source, dt):
    """The implicit-Euler density with every step's CG started from zero and
    preconditioned by the exact inverse of I + dt L, L the unit-conductance Laplacian."""
    net = build_network(a_field)
    grid = net.grid
    h = grid.h
    inverse = spectral.pseudo_inverse(1.0 + dt * spectral.network_symbol(grid.cell_shape, h))
    step = scipy.sparse.identity(grid.side**grid.d, format="csr") + dt * network_operator(net)
    u = np.zeros(grid.cell_shape)
    u[source] = 1.0 / h**grid.d
    for _ in range(int(round(t_final / dt))):
        u = solver.cg(step, u[None],
                      lambda r: spectral.torus_solve_nodespace(r, h, inverse=inverse),
                      STEP_TOL, 5000)[0][0]
    return u


def event_loop_walks(net, T, n_paths, seed, sample_times):
    """The walk jump by jump: each step gathers every running path's rates from the edge
    arrays, draws an exponential holding time and then a move.  The event-loop oracle
    that `simulate_walks` is compared with in law.

    Returns the displacements (sample times, paths, d) at the sorted sample times.
    """
    d, h, side = net.grid.d, net.grid.h, net.grid.side
    sample_times = sorted(float(s) for s in sample_times)
    rng = np.random.default_rng(seed)
    pos = np.zeros((n_paths, d), dtype=np.int64)
    t = np.zeros(n_paths)
    recorded = np.zeros((len(sample_times), n_paths, d))
    inv_h2 = 1.0 / (h * h)
    active = t < T
    while active.any():
        idx = np.nonzero(active)[0]
        site = tuple((pos[idx, j] % side) for j in range(d))
        rates = np.empty((idx.size, 2 * d))
        for j in range(d):
            rates[:, 2 * j] = net.cond[j][site] * inv_h2
            back = list(site)
            back[j] = (site[j] - 1) % side
            rates[:, 2 * j + 1] = net.cond[j][tuple(back)] * inv_h2
        total = rates.sum(axis=1)
        tn = t[idx] + rng.exponential(1.0 / total)
        for si, s in enumerate(sample_times):
            hit = (t[idx] <= s) & (s < tn)
            if hit.any():
                recorded[si, idx[hit]] = pos[idx[hit]]
        u = rng.random(idx.size) * total
        choice = (rates.cumsum(axis=1) < u[:, None]).sum(axis=1)
        choice = np.minimum(choice, 2 * d - 1)
        pos[idx, choice // 2] += np.where(choice % 2 == 0, 1, -1)
        t[idx] = tn
        active = t < T
    return recorded * h


def uniformized_laws(net, steps, radius):
    """The law of the unwrapped displacement after n = 0, ..., steps events of the
    uniformized walk from every site, by dense tilted matrices.

    The jump rates are the off-diagonal entries of -`network_operator`, Lam* is its
    largest diagonal entry, and one event is the matrix I - A / Lam* (side >= 3, so each
    neighbour pair is one move).  With each move's entry multiplied by exp(i theta . m),
    the matrix's n-th power applied to ones gives E_x exp(i theta . X_n) at every site x;
    a DFT over theta on the grid 2 pi Z^d / N, N = 2 radius + 1, returns the law, exactly
    when the walk cannot leave the box [-radius, radius]^d (radius >= steps).

    Returns Lam* and an array (steps + 1, sites) + (N,) * d, displacement delta at index
    delta mod N.
    """
    d, side = net.grid.d, net.grid.side
    A = network_operator(net).toarray()
    rate = A.diagonal().max()
    one_event = np.eye(len(A)) - A / rate
    coords = np.indices(net.grid.cell_shape).reshape(d, -1)
    move = (coords[:, None, :] - coords[:, :, None] + 1) % side - 1     # (d, from, to)
    N = 2 * radius + 1
    theta = 2 * np.pi * np.indices((N,) * d).reshape(d, -1).T / N
    tilted = one_event * np.exp(1j * np.einsum("tj,jxy->txy", theta, move))
    chars = [np.ones((len(theta), len(A)), dtype=complex)]
    for _ in range(steps):
        chars.append(np.einsum("txy,ty->tx", tilted, chars[-1]))
    chars = np.stack(chars).reshape((steps + 1,) + (N,) * d + (len(A),))
    laws = np.fft.fftn(chars, axes=tuple(range(1, d + 1))).real / N**d
    return rate, np.moveaxis(laws, -1, 1)


def dict_stencil(a, h, periodic):
    """Every offset of grad^T a grad whose node array is not all zero, as a dict."""
    d = a.shape[-1]
    nodes = tuple(n + (not periodic) for n in a.shape[1:1 + d])
    pad = [(0, 0)] + [(1, 0) if periodic else (1, 1)] * d
    comps = {(k, l): np.pad(c, pad, mode="wrap" if periodic else "constant")
             for k, l in itertools.product(range(d), repeat=2) if (c := a[..., k, l]).any()}
    stencil = {}
    for delta in itertools.product((-1, 0, 1), repeat=d):
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
            stencil[delta] = coef
    return stencil


def dict_stencil_matrix(stencil: dict):
    """The free-grid `dia_array` of a stencil dict, its diagonals filled after the whole dict exists."""
    shape = next(iter(stencil.values())).shape
    d = len(next(iter(stencil)))
    grid = shape[len(shape) - d:]
    rows = math.prod(shape)

    def on_grid(delta):
        return (...,) + tuple(slice(max(0, -t), n - max(0, t)) for t, n in zip(delta, grid))

    kept = [delta for delta, c in stencil.items() if c[on_grid(delta)].any()]
    strides = [math.prod(grid[axis + 1:]) for axis in range(d)]
    steps = [sum(t * s for t, s in zip(delta, strides)) for delta in kept]
    offsets = list(dict.fromkeys(steps))
    data = np.zeros((len(offsets), rows))
    for delta, step in zip(kept, steps):
        column = (...,) + tuple(slice(max(0, t), n + min(0, t)) for t, n in zip(delta, grid))
        data[offsets.index(step)].reshape(shape)[column] += stencil[delta][on_grid(delta)]
    return scipy.sparse.dia_array((data, offsets), shape=(rows, rows))


def _whole_solve(A, b, h, bc, opts, labels=None, x0=None):
    # one CG per direction row of b; the solution lands in b, or in x0 when given
    shape = b.shape[2:]
    dtype = np.float32 if opts.tol >= solver._SINGLE_TOL else np.float64
    inverse = spectral.pseudo_inverse(getattr(spectral, f"{bc}_symbol")(shape, h)).astype(dtype)
    solve = getattr(spectral, f"{bc}_solve_nodespace")
    project = (lambda v: v) if bc == "dirichlet" else solver._make_projector(shape, False)

    def precondition(r):
        return solve(r.astype(dtype, copy=False), h, inverse=inverse).astype(float, copy=False)

    x = b if x0 is None else np.require(np.reshape(x0, b.shape), float, "CW")
    res, its = np.empty(b.shape[:2]), np.empty(b.shape[:2], dtype=int)
    for i in range(len(b)):
        xi, res[i], its[i] = solver.cg(A, project(b[i]), precondition, opts.tol, opts.maxiter,
                                       labels, None if x0 is None else project(x[i]),
                                       overwrite=True)
        xi = project(xi)
        if not np.may_share_memory(xi, x[i]):
            x[i] = xi
    return x, res, its


def _whole_energy(grad, flux):
    e = np.einsum("...i,...i->...", grad, flux)
    return 0.5 * e.reshape(e.shape[:-grad.shape[-1]] + (-1,)).mean(axis=-1)


def _whole_plane(p, grid):
    axes = np.meshgrid(*[np.arange(n + 1) * grid.h for n in grid.cell_shape], indexing="ij")
    p = np.asarray(p, dtype=float)
    lead = p.shape[:-1] + (1,) * grid.d
    return sum(p[..., i].reshape(lead) * axes[i] for i in range(grid.d))


def _whole_dirichlet(a, u, h, opts, cubes):
    d = a.shape[-1]
    inner = (...,) + (slice(1, -1),) * d
    inside = u[inner]
    res, its = np.zeros(u.shape[:2]), np.zeros(u.shape[:2], dtype=int)
    if inside.size:
        stencil = dict_stencil(a, h, False)
        load = np.zeros(inside.shape)
        for delta, c in stencil.items():
            load -= c[inner] * u[(...,) + tuple(slice(1 + t, n - 1 + t)
                                                for t, n in zip(delta, u.shape[2:]))]
        A = dict_stencil_matrix({delta: c[inner] for delta, c in stencil.items()})
        corr, res, its = _whole_solve(A, load, h, "dirichlet", opts, cubes)
        inside += corr
    grad = discrete_gradient(u, h, False, d=d)
    flux = amul(a, grad)
    return solver._batch_solution(u, grad, flux, res, its, _whole_energy(grad, flux))


def whole_dirichlet_affine(a_field, cube, p, opts):
    """`solve_dirichlet_affine` by the whole-array route."""
    cubes, grid, a = solver._blocks(a_field, cube)
    p, stack = solver._stack(p, grid.d)
    u = np.repeat(_whole_plane(p, grid)[:, None], len(cubes), axis=1)
    return solver._result(_whole_dirichlet(a, u, grid.h, opts, cubes), stack, cube)


def whole_dirichlet_data(a_field, cube, boundary, opts):
    """`solve_dirichlet_data` by the whole-array route."""
    cubes, grid, a = solver._blocks(a_field, cube)
    u = boundary.astype(float, copy=True)[None, None]
    return solver._result(_whole_dirichlet(a, u, grid.h, opts, cubes), (), cube)


def whole_neumann_affine(a_field, cube, q, opts, x0=None):
    """`solve_neumann_affine` by the whole-array route."""
    cubes, grid, a = solver._blocks(a_field, cube)
    h, d = grid.h, grid.d
    axes = tuple(range(2, d + 2))
    q, stack = solver._stack(q, d)
    qcol = q.reshape((len(q), 1) + (1,) * d + (d,))
    b = gradient_adjoint(np.broadcast_to(qcol, (len(q), len(cubes)) + grid.cell_shape + (d,)), h)
    A = dict_stencil_matrix(dict_stencil(a, h, False))
    w, res, its = _whole_solve(A, b, h, "neumann", opts, cubes, x0)
    grad = discrete_gradient(w, h, periodic=False, d=d)
    mean_flux = amul(a, grad).mean(axis=axes)
    abar_cell = a.mean(axis=tuple(range(1, d + 1)))
    c = np.linalg.solve(abar_cell, (q[:, None] - mean_flux)[..., None])[..., 0]
    w += _whole_plane(c, grid)
    w -= w.mean(axis=axes, keepdims=True)
    grad = discrete_gradient(w, h, periodic=False, d=d)
    flux = amul(a, grad)
    qgrad = np.einsum("...i,...i->...", grad, qcol)
    value = qgrad.reshape(qgrad.shape[:2] + (-1,)).sum(axis=-1) / qgrad[0, 0].size
    value -= _whole_energy(grad, flux)
    return solver._result(solver._batch_solution(w, grad, flux, res, its, value), stack, cube)
