"""Random-conductance walk and parabolic Green function on the cell network.

Both objects discretize the same generator: sites are grid cells on the
torus, and the edge between neighboring cells carries the harmonic mean of
their axis-diagonal coefficients.  The walk is the variable-speed
continuous-time chain jumping across edge e at rate c_e / h^2; the Green
function time-steps the matching heat equation with implicit Euler, each
step a CG without a preconditioner: the spectrum of I + dt A lies in
[1, 1 + dt 4d Lam / h^2], narrow on the unit lattice, and every residual has
mean zero, so mass is conserved to rounding.  Their common homogenized matrix
comes from the network's own periodic cell problem, so discretization bias
cancels from the comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import spectral
from .fields import CoefficientField
from .lattice import GridSpec, cell_index, stencil_matrix
from .solver import cg

__all__ = [
    "ConductanceNetwork",
    "DiffusionReport",
    "build_network",
    "network_operator",
    "network_homogenized_matrix",
    "simulate_walks",
    "parabolic_green",
    "green_symmetry_check",
]

CELL_TOL = 1e-10    # CG tolerance of the network's periodic cell problem
STEP_TOL = 1e-11    # CG tolerance of each implicit-Euler step of the Green function


@dataclass
class ConductanceNetwork:
    grid: GridSpec
    cond: list     # per axis j: array over cells, edge (x, x + h e_j)
    lam: float
    Lam: float


@dataclass
class DiffusionReport:
    """Walk covariance and/or Green-function comparison results."""

    times: list = None
    covariances: list = None        # empirical cov(X_t) per sample time
    mean_displacement: list = None
    target: np.ndarray = None       # 2 abar_net
    green_errors: dict = None       # sup/L1 relative errors vs the Gaussian
    nash_margins: dict = None
    mass_drift: float = None
    green_field: np.ndarray = None  # P(t, ., source) over the cells
    metadata: dict = field(default_factory=dict)


def build_network(a_field: CoefficientField) -> ConductanceNetwork:
    """Harmonic-mean edge conductances from the axis-diagonal coefficients."""
    d = a_field.grid.d
    cond = []
    for j in range(d):
        aj = a_field.a[..., j, j]
        cond.append(2.0 / (1.0 / aj + 1.0 / np.roll(aj, -1, axis=j)))
    return ConductanceNetwork(a_field.grid, cond, a_field.lam, a_field.Lam)


# ---------------------------------------------------------------------------
# the network Laplacian: cells as sites, forward-difference edges with torus wrap
# ---------------------------------------------------------------------------


def network_operator(net: ConductanceNetwork):
    """The network Laplacian sum_j D_j^T c_j D_j on the torus cells, as a sparse matrix,
    with D_j v = (v(x + h e_j) - v(x)) / h and c_j the conductance of the edge (x, x + h e_j)."""
    d, h = net.grid.d, net.grid.h
    behind = [np.roll(c, 1, axis=j) for j, c in enumerate(net.cond)]   # edges (x - h e_j, x)
    stencil = {(0,) * d: sum(c + b for c, b in zip(net.cond, behind)) / h**2}
    for e, c, b in zip(np.eye(d, dtype=int), net.cond, behind):
        stencil[tuple(e)], stencil[tuple(-e)] = -c / h**2, -b / h**2
    return stencil_matrix(stencil.items(), periodic=True)


def network_homogenized_matrix(net: ConductanceNetwork) -> np.ndarray:
    """Homogenized matrix of the conductance network via its cell problem.

    The corrector chi_k of axis k minimizes the edge Dirichlet energy of
    x_k + chi_k, so L chi_k = b_k = -D_k^T c_k; each axis runs one CG over L.
    Column k is the mean corrected edge flux per axis, read by summation by
    parts: mean(c_j (D_j chi_k + delta_jk)) = delta_jk mean(c_k) - mean(b_j chi_k).
    """
    grid = net.grid
    d, h = grid.d, grid.h
    A = network_operator(net)
    inverse = spectral.pseudo_inverse(spectral.network_symbol(grid.cell_shape, h))
    b = np.stack([(c - np.roll(c, 1, axis=k)) / h for k, c in enumerate(net.cond)])
    b -= b.mean(axis=tuple(range(1, d + 1)), keepdims=True)

    def precondition(r):
        return spectral.torus_solve_nodespace(r, h, inverse=inverse)

    chi = np.concatenate([cg(A, bk[None], precondition, CELL_TOL, 10_000)[0] for bk in b])
    flux_gain = b.reshape(d, -1) @ chi.reshape(d, -1).T / b[0].size
    abar = np.diag([c.mean() for c in net.cond]) - flux_gain
    return 0.5 * (abar + abar.T)


# ---------------------------------------------------------------------------
# variable-speed continuous-time walk
# ---------------------------------------------------------------------------


def simulate_walks(net: ConductanceNetwork, T: float, n_paths: int, seed: int,
                   sample_times=None) -> DiffusionReport:
    """Covariance of the unwrapped displacement at the sampled times.

    All paths start at the origin cell; the environment wraps on the torus
    while displacements accumulate unwrapped.  The site tables are built once
    per call: the rate of each of the 2d moves (+e_j across the edge
    (x, x + h e_j), -e_j across (x - h e_j, x)), their total and its inverse,
    the cumulative-rate thresholds one contiguous column per move but the
    last, and the flat index of the neighbour each move lands on.  Each step gathers from
    them by a flat cell index per path, and the arrays of running paths are
    compacted, in ascending path order, only when some path passes T.  Every
    step draws one exponential holding time and then one uniform move choice
    per running path, so the same seed gives the same draws, and the same
    bits, as a loop that recomputes the rates at every step.
    """
    if n_paths < 2:
        raise ValueError(f"need at least 2 paths, got n_paths = {n_paths!r}")
    if not 0 < T < np.inf:
        raise ValueError(f"horizon T must be finite and > 0, got {T!r}")
    grid = net.grid
    d, h, side = grid.d, grid.h, grid.side
    if sample_times is None:
        sample_times = [T / 2.0, 3.0 * T / 4.0, T]
    sample_times = [float(s) for s in sample_times]
    if not sample_times:
        raise ValueError("sample_times must not be empty")
    for s in sample_times:      # before sorting, which would keep a NaN inside the list
        if not 0 <= s <= T:
            raise ValueError(f"sample time {s!r} must lie in [0, T = {T!r}]")
    sample_times = sorted(sample_times)

    n_moves = 2 * d
    inv_h2 = 1.0 / (h * h)
    sites = np.arange(side**d).reshape(grid.cell_shape)
    rates = np.empty((side**d, n_moves))
    nbr = np.empty((side**d, n_moves), dtype=np.intp)
    move = np.zeros((n_moves, d), dtype=np.int64)
    for j, c in enumerate(net.cond):
        rates[:, 2 * j] = c.ravel() * inv_h2                               # +e_j
        rates[:, 2 * j + 1] = np.roll(c, 1, axis=j).ravel() * inv_h2       # -e_j
        nbr[:, 2 * j] = np.roll(sites, -1, axis=j).ravel()
        nbr[:, 2 * j + 1] = np.roll(sites, 1, axis=j).ravel()
        move[2 * j, j], move[2 * j + 1, j] = 1, -1
    total = rates.sum(axis=1)
    scale = 1.0 / total
    # the last move takes whatever lies past the other thresholds, rounding included;
    # the thresholds never decrease, so counting only these gives the same move
    thresholds = [np.ascontiguousarray(col) for col in rates.cumsum(axis=1).T[:-1]]
    nbr = nbr.ravel()

    rng = np.random.default_rng(seed)
    S = len(sample_times)
    recorded = np.zeros((S, n_paths, d))
    ids = np.arange(n_paths)                         # the running paths, ascending
    pos = np.zeros((n_paths, d), dtype=np.int64)     # unwrapped, lattice steps
    t = np.zeros(n_paths)
    cell = np.zeros(n_paths, dtype=np.intp)          # flat index of pos on the torus

    # rows of the (n, d) arrays move by np.take / np.compress: fancy and boolean
    # row indexing cost about ten times as much per step
    while ids.size:
        n = ids.size
        # numpy's exponential(1 / total) is (1 / total) * standard_exponential: same bits
        tn = rng.standard_exponential(n) * scale[cell] + t
        for si, s in enumerate(sample_times):
            hit = (t <= s) & (s < tn)
            if hit.any():
                recorded[si, ids[hit]] = np.compress(hit, pos, axis=0)

        u = rng.random(n) * total[cell]
        choice = (thresholds[0][cell] < u).astype(np.intp)
        for cum in thresholds[1:]:
            choice += cum[cell] < u
        pos += np.take(move, choice, axis=0)
        cell = nbr[cell * n_moves + choice]
        t = tn
        running = t < T
        if not running.all():
            ids, t, cell = ids[running], t[running], cell[running]
            pos = np.compress(running, pos, axis=0)

    covs, means = [], []
    for si in range(S):
        X = recorded[si] * h
        means.append(X.mean(axis=0))
        covs.append(np.cov(X.T))
    return DiffusionReport(
        times=sample_times, covariances=covs, mean_displacement=means,
        target=2.0 * network_homogenized_matrix(net),
    )


# ---------------------------------------------------------------------------
# parabolic Green function (implicit Euler on the network generator)
# ---------------------------------------------------------------------------


def _green_steps(net: ConductanceNetwork, t_final: float, source, dt: float):
    """Implicit-Euler density P(t_final, ., source): (density, steps, CG iterations, mass drift).

    `source` holds the integer indices of a cell.  Each step solves
    (I + dt A) u_new = u_old by CG without a preconditioner, starting from the
    linear extrapolation 2 u_n - u_(n-1) of the last two densities (the first
    step from u_0).  By Gershgorin the spectrum of I + dt A lies in
    [1, 1 + dt 4d Lam / h^2], so on the unit lattice its condition number is
    small (at most 2.6 for d = 2, Lam = 4, dt = 0.05), and no transform is paid
    per iteration.  The guess carries the exact mass, and the columns of A sum
    to zero, so every residual and every correction has mean zero: the scheme
    conserves mass to rounding.
    """
    if not 0 < t_final < np.inf:
        raise ValueError(f"horizon t_final must be finite and > 0, got {t_final!r}")
    if not 0 < dt < np.inf:
        raise ValueError(f"time step dt must be finite and > 0, got {dt!r}")
    grid = net.grid
    d, h, side = grid.d, grid.h, grid.side
    source = cell_index(source, grid.cell_shape, name="source")
    n_steps = int(round(t_final / dt))
    if n_steps < 1 or not np.isclose(n_steps * dt, t_final):
        raise ValueError(f"horizon t_final = {t_final!r} must be an integer number of "
                         f"steps dt = {dt!r}")

    step = scipy.sparse.identity(side**d, format="csr") + dt * network_operator(net)
    u = np.zeros(grid.cell_shape)
    u[source] = 1.0 / h**d                 # unit-mass density
    guess = u
    cell_mass = h**d
    mass_drift = 0.0
    iters = 0
    for _ in range(n_steps):
        before = u.sum() * cell_mass
        new, _, it = cg(step, u[None], lambda r: r, STEP_TOL, 5000, x0=guess[None])
        new = new[0]
        iters += int(it[0])
        mass_drift = max(mass_drift, abs(new.sum() * cell_mass - before))
        guess = 2.0 * new - u
        u = new
    return u, n_steps, iters, mass_drift


def parabolic_green(a_field: CoefficientField, t_final: float, source,
                    dt: float = 0.25) -> DiffusionReport:
    """Green density P(t, ., source) with Gaussian comparison and margins.

    `source` holds the integer indices of a cell; the density comes from
    implicit-Euler steps on the cell network (`_green_steps`), and the
    Gaussian comparison from the network's homogenized matrix.
    """
    source = cell_index(source, a_field.grid.cell_shape, name="source")
    net = build_network(a_field)
    u, n_steps, iters, mass_drift = _green_steps(net, t_final, source, dt)
    grid = net.grid
    d, h, side = grid.d, grid.h, grid.side

    abar = network_homogenized_matrix(net)
    ainv = np.linalg.inv(abar)
    det = np.linalg.det(abar)

    # displacements from the source with torus wrap to the nearest image
    offs = []
    for j in range(d):
        o = (np.arange(side) - source[j] + side // 2) % side - side // 2
        offs.append(o * h)
    Xg = np.meshgrid(*offs, indexing="ij")
    X = np.stack(Xg, axis=-1)
    r2 = np.einsum("...i,ij,...j->...", X, ainv, X)
    Pbar = np.exp(-r2 / (4.0 * t_final)) / (np.sqrt(det) * (4.0 * np.pi * t_final) ** (d / 2.0))

    dist2 = (X**2).sum(axis=-1)
    bulk = dist2 <= (2.0 * np.sqrt(t_final)) ** 2
    wide = dist2 <= (3.0 * np.sqrt(t_final)) ** 2
    sup_rel = float(np.abs(u[bulk] - Pbar[bulk]).max() / Pbar[bulk].max())
    l1_rel = float(np.abs(u - Pbar).sum() / Pbar.sum())

    def gaussian(s):
        return np.exp(-dist2 / (4.0 * s * t_final)) / (4.0 * np.pi * s * t_final) ** (d / 2.0)

    pos = u[wide] > 0
    upper_margin = float((u[wide] / gaussian(net.lam)[wide]).max())
    lower_margin = float((u[wide][pos] / gaussian(net.Lam)[wide][pos]).min()) if pos.any() else 0.0

    return DiffusionReport(
        green_errors={"sup_rel_bulk": sup_rel, "l1_rel": l1_rel,
                      "bulk_radius": 2.0 * np.sqrt(t_final)},
        nash_margins={"upper_C": upper_margin, "lower_c": lower_margin,
                      "window_radius": 3.0 * np.sqrt(t_final)},
        mass_drift=float(mass_drift),
        green_field=u,
        metadata={"steps": n_steps, "cg_iterations": iters},
    )


def green_symmetry_check(a_field: CoefficientField, t_final: float, x, y,
                         dt: float = 0.25) -> float:
    """|P(t, y, x) - P(t, x, y)| for one source/target pair.

    Only the two densities are computed: no cell problem, no Gaussian comparison.
    """
    net = build_network(a_field)
    px = _green_steps(net, t_final, x, dt)[0]
    py = _green_steps(net, t_final, y, dt)[0]
    return float(abs(px[tuple(y)] - py[tuple(x)]))
