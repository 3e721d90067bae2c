"""Random-conductance walk and parabolic Green function on the cell network.

Both objects discretize the same generator: sites are grid cells on the
torus, and the edge between neighboring cells carries the harmonic mean of
their axis-diagonal coefficients.  The walk is the variable-speed
continuous-time chain jumping across edge e at rate c_e / h^2.  It is sampled
by uniformization (A. Jensen, Skand. Aktuarietidskr. 36, 1953): Poisson event
counts at the largest site rate, and routes drawn several events at a time
from Walker alias tables of the block's law, so its law is kept but not the
draws of a jump-by-jump loop.  The Green
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
    "green_step_count",
    "parabolic_green",
    "green_symmetry_check",
]

CELL_TOL = 1e-10    # CG tolerance of the network's periodic cell problem
STEP_TOL = 1e-11    # CG tolerance of each implicit-Euler step of the Green function
TABLE_SLOTS = 2**17  # past K = 2, the walk's alias-table slots: sites times outcomes, all levels
SLOT_DRAWS = 8       # a walk table slot costs the build about as much as this many path draws


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


def _behind(net: ConductanceNetwork) -> list:
    """Per axis j: array over cells, the conductance of the edge (x - h e_j, x)."""
    return [np.roll(c, 1, axis=j) for j, c in enumerate(net.cond)]


def network_operator(net: ConductanceNetwork):
    """The network Laplacian sum_j D_j^T c_j D_j on the torus cells, as a sparse matrix,
    with D_j v = (v(x + h e_j) - v(x)) / h and c_j the conductance of the edge (x, x + h e_j)."""
    d, h = net.grid.d, net.grid.h
    behind = _behind(net)
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


def _site_rates(net: ConductanceNetwork) -> np.ndarray:
    """The (sites, 2d) rates of each site's moves, in the order +e_0, -e_0, +e_1, ...:
    +e_j across the edge (x, x + h e_j), -e_j across (x - h e_j, x)."""
    edges = [c for pair in zip(net.cond, _behind(net)) for c in pair]
    return np.stack([c.ravel() for c in edges], axis=1) * (1.0 / net.grid.h**2)


def _ball(radius: int, d: int):
    """The displacements of L1 norm <= radius as an (n, d) array, and a lookup over the
    box [-radius, radius]^d that gives each one's row (-1 outside the ball)."""
    box = np.indices((2 * radius + 1,) * d) - radius
    inside = np.abs(box).sum(axis=0) <= radius
    lookup = np.full(inside.shape, -1, dtype=np.intp)
    lookup[inside] = np.arange(np.count_nonzero(inside))
    return box[:, inside].T, lookup


def _alias(p: np.ndarray):
    """Walker's alias tables (accept, alias) of each row of p, by Vose's pairing on the
    row sorted ascending, all rows at once: with k uniform over a row's n outcomes, k is
    kept with probability accept[k] and replaced by alias[k] otherwise.  The alias table
    takes the smallest integer type that holds the outcomes."""
    n_rows, n = p.shape
    order = np.argsort(p, axis=1).astype(np.min_scalar_type(n - 1))
    accept = np.take_along_axis(p, order, axis=1)
    accept *= n                     # each row sums to n; entries become accepts in place
    alias = np.empty(p.shape, dtype=order.dtype)
    acc, ali = accept.reshape(-1), alias.reshape(-1)     # flat views, row r at r * n
    base = np.arange(0, n_rows * n, n)
    small = base.copy()             # the next entry from the left
    large = base + (n - 1)          # the entry that gives away its excess
    rest = acc[large]               # what `large` still holds
    for _ in range(n - 1):
        # `large` tops up `small` while it holds at least 1; below 1 it is closed and the
        # next entry down, above the mean of what is left, takes over
        fill = rest >= 1.0
        closed = np.where(fill, small, large)
        weight = acc.take(small)
        acc[closed] = np.where(fill, weight, rest)
        ali[closed] = np.where(fill, large, large - 1) - base
        rest = np.where(fill, rest - (1.0 - weight), acc.take(large - 1) - (1.0 - rest))
        small += fill
        large -= ~fill
    acc[small] = 1.0                # the last entry
    ali[small] = small - base
    out_accept, out_alias = np.empty_like(accept), np.empty_like(alias)
    np.put_along_axis(out_accept, order, accept, axis=1)
    np.put_along_axis(out_alias, order, np.take_along_axis(order, alias, axis=1), axis=1)
    return out_accept, out_alias


def _walk_tables(grid: GridSpec, rates: np.ndarray, levels: int) -> list:
    """Alias tables of the laws of 1, 2, 4, ..., 2^levels uniformized events from each site.

    On the chain lifted to (site, unwrapped displacement), one event moves by +-e_j with
    probability rate / Lam* and stays with probability 1 - total / Lam*, Lam* the largest
    site total.  The law of 2n events composes that of n with itself over the L1 ball of
    radius 2n.  Per level: (cut, alias, destination cell), flat over (site, outcome), the
    cut of outcome k being k + its accept, and the outcomes' displacements (outcomes, d).
    """
    d, side = grid.d, grid.side
    total = rates.sum(axis=1)
    rate = total.max()
    moves = np.stack([sign * e for e in np.eye(d, dtype=np.intp) for sign in (1, -1)])
    disp, lookup = _ball(1, d)
    p = np.empty((len(total), len(disp)))
    p[:, lookup[tuple(moves.T + 1)]] = rates / rate
    p[:, lookup[(1,) * d]] = (rate - total) / rate
    tables = []
    for level in range(levels + 1):
        if level:
            radius = 2 ** (level - 1)
            wide, lookup = _ball(2 * radius, d)
            law = np.zeros((len(total), len(wide)))
            for i, v in enumerate(disp):
                law[:, lookup[tuple((disp + v + 2 * radius).T)]] += p[:, i, None] * p[dest[:, i]]
            disp, p = wide, law
        # the destination's flat index, one axis at a time, in the smallest type that fits
        dest = np.zeros(grid.cell_shape + (len(disp),), dtype=np.min_scalar_type(-len(total)))
        for j in range(d):
            coord = np.arange(side).reshape([-1 if i == j else 1 for i in range(d + 1)])
            dest += (coord + disp[:, j]) % side * side ** (d - 1 - j)
        dest = dest.reshape(len(total), -1)
        accept, alias = _alias(p)
        accept += np.arange(len(disp))          # the cut k + accept[k] of each outcome k
        tables.append((accept.ravel(), alias.ravel(), dest.ravel(), disp))
    return tables


def _advance(table, cell, pos, rng):
    """One block of events for the paths in `cell`: adds each displacement to `pos` in
    place and returns the cells the paths end in.  One uniform u on [0, n) per path
    picks outcome k = floor(u), kept if u < k + accept[k] and replaced by its alias otherwise."""
    cut, alias, dest, disp = table
    n = np.intp(len(disp))      # a numpy integer: cell * n takes its type, not cell's small one
    u = rng.random(cell.size)
    u *= n
    k = u.astype(np.intp)
    row = cell * n
    out = np.where(u < cut.take(row + k), k, alias.take(row + k))
    pos += np.take(disp, out, axis=0)
    return dest.take(row + out)


def _walk_displacements(net: ConductanceNetwork, sample_times: list, n_paths: int, seed: int):
    """The unwrapped displacements (times, paths, d), in lattice steps, at the sorted
    sample times; the segments' event counts (times, paths); Lam*; K; the loop steps.
    The paths are exchangeable, so rows of two times need not be the same path."""
    grid = net.grid
    d, n_sites = grid.d, grid.side**grid.d
    rates = _site_rates(net)
    rate = rates.sum(axis=1).max()
    spans = np.diff(sample_times, prepend=0.0)

    def fits(levels):       # K = 2^levels
        outcomes = [len(_ball(2**level, d)[0]) for level in range(levels + 1)]
        return (outcomes[-1] <= rate * spans.max()
                and SLOT_DRAWS * n_sites * outcomes[-1] <= n_paths * rate * spans.sum() / 2**levels
                and (levels == 1 or n_sites * sum(outcomes) <= TABLE_SLOTS))

    levels = 0
    while fits(levels + 1):
        levels += 1
    tables = _walk_tables(grid, rates, levels)

    rng = np.random.default_rng(seed)
    counts = rng.poisson(rate * spans[:, None], size=(len(spans), n_paths))
    cell = np.zeros(n_paths, dtype=np.intp)
    pos = np.zeros((n_paths, d), dtype=np.int64)
    recorded = np.empty((len(spans), n_paths, d), dtype=np.int64)
    steps = 0
    for si, count in enumerate(counts):
        # sorted by count, descending, the paths with a whole block left at block step t
        # are the first live[t]; the bits of each remainder, largest first, follow
        order = np.argsort(count)[::-1]
        cell, pos, count = cell[order], pos[order], count[order]
        live = n_paths - np.cumsum(np.bincount(count >> levels))[:-1]
        for n in live:
            cell[:n] = _advance(tables[levels], cell[:n], pos[:n], rng)
        steps += len(live)
        for level in reversed(range(levels)):
            idx = np.flatnonzero(count >> level & 1)
            if idx.size:
                moved = pos[idx]
                cell[idx] = _advance(tables[level], cell[idx], moved, rng)
                pos[idx] = moved
                steps += 1
        recorded[si] = pos
    return recorded, counts, float(rate), 2**levels, steps


def simulate_walks(net: ConductanceNetwork, T: float, n_paths: int, seed: int,
                   sample_times=None) -> DiffusionReport:
    """Covariance of the unwrapped displacement at the sampled times.

    All paths start at the origin cell; the environment wraps on the torus while
    displacements accumulate unwrapped.  The walk is sampled by uniformization at the
    largest site total Lam*: a path's event count in each segment between sample times
    is one Poisson draw, and each loop step advances every path with events left by the
    largest power of two <= min(K, events left), from alias tables of that block's law
    (`_walk_tables`).  K is the largest power of two whose level pays for its tables: no
    more outcomes than the longest segment's expected count (each costs the build about
    one loop step), no more slots (sites times outcomes) than the path draws it saves
    over `SLOT_DRAWS`, and past K = 2 all levels within `TABLE_SLOTS`.  The law is exact
    up to the tables' rounding; the draws are not those of a jump-by-jump loop.
    `metadata` holds the work: `rate` (Lam*), `block` (K), `events` (the counts' sum)
    and `steps` (loop steps).
    """
    if not isinstance(n_paths, (int, np.integer)) or n_paths < 2:
        raise ValueError(f"n_paths must be an integer >= 2, got n_paths = {n_paths!r}")
    if not 0 < T < np.inf:
        raise ValueError(f"horizon T must be finite and > 0, got {T!r}")
    if sample_times is None:
        sample_times = [T / 2.0, 3.0 * T / 4.0, T]
    sample_times = [float(s) for s in sample_times]
    if not sample_times:
        raise ValueError("sample_times must not be empty")
    for s in sample_times:      # before sorting, which would keep a NaN inside the list
        if not 0 <= s <= T:
            raise ValueError(f"sample time {s!r} must lie in [0, T = {T!r}]")
    sample_times = sorted(sample_times)

    recorded, counts, rate, block, steps = _walk_displacements(net, sample_times, n_paths, seed)
    X = recorded * net.grid.h
    return DiffusionReport(
        times=sample_times, covariances=[np.cov(x.T) for x in X],
        mean_displacement=[x.mean(axis=0) for x in X],
        target=2.0 * network_homogenized_matrix(net),
        metadata={"rate": rate, "block": block, "events": int(counts.sum()), "steps": steps},
    )


# ---------------------------------------------------------------------------
# parabolic Green function (implicit Euler on the network generator)
# ---------------------------------------------------------------------------


def green_step_count(t_final: float, dt: float) -> int:
    """The number n >= 1 of implicit-Euler steps dt with n dt = t_final (up to
    np.isclose), or a ValueError that names the time that breaks the rule."""
    if not 0 < t_final < np.inf:
        raise ValueError(f"horizon t_final must be finite and > 0, got {t_final!r}")
    if not 0 < dt < np.inf:
        raise ValueError(f"time step dt must be finite and > 0, got {dt!r}")
    n_steps = int(round(t_final / dt))
    if n_steps < 1 or not np.isclose(n_steps * dt, t_final):
        raise ValueError(f"horizon t_final = {t_final!r} must be a whole number >= 1 of "
                         f"steps dt = {dt!r}")
    return n_steps


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
    n_steps = green_step_count(t_final, dt)
    grid = net.grid
    d, h, side = grid.d, grid.h, grid.side
    source = cell_index(source, grid.cell_shape, name="source")

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
