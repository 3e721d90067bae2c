"""Random-conductance walk and parabolic Green function on the cell network.

Both objects discretize the same generator: sites are grid cells on the
torus, and the edge between neighboring cells carries the harmonic mean of
their axis-diagonal coefficients.  The walk is the variable-speed
continuous-time chain jumping across edge e at rate c_e / h^2; the Green
function time-steps the matching heat equation with implicit Euler.  Their
common homogenized matrix comes from the network's own periodic cell
problem, so discretization bias cancels from the comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .fields import CoefficientField
from .lattice import GridSpec, _diff, _diff_adj
from .solver import _cg, _identity

__all__ = [
    "ConductanceNetwork",
    "DiffusionReport",
    "build_network",
    "network_homogenized_matrix",
    "simulate_walks",
    "parabolic_green",
    "green_symmetry_check",
]


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
    n_paths: int = 0
    seed: int = None
    green_errors: dict = None       # sup/L1 relative errors vs the Gaussian
    nash_margins: dict = None
    mass_drift: float = None
    green_field: np.ndarray = None      # P(t, ., source) over the cells
    gaussian_field: np.ndarray = None   # the homogenized Gaussian it is compared with
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
# network calculus: cells as sites, forward-difference edges with torus wrap,
# i.e. the periodic one-dimensional differences of `hlab.lattice`
# ---------------------------------------------------------------------------


def _net_apply(net: ConductanceNetwork, v):
    h = net.grid.h
    out = np.zeros_like(v)
    for j in range(net.grid.d):
        out += _diff_adj(net.cond[j] * _diff(v, j, h, True), j, h, True)
    return out


def network_homogenized_matrix(net: ConductanceNetwork, tol: float = 1e-10) -> np.ndarray:
    """Homogenized matrix of the conductance network via its cell problem.

    For each axis k, the corrector minimizes the edge Dirichlet energy of
    x_k + chi; the k-th column is the mean corrected edge flux per axis.
    """
    grid = net.grid
    d, h = grid.d, grid.h
    sym = spectral.network_symbol(grid.cell_shape, h)

    def M(r):
        return spectral.torus_solve_nodespace(r, h, sym)

    abar = np.zeros((d, d))
    for k in range(d):
        b = -_diff_adj(net.cond[k], k, h, True)
        chi, _, _ = _cg(lambda v: _net_apply(net, v[0])[None], (b - b.mean())[None], M,
                        _identity, tol, 10_000)
        chi = chi[0]
        for j in range(d):
            slope = _diff(chi, j, h, True) + (1.0 if j == k else 0.0)
            abar[j, k] = (net.cond[j] * slope).mean()
    return 0.5 * (abar + abar.T)


# ---------------------------------------------------------------------------
# variable-speed continuous-time walk
# ---------------------------------------------------------------------------


def simulate_walks(net: ConductanceNetwork, T: float, n_paths: int, seed: int,
                   sample_times=None) -> DiffusionReport:
    """Covariance of the unwrapped displacement at the sampled times.

    All paths start at the origin cell; the environment wraps on the torus
    while displacements accumulate unwrapped.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    grid = net.grid
    d, h, side = grid.d, grid.h, grid.side
    if sample_times is None:
        sample_times = [T / 2.0, 3.0 * T / 4.0, T]
    sample_times = sorted(float(s) for s in sample_times)
    if sample_times[-1] > T:
        raise ValueError("sample times must lie within the horizon")

    rng = np.random.default_rng(seed)
    pos = np.zeros((n_paths, d), dtype=np.int64)     # unwrapped, lattice steps
    t = np.zeros(n_paths)
    S = len(sample_times)
    recorded = np.zeros((S, n_paths, d))
    inv_h2 = 1.0 / (h * h)

    active = t < T
    while active.any():
        idx = np.nonzero(active)[0]
        site = tuple((pos[idx, j] % side) for j in range(d))
        rates = np.empty((idx.size, 2 * d))
        for j in range(d):
            rates[:, 2 * j] = net.cond[j][site] * inv_h2            # +e_j
            back = list(site)
            back[j] = (site[j] - 1) % side
            rates[:, 2 * j + 1] = net.cond[j][tuple(back)] * inv_h2  # -e_j
        total = rates.sum(axis=1)
        tn = t[idx] + rng.exponential(1.0 / total)

        for si, s in enumerate(sample_times):
            hit = (t[idx] <= s) & (s < tn)
            if hit.any():
                recorded[si, idx[hit]] = pos[idx[hit]]

        u = rng.random(idx.size) * total
        choice = (rates.cumsum(axis=1) < u[:, None]).sum(axis=1)
        choice = np.minimum(choice, 2 * d - 1)
        axis = choice // 2
        step = np.where(choice % 2 == 0, 1, -1)
        pos[idx, axis] += step
        t[idx] = tn
        active = t < T

    covs, means = [], []
    for si in range(S):
        X = recorded[si] * h
        means.append(X.mean(axis=0))
        covs.append(np.cov(X.T))
    return DiffusionReport(
        times=sample_times, covariances=covs, mean_displacement=means,
        target=2.0 * network_homogenized_matrix(net),
        n_paths=n_paths, seed=int(seed),
        metadata={"generator": "variable-speed continuous-time walk",
                  "rng": "numpy.default_rng"},
    )


# ---------------------------------------------------------------------------
# parabolic Green function (implicit Euler on the network generator)
# ---------------------------------------------------------------------------


def parabolic_green(a_field: CoefficientField, t_final: float, source,
                    dt: float = 0.25, tol: float = 1e-11,
                    abar: np.ndarray = None) -> DiffusionReport:
    """Green density P(t, ., source) with Gaussian comparison and margins.

    Each implicit-Euler step solves (I + dt A) u_new = u_old by CG with an
    exact constant-coefficient preconditioner; the scheme conserves mass up
    to the solve tolerance.
    """
    net = build_network(a_field)
    grid = net.grid
    d, h, side = grid.d, grid.h, grid.side
    n_steps = int(round(t_final / dt))
    if not np.isclose(n_steps * dt, t_final):
        raise ValueError("horizon must be an integer number of steps")

    denom = 1.0 + dt * spectral.network_symbol(grid.cell_shape, h)

    def M(r):
        return spectral.torus_solve_nodespace(r, h, denom)

    u = np.zeros(grid.cell_shape)
    u[tuple(source)] = 1.0 / h**d          # unit-mass density
    cell_mass = h**d
    mass_drift = 0.0
    iters = 0
    for _ in range(n_steps):
        before = u.sum() * cell_mass
        u, _, it = _cg(lambda v: v + dt * _net_apply(net, v[0]), u[None], M, _identity, tol, 5000)
        u = u[0]
        iters += int(it[0])
        mass_drift = max(mass_drift, abs(u.sum() * cell_mass - before))

    if abar is None:
        abar = network_homogenized_matrix(net)
    abar = np.asarray(abar, dtype=float)
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
        times=[t_final], target=2.0 * abar,
        green_errors={"sup_rel_bulk": sup_rel, "l1_rel": l1_rel,
                      "bulk_radius": 2.0 * np.sqrt(t_final)},
        nash_margins={"upper_C": upper_margin, "lower_c": lower_margin,
                      "window_radius": 3.0 * np.sqrt(t_final)},
        mass_drift=float(mass_drift),
        green_field=u, gaussian_field=Pbar,
        metadata={"dt": dt, "steps": n_steps, "cg_iterations": iters},
    )


def green_symmetry_check(a_field: CoefficientField, t_final: float, x, y,
                         dt: float = 0.25, tol: float = 1e-11) -> float:
    """|P(t, y, x) - P(t, x, y)| for one source/target pair."""
    px = parabolic_green(a_field, t_final, x, dt, tol).green_field
    py = parabolic_green(a_field, t_final, y, dt, tol).green_field
    return float(abs(px[tuple(y)] - py[tuple(x)]))
