"""Deterministic and random uniformly elliptic coefficient fields.

Randomness lives at the unit-cell scale: one draw per cube z + [0,1)^d,
z in Z^d, so the grid resolution k only refines the solver.  Per-cell
streams come from mixing (master seed, the unit cell's linear index on the
level-m lattice) through the splitmix64 finalizer, which makes sampling
independent of iteration order; the index depends on m, so fields of one
seed at two levels do not share their cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import GridSpec, raise_problem

__all__ = [
    "CoefficientField",
    "GaussianFieldParams",
    "make_constant",
    "constant_problem",
    "make_laminate",
    "laminate_problem",
    "sample_checkerboard",
    "checkerboard_problem",
    "sample_gaussian_field",
    "gaussian_problem",
    "tile_unit_cell",
    "mix64",
]

PRNG_NAME = "splitmix64"
_VALIDATE_TOL = 1e-10   # slack of CoefficientField.validate's symmetry and eigenvalue checks


def mix64(seed: int, counter) -> np.ndarray:
    """splitmix64 finalizer applied to seed + golden-ratio stepped counter."""
    with np.errstate(over="ignore"):
        z = (np.uint64(seed)
             + (np.asarray(counter, dtype=np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def _uniform01(seed, counter):
    return (mix64(seed, counter) >> np.uint64(11)).astype(np.float64) * (1.0 / 2**53)


def _standard_normal(seed, counter):
    """Box-Muller on two decorrelated counter streams."""
    c = np.asarray(counter, dtype=np.uint64)
    u1 = _uniform01(seed, c * np.uint64(2))
    u2 = _uniform01(seed, c * np.uint64(2) + np.uint64(1))
    u1 = np.maximum(u1, 1e-300)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@dataclass
class CoefficientField:
    """Per-cell symmetric d x d matrix field with ellipticity bounds."""

    grid: GridSpec
    a: np.ndarray  # shape (*cells, d, d)
    lam: float
    Lam: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        expect = self.grid.cell_shape + (self.grid.d, self.grid.d)
        if self.a.shape != expect:
            raise ValueError(f"coefficient array shape {self.a.shape}, expected {expect}")

    def validate(self) -> None:
        """Cell-by-cell symmetry and eigenvalue check of the ellipticity bounds."""
        d = self.grid.d
        asym = np.abs(self.a - np.swapaxes(self.a, -1, -2)).max()
        if asym > _VALIDATE_TOL:
            raise ValueError(f"coefficient matrices not symmetric (max drift {asym:.2e})")
        ev = np.linalg.eigvalsh(self.a.reshape(-1, d, d))
        if ev.min() < self.lam - _VALIDATE_TOL:
            raise ValueError(f"ellipticity lower bound violated: min eig {ev.min()}")
        if ev.max() > self.Lam + _VALIDATE_TOL:
            raise ValueError(f"ellipticity upper bound violated: max eig {ev.max()}")


@dataclass(frozen=True)
class GaussianFieldParams:
    """Kernel and link parameters for the white-noise convolution field."""

    amplitude: float  # K
    decay: float  # s
    truncation: int = 8  # unit lengths
    Lam: float = 4.0

    def __post_init__(self):
        raise_problem(gaussian_problem(self.amplitude, self.decay, self.truncation, self.Lam))


def gaussian_problem(amplitude: float, decay: float, truncation: int, Lam: float):
    """Why `GaussianFieldParams` rejects these values, as (argument name, reason), or None."""
    for name, ok, reason in (("amplitude", amplitude >= 0, "kernel amplitude must be >= 0"),
                             ("decay", decay > 0, "decay exponent must be > 0"),
                             ("truncation", truncation >= 1, "truncation radius must be >= 1"),
                             ("Lam", Lam >= 1, "upper ellipticity bound must be >= 1")):
        if not ok:
            return name, reason
    return None


def _iso(values: np.ndarray, d: int) -> np.ndarray:
    """Scalar per-cell values -> isotropic matrix field values * I."""
    out = np.zeros(values.shape + (d, d))
    for i in range(d):
        out[..., i, i] = values
    return out


def constant_problem(d: int, matrix):
    """Why `make_constant` cannot use `matrix` in dimension d, as (argument name, reason),
    or None when it can."""
    try:
        matrix = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError):
        return "matrix", f"matrix {matrix!r} is not an array of numbers"
    if matrix.shape != (d, d):
        return "matrix", f"matrix shape {matrix.shape} != ({d}, {d})"
    if not (np.all(np.isfinite(matrix)) and np.allclose(matrix, matrix.T, atol=1e-12)):
        return "matrix", "matrix must be finite and symmetric"
    if np.linalg.eigvalsh(matrix).min() <= 0:
        return "matrix", "matrix must be positive definite"
    return None


def make_constant(grid: GridSpec, matrix: np.ndarray) -> CoefficientField:
    raise_problem(constant_problem(grid.d, matrix))
    matrix = np.asarray(matrix, dtype=float)
    ev = np.linalg.eigvalsh(matrix)
    a = np.broadcast_to(matrix, grid.cell_shape + (grid.d, grid.d)).copy()
    prov = {"generator": "constant", "matrix": matrix.tolist()}
    return CoefficientField(grid, a, float(ev.min()), float(ev.max()), prov)


def laminate_problem(grid: GridSpec, v1: float, v2: float, period: float, axis: int):
    """Why `make_laminate` cannot lay these layers on `grid`, as (argument name, reason),
    or None when it can."""
    for name, value in (("v1", v1), ("v2", v2)):
        if value <= 0:
            return name, "laminate values must be > 0"
    if not 1 <= axis <= grid.d:
        return "axis", f"axis {axis} out of range 1..{grid.d}"
    half_cells = period * grid.k / 2.0
    if abs(half_cells - round(half_cells)) > 1e-12 or round(half_cells) < 1:
        return "period", f"period {period} not aligned to the grid (h = {grid.h})"
    if grid.side % (2 * round(half_cells)) != 0:
        return "period", f"period {period} does not divide the cube side {grid.length}"
    return None


def make_laminate(grid: GridSpec, v1: float, v2: float, period: float, axis: int) -> CoefficientField:
    """Equal-width layers v1*I, v2*I alternating normal to the given axis (1-based)."""
    raise_problem(laminate_problem(grid, v1, v2, period, axis))
    half_cells = int(round(period * grid.k / 2.0))
    idx = np.arange(grid.side) // half_cells % 2
    vals = np.where(idx == 0, v1, v2).astype(float)
    shape = [1] * grid.d
    shape[axis - 1] = grid.side
    scal = np.broadcast_to(vals.reshape(shape), grid.cell_shape)
    prov = {"generator": "laminate", "v1": v1, "v2": v2, "period": period, "axis": axis}
    return CoefficientField(grid, _iso(scal, grid.d), min(v1, v2), max(v1, v2), prov)


def tile_unit_cell(unit: CoefficientField, m: int) -> CoefficientField:
    """Periodic extension of a single-unit-cell field over the level-m cube."""
    if unit.grid.m != 0:
        raise ValueError("tiling expects a field on one unit cell (m = 0)")
    reps = 3**m
    a = np.tile(unit.a, (reps,) * unit.grid.d + (1, 1))
    grid = GridSpec(unit.grid.d, m, unit.grid.k)
    prov = dict(unit.provenance)
    prov["tiled_level"] = m
    return CoefficientField(grid, a, unit.lam, unit.Lam, prov)


def _unit_cells(grid: GridSpec) -> np.ndarray:
    """Row-major linear index of each unit cell on the level-m lattice, shape (3^m,)*d."""
    L = 3**grid.m
    return np.arange(L**grid.d, dtype=np.uint64).reshape((L,) * grid.d)


def _refine(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Per-unit-cell values onto the grid: each repeated k times along every axis."""
    for ax in range(grid.d):
        vals = np.repeat(vals, grid.k, axis=ax)
    return vals


def checkerboard_problem(v_white: float, v_black: float, p_black: float):
    """Why `sample_checkerboard` rejects these values, as (argument name, reason), or None."""
    for name, value in (("v_white", v_white), ("v_black", v_black)):
        if value <= 0:
            return name, "checkerboard values must be > 0"
    if not 0.0 <= p_black <= 1.0:
        return "p_black", "p_black must be a probability"
    return None


def sample_checkerboard(grid: GridSpec, seed: int, v_white: float = 1.0, v_black: float = 4.0,
                        p_black: float = 0.5) -> CoefficientField:
    """iid per-unit-cell field: v_black*I with probability p_black, else v_white*I."""
    raise_problem(checkerboard_problem(v_white, v_black, p_black))
    u = _uniform01(seed, _unit_cells(grid))
    vals = _refine(np.where(u < p_black, v_black, v_white), grid)
    prov = {
        "generator": "checkerboard", "prng": PRNG_NAME, "seed": int(seed),
        "v_white": v_white, "v_black": v_black, "p_black": p_black,
    }
    lo, hi = min(v_white, v_black), max(v_white, v_black)
    return CoefficientField(grid, _iso(vals, grid.d), lo, hi, prov)


def _kernel_stencil(d: int, params: GaussianFieldParams):
    R = params.truncation
    grids = np.meshgrid(*[np.arange(-R, R + 1)] * d, indexing="ij")
    r = np.sqrt(sum(g.astype(float) ** 2 for g in grids))
    f = params.amplitude * (1.0 + r) ** (-(d / 2.0 + params.decay))
    f[r > R] = 0.0
    return f


def gaussian_link(t, Lam: float):
    """Logistic link: Lipschitz, with I <= a0 <= Lam * I."""
    return 1.0 + (Lam - 1.0) / (1.0 + np.exp(-t))


def sample_gaussian_field(grid: GridSpec, seed: int, params: GaussianFieldParams) -> CoefficientField:
    """Kernel-convolved white noise through the logistic link, per unit cell.

    The white noise and the convolution wrap periodically on the macro torus.
    """
    d = grid.d
    W = _standard_normal(seed, _unit_cells(grid))
    f = _kernel_stencil(d, params)
    F = np.zeros_like(W)
    R = params.truncation
    offsets = np.argwhere(f != 0.0)
    for off in offsets:
        w = f[tuple(off)]
        F += w * np.roll(W, shift=tuple(int(o - R) for o in off), axis=tuple(range(d)))
    vals = _refine(gaussian_link(F, params.Lam), grid)
    tail = _kernel_tail_estimate(d, params)
    prov = {
        "generator": "gaussian", "prng": PRNG_NAME, "seed": int(seed),
        "amplitude": params.amplitude, "decay": params.decay,
        "truncation": params.truncation, "Lam": params.Lam,
        "kernel_l2_truncation_error": tail,
    }
    return CoefficientField(grid, _iso(vals, d), 1.0, params.Lam, prov)


def _kernel_tail_estimate(d: int, params: GaussianFieldParams) -> float:
    """Crude upper bound on the discarded kernel l2 mass beyond the cutoff."""
    R = params.truncation
    radii = np.arange(R + 1, 20 * R + 1, dtype=float)
    shell = (2 * d) * (2 * radii + 1) ** (d - 1)
    vals = (params.amplitude * (1.0 + radii) ** (-(d / 2.0 + params.decay))) ** 2
    return float(np.sqrt((shell * vals).sum()))
