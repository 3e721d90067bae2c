"""Triadic-cube geometry, grid calculus, and the multiscale weak-norm estimator.

Grids cover the cube [0, 3^m)^d with k cells per unit length (h = 1/k).
Coefficient-like data lives on cells, solution-like data on nodes.  The
discrete gradient samples the bilinear (trilinear in 3d) element gradient at
the cell center; the divergence is its negative adjoint, so summation by
parts is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import spectral

__all__ = [
    "GridSpec",
    "TriadicCube",
    "triadic_partition",
    "cell_average",
    "discrete_gradient",
    "discrete_divergence",
    "gradient_adjoint",
    "node_to_cell",
    "cell_to_node_adjoint",
    "weak_norm_estimate",
    "dual_norm_oracle",
    "write_field",
    "read_field",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the triadic macro cube [0, 3^m)^d."""

    d: int
    m: int
    k: int

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.d}")
        if self.m < 0:
            raise ValueError(f"macro level must be >= 0, got {self.m}")
        if self.k < 1:
            raise ValueError(f"resolution must be >= 1, got {self.k}")

    @property
    def side(self) -> int:
        """Cells per side."""
        return 3**self.m * self.k

    @property
    def h(self) -> float:
        return 1.0 / self.k

    @property
    def length(self) -> float:
        return float(3**self.m)

    @property
    def cell_shape(self) -> tuple:
        return (self.side,) * self.d

    @property
    def node_shape(self) -> tuple:
        return (self.side + 1,) * self.d

    @property
    def volume(self) -> float:
        return self.length**self.d

    def macro_cube(self) -> "TriadicCube":
        return TriadicCube(self.m, (0,) * self.d)


@dataclass(frozen=True)
class TriadicCube:
    """Level-n cube z + [0, 3^n)^d with z on the 3^n lattice (length units)."""

    level: int
    offset: tuple

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("cube level must be >= 0")
        s = 3**self.level
        for z in self.offset:
            if z % s != 0:
                raise ValueError(f"offset {self.offset} not on the 3^{self.level} lattice")

    @property
    def side_length(self) -> int:
        return 3**self.level

    def check_inside(self, grid: GridSpec) -> None:
        if self.level > grid.m:
            raise ValueError(f"cube level {self.level} exceeds grid level {grid.m}")
        L = 3**grid.m
        for z in self.offset:
            if z < 0 or z + self.side_length > L:
                raise ValueError(f"cube {self} not inside the macro cube of side {L}")

    def cell_slices(self, grid: GridSpec) -> tuple:
        """Slices selecting this cube's cells in a grid-shaped array."""
        self.check_inside(grid)
        k = grid.k
        s = self.side_length
        return tuple(slice(z * k, (z + s) * k) for z in self.offset)

    def node_slices(self, grid: GridSpec) -> tuple:
        self.check_inside(grid)
        k = grid.k
        s = self.side_length
        return tuple(slice(z * k, (z + s) * k + 1) for z in self.offset)

    def side_cells(self, grid: GridSpec) -> int:
        return self.side_length * grid.k


def triadic_partition(cube: TriadicCube, n: int) -> list:
    """The 3^(d(level-n)) level-n cubes tiling `cube` exactly."""
    if not 0 <= n <= cube.level:
        raise ValueError(f"partition level {n} out of range [0, {cube.level}]")
    d = len(cube.offset)
    s = 3**n
    counts = 3 ** (cube.level - n)
    out = []
    for idx in np.ndindex(*(counts,) * d):
        off = tuple(z + i * s for z, i in zip(cube.offset, idx))
        out.append(TriadicCube(n, off))
    return out


def cell_average(f: np.ndarray, grid: GridSpec, cube: TriadicCube) -> np.ndarray:
    """Arithmetic mean of cell values over the cube (scalar or per-component)."""
    sl = cube.cell_slices(grid)
    block = f[sl]
    d = grid.d
    return block.mean(axis=tuple(range(d)))


# ---------------------------------------------------------------------------
# One-dimensional building blocks of the cell-centered element calculus.
# ---------------------------------------------------------------------------


def _diff(u, axis, h, periodic):
    if periodic:
        return (np.roll(u, -1, axis=axis) - u) / h
    lo = [slice(None)] * u.ndim
    hi = [slice(None)] * u.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return (u[tuple(hi)] - u[tuple(lo)]) / h


def _avg(u, axis, periodic):
    if periodic:
        return (np.roll(u, -1, axis=axis) + u) / 2.0
    lo = [slice(None)] * u.ndim
    hi = [slice(None)] * u.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return (u[tuple(hi)] + u[tuple(lo)]) / 2.0


def _diff_adj(w, axis, h, periodic):
    if periodic:
        return (np.roll(w, 1, axis=axis) - w) / h
    shape = list(w.shape)
    shape[axis] += 1
    out = np.zeros(shape, dtype=w.dtype)
    lo = [slice(None)] * w.ndim
    hi = [slice(None)] * w.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    out[tuple(hi)] += w / h
    out[tuple(lo)] -= w / h
    return out


def _avg_adj(w, axis, periodic):
    if periodic:
        return (np.roll(w, 1, axis=axis) + w) / 2.0
    shape = list(w.shape)
    shape[axis] += 1
    out = np.zeros(shape, dtype=w.dtype)
    lo = [slice(None)] * w.ndim
    hi = [slice(None)] * w.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    out[tuple(hi)] += w / 2.0
    out[tuple(lo)] += w / 2.0
    return out


def discrete_gradient(u: np.ndarray, h: float, periodic: bool = False, d: int = None) -> np.ndarray:
    """Cell-centered gradient of a node field over its trailing d axes, shape (*batch, *cells, d).

    `d` defaults to u.ndim (no batch axes).
    """
    d = u.ndim if d is None else d
    comps = []
    for k in range(d):
        v = u
        for axis in range(d):
            if axis == k:
                v = _diff(v, axis - d, h, periodic)
            else:
                v = _avg(v, axis - d, periodic)
        comps.append(v)
    return np.stack(comps, axis=-1)


def gradient_adjoint(g: np.ndarray, h: float, periodic: bool = False) -> np.ndarray:
    """Adjoint of discrete_gradient under plain sums over cells/nodes.

    g has shape (*batch, *cells, d); the node field keeps the batch axes.
    """
    d = g.shape[-1]
    out = None
    for k in range(d):
        v = g[..., k]
        for axis in range(d - 1, -1, -1):
            if axis == k:
                v = _diff_adj(v, axis - d, h, periodic)
            else:
                v = _avg_adj(v, axis - d, periodic)
        out = v if out is None else out + v
    return out


def discrete_divergence(g: np.ndarray, h: float, periodic: bool = False) -> np.ndarray:
    """Node divergence of a cell vector field: negative adjoint of the gradient."""
    return -gradient_adjoint(g, h, periodic)


def node_to_cell(u: np.ndarray, periodic: bool = False) -> np.ndarray:
    """Value at cell centers (mean of the 2^d surrounding nodes)."""
    v = u
    for axis in range(u.ndim):
        v = _avg(v, axis, periodic)
    return v


def cell_to_node_adjoint(f: np.ndarray, periodic: bool = False) -> np.ndarray:
    """Adjoint of node_to_cell; spreads cell data to nodes."""
    v = f
    for axis in range(f.ndim - 1, -1, -1):
        v = _avg_adj(v, axis, periodic)
    return v


# ---------------------------------------------------------------------------
# Multiscale weak-norm estimator and its Neumann oracle.
# ---------------------------------------------------------------------------


def _block_averages(block: np.ndarray, bs: int, d: int) -> np.ndarray:
    """Averages of f over sub-blocks of side bs cells; trailing axes kept."""
    shape = block.shape
    new = []
    for ax in range(d):
        new.extend([shape[ax] // bs, bs])
    new.extend(shape[d:])
    r = block.reshape(new)
    # mean over the per-block axes (odd positions among the first 2d)
    axes = tuple(2 * i + 1 for i in range(d))
    return r.mean(axis=axes)


def weak_norm_estimate(f: np.ndarray, grid: GridSpec, cube: TriadicCube = None) -> float:
    """Multiscale dual-norm upper bound: L2 term plus weighted subcube averages.

    All prefactor constants are set to one; only ratios and scalings matter.
    """
    if cube is None:
        cube = grid.macro_cube()
    sl = cube.cell_slices(grid)
    block = np.asarray(f, dtype=float)[sl]
    d = grid.d
    sq = block**2
    if block.ndim > d:
        sq = sq.sum(axis=tuple(range(d, block.ndim)))
    total = float(np.sqrt(sq.mean()))
    for n in range(cube.level):
        bs = 3**n * grid.k
        av = _block_averages(block, bs, d)
        av_sq = av**2
        if av.ndim > d:
            av_sq = av_sq.sum(axis=tuple(range(d, av.ndim)))
        total += 3.0**n * float(np.sqrt(av_sq.mean()))
    return total


def dual_norm_oracle(f: np.ndarray, grid: GridSpec, cube: TriadicCube = None) -> float:
    """Energy norm of the Neumann solution of -lap v = f - (f) on the cube.

    Solved exactly in the cosine basis of the constant-coefficient operator.
    """
    if cube is None:
        cube = grid.macro_cube()
    sl = cube.cell_slices(grid)
    block = np.asarray(f, dtype=float)[sl]
    if block.ndim != grid.d:
        raise ValueError("dual_norm_oracle expects a scalar cell field")
    block = block - block.mean()
    h = grid.h
    b = cell_to_node_adjoint(block, periodic=False) * h**grid.d
    v = spectral.neumann_solve_nodespace(b, h)
    g = discrete_gradient(v, h, periodic=False)
    vol = float(block.size) * h**grid.d
    return float(np.sqrt(h**grid.d * (g**2).sum() / vol))


# ---------------------------------------------------------------------------
# Field container format: one JSON header line + raw little-endian float64.
# ---------------------------------------------------------------------------


def write_field(path, values: np.ndarray, grid: GridSpec, kind: str, provenance: dict = None):
    header = {
        "d": grid.d,
        "m": grid.m,
        "k": grid.k,
        "kind": kind,
        "shape": list(values.shape),
        "provenance": provenance or {},
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_field(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    grid = GridSpec(header["d"], header["m"], header["k"])
    shape = header["shape"]
    expected = int(np.prod(shape))
    if len(payload) != 8 * expected:
        raise ValueError(f"field file {path}: header shape {shape} needs {expected} float64 "
                         f"values, the payload holds {len(payload) / 8:g}")
    values = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(float)
    return values, grid, header
