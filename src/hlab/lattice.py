"""Triadic-cube geometry, grid calculus, and the multiscale weak-norm estimator.

Grids cover the cube [0, 3^m)^d with k cells per unit length (h = 1/k).
Coefficient-like data lives on cells, solution-like data on nodes.  The
discrete gradient samples the bilinear (trilinear in 3d) element gradient at
the cell center; the divergence is its negative adjoint, so summation by
parts is exact.  Operators with a nearest-neighbour node stencil are
assembled as sparse matrices by `stencil_matrix`, which reads the stencil one
offset at a time: on a free grid each offset's array is copied into its
diagonal, in diagonals allocated once, so no index array is built and no
second copy of the stencil is held; on the torus the matrix is CSR.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse

__all__ = [
    "GridSpec",
    "grid_problem",
    "raise_problem",
    "TriadicCube",
    "triadic_partition",
    "cell_index",
    "discrete_gradient",
    "gradient_adjoint",
    "node_to_cell",
    "stencil_matrix",
    "weak_norm_estimate",
    "write_field",
    "read_field",
]


def raise_problem(problem) -> None:
    """Raise the reason of an (argument name, reason) problem, if there is one."""
    if problem:
        raise ValueError(problem[1])


def grid_problem(d: int, m: int, k: int):
    """Why `GridSpec` rejects these values, as (argument name, reason), or None."""
    if d not in (2, 3):
        return "d", f"dimension must be 2 or 3, got {d}"
    if m < 0:
        return "m", f"macro level must be >= 0, got {m}"
    if k < 1:
        return "k", f"resolution must be >= 1, got {k}"
    return None


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the triadic macro cube [0, 3^m)^d."""

    d: int
    m: int
    k: int

    def __post_init__(self):
        raise_problem(grid_problem(self.d, self.m, self.k))

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


def cell_index(point, cell_shape: tuple, periodic: bool = False, name: str = "point") -> tuple:
    """`point` as integer indices of a cell in an array of `cell_shape`, wrapped if periodic.

    A ValueError names the point and the cell shape when the point has the
    wrong length or a coordinate that is not an integer, or, unless the cells
    wrap periodically, a coordinate outside [0, side).
    """
    coords = tuple(point)
    ok = len(coords) == len(cell_shape) and all(
        isinstance(c, numbers.Integral) and not isinstance(c, bool) for c in coords)
    if ok and not periodic:
        ok = all(0 <= c < n for c, n in zip(coords, cell_shape))
    if not ok:
        where = "" if periodic else " in [0, side)"
        raise ValueError(f"{name} {point!r} must be {len(cell_shape)} integer cell indices"
                         f"{where} for the cell shape {tuple(cell_shape)}")
    return tuple(int(c) % n for c, n in zip(coords, cell_shape))


# ---------------------------------------------------------------------------
# One-dimensional building blocks of the cell-centered element calculus: the
# two-point difference (op np.subtract, div h) or average (np.add, 2) of the
# node pairs (x, x + 1) along one axis, and its adjoint.
# ---------------------------------------------------------------------------


def _ends(ndim, axis):
    lo = [slice(None)] * ndim
    hi = [slice(None)] * ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def _pair(u, axis, periodic, op, div):
    if periodic:
        return op(np.roll(u, -1, axis=axis), u) / div
    lo, hi = _ends(u.ndim, axis)
    return op(u[hi], u[lo]) / div


def _pair_adj(w, axis, periodic, op, div):
    if periodic:
        return op(np.roll(w, 1, axis=axis), w) / div
    shape = list(w.shape)
    shape[axis] += 1
    out = np.zeros(shape, dtype=w.dtype)
    lo, hi = _ends(w.ndim, axis)
    out[hi] += w / div
    out[lo] = op(out[lo], w / div)
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
            op, div = (np.subtract, h) if axis == k else (np.add, 2.0)
            v = _pair(v, axis - d, periodic, op, div)
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
            op, div = (np.subtract, h) if axis == k else (np.add, 2.0)
            v = _pair_adj(v, axis - d, periodic, op, div)
        out = v if out is None else out + v
    return out


def node_to_cell(u: np.ndarray, periodic: bool = False) -> np.ndarray:
    """Value at cell centers (mean of the 2^d surrounding nodes)."""
    v = u
    for axis in range(u.ndim):
        v = _pair(v, axis, periodic, np.add, 2.0)
    return v


def stencil_matrix(stencil, periodic: bool = False, offsets=None):
    """Sparse matrix of a node stencil: row x holds c[x] of offset delta in column x + delta.

    `stencil` yields (delta, c) pairs, one offset at a time: offsets delta in
    {-1, 0, 1}^d and coefficient arrays c of one shape (*batch, *grid), the grid
    being the trailing d axes.  It may be a dict's items() or a generator that
    makes each array as it is read.  The matrix is block-diagonal over the batch
    axes, and offsets whose coefficients all vanish get no entries.

    On a free grid, entries with x + delta off the grid are dropped, and the
    matrix is a `dia_array`: each offset is one diagonal at its flat step, so
    no index array is built.  The diagonals are allocated once, when the first
    pair arrives: one row per flat step of `offsets` (the deltas the stream can
    yield, by default all 3^d), counting only offsets with an on-grid entry.
    Each array is copied into its diagonal as it arrives, so the stream need
    hold one array at a time; if some offset of `offsets` yields no entries,
    the unused rows are cut off by one copy.  On grids of 2 nodes per axis two
    offsets can share a flat step (in 2d, (0, -1) and (-1, 1)); their
    diagonals are summed, as their on-grid entries never fall in one row.  A
    periodic grid wraps x + delta, and a wrapped offset would need full-length
    diagonals of mostly zeros, so the torus matrix is CSR, one entry per kept
    offset and row, with int32 indices below 2^31 entries; it collects the
    stream first, as it lays out rows only once all kept offsets are known.
    """
    pairs = iter(stencil)
    first = next(pairs)
    d = len(first[0])
    shape = first[1].shape
    grid = shape[len(shape) - d:]
    rows = math.prod(shape)
    strides = [math.prod(grid[axis + 1:]) for axis in range(d)]

    def on_grid(delta):
        return (...,) + tuple(slice(None) if periodic else slice(max(0, -t), n - max(0, t))
                              for t, n in zip(delta, grid))

    def flat_step(delta):
        return sum(t * s for t, s in zip(delta, strides))

    if not periodic:
        if offsets is None:
            offsets = itertools.product((-1, 0, 1), repeat=d)
        capacity = len({flat_step(delta) for delta in offsets
                        if all(abs(t) < n for t, n in zip(delta, grid))})
        data = np.empty((capacity, rows))
        steps = []      # in order of first use, which keeps each row's sum in the stream's order
        pairs = itertools.chain([first], pairs)
        del first
        for delta, c in pairs:
            if c[on_grid(delta)].any():
                step = flat_step(delta)
                if step not in steps:
                    data[len(steps)] = 0.0
                    steps.append(step)
                # diagonal entry j is the one in column j
                column = (...,) + tuple(slice(max(0, t), n + min(0, t)) for t, n in zip(delta, grid))
                data[steps.index(step)].reshape(shape)[column] += c[on_grid(delta)]
            del c       # the next array is made only after this one is freed
        if len(steps) < capacity:
            data = data[:len(steps)].copy()
        return scipy.sparse.dia_array((data, steps), shape=(rows, rows))
    stencil = dict(itertools.chain([first], pairs))
    kept = [delta for delta, c in stencil.items() if c[on_grid(delta)].any()]
    index = np.int32 if rows * max(len(kept), 1) < 2**31 else np.int64
    base = np.arange(rows, dtype=index).reshape(shape)
    data = np.empty((rows, len(kept)))
    columns = np.empty((rows, len(kept)), dtype=index)
    for j, delta in enumerate(kept):
        data[:, j].reshape(shape)[...] = stencil[delta]
        shift = 0       # the flat step from x to x + delta, wrapped per axis
        for axis, (t, n) in enumerate(zip(delta, grid)):
            step = ((np.arange(n) + t) % n - np.arange(n)) * strides[axis]
            shift = shift + step.reshape((n,) + (1,) * (d - 1 - axis))
        columns[:, j].reshape(shape)[...] = base + shift
    indptr = np.arange(rows + 1, dtype=index) * len(kept)
    return scipy.sparse.csr_array((data.ravel(), columns.ravel(), indptr), shape=(rows, rows))


# ---------------------------------------------------------------------------
# Multiscale weak-norm estimator.
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


def weak_norm_estimate(f: np.ndarray, grid: GridSpec) -> float:
    """Multiscale dual-norm upper bound on the macro cube: L2 term plus weighted
    subcube averages.

    All prefactor constants are set to one; only ratios and scalings matter.
    """
    block = np.asarray(f, dtype=float)[grid.macro_cube().cell_slices(grid)]
    d = grid.d
    sq = block**2
    if block.ndim > d:
        sq = sq.sum(axis=tuple(range(d, block.ndim)))
    total = float(np.sqrt(sq.mean()))
    av = block
    for n in range(grid.m):
        # level-n block averages from the level-(n-1) ones, 3^d children each
        av = _block_averages(av, 3 if n else grid.k, d)
        av_sq = av**2
        if av.ndim > d:
            av_sq = av_sq.sum(axis=tuple(range(d, av.ndim)))
        total += 3.0**n * float(np.sqrt(av_sq.mean()))
    return total


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
