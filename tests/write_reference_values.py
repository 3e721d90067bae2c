"""Committed reference values: outputs of fixed seeded runs, and the script that writes them.

`compute()` runs every input below and returns {name: (kind, values)}; the kind
names how `test_reference_values.py` compares a recomputed entry with the
committed one in `reference_values.json`:

- "exact": iteration counts, digests of the seeded fields' bytes and the walk's
  covariances, equal bit for bit;
- "solve": solve outputs, within 1e-10 of the entry's largest magnitude;
- "green": the implicit-Euler Green density, within 1e-9 of its largest value;
- "tol": quantities of the size of the solver tolerance (the flux correctors'
  divergence residuals), within 1e-12 absolute.

A change that moves a value beyond its tolerance on purpose regenerates the
file, from the repository root, with

    PYTHONPATH=src python tests/write_reference_values.py

and states in CHANGES.md what moved, by how much and why.
"""

import hashlib
import json
import pathlib

import numpy as np

from hlab.coarse import coarse_matrices
from hlab.correctors import (
    finite_volume_correctors,
    periodic_homogenized_matrix,
    sublinearity_R,
)
from hlab.fields import (
    GaussianFieldParams,
    make_laminate,
    sample_checkerboard,
    sample_gaussian_field,
    tile_unit_cell,
)
from hlab.harness import member_seed
from hlab.lattice import GridSpec, TriadicCube
from hlab.renorm import coarse_grained_b
from hlab.solver import solve_periodic_cell
from hlab.stochproc import build_network, parabolic_green, simulate_walks
from hlab.twoscale import dirichlet_error

PATH = pathlib.Path(__file__).with_name("reference_values.json")

TOLERANCES = {"exact": None, "solve": 1e-10, "green": 1e-9, "tol": 1e-12}

# the torus level of a cascade member at radius r: the smallest 3^m >= 12 r
CASCADE_LEVELS = {4.0: 4, 8.0: 5}


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def compute() -> dict:
    out = {}

    def put(name, kind, values):
        out[name] = (kind, values if isinstance(values, str)
                     else np.asarray(values).ravel().tolist())

    # coarse pairs: the level-3 and level-5 origin cubes of criterion 4's first seeds
    for seed in range(1000, 1004):
        f = sample_checkerboard(GridSpec(2, 5, 1), seed)
        for level in (3, 5):
            r = coarse_matrices(f, TriadicCube(level, (0, 0)))
            put(f"pair 2d seed {seed} level {level} a", "solve", r.a_upper)
            put(f"pair 2d seed {seed} level {level} a*", "solve", r.a_lower)
            put(f"pair 2d seed {seed} level {level} iterations", "exact", r.basis_iterations)
    f = sample_checkerboard(GridSpec(3, 2, 1), 7)
    r = coarse_matrices(f, f.grid.macro_cube())
    put("pair 3d seed 7 level 2 a", "solve", r.a_upper)
    put("pair 3d seed 7 level 2 a*", "solve", r.a_lower)
    put("pair 3d seed 7 level 2 iterations", "exact", r.basis_iterations)

    # the odd-sided 27^2 torus and the even-sided 54^2 one, whose parity modes are projected
    for k in (1, 2):
        f = sample_checkerboard(GridSpec(2, 3, k), 5)
        side = f.grid.side
        cset = periodic_homogenized_matrix(f)
        put(f"torus {side}^2 abar", "solve", cset.abar)
        put(f"torus {side}^2 flux corrector norms", "solve",
            [np.linalg.norm(s) for s in cset.s])
        put(f"torus {side}^2 div residuals", "tol", cset.div_residuals)
        put(f"torus {side}^2 iterations", "exact",
            solve_periodic_cell(f, np.eye(2)).column_iterations)

    # b_r(0) of the first members of criterion 5's cascade, as `hlab cascade` makes them
    for r, m in CASCADE_LEVELS.items():
        for i in range(4):
            f = sample_checkerboard(GridSpec(2, m, 1), member_seed(3141, i))
            put(f"b_r(0) r {r:g} member {i}", "solve", coarse_grained_b(f, r, [(0, 0)]).b[0])

    # criterion 7's R(m)
    for m in (2, 3, 4):
        put(f"R({m}) seeds 500-503", "solve",
            [sublinearity_R(finite_volume_correctors(
                sample_checkerboard(GridSpec(2, m, 1), 500 + s), m)) for s in range(4)])

    # criterion 6's corrected-gradient errors
    unit = make_laminate(GridSpec(2, 0, 10), 1.0, 4.0, 1.0, axis=1)
    cset = periodic_homogenized_matrix(unit)
    put("criterion 6 gradient errors", "solve",
        [dirichlet_error(tile_unit_cell(unit, M), [1.0, 0.0], cset, 3.0 ** -M).grad_error
         for M in (1, 2, 3)])

    # the Green density of a 27^2 checkerboard
    rep = parabolic_green(sample_checkerboard(GridSpec(2, 3, 1), 5), 2.0, (13, 13), dt=0.05)
    put("green 27^2 t 2 dt 0.05 density", "green", rep.green_field)
    put("green 27^2 t 2 dt 0.05 iterations", "exact", rep.metadata["cg_iterations"])

    # the walk on the laminate network of criterion 8, a shorter horizon
    lam = make_laminate(GridSpec(2, 2, 2), 1.0, 4.0, 1.0, axis=1)
    walk = simulate_walks(build_network(lam), 20.0, 1000, seed=777, sample_times=[10.0, 20.0])
    put("walk laminate covariances", "exact", _digest(np.stack(walk.covariances)))

    # the bytes of the seeded generators
    params = GaussianFieldParams(amplitude=0.5, decay=1.0, truncation=2)
    for d, m in ((2, 3), (3, 2)):
        for seed in (0, 1):
            put(f"checkerboard {d}d level {m} seed {seed} bytes", "exact",
                _digest(sample_checkerboard(GridSpec(d, m, 1), seed).a))
            put(f"gaussian {d}d level {m} seed {seed} bytes", "exact",
                _digest(sample_gaussian_field(GridSpec(d, m, 1), seed, params).a))
    return out


def write(path=PATH) -> None:
    values = compute()
    lines = [f"  {json.dumps(name)}: {json.dumps({'kind': kind, 'values': v})}"
             for name, (kind, v) in values.items()]
    pathlib.Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write()
