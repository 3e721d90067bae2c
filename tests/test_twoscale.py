"""Two-scale expansion and Dirichlet homogenization error measurements."""

import numpy as np
import pytest

from hlab.correctors import periodic_homogenized_matrix
from hlab.fields import make_constant, make_laminate, tile_unit_cell
from hlab.lattice import GridSpec
from hlab.twoscale import (
    _tile_corrector_nodes,
    build_two_scale,
    dirichlet_error,
    error_table_rows,
    scale_level,
)


def laminate_unit(k=4):
    return make_laminate(GridSpec(2, 0, k), 1.0, 4.0, 1.0, axis=1)


class TestBuildTwoScale:
    def test_constant_coefficient_reduces_to_macro(self):
        # zero correctors: the expansion is the affine data x.p on the nodes
        cset = periodic_homogenized_matrix(make_constant(GridSpec(2, 0, 3), np.eye(2)))
        w = build_two_scale([1.0, 2.0], cset, 1.0 / 3.0)
        g = GridSpec(2, 1, 3)
        coords = np.meshgrid(*[np.arange(n) / 9.0 for n in g.node_shape], indexing="ij")
        expect = coords[0] + 2.0 * coords[1]
        assert w.shape == g.node_shape
        assert np.abs(w - expect).max() < 1e-9

    @pytest.mark.parametrize("d, reps", [(2, 1), (2, 3), (2, 9), (3, 1), (3, 3)])
    def test_tiled_nodes_wrap_the_unit_cell(self, d, reps):
        # node i of the tiling is node i mod n of the cell, the closing planes included
        phi = np.random.default_rng(d * reps).normal(size=(4,) * d)
        tiled = _tile_corrector_nodes(phi, reps)
        assert tiled.shape == (4 * reps + 1,) * d
        wrap = np.ix_(*[np.arange(4 * reps + 1) % 4] * d)
        assert tiled.tobytes() == phi[wrap].tobytes()

    def test_requires_unit_cell_periodic_set(self):
        cset = periodic_homogenized_matrix(make_constant(GridSpec(2, 1, 2), np.eye(2)))
        with pytest.raises(ValueError):
            build_two_scale([1.0, 0.0], cset, 1.0 / 3.0)

    def test_requires_triadic_eps(self):
        cset = periodic_homogenized_matrix(make_constant(GridSpec(2, 0, 2), np.eye(2)))
        with pytest.raises(ValueError):
            build_two_scale([1.0, 0.0], cset, 0.25)

    def test_scale_level(self):
        assert [scale_level(eps) for eps in (1.0, 1 / 3, 1 / 27)] == [0, 1, 3]
        for eps in (0.25, 3.0, 0.0, -1 / 3, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="power of 1/3"):
                scale_level(eps)

    def test_corrector_oscillation_periodic(self):
        # with an affine macro slope the added oscillation repeats per cell
        unit = laminate_unit()
        cset = periodic_homogenized_matrix(unit)
        w = build_two_scale([1.0, 0.0], cset, 1.0 / 3.0)
        k = unit.grid.k
        osc = w - np.add.outer(np.arange(w.shape[0]), np.zeros(w.shape[1])) / (3 * k)
        assert np.abs(osc[:k, :k] - osc[k:2 * k, k:2 * k]).max() < 1e-12


class TestDirichletError:
    def test_laminate_affine_errors_decay(self):
        unit = laminate_unit()
        cset = periodic_homogenized_matrix(unit)
        reports = []
        for eps in (1 / 3, 1 / 9):
            M = round(-np.log(eps) / np.log(3.0))
            fld = tile_unit_cell(unit, M)
            reports.append(dirichlet_error(fld, [1.0, 0.0], cset, eps))
        r3, r9 = reports
        assert r9.grad_error < r3.grad_error
        assert r9.l2_error < r3.l2_error
        assert r9.weak_grad_defect < r3.weak_grad_defect
        assert r9.weak_flux_defect < r3.weak_flux_defect
        # the weak defects decay at least like the scale ratio
        assert r9.weak_grad_defect < 0.5 * r3.weak_grad_defect

    def test_grid_mismatch_rejected(self):
        unit = laminate_unit()
        cset = periodic_homogenized_matrix(unit)
        fld = tile_unit_cell(unit, 2)
        with pytest.raises(ValueError):
            dirichlet_error(fld, [1.0, 0.0], cset, 1 / 3)


class TestErrorTable:
    def test_rows_sorted_by_eps(self):
        unit = make_constant(GridSpec(2, 0, 2), np.eye(2))
        cset = periodic_homogenized_matrix(unit)
        reports = []
        for eps in (1 / 9, 1 / 3):
            M = round(-np.log(eps) / np.log(3.0))
            reports.append(dirichlet_error(tile_unit_cell(unit, M), [1.0, 0.0], cset, eps))
        rows = error_table_rows(reports)
        assert [r["eps"] for r in rows] == [1 / 3, 1 / 9]
        assert set(rows[0]) >= {"eps", "grad_error", "l2_error"}
        # constant coefficients: the expansion is exact
        assert rows[0]["grad_error"] < 1e-7
