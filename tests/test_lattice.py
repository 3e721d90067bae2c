"""Grid calculus, triadic geometry, weak norm, and field serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlab.lattice import (
    GridSpec,
    TriadicCube,
    discrete_gradient,
    gradient_adjoint,
    node_to_cell,
    read_field,
    triadic_partition,
    weak_norm_estimate,
    write_field,
)
from oracles import cell_to_node_adjoint, dual_norm_oracle


def rng(seed):
    return np.random.default_rng(seed)


class TestGridSpec:
    def test_basic_geometry(self):
        g = GridSpec(2, 2, 3)
        assert g.side == 27
        assert g.h == pytest.approx(1 / 3)
        assert g.length == 9.0
        assert g.cell_shape == (27, 27)
        assert g.node_shape == (28, 28)
        assert g.volume == 81.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1, 1, 1)
        with pytest.raises(ValueError):
            GridSpec(2, -1, 1)
        with pytest.raises(ValueError):
            GridSpec(2, 1, 0)

    def test_3d_supported(self):
        g = GridSpec(3, 1, 2)
        assert g.cell_shape == (6, 6, 6)


class TestTriadicCube:
    def test_offset_must_be_on_lattice(self):
        TriadicCube(1, (3, 6))
        with pytest.raises(ValueError):
            TriadicCube(1, (2, 3))

    def test_check_inside(self):
        g = GridSpec(2, 1, 1)
        TriadicCube(1, (0, 0)).check_inside(g)
        with pytest.raises(ValueError):
            TriadicCube(2, (0, 0)).check_inside(g)
        with pytest.raises(ValueError):
            TriadicCube(0, (3, 0)).check_inside(g)

    def test_partition_tiles_exactly(self):
        cube = TriadicCube(2, (0, 0))
        parts = triadic_partition(cube, 0)
        assert len(parts) == 81
        g = GridSpec(2, 2, 1)
        cover = np.zeros(g.cell_shape, dtype=int)
        for c in parts:
            cover[c.cell_slices(g)] += 1
        assert (cover == 1).all()

    def test_partition_level_range(self):
        with pytest.raises(ValueError):
            triadic_partition(TriadicCube(1, (0, 0)), 2)

    def test_cell_average(self):
        g = GridSpec(2, 1, 2)
        f = rng(0).normal(size=g.cell_shape)
        cube = TriadicCube(0, (1, 2))
        assert f[cube.cell_slices(g)].mean() == pytest.approx(f[2:4, 4:6].mean())


class TestCalculus:
    """The gradient samples the element gradient at cell centers; the
    divergence is its exact negative adjoint under plain sums."""

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("d", [2, 3])
    def test_adjointness_100_random_pairs(self, periodic, d):
        h = 0.5
        shape = (6,) * d if periodic else (7,) * d
        cell = (6,) * d
        r = rng(42)
        worst = 0.0
        for _ in range(100):
            u = r.normal(size=shape)
            g = r.normal(size=cell + (d,))
            lhs = (discrete_gradient(u, h, periodic) * g).sum()
            rhs = (u * gradient_adjoint(g, h, periodic)).sum()
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        assert worst < 1e-12

    def test_affine_gradient_exact(self):
        g = GridSpec(2, 1, 4)
        x, y = np.meshgrid(*[np.arange(n) * g.h for n in g.node_shape], indexing="ij")
        u = 2.0 * x - 3.0 * y + 1.0
        grad = discrete_gradient(u, g.h, periodic=False)
        assert np.abs(grad[..., 0] - 2.0).max() < 1e-12
        assert np.abs(grad[..., 1] + 3.0).max() < 1e-12

    def test_constant_field_divergence_free_interior(self):
        # a constant vector field has zero discrete divergence on the torus
        g = np.ones((6, 6, 2))
        div = -gradient_adjoint(g, 0.5, periodic=True)
        assert np.abs(div).max() < 1e-13

    def test_node_cell_adjointness(self):
        r = rng(7)
        u = r.normal(size=(6, 6))
        f = r.normal(size=(5, 5))
        lhs = (node_to_cell(u) * f).sum()
        rhs = (u * cell_to_node_adjoint(f)).sum()
        assert lhs == pytest.approx(rhs, rel=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 8), st.integers(0, 2**31), st.booleans())
    def test_adjointness_property(self, n, seed, periodic):
        h = 1.0 / 3.0
        shape = (n, n) if periodic else (n + 1, n + 1)
        r = rng(seed)
        u = r.normal(size=shape)
        g = r.normal(size=(n, n, 2))
        lhs = (discrete_gradient(u, h, periodic) * g).sum()
        rhs = (u * gradient_adjoint(g, h, periodic)).sum()
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(2, 5), st.integers(1, 4), st.booleans(),
           st.integers(0, 2**31))
    def test_leading_batch_axes_act_column_by_column(self, d, n, batch, periodic, seed):
        # a stack of fields through one call equals the per-field calls, exactly
        h = 0.5
        r = rng(seed)
        u = r.normal(size=(batch,) + ((n,) if periodic else (n + 1,)) * d)
        g = r.normal(size=(batch,) + (n,) * d + (d,))
        grad = discrete_gradient(u, h, periodic, d=d)
        adj = gradient_adjoint(g, h, periodic)
        assert grad.shape == g.shape and adj.shape == u.shape
        for i in range(batch):
            assert np.array_equal(grad[i], discrete_gradient(u[i], h, periodic))
            assert np.array_equal(adj[i], gradient_adjoint(g[i], h, periodic))


class TestWeakNorm:
    def test_constant_field_closed_form(self):
        # f = c: every level-n average is c, so the estimate telescopes to
        # c * (1 + sum_{n<m} 3^n) = c * (1 + (3^m - 1)/2)
        for m in (1, 2, 3):
            g = GridSpec(2, m, 1)
            c = 0.7
            f = np.full(g.cell_shape, c)
            expect = c * (1 + (3**m - 1) / 2)
            assert weak_norm_estimate(f, g) == pytest.approx(expect, rel=1e-12)

    def test_positive_homogeneity(self):
        g = GridSpec(2, 2, 1)
        f = rng(11).normal(size=g.cell_shape)
        base = weak_norm_estimate(f, g)
        assert weak_norm_estimate(2.5 * f, g) == pytest.approx(2.5 * base, rel=1e-12)
        assert weak_norm_estimate(-f, g) == pytest.approx(base, rel=1e-12)

    def test_vector_fields_accepted(self):
        g = GridSpec(2, 1, 2)
        f = rng(1).normal(size=g.cell_shape + (2,))
        assert weak_norm_estimate(f, g) > 0

    def test_estimator_bounds_oracle(self):
        # the multiscale estimate is an upper bound for the dual-norm
        # energy; the gap stays within two orders of magnitude
        g = GridSpec(2, 2, 1)
        r = rng(20)
        for _ in range(20):
            f = r.normal(size=g.cell_shape)
            f -= f.mean()
            est = weak_norm_estimate(f, g)
            oracle = dual_norm_oracle(f, g)
            assert oracle > 0
            ratio = est / oracle
            assert 1.0 <= ratio <= 100.0, ratio

    def test_oracle_scales_linearly(self):
        g = GridSpec(2, 2, 1)
        f = rng(5).normal(size=g.cell_shape)
        f -= f.mean()
        assert dual_norm_oracle(3.0 * f, g) == pytest.approx(
            3.0 * dual_norm_oracle(f, g), rel=1e-10)

    def test_oracle_rejects_vector_input(self):
        g = GridSpec(2, 1, 1)
        with pytest.raises(ValueError):
            dual_norm_oracle(np.zeros(g.cell_shape + (2,)), g)


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        g = GridSpec(2, 1, 2)
        vals = rng(9).normal(size=g.cell_shape + (2, 2))
        path = tmp_path / "f.bin"
        write_field(path, vals, g, kind="coefficient", provenance={"seed": 9})
        back, g2, header = read_field(path)
        assert np.array_equal(back, vals)
        assert g2 == g
        assert header["kind"] == "coefficient"
        assert header["provenance"]["seed"] == 9

    def test_header_is_json_line(self, tmp_path):
        import json

        g = GridSpec(2, 0, 3)
        path = tmp_path / "f.bin"
        write_field(path, np.zeros(g.cell_shape), g, kind="scalar")
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["shape"] == [3, 3]

    @pytest.mark.parametrize("change, held", [(-8, "35"), (-3, "35.625"), (8, "37")])
    def test_payload_length_checked(self, tmp_path, change, held):
        # a truncated or padded payload names the path, the header shape and the float count
        g = GridSpec(2, 0, 3)
        path = tmp_path / "f.bin"
        write_field(path, np.zeros(g.cell_shape + (2, 2)), g, kind="coefficient")
        data = path.read_bytes()
        path.write_bytes(data[:change] if change < 0 else data + bytes(change))
        with pytest.raises(ValueError) as err:
            read_field(path)
        msg = str(err.value)
        assert str(path) in msg and "[3, 3, 2, 2]" in msg and "36" in msg
        assert f"holds {held}" in msg
