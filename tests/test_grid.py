"""Grids, quadrature, covariant derivatives, conformal rescaling."""
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from energyrep.grid import (SHAPES, Field, GridError, WeightField, build_grid,
                            conformal_rescale, covariant_derivative,
                            field_to_csv, gram, inner_product, norm, rebind)
from energyrep.operators import assemble_h
from energyrep.sampling import random_covector_testset, random_one_form
from helpers import centered_difference_oracle, stack


def random_field(grid, rng, rank=1, algebra=False):
    shape = (grid.node_count,) + (grid.dimension,) * rank
    if algebra:
        shape = shape + (3,)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Field(grid, rank, vals, algebra)


def covariant_derivative_adjoint(t):
    """-sum_j D_j t_j / c, D_j the centered difference along axis j and c
    the constant metric scale: centered differences are skew under uniform
    weights, and the removed index carries one inverse-metric factor."""
    lead, acc = t.sample_axes, 0.0
    for j in range(t.grid.dimension):
        part = Field(t.grid, t.rank - 1, np.take(t.values, j, axis=lead + 1),
                     t.algebra)
        acc = acc + np.take(covariant_derivative(part).values, j,
                            axis=lead + 1)
    return Field(t.grid, t.rank - 1, -acc / t.grid.constant_scale(), t.algebra)


class TestBuildGrid:
    def test_circle_8_nodes(self):
        g = build_grid("circle", 8, radius=1.0)
        assert g.node_count == 8
        # angles 2 pi k / 8 and uniform weight 2 pi / 8
        assert np.allclose(g.nodes[:, 0], 2 * np.pi * np.arange(8) / 8)
        assert np.allclose(g.measure_weights(), 2 * np.pi / 8)

    def test_interval_spacing(self):
        g = build_grid("interval", 100, halfwidth=5.0)
        assert g.topology == "truncated"
        assert np.allclose(g.spacing, 0.1)

    def test_torus_node_count(self):
        g = build_grid("torus", 16, radius=1.0)
        assert g.node_count == 256
        assert g.topology == "periodic"
        assert g.dimension == 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(GridError):
            build_grid("mobius", 8)
        with pytest.raises(GridError):
            build_grid("interval", 8, halfwidth=-2.0)
        with pytest.raises(GridError):
            build_grid("circle", 3)

    # (dimension, periodic, condition (c)) of every shape, written out here
    # rather than read from grid.py
    SHAPE_FACTS = {
        "circle": (1, True, True), "interval": (1, False, True),
        "torus": (2, True, True), "square": (2, False, True),
        "punctured_square": (2, False, False),
    }

    def test_shape_table_is_every_shape(self):
        assert ({name: tuple(facts) for name, facts in SHAPES.items()}
                == self.SHAPE_FACTS)

    @pytest.mark.parametrize("shape", SHAPE_FACTS)
    def test_grid_follows_the_shape_table(self, shape):
        d, periodic, condition_c = self.SHAPE_FACTS[shape]
        g = build_grid(shape, 8, radius=0.5, halfwidth=3.0)
        assert (g.dimension, g.condition_c_ok) == (d, condition_c)
        assert g.topology == ("periodic" if periodic else "truncated")
        assert g.nodes.shape == (8 ** d, d) and g.axis_sizes == (8,) * d
        # a periodic axis closes after 2 pi r; a box's nodes fill [-L, L]
        extent = 0.5 if periodic else 3.0
        assert g.extent == extent
        period = 2.0 * np.pi * extent if periodic else 2.0 * extent
        assert np.allclose(g.spacing * 8, period)
        lo = 0.0 if periodic else -extent + g.spacing[0] / 2
        assert np.allclose(g.axis_coordinates(d - 1)[0], lo)

    def test_punctured_square_flagged(self):
        g = build_grid("punctured_square", 8, halfwidth=4.0)
        assert not g.condition_c_ok
        # cell-centered nodes with even count never hit the origin
        assert np.min(np.linalg.norm(g.nodes, axis=1)) > 0


class TestInnerProduct:
    def test_unit_covector_on_circle(self):
        # oracle: sum over 8 uniform nodes of 1 * (2 pi / 8)
        g = build_grid("circle", 8, radius=1.0)
        f = Field.covector(g, np.ones((8, 1), dtype=complex))
        expected = sum(1.0 * 2 * np.pi / 8 for _ in range(8))
        assert inner_product(f, f) == pytest.approx(expected, rel=1e-14)

    def test_pointwise_orthogonal_vanishes(self):
        g = build_grid("torus", 4, radius=1.0)
        a = np.zeros((16, 2), dtype=complex)
        b = np.zeros((16, 2), dtype=complex)
        a[:, 0] = 1.0
        b[:, 1] = 1.0
        assert inner_product(Field.covector(g, a), Field.covector(g, b)) == 0

    def test_antilinear_in_left_argument(self):
        g = build_grid("circle", 8, radius=1.0)
        rng = np.random.default_rng(9)
        f, h = random_field(g, rng), random_field(g, rng)
        z = 0.7 - 1.3j
        assert inner_product(f * z, h) == pytest.approx(
            np.conj(z) * inner_product(f, h), abs=1e-12)
        assert inner_product(f, h * z) == pytest.approx(
            z * inner_product(f, h), abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_conjugate_symmetry(self, seed):
        g = build_grid("circle", 8, radius=1.0)
        rng = np.random.default_rng(seed)
        f, h = random_field(g, rng), random_field(g, rng)
        assert inner_product(f, h) == pytest.approx(
            np.conj(inner_product(h, f)), abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2),
           st.booleans())
    def test_positive_definite_every_rank(self, seed, rank, algebra):
        g = build_grid("interval", 12, halfwidth=2.0)
        rng = np.random.default_rng(seed)
        f = random_field(g, rng, rank=rank, algebra=algebra)
        assert inner_product(f, f).real > 0

    def test_mismatch_errors(self):
        g1 = build_grid("circle", 8, radius=1.0)
        g2 = build_grid("circle", 16, radius=1.0)
        f1 = Field.covector(g1, np.ones((8, 1), dtype=complex))
        f2 = Field.covector(g2, np.ones((16, 1), dtype=complex))
        s1 = Field(g1, 0, np.ones(8, dtype=complex))
        with pytest.raises(GridError):
            inner_product(f1, f2)
        with pytest.raises(GridError):
            inner_product(f1, s1)


class TestCovariantDerivative:
    def test_constant_field_has_zero_gradient(self):
        g = build_grid("circle", 16, radius=1.0)
        f = Field(g, 0, np.full(16, 2.5))
        assert np.all(covariant_derivative(f).values == 0.0)

    def test_sine_on_circle(self):
        # oracle: centered-difference Taylor remainder <= h^2 (|f'''| <= 1)
        g = build_grid("circle", 64, radius=1.0)
        theta = g.nodes[:, 0]
        f = Field(g, 0, np.sin(theta))
        df = covariant_derivative(f)
        err = np.max(np.abs(df.values[:, 0] - np.cos(theta)))
        assert err <= (2 * np.pi / 64) ** 2

    @pytest.mark.parametrize("shape,kw", [
        ("circle", {"radius": 1.0}),
        ("interval", {"halfwidth": 3.0}),
        ("torus", {"radius": 1.0}),
    ])
    def test_adjoint_identity_exact(self, shape, kw):
        g = build_grid(shape, 12, **kw)
        rng = np.random.default_rng(42)
        for rank in (0, 1):
            f = random_field(g, rng, rank=rank)
            t = random_field(g, rng, rank=rank + 1)
            lhs = inner_product(covariant_derivative(f), t)
            rhs = inner_product(f, covariant_derivative_adjoint(t))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_second_order_convergence(self):
        # halving h cuts the max error by 4 +- 10 percent
        errs = []
        for n in (32, 64):
            g = build_grid("circle", n, radius=1.0)
            theta = g.nodes[:, 0]
            f = Field(g, 0, np.sin(theta))
            err = np.max(np.abs(covariant_derivative(f).values[:, 0]
                                - np.cos(theta)))
            errs.append(err)
        ratio = errs[0] / errs[1]
        assert 3.6 <= ratio <= 4.4

    def test_second_order_on_truncated_domain(self):
        # the bump's third derivative peaks sharply, so the asymptotic
        # error-quartering needs the finer pair of grids
        from energyrep.profiles import bumps
        errs = []
        for n in (256, 512):
            g = build_grid("interval", n, halfwidth=3.0)
            vals, grads = bumps(g.nodes, [[0.0]], [2.5], [1.0])
            f = Field(g, 0, vals[0])
            err = np.max(np.abs(covariant_derivative(f).values[:, 0]
                                - grads[0, :, 0]))
            errs.append(err)
        assert 3.6 <= errs[0] / errs[1] <= 4.4

    def test_requires_constant_scale(self):
        g = build_grid("circle", 8, radius=1.0)
        g2 = conformal_rescale(g, np.linspace(0, 1, 8))
        f = Field(g2, 0, np.ones(8))
        with pytest.raises(GridError):
            covariant_derivative(f)

    @pytest.mark.parametrize("shape,kw", [
        ("circle", {"radius": 1.0}), ("interval", {"halfwidth": 3.0}),
        ("torus", {"radius": 1.0}), ("square", {"halfwidth": 2.0}),
        ("punctured_square", {"halfwidth": 2.0}),
    ])
    @pytest.mark.parametrize("rank,algebra,count", [
        (0, False, None), (1, True, None), (2, False, 3), (1, True, 2),
        (0, True, None), (1, False, None), (2, True, None), (0, False, 3),
        (0, True, 2), (1, False, 3), (2, False, None), (2, True, 2)])
    def test_written_in_place_is_the_stacked_difference(self, shape, kw, rank,
                                                        algebra, count):
        # each axis' (f_{i+1} - f_{i-1}) / 2h subtracted from slices into
        # its slot, bit for bit the rolled or zero-padded copies' difference
        # stacked after the node axis, signed zeros included
        g = build_grid(shape, 7, **kw)
        rng = np.random.default_rng(23)
        fields = [random_field(g, rng, rank, algebra) for _ in range(count or 1)]
        f = stack(fields) if count else fields[0]
        f.values.real[..., ::3] = 0.0
        f.values.imag.reshape(-1)[::5] = -0.0
        for h in (f, f.copy_with(np.ascontiguousarray(f.values.real))):
            got = covariant_derivative(h).values
            want = centered_difference_oracle(h)
            assert got.flags.c_contiguous
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_adjoint_exact_under_constant_rescale(self):
        # constant conformal factor: connection still flat, adjoint picks up 1/c
        g = conformal_rescale(build_grid("circle", 12, radius=1.0),
                              np.full(12, 0.8))
        rng = np.random.default_rng(17)
        f = random_field(g, rng, rank=0)
        t = random_field(g, rng, rank=1)
        lhs = inner_product(covariant_derivative(f), t)
        rhs = inner_product(f, covariant_derivative_adjoint(t))
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestConformalRescale:
    def test_d2_leaves_covector_products_invariant(self):
        g = build_grid("torus", 6, radius=1.0)
        rng = np.random.default_rng(1)
        rho = rng.uniform(-1, 1, g.node_count)
        g2 = conformal_rescale(g, rho)
        f, h = random_field(g, rng), random_field(g, rng)
        before = inner_product(f, h)
        after = inner_product(rebind(f, g2), rebind(h, g2))
        assert abs(after - before) <= 1e-12 * abs(before)

    def test_zero_rho_is_identity(self):
        g = build_grid("circle", 8, radius=1.0)
        g2 = conformal_rescale(g, np.zeros(8))
        assert np.all(g2.metric_scale == g.metric_scale)

    def test_d1_constant_rho_scales_by_analytic_factor(self):
        # oracle: the factor e^{(d/2 - 1) rho} = e^{(1/2 - 1) * 2} = e^{-1}
        g = build_grid("circle", 8, radius=1.0)
        rng = np.random.default_rng(2)
        f = random_field(g, rng)
        g2 = conformal_rescale(g, np.full(8, 2.0))
        before = inner_product(f, f).real
        after = inner_product(rebind(f, g2), rebind(f, g2)).real
        assert after == pytest.approx(before * np.exp(-1.0), rel=1e-12)


class TestWeightField:
    def test_rejects_w_below_one(self):
        g = build_grid("circle", 8, radius=1.0)
        with pytest.raises(GridError):
            WeightField(g, np.full(8, 0.5), np.zeros(8))

    def test_quadratic_potential_values(self):
        g = build_grid("interval", 10, halfwidth=2.0)
        w = WeightField.quadratic(g, 1.0)
        assert np.allclose(w.w, g.nodes[:, 0] ** 2 + 1.0)

    @pytest.mark.parametrize("shape,kw", [("torus", {"radius": 1.0}),
                                          ("square", {"halfwidth": 3.0})])
    def test_parts_split_w_by_axis(self, shape, kw):
        g = build_grid(shape, 7, **kw)
        for w in (WeightField.constant(g, 2.0), WeightField.quadratic(g, 1.0)):
            px, py = w.parts
            summed = (px[:, None] + py[None, :]).ravel()
            assert np.max(np.abs(summed - w.w)) <= 1e-14 * np.max(w.w)
        assert WeightField(g, np.full(49, 2.0), np.zeros(49)).parts is None
        with pytest.raises(GridError):
            WeightField(g, np.full(49, 2.0), np.zeros(49), (np.ones(7),))


class TestSampleAxis:
    """A stacked test set gives per sample exactly what each field gives."""

    @pytest.mark.parametrize("shape,kw,rank,algebra", [
        ("circle", {"radius": 1.0}, 1, False),
        ("interval", {"halfwidth": 3.0}, 2, False),
        ("torus", {"radius": 1.0}, 1, True),
        ("square", {"halfwidth": 2.0}, 2, True),
    ])
    def test_grid_operations_match_per_field(self, shape, kw, rank, algebra):
        g = build_grid(shape, 8, **kw)
        rng = np.random.default_rng(41)
        fields = [random_field(g, rng, rank, algebra) for _ in range(4)]
        others = [random_field(g, rng, rank, algebra) for _ in range(4)]
        batch, other = stack(fields), stack(others)
        assert (batch.sample_axes, fields[0].sample_axes) == (1, 0)
        rho = rng.uniform(-0.5, 0.5, g.node_count)
        assert np.array_equal(inner_product(batch, other, rho),
                              [inner_product(f, h, rho)
                               for f, h in zip(fields, others)])
        assert np.array_equal(norm(batch, rho), [norm(f, rho) for f in fields])
        scale = rng.uniform(1.0, 2.0, g.node_count)
        for op in (covariant_derivative, lambda f: f.scale_by_nodes(scale)):
            out = op(batch)
            assert np.array_equal(out.values,
                                  np.stack([op(f).values for f in fields]))
            assert out.rank == op(fields[0]).rank

    def test_expand_and_apply_match_per_field(self):
        g = build_grid("torus", 6, radius=1.0)
        op = assemble_h(g, WeightField.constant(g, 2.0))
        dec = op.eigendecomposition()
        rng = np.random.default_rng(43)
        fields = [random_field(g, rng, 1, True) for _ in range(3)]
        batch = stack(fields)
        assert np.array_equal(dec.expand(batch),
                              np.stack([dec.expand(f) for f in fields]))
        # apply takes node-major columns: every channel of every sample
        n = g.node_count
        together = op.apply(np.moveaxis(batch.values, 0, 1).reshape(n, -1))
        apart = [op.apply(f.values.reshape(n, -1)) for f in fields]
        assert np.array_equal(together, np.hstack(apart))

    def test_csv_refuses_a_set(self, tmp_path):
        g = build_grid("circle", 8, radius=1.0)
        f = random_field(g, np.random.default_rng(44))
        with pytest.raises(GridError):
            field_to_csv(stack([f, f]), tmp_path, "set")
        assert not (tmp_path / "set.csv").exists()

    def test_inner_product_refuses_two_metric_scales(self):
        g = build_grid("circle", 8, radius=1.0)
        f = random_field(g, np.random.default_rng(46))
        rescaled = conformal_rescale(g, np.linspace(0.0, 1.0, 8))
        with pytest.raises(GridError, match="rescaling"):
            inner_product(f, rebind(f, rescaled))

    def test_same_grid_shortcut_is_bit_identical(self):
        # one grid object skips the metric-scale comparison; an identical
        # copy still runs it, and both give the same bits
        g = build_grid("torus", 8, radius=1.0)
        copy = conformal_rescale(g, np.zeros(g.node_count))
        assert copy is not g
        rng = np.random.default_rng(45)
        f = random_field(g, rng, algebra=True)
        h = random_field(g, rng, algebra=True)
        rho = rng.uniform(-0.5, 0.5, g.node_count)
        assert inner_product(f, h, rho) == inner_product(f, rebind(h, copy), rho)


class TestGram:
    """gram(fs, gs) holds inner_product of every pair (f_i, g_j)."""

    # one matrix product sums the same terms in another order: a few
    # rounding units of |f_i| |g_j| (at most 5.0e-16 over 30 seeds)
    BOUND = 1e-15

    @pytest.mark.parametrize("shape", ["circle", "torus"])
    @pytest.mark.parametrize("algebra", [True, False])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_every_entry_is_the_pair_inner_product(self, shape, algebra,
                                                   weighted):
        g = build_grid(shape, 8, radius=1.0)
        rng = np.random.default_rng(48)

        def draw(count):
            if algebra:
                return random_one_form(g, rng, count=count)
            return random_covector_testset(g, rng, count)

        fs, gs = draw(3), draw(5)
        rho = rng.uniform(-0.5, 0.5, g.node_count) if weighted else None
        got = gram(fs, gs, rho)
        assert got.shape == (3, 5)
        for i, f in enumerate(fs.values):
            for j, h in enumerate(gs.values):
                f_i, g_j = fs.copy_with(f), gs.copy_with(h)
                want = inner_product(f_i, g_j, rho)
                bound = self.BOUND * norm(f_i, rho) * norm(g_j, rho)
                assert abs(got[i, j] - want) <= bound
                # single fields too: no sample axis on either side
                assert abs(gram(f_i, g_j, rho) - want) <= bound

    def test_refuses_two_metric_scales(self):
        g = build_grid("circle", 8, radius=1.0)
        fs = stack([random_field(g, np.random.default_rng(49))] * 2)
        rescaled = conformal_rescale(g, np.linspace(0.0, 1.0, 8))
        with pytest.raises(GridError, match="rescaling"):
            gram(fs, rebind(fs, rescaled))


def test_field_csv_roundtrip(tmp_path):
    import csv
    g = build_grid("circle", 8, radius=1.0)
    f = random_field(g, np.random.default_rng(3))
    field_to_csv(f, tmp_path, "field")
    path = tmp_path / "field.csv"
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "x0"
    assert len(rows) == 1 + 8
    got = complex(float(rows[1][1]), float(rows[1][2]))
    assert got == pytest.approx(complex(f.values[0, 0]))
