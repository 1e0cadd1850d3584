"""Schrodinger operator assembly, spectra, conjugation, Hilbert-Schmidt probe."""
import dataclasses
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from energyrep import blas, operators
from energyrep.grid import (Field, GridError, WeightField, build_grid,
                            centered_stencil, covariant_derivative, norm)
from energyrep.operators import (SpectralDecomposition, _blocks,
                                 _kronecker_deviation,
                                 adjoint_identity_residual, assemble_h,
                                 conjugated_operator, eigenpair_map_residual,
                                 hilbert_schmidt_test)
from energyrep.seminorms import (eigenvector_covector, seminorm_p_batch,
                                 seminorm_prime_batch)
from energyrep.suites import circle_dispersion, circle_modes
from helpers import (TRIDIAGONAL_SOLVER, dense_decomposition,
                     dense_eigenvalues, formed_expand, formed_eigen_residual,
                     formed_gram_residual, link_laplacian, one_axis, stack,
                     symmetrized, transposed_oracle)


def circle_operator(n=64, w0=2.0):
    g = build_grid("circle", n, radius=1.0)
    return g, assemble_h(g, WeightField.constant(g, w0))


def periodic_dispersion(n, w0):
    """Oracle: eigenvalues of the 3-point periodic Laplacian plus W."""
    h = 2 * np.pi / n
    ks = np.concatenate([[0], np.repeat(np.arange(1, n // 2), 2), [n // 2]])
    return np.sort((2.0 / h ** 2) * (1.0 - np.cos(ks * h)) + w0)


class TestAssembly:
    def test_symmetric_by_construction(self):
        for shape, kw in (("circle", {"radius": 1.0}),
                          ("interval", {"halfwidth": 4.0}),
                          ("torus", {"radius": 1.0})):
            g = build_grid(shape, 12, **kw)
            op = assemble_h(g, WeightField.constant(g, 2.0))
            assert op.symmetry_residual() <= 1e-12

    def test_rejects_small_potential(self):
        # the invariant W >= 1 is enforced at construction already
        g = build_grid("circle", 8, radius=1.0)
        with pytest.raises(GridError):
            WeightField(g, np.full(8, 0.99), np.zeros(8))

    @pytest.mark.parametrize("shape,kw", [("circle", {"radius": 1.0}),
                                          ("interval", {"halfwidth": 4.0})])
    def test_rejects_a_nan_potential(self, shape, kw):
        # NaN >= 1 is false: one NaN node fails both guards
        g = build_grid(shape, 8, **kw)
        w = np.full(8, 2.0)
        w[3] = np.nan
        with pytest.raises(GridError):
            WeightField(g, w, np.zeros(8))
        weight = WeightField.constant(g, 2.0)
        weight.w[3] = np.nan  # written after the field's own check
        with pytest.raises(GridError):
            assemble_h(g, weight)

    def test_constant_field_eigenvector(self):
        g, op = circle_operator(16)
        c = np.full((16, 1), 3.0)
        assert np.max(np.abs(op.apply(c) - 2.0 * c)) == 0.0

    def test_rank1_action_is_channelwise(self):
        g, op = circle_operator(16)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((16, 3)) + 0j
        assert np.allclose(op.apply(vals), op.matrix @ vals)


class TestCircleSpectrum:
    def test_dispersion_helper_matches_the_oracle(self):
        # the mode k and n - k share |k| on n nodes
        for n in range(4, 130):
            assert sorted(circle_modes(n)) == sorted(
                min(k, n - k) for k in range(n))
            lam = np.sort(circle_dispersion(circle_modes(n), n))
            if n % 2 == 0:
                assert np.array_equal(lam, periodic_dispersion(n, 2.0))
        for n in (9, 33):
            g, op = circle_operator(n)
            assert np.max(np.abs(op.eigenvalues() - np.sort(
                circle_dispersion(circle_modes(n), n)))) <= 1e-9

    def test_matches_dispersion_formula(self):
        g, op = circle_operator(64)
        lam = np.sort(op.eigendecomposition().eigenvalues)
        assert np.max(np.abs(lam - periodic_dispersion(64, 2.0))) <= 1e-9

    def test_continuum_within_taylor_envelope(self):
        # deficit against k^2 + 2 follows k^4 h^2 / 12 (+O(h^4)); the envelope
        # reaches ~4.9 percent at k = 8, which is the stencil's true accuracy
        g, op = circle_operator(64)
        lam = np.sort(op.eigendecomposition().eigenvalues)
        h = 2 * np.pi / 64
        for k in range(1, 9):
            lam_k = lam[2 * k - 1]  # first of the +-k pair
            deficit = abs(lam_k - (k ** 2 + 2.0))
            assert deficit <= 1.05 * k ** 4 * h ** 2 / 12.0 + 1e-9

    def test_low_modes_within_one_percent(self):
        g, op = circle_operator(64)
        lam = np.sort(op.eigendecomposition().eigenvalues)
        for k in range(4):
            target = k ** 2 + 2.0
            idx = 0 if k == 0 else 2 * k - 1
            assert abs(lam[idx] - target) / target <= 0.01


class TestOscillatorSpectrum:
    def test_matches_two_n_plus_two(self):
        g = build_grid("interval", 400, halfwidth=8.0)
        op = assemble_h(g, WeightField.quadratic(g, 1.0))
        lam = np.sort(op.eigendecomposition().eigenvalues)[:11]
        target = 2.0 * np.arange(11) + 2.0
        assert np.max(np.abs(lam - target) / target) <= 5e-3


class TestSquareSpectrum:
    def test_tensor_sum_of_dirichlet_modes(self):
        # oracle: zero-extension links give the 3-point Dirichlet values
        # (2/h^2)(1 - cos(k pi/(n+1))) per axis, eigenvalues are tensor sums
        n, L = 12, 3.0
        g = build_grid("square", n, halfwidth=L)
        op = assemble_h(g, WeightField.constant(g, 2.0))
        lam = np.sort(op.eigendecomposition().eigenvalues)
        h = 2 * L / n
        one_d = (2 / h ** 2) * (1 - np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        expected = np.sort((one_d[:, None] + one_d[None, :]).ravel()) + 2.0
        assert np.max(np.abs(lam - expected)) <= 1e-9
        assert op.symmetry_residual() <= 1e-12


class TestDecomposition:
    def test_invariants(self):
        g, op = circle_operator(32)
        dec = op.eigendecomposition()
        assert dec.eigen_residual(op) <= 1e-8
        assert dec.gram_residual() <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= -1e-12)

    @pytest.mark.parametrize("algebra", [False, True])  # 1 and 3 channels
    def test_expand_of_complex_fields(self, algebra):
        g, op = circle_operator(48)
        dec = op.eigendecomposition()
        assert len(dec.axis_vectors) == 1  # a 1-D decomposition: one axis
        rng = np.random.default_rng(23)
        shape = (5, g.node_count, 1) + ((3,) if algebra else ())
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        fields = Field(g, 1, vals, algebra)
        weighted = dec.node_weights[:, None] * vals.reshape(5, g.node_count, -1)
        got = dec.expand(fields)
        want = formed_expand(dec, fields)
        assert got.shape == want.shape == (5, g.node_count, 3 if algebra else 1)
        # each part of a coefficient is a sum of n real products, each
        # product within 4 eps of the formed one and summed in its own
        # order on each side: they differ by at most
        # (2 n + 8) eps sum_j |V_jk| |part of (w f)_j|
        v_abs = np.abs(dec.modes(slice(None)).T)
        for part in (np.real, np.imag):
            bound = (2 * g.node_count + 8) * np.finfo(float).eps * (
                v_abs @ np.abs(part(weighted)))
            assert np.all(np.abs(part(got) - part(want)) <= bound)
        # a set's coefficients are its members' own, bit for bit
        assert np.array_equal(got, np.stack([dec.expand(fields.copy_with(v))
                                             for v in vals]))
        # real values keep the real product
        real = dec.expand(fields.copy_with(vals.real))
        assert real.dtype == np.float64
        assert _relative(real, formed_expand(dec, fields.copy_with(
            vals.real))) <= 1e-13

    @pytest.mark.parametrize("n", [32, 48, 256])
    @pytest.mark.parametrize("count", [1, 2, 7, 404])
    def test_real_set_coefficients_are_its_members(self, n, count):
        # a one-axis set takes one product over all its rows, a lone row
        # (one real sample, one channel) included: every sample's
        # coefficients are its own whatever the set, bit for bit
        g, op = circle_operator(n)
        dec = op.eigendecomposition()
        vals = np.random.default_rng(n + count).standard_normal(
            (count, g.node_count, 1))
        fields = Field(g, 1, vals)
        got = dec.expand(fields)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == (count, g.node_count, 1)
        assert np.array_equal(got, np.stack([dec.expand(fields.copy_with(v))
                                             for v in vals]))
        # the members' values held as complex: the same real parts
        assert np.array_equal(got, dec.expand(fields.copy_with(
            vals.astype(complex))).real)
        assert _relative(got, formed_expand(dec, fields)) <= 1e-13


class TestConjugation:
    def test_zero_rho_is_identity(self):
        g, op = circle_operator(32)
        h_rho = conjugated_operator(op, np.zeros(32))
        assert np.array_equal(h_rho.matrix, op.matrix)
        assert adjoint_identity_residual(g, h_rho.rho) <= 1e-12

    @pytest.mark.parametrize("shape,kw,n", [
        ("circle", {"radius": 1.0}, 48),
        ("interval", {"halfwidth": 5.0}, 60),
    ])
    def test_similar_spectra(self, shape, kw, n):
        g = build_grid(shape, n, **kw)
        weight = (WeightField.constant(g, 2.0) if shape == "circle"
                  else WeightField.quadratic(g, 1.0))
        op = assemble_h(g, weight)
        rng = np.random.default_rng(9)
        x = g.nodes[:, 0]
        rho = 0.5 * np.cos(2 * np.pi * x / (x.max() - x.min() + g.spacing[0]))
        h_rho = conjugated_operator(op, rho)
        dec = op.eigendecomposition()
        lam = np.sort(dec.eigenvalues)
        lam_rho = dense_eigenvalues(h_rho)
        assert np.max(np.abs(lam - lam_rho)) <= 1e-8
        assert adjoint_identity_residual(g, h_rho.rho) <= 1e-12
        assert eigenpair_map_residual(h_rho, dec) <= 1e-8
        assert h_rho.symmetry_residual() <= 1e-12

    def test_conjugate_eigenvectors(self):
        g, op = circle_operator(32)
        rho = 0.4 * np.sin(g.nodes[:, 0])
        h_rho = conjugated_operator(op, rho)
        dec = op.eigendecomposition()
        e = np.exp(rho / 2.0)
        for k in (0, 5, 11):
            v = dec.modes(k) / e
            resid = np.linalg.norm(h_rho.matrix @ v - dec.eigenvalues[k] * v)
            assert resid <= 1e-9 * abs(dec.eigenvalues[k]) * np.linalg.norm(v)


def _dense_centered_differences(grid):
    """Oracle: dense n x n centered-difference matrix per axis."""
    mats = []
    for j, n in enumerate(grid.axis_sizes):
        d = np.eye(n, k=1) - np.eye(n, k=-1)
        if grid.periodic:
            d[n - 1, 0] += 1.0
            d[0, n - 1] -= 1.0
        mats.append(d / (2.0 * grid.spacing[j]))
    if grid.dimension == 1:
        return mats
    nx, ny = grid.axis_sizes
    return [np.kron(mats[0], np.eye(ny)), np.kron(np.eye(nx), mats[1])]


def _dense_adjoint_identity_residual(grid, rho):
    """Oracle: adj_rho(E^{-1} D E) - E^{-1} D^T E on the dense matrices."""
    e = np.exp(rho / 2.0)
    w_rho = grid.measure_weights() * np.exp(rho)
    worst = 0.0
    for d in _dense_centered_differences(grid):
        d_rho = (d * e[None, :]) / e[:, None]
        lhs = (d_rho.T * w_rho[None, :]) / w_rho[:, None]
        rhs = (d.T * e[None, :]) / e[:, None]
        scale = max(np.max(np.abs(lhs)), 1.0)
        worst = max(worst, float(np.max(np.abs(lhs - rhs)) / scale))
    return worst


GRIDS = [("circle", {"radius": 1.0}, 4), ("circle", {"radius": 1.0}, 32),
         ("interval", {"halfwidth": 5.0}, 20), ("torus", {"radius": 1.0}, 8)]


class TestFastPathsAgainstDense:
    @pytest.mark.parametrize("shape,kw,n", GRIDS)
    def test_stencil_adjoint_identity_is_dense_formula(self, shape, kw, n):
        g = build_grid(shape, n, **kw)
        rng = np.random.default_rng(n)
        for rho in (np.zeros(g.node_count),
                    0.6 * rng.standard_normal(g.node_count)):
            assert (adjoint_identity_residual(g, rho)
                    == _dense_adjoint_identity_residual(g, rho))

    @pytest.mark.parametrize("shape,kw,n", GRIDS + [("square",
                                                     {"halfwidth": 3.0}, 6)])
    def test_centered_stencil_is_the_applied_difference(self, shape, kw, n):
        g = build_grid(shape, n, **kw)
        # the identity as a test set: sample s is the unit vector at node s
        applied = covariant_derivative(Field(g, 0, np.eye(g.node_count))).values
        for axis, dense in enumerate(_dense_centered_differences(g)):
            rows, cols, vals = centered_stencil(g, axis)
            d = np.zeros_like(dense)
            np.add.at(d, (rows, cols), vals)
            assert np.array_equal(d, dense)
            assert np.array_equal(d, applied[:, :, axis].T)

    @pytest.mark.parametrize("shape,kw,n", GRIDS[1:])
    def test_eigenvalues_match_decomposition(self, shape, kw, n):
        g = build_grid(shape, n, **kw)
        periodic = g.periodic
        op = assemble_h(g, WeightField.constant(g, 2.0) if periodic
                        else WeightField.quadratic(g, 1.0))
        rho = 0.4 * np.cos(g.nodes[:, 0])
        for h in (op, conjugated_operator(op, rho)):
            ref = dense_eigenvalues(h)
            for lam in (h.eigenvalues(), h.eigendecomposition().eigenvalues):
                assert np.max(np.abs(lam - ref) / np.abs(ref)) <= 1e-10

    def test_degenerate_circle_is_the_eigh_columns(self):
        # the shells +-k: H's columns span eigh's of its matrix as
        # assembled, shell by shell, and over sqrt(w) they are H's modes;
        # a conjugate's are those over e^{rho/2}, up to the rounding of
        # sqrt(w e^rho) against sqrt(w) e^{rho/2}
        g, op = circle_operator(16)
        dec = op.eigendecomposition()
        assert np.min(np.diff(dec.eigenvalues)) <= 1e-10  # degenerate
        sqw = np.sqrt(op.node_weights)[:, None]
        (x,) = dec.axis_vectors
        _assert_split_is_the_eigh(dec.eigenvalues, x,
                                  *np.linalg.eigh(op.matrix))
        assert np.array_equal(dec.modes(slice(None)), x / sqw)
        rho = _rho(g)
        conj = conjugated_operator(op, rho).eigendecomposition()
        assert _relative(conj.modes(slice(None)),
                         dec.modes(slice(None))
                         / np.exp(rho / 2.0)[:, None]) <= 1e-15

    def test_conjugation_residuals_on_torus(self):
        g = build_grid("torus", 8, radius=1.0)
        op = assemble_h(g, WeightField.constant(g, 2.0))
        rho = 0.3 * np.cos(g.nodes[:, 0]) * np.sin(g.nodes[:, 1])
        h_rho = conjugated_operator(op, rho)
        assert adjoint_identity_residual(g, h_rho.rho) <= 1e-12
        assert eigenpair_map_residual(h_rho, op.eigendecomposition()) <= 1e-8


def _test_fields(g, count, seed):
    rng = np.random.default_rng(seed)
    return stack([
        Field.covector(g, rng.standard_normal((g.node_count, g.dimension))
                       + 1j * rng.standard_normal((g.node_count, g.dimension)))
        for _ in range(count)])


TENSOR_GRIDS = [("torus", {"radius": 1.0}, WeightField.constant, 2.0),
                ("square", {"halfwidth": 3.0}, WeightField.quadratic, 1.0),
                ("punctured_square", {"halfwidth": 4.0}, WeightField.quadratic,
                 1.0)]
# a square wide enough that its axis modes decay by many orders of magnitude
# toward the edges
WIDE_GRID = ("square", {"halfwidth": 8.0}, WeightField.quadratic, 1.0)


class TestSeparableAgainstDense:
    """The per-axis solve of a d = 2 Kronecker sum against the dense solve;
    odd N has no Nyquist mode, N = 16 has large degenerate shells."""

    @pytest.mark.parametrize("n", [4, 7, 16])
    @pytest.mark.parametrize("shape,kw,make,value", TENSOR_GRIDS)
    def test_engine_matches_dense_solve(self, shape, kw, make, value, n):
        g = build_grid(shape, n, **kw)
        op = assemble_h(g, make(g, value))
        assert len(op.factors) == 2
        dec = op.eigendecomposition()
        dense = dense_decomposition(op)
        lam = dense.eigenvalues
        assert np.max(np.abs(dec.eigenvalues - lam)) <= 1e-12
        assert dec.eigen_residual(op) <= 1e-12
        assert dec.gram_residual() <= 1e-13
        fields = _test_fields(g, 6, n)
        ps = (0.5, 1.0, 2.0)
        got = seminorm_p_batch(fields, ps, dec)
        want = seminorm_p_batch(fields, ps, dense)
        assert np.max(np.abs(got - want) / want) <= 1e-13

    @pytest.mark.parametrize("n", [8, 24, 64])
    @pytest.mark.parametrize("shape,kw,make,value", [
        ("circle", {"radius": 1.0}, WeightField.constant, 2.0),
        ("interval", {"halfwidth": 5.0}, WeightField.quadratic, 1.0)])
    def test_one_dimension_is_the_dense_solve(self, shape, kw, make, value,
                                              n):
        g = build_grid(shape, n, **kw)
        op = assemble_h(g, make(g, value))
        # one axis operator, H's own matrix bit for bit
        (factor,) = op.factors
        assert np.array_equal(_bits(factor), _bits(op.matrix))
        _assert_derived_conjugate(g, op)

    @pytest.mark.parametrize("n", [4, 7, 16])
    @pytest.mark.parametrize("shape,kw,make,value", TENSOR_GRIDS[:2])
    def test_conjugate_takes_the_factors(self, shape, kw, make, value, n):
        g = build_grid(shape, n, **kw)
        op = assemble_h(g, make(g, value))
        h_rho = conjugated_operator(op, _rho(g))
        assert h_rho.axis_diagonals is op.axis_diagonals
        assert all(np.array_equal(_bits(a), _bits(b))
                   for a, b in zip(h_rho.factors, op.factors))
        _assert_derived_conjugate(g, op)

    @pytest.mark.parametrize("shape,kw", [("torus", {"radius": 1.0}),
                                          ("square", {"halfwidth": 3.0})])
    def test_raw_potential_on_a_d2_grid_rejected(self, shape, kw):
        # a W without per-axis parts has no factors to solve
        g = build_grid(shape, 7, **kw)
        raw = WeightField(g, WeightField.quadratic(g, 1.0).w, np.zeros(49))
        assert raw.parts is None
        with pytest.raises(GridError):
            assemble_h(g, raw)


def _assert_derived_conjugate(g, op):
    """A conjugate's decomposition is H's read through e^{rho/2}: its
    eigenvalues, seminorms and gram against the dense solve of H_rho, its
    modes e^{-rho/2} times H's."""
    rho = _rho(g)
    h_rho = conjugated_operator(op, rho)
    dec, dec_rho = op.eigendecomposition(), h_rho.eigendecomposition()
    dense = dense_decomposition(h_rho)
    lam = dense.eigenvalues
    assert np.max(np.abs(dec_rho.eigenvalues - lam) / lam) <= 1e-12
    fields = _test_fields(g, 6, g.node_count)
    ps = (0.0, 0.5, 1.0, 2.0)
    got = seminorm_p_batch(fields, ps, dec_rho)
    want = seminorm_p_batch(fields, ps, dense)
    assert np.max(np.abs(got - want) / want) <= 1e-12
    assert dec_rho.gram_residual() <= 1e-13
    assert np.array_equal(dec_rho.eigenvalues, dec.eigenvalues)
    derived = dec.modes(slice(None)) / np.exp(rho / 2.0)[:, None]
    # over sqrt(w e^rho) in one division, not sqrt(w) then e^{rho/2}
    assert _relative(dec_rho.modes(slice(None)), derived) <= 1e-15


# The dense formulas the gates used before they went through the stencil and
# the per-axis factors; kept here as the reference.

def _kron_assembly(grid, w):
    """Oracle: H as the Kronecker sum of the axis Laplacians plus diag(W)."""
    periodic = grid.periodic
    axes = [link_laplacian(nn, grid.spacing[j], periodic)
            for j, nn in enumerate(grid.axis_sizes)]
    if grid.dimension == 1:
        lap = axes[0]
    else:
        nx, ny = grid.axis_sizes
        lap = np.kron(axes[0], np.eye(ny)) + np.kron(np.eye(nx), axes[1])
    return lap + np.diag(w)


def _dense_conjugate(matrix, rho):
    e = np.exp(rho / 2.0)
    return (matrix * e[None, :]) / e[:, None]


def _dense_symmetry_residual(op):
    s = op.node_weights[:, None] * op.matrix
    return float(np.max(np.abs(s - s.T)) / np.max(np.abs(s)))


def _loop_eigenpair_map_residual(h_rho, dec):
    e = np.exp(h_rho.rho / 2.0)
    worst = 0.0
    for k in range(min(dec.eigenvalues.size, 32)):
        v = dec.modes(k) / e
        r = h_rho.matrix @ v - dec.eigenvalues[k] * v
        worst = max(worst, float(np.linalg.norm(r) / max(
            np.linalg.norm(v) * abs(dec.eigenvalues[k]), 1e-300)))
    return worst


def _bits(a):
    """The array's bit patterns: equal bits, not only equal values (a -0.0
    where the reference has +0.0 would differ)."""
    return np.ascontiguousarray(a).view(np.uint64)


ALL_GRIDS = [("circle", {"radius": 1.0}, WeightField.constant, 2.0),
             ("interval", {"halfwidth": 5.0}, WeightField.quadratic, 1.0)
             ] + TENSOR_GRIDS


def _rho(g):
    return 0.4 * np.cos(g.nodes[:, 0]) + 0.2 * np.sin(g.nodes[:, -1])


class TestStencilGatesAgainstDense:
    """Assembly, conjugation and the residual gates through the stencil and
    the per-axis factors, against the dense formulas above."""

    @pytest.mark.parametrize("n", [4, 7, 16])
    @pytest.mark.parametrize("shape,kw,make,value", ALL_GRIDS)
    def test_assembly_and_conjugate_are_bit_identical(self, shape, kw, make,
                                                      value, n):
        g = build_grid(shape, n, **kw)
        weight = make(g, value)
        op = assemble_h(g, weight)
        assert np.array_equal(_bits(op.matrix),
                              _bits(_kron_assembly(g, weight.w)))
        h_rho = conjugated_operator(op, _rho(g))
        assert np.array_equal(_bits(h_rho.matrix),
                              _bits(_dense_conjugate(op.matrix, _rho(g))))
        diag, bands = op.stencil
        for h in (op, h_rho):
            assert h.symmetry_residual() == _dense_symmetry_residual(h)
            # the symmetrized entries, written densely, are the oracle's
            rows, cols, values = h._symmetrized_entries()
            entries = np.zeros((g.node_count, g.node_count))
            entries[rows, cols] = values
            assert np.array_equal(_bits(entries), _bits(symmetrized(h)))
            # the first band without its mirror: its transposes read 0
            one_sided = dataclasses.replace(h, stencil=(diag, bands[1:]))
            assert (one_sided.symmetry_residual()
                    == _dense_symmetry_residual(one_sided))
            assert one_sided.symmetry_residual() > 1e-12

    @pytest.mark.parametrize("n", [4, 7, 16])
    @pytest.mark.parametrize("shape,kw,make,value", ALL_GRIDS)
    def test_band_pair_transpose_is_the_sorted_one(self, shape, kw, make,
                                                   value, n):
        # band k against band -k by slices, bit for bit the transposes
        # that a sort of every entry finds, 0 where a band lacks its mirror
        g = build_grid(shape, n, **kw)
        op = assemble_h(g, make(g, value))
        diag, bands = op.stencil
        for h in (op, conjugated_operator(op, _rho(g))):
            for stencil in (h.stencil, (diag, bands[1:])):
                for rho in (None, h.rho):
                    rows, cols, values = operators._entries(g, stencil, rho)
                    got = operators._transposed(g, stencil, values)
                    want = transposed_oracle(rows, cols, values, g.node_count)
                    assert np.array_equal(_bits(got), _bits(want))
            rows, cols, values = h._symmetrized_entries()
            assert np.array_equal(
                _bits(operators._transposed(g, h.stencil, values)),
                _bits(transposed_oracle(rows, cols, values, g.node_count)))

    @pytest.mark.parametrize("n", [4, 7, 16])
    @pytest.mark.parametrize("shape,kw,make,value", ALL_GRIDS)
    def test_residuals_match_dense_formulas(self, shape, kw, make, value, n):
        g = build_grid(shape, n, **kw)
        op = assemble_h(g, make(g, value))
        h_rho = conjugated_operator(op, _rho(g))
        dec = op.eigendecomposition()
        dec_rho = h_rho.eigendecomposition()
        assert len(dec.axis_vectors) == g.dimension
        assert abs(dec.eigen_residual(op)
                   - formed_eigen_residual(dec, op)) <= 1e-14
        for d in (dec, dec_rho):
            assert abs(d.gram_residual() - formed_gram_residual(d)) <= 1e-14
        # a conjugate's eigenpairs are gated by the eigenpair map below
        with pytest.raises(GridError):
            dec_rho.eigen_residual(h_rho)
        assert abs(eigenpair_map_residual(h_rho, dec)
                   - _loop_eigenpair_map_residual(h_rho, dec)) <= 1e-14
        rng = np.random.default_rng(n)
        n_nodes, d = g.node_count, g.dimension
        # node-major columns: 3 scalars, and 3 complex covectors of d channels
        scalars = rng.standard_normal((n_nodes, 3))
        covectors = (rng.standard_normal((n_nodes, 3 * d))
                     + 1j * rng.standard_normal((n_nodes, 3 * d)))
        for h in (op, h_rho):
            for x in (scalars, covectors):
                want = h.matrix @ x
                got = h.apply(x)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_conjugate_of_a_conjugate_rejected(self):
        g = build_grid("circle", 8, radius=1.0)
        h_rho = conjugated_operator(assemble_h(g, WeightField.constant(g, 2.0)),
                                    _rho(g))
        with pytest.raises(GridError):
            conjugated_operator(h_rho, _rho(g))


HONESTY_GRIDS = [("circle", {"radius": 1.0}, WeightField.constant, 2.0),
                 ("torus", {"radius": 1.0}, WeightField.constant, 2.0),
                 ("square", {"halfwidth": 3.0}, WeightField.quadratic, 1.0)]


class TestClosedFormBands:
    """H's stencil and its d = 2 factors, written from the closed-form axis
    bands, against the link product G^T G, bit for bit."""

    @pytest.mark.parametrize("n", [4, 5, 64, 200, 400])
    @pytest.mark.parametrize("shape,kw,make,value", ALL_GRIDS[:2])
    def test_stencil_bands_are_the_link_product(self, shape, kw, make,
                                                value, n):
        g = build_grid(shape, n, **kw)
        weight = make(g, value)
        diag, bands = assemble_h(g, weight).stencil
        lap = link_laplacian(n, g.spacing[0], g.periodic)
        rows, cols = np.nonzero(lap)
        offsets = sorted(set((cols - rows)[cols != rows].tolist()))
        # ascending offsets, as apply and the trace moments add them
        assert [c.start - r.start for _, r, c, _ in bands] == offsets
        assert all(axis == 0 for axis, *_ in bands)
        for (_, r, c, band), k in zip(bands, offsets):
            assert (r.stop - r.start, c.stop - c.start) == (n - abs(k),) * 2
            assert np.array_equal(_bits(band), _bits(np.diagonal(lap, k)))
        assert np.array_equal(_bits(diag),
                              _bits(np.diagonal(lap) + weight.w))
        assert np.array_equal(
            _bits(operators._axis_matrix(np.diagonal(lap), bands, 0)),
            _bits(lap))

    @pytest.mark.parametrize("n", [4, 5, 64, 200, 400])
    @pytest.mark.parametrize("shape,kw,make,value", TENSOR_GRIDS[:2])
    def test_axis_factors_are_the_link_product(self, shape, kw, make, value,
                                               n):
        g = build_grid(shape, n, **kw)
        weight = make(g, value)
        op = assemble_h(g, weight)
        periodic = g.periodic
        laps = [link_laplacian(n, h, periodic) for h in g.spacing]
        for f, lap, part in zip(op.factors, laps, weight.parts):
            assert np.array_equal(_bits(f), _bits(lap + np.diag(part)))
        diag = np.diagonal(laps[0])[:, None] + np.diagonal(laps[1])[None, :]
        assert np.array_equal(_bits(op.stencil[0]),
                              _bits(diag.ravel() + weight.w))


def _refuse_dense(*args):
    """Stands in for `operators._assembled` (or `_axis_matrix`) where no
    dense matrix may be written."""
    raise AssertionError("dense matrix written")


class TestGatesStayHonest:
    """The gates read what they claim to check, and fail on broken inputs."""

    @pytest.mark.parametrize("shape,kw,make,value",
                             HONESTY_GRIDS + [ALL_GRIDS[1]])
    def test_stencil_paths_never_write_the_matrix(self, shape, kw, make,
                                                  value, monkeypatch):
        g = build_grid(shape, 7, **kw)
        # every axis here is truncated, or periodic with an even potential:
        # the solve is tridiagonal and writes no matrix of the stencil
        monkeypatch.setattr(operators, "_assembled", _refuse_dense)
        monkeypatch.setattr(operators, "_axis_matrix", _refuse_dense)
        base = assemble_h(g, make(g, value))
        decs = (base.eigendecomposition(),
                conjugated_operator(base, _rho(g)).eigendecomposition())
        if g.dimension == 1:
            # the 1-D reference spectrum writes no dense matrix either; only
            # the circle has degenerate eigenvalues
            steps = np.diff(base.eigenvalues())
            assert np.all(steps >= 0 if g.periodic else steps > 0)

        # the gates write neither
        monkeypatch.setattr(operators, "_axis_matrix", _refuse_dense)
        op = assemble_h(g, make(g, value))
        h_rho = conjugated_operator(op, _rho(g))
        for dense in ("matrix", "factors"):
            with pytest.raises(AssertionError):
                getattr(op, dense)
        rng = np.random.default_rng(7)
        columns = rng.standard_normal((g.node_count, 2 * g.dimension))
        for h, dec in zip((op, h_rho), decs):
            assert h.symmetry_residual() <= 1e-12
            assert np.all(np.isfinite(h.apply(columns)))
            assert dec.gram_residual() <= 1e-13
        assert decs[0].eigen_residual(op) <= 1e-11
        assert eigenpair_map_residual(h_rho, decs[0]) <= 1e-12

    def test_weyl_spectrum_check_never_writes_the_matrix(self, monkeypatch):
        g = build_grid("torus", 64, radius=1.0)
        h_rho = conjugated_operator(
            assemble_h(g, WeightField.constant(g, 2.0)), _rho(g))
        monkeypatch.setattr(operators, "_assembled", _refuse_dense)
        with pytest.raises(AssertionError):
            h_rho.matrix
        measured, tol, detail = operators.spectrum_match(
            h_rho, _torus_dispersion(64, 2.0), 1e-8)
        assert tol == 1.0 and measured <= tol
        assert detail.startswith("weyl path:")

    @pytest.mark.parametrize("shape,kw,make,value", TENSOR_GRIDS + [WIDE_GRID])
    def test_factor_gates_never_form_a_mode(self, shape, kw, make, value,
                                            monkeypatch):
        # the eigen, gram and spectrum gates of `energyrep spectrum` on a
        # per-axis decomposition
        g = build_grid(shape, 33, **kw)
        op = assemble_h(g, make(g, value))
        dec = op.eigendecomposition()
        h_rho = conjugated_operator(op, _rho(g))

        def no_modes(self, cols):
            raise AssertionError("mode formed")

        monkeypatch.setattr(SpectralDecomposition, "modes", no_modes)
        monkeypatch.setattr(operators, "_assembled", _refuse_dense)
        with pytest.raises(AssertionError):
            dec.modes(0)
        assert dec.eigen_residual(op) <= 1e-12
        assert dec.gram_residual() <= 1e-13
        measured, tol, detail = operators.spectrum_match(h_rho,
                                                         dec.eigenvalues, 1e-8)
        assert measured <= tol and detail.startswith("weyl path:")

    def test_torus_at_128_holds_no_dense_array(self):
        # n = 16384: a dense H would take 2 GiB
        g = build_grid("torus", 128, radius=1.0)
        n = g.node_count
        tracemalloc.start()
        try:
            op = assemble_h(g, WeightField.constant(g, 2.0))
            h_rho = conjugated_operator(op, _rho(g))
            residuals = [h.symmetry_residual() for h in (op, h_rho)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(residuals) <= 1e-12
        assert peak <= 256 * 8 * n  # 32 MiB: O(n), where H alone is n^2
        diag, bands = op.stencil
        held = [op.node_weights, h_rho.node_weights, h_rho.rho, diag,
                *(band[3] for band in bands), *op.axis_diagonals]
        assert all(a.size <= n for a in held)

    def test_torus_at_96_holds_no_formed_eigenvectors(self):
        # n = 9216: the formed eigenvectors alone would take 648 MiB
        g = build_grid("torus", 96, radius=1.0)
        tracemalloc.start()
        try:
            op = assemble_h(g, WeightField.constant(g, 2.0))
            dec = op.eigendecomposition()
            gates = (dec.eigen_residual(op), dec.gram_residual(),
                     eigenpair_map_residual(conjugated_operator(op, _rho(g)),
                                            dec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [x.shape for x in dec.axis_vectors] == [(96, 96)] * 2
        assert max(gates) <= 1e-10
        assert peak <= 64 * 2 ** 20

    def test_torus_at_128_conjugate_solves_per_axis(self):
        # n = 16384: a dense solve of H_rho would hold two 2 GiB arrays
        g = build_grid("torus", 128, radius=1.0)
        rho = _rho(g)
        fields = _test_fields(g, 4, 128)
        tracemalloc.start()
        try:
            h_rho = conjugated_operator(
                assemble_h(g, WeightField.constant(g, 2.0)), rho)
            dec = h_rho.eigendecomposition()
            vals = seminorm_p_batch(fields, (0.0, 1.0), dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [x.shape for x in dec.axis_vectors] == [(128, 128)] * 2
        assert peak <= 64 * 2 ** 20
        # p = 0 is the rho-weighted norm: the modes span the whole space
        assert _relative(vals[0], norm(fields, rho)) <= 1e-12

    def test_circle_gates_at_1024_stay_within_the_formed_peaks(self):
        # the bounds are the traced peaks of the two gates when a 1-D
        # decomposition stored its formed columns: the stencil applied to
        # 64 formed modes at a time, and the gram of all of them (an N x N
        # array is 8 MiB here)
        g, op = circle_operator(1024)
        dec = op.eigendecomposition()
        for gate, bound in ((lambda: dec.eigen_residual(op), 1_714_616),
                            (dec.gram_residual, 16_777_968)):
            tracemalloc.start()
            try:
                value = gate()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert value <= 1e-8
            assert peak <= bound, f"peaked at {peak} bytes"

    @pytest.mark.skipif(not TRIDIAGONAL_SOLVER,
                        reason="numpy's BLAS exports no dstevd")
    def test_interval_solves_at_1024_stay_within_the_dense_peaks(self):
        # the bounds are what the dense solves held at n = 1024, where an
        # N x N array is 8 MiB: for eigh, its traced peak (the axis matrix
        # and the vectors, 16,787,202 bytes) plus what numpy's LAPACK call
        # held outside tracemalloc, a copy of the matrix and dsyevd's
        # workspace of 1 + 6n + 2n^2 doubles (the process's resident peak
        # rose by 42,328 kB); for eigvalsh, its traced peak, the matrix.
        # dstevd holds the vectors and 1 + 4n + n^2 doubles of
        # workspace, and no matrix
        g = build_grid("interval", 1024, halfwidth=8.0)
        op = assemble_h(g, WeightField.quadratic(g, 1.0))
        n = g.node_count
        peaks = []
        for solve, bound in ((op.eigendecomposition,
                              16_787_202 + 8 * (3 * n * n + 1 + 6 * n)),
                             (op.eigenvalues, 8_466_224)):
            tracemalloc.start()
            try:
                solve()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, f"peaked at {peak} bytes"
            peaks.append(peak)
        # the vectors and the workspace at once, and O(N) besides
        assert peaks[0] <= 8 * (2 * n * n + 16 * n)

    @pytest.mark.parametrize("shape,kw,make,value", HONESTY_GRIDS)
    def test_wrong_stencil_coefficient_fails_eigen_gate(self, shape, kw, make,
                                                        value):
        g = build_grid(shape, 7, **kw)
        op = assemble_h(g, make(g, value))
        dec = op.eigendecomposition()
        assert dec.eigen_residual(op) <= 1e-12
        diag, bands = op.stencil
        for t, (axis, rows, cols, values) in enumerate(bands):
            wrong_band = (axis, rows, cols, values.copy())
            wrong_band[3][0] *= 1.01
            wrong = dataclasses.replace(op, stencil=(
                diag, bands[:t] + [wrong_band] + bands[t + 1:]))
            assert dec.eigen_residual(wrong) > 1e-8
        wrong_diag = diag.copy()
        wrong_diag[5] *= 1.01
        wrong = dataclasses.replace(op, stencil=(wrong_diag, bands))
        assert dec.eigen_residual(wrong) > 1e-8

    @pytest.mark.parametrize("shape,kw,make,value", HONESTY_GRIDS)
    def test_scaled_column_fails_gram_gate(self, shape, kw, make, value):
        g = build_grid(shape, 7, **kw)
        dec = assemble_h(g, make(g, value)).eigendecomposition()
        assert dec.gram_residual() <= 1e-13
        for k in (0, 5, g.node_count - 1):
            # mode k's first-axis column
            u, *rest = dec.axis_vectors
            u = u.copy()
            u[:, dec.pairs[0][k]] *= 1.01
            scaled = dataclasses.replace(dec, axis_vectors=(u, *rest))
            assert scaled.gram_residual() > 1e-10

    @pytest.mark.parametrize("shape,kw,make,value", TENSOR_GRIDS)
    def test_repeated_pair_fails_gram_gate(self, shape, kw, make, value):
        g = build_grid(shape, 7, **kw)
        dec = assemble_h(g, make(g, value)).eigendecomposition()
        i, j = (x.copy() for x in dec.pairs)
        assert np.array_equal(np.sort(i * 7 + j), np.arange(49))
        i[1], j[1] = i[0], j[0]
        repeated = dataclasses.replace(dec, pairs=(i, j))
        assert repeated.gram_residual() > 1e-10

    @pytest.mark.parametrize("shape,kw,make,value", TENSOR_GRIDS)
    def test_broken_factors_fail_eigen_gate(self, shape, kw, make, value):
        g = build_grid(shape, 7, **kw)
        op = assemble_h(g, make(g, value))
        dec = op.eigendecomposition()
        assert dec.eigen_residual(op) <= 1e-12
        u, v = dec.axis_vectors
        # a factor column that is no eigenvector
        bent = v.copy()
        bent[:, 2] += 1e-6 * v[:, 3]
        assert dataclasses.replace(dec, axis_vectors=(u, bent)).eigen_residual(
            op) > 1e-8
        # two modes of different eigenvalues that trade pairs
        i, j = (x.copy() for x in dec.pairs)
        k = np.flatnonzero(np.diff(dec.eigenvalues) > 1e-3)[0]
        i[[k, k + 1]], j[[k, k + 1]] = i[[k + 1, k]], j[[k + 1, k]]
        assert dataclasses.replace(dec, pairs=(i, j)).eigen_residual(op) > 1e-8
        # an axis diagonal off H's, solved consistently: the axis residuals
        # stay at rounding, so only the structural deviation sees it
        a, b = op.axis_diagonals
        a = a.copy()
        a[3] += 1e-3
        off = dataclasses.replace(op, axis_diagonals=(a, b))
        assert off.eigendecomposition().eigen_residual(off) > 1e-5

    @pytest.mark.parametrize("shape,kw,make,value", TENSOR_GRIDS)
    def test_kronecker_deviation_bounds_the_dense_difference(self, shape, kw,
                                                             make, value):
        g = build_grid(shape, 7, **kw)
        op = assemble_h(g, make(g, value))
        a, b = op.axis_diagonals
        diag, bands = op.stencil
        wrong_diag = diag.copy()
        wrong_diag[5] += 1e-3
        wrong_band = list(bands[0][:3]) + [bands[0][3] * 1.01]
        a_off = a.copy()
        a_off[3] += 1e-3
        for h in (op, dataclasses.replace(op, stencil=(wrong_diag, bands)),
                  dataclasses.replace(op, stencil=(diag, [tuple(wrong_band)]
                                                   + bands[1:])),
                  dataclasses.replace(op, axis_diagonals=(a_off, b))):
            fa, fb = h.factors
            kron_sum = (np.kron(fa, np.eye(fb.shape[0]))
                        + np.kron(np.eye(fa.shape[0]), fb))
            dense = np.linalg.norm(h.matrix - kron_sum, 2)
            bound = _kronecker_deviation(h)
            # clean, both are the diagonal's rounding: 0, or equal
            assert dense <= bound * (1.0 + 1e-12) <= 4.0 * dense + 1e-13


def _torus_dispersion(n, w0):
    """Oracle: the sorted sums of the two axes' periodic dispersions, each
    axis carrying half of the constant W."""
    a = periodic_dispersion(n, w0 / 2.0)
    return np.sort((a[:, None] + a[None, :]).ravel())


def _formed_kronecker_solve(op):
    """Oracle: the per-axis solve with every column formed as
    kron(u_i, v_j) / sqrt(w), as it was stored before the decomposition kept
    only its factors; each axis solved by the package's own axis solve."""
    weights = op.node_weights
    (a, u), (b, v) = (op._axis_solve(axis, vectors=True) for axis in (0, 1))
    summed = (a[:, None] + b[None, :]).ravel()
    order = np.argsort(summed, kind="stable")
    i, j = np.divmod(order, b.size)
    vecs = (u[:, None, i] * v[None, :, j]).reshape(summed.size, summed.size)
    vecs /= np.sqrt(weights)[:, None]
    return summed[order], vecs


def _shells(lam):
    """The runs of equal eigenvalues (to 1e-8 of the largest), as index
    arrays: the degenerate shells, and single modes."""
    cuts = np.flatnonzero(np.diff(lam) > 1e-8 * np.max(np.abs(lam))) + 1
    return np.split(np.arange(lam.size), cuts)


def _shell_gram_defect(dec):
    """Largest |E^T diag(w) E - I| over the formed columns E of each shell."""
    worst = 0.0
    for shell in _shells(dec.eigenvalues):
        e = dec.modes(shell)
        g = e.T @ (dec.node_weights[:, None] * e)
        worst = max(worst, float(np.max(np.abs(g - np.eye(shell.size)))))
    return worst


def _relative(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _formed_gram_diagonal(dec):
    """Oracle: the weighted norms of the formed modes, a block at a time."""
    w = dec.node_weights
    return np.concatenate([w @ np.square(block)
                           for block in map(dec.modes, _blocks(w.size))])


class TestFactorModes:
    """The factor-only decomposition against the formed columns it no longer
    stores."""

    @pytest.mark.parametrize("n", [16, 33, 64])
    @pytest.mark.parametrize("shape,kw,make,value", TENSOR_GRIDS + [WIDE_GRID])
    def test_factor_gates_match_the_formed_gates(self, shape, kw, make, value,
                                                 n):
        g = build_grid(shape, n, **kw)
        op = assemble_h(g, make(g, value))
        dec = op.eigendecomposition()
        # both at rounding level, far below the 1e-8 gate
        assert abs(dec.eigen_residual(op)
                   - formed_eigen_residual(dec, op)) <= 1e-13
        u, v = dec.axis_vectors
        i, j = dec.pairs
        diagonal = np.sum(u * u, axis=0)[i] * np.sum(v * v, axis=0)[j]
        assert np.max(np.abs(diagonal - _formed_gram_diagonal(dec))) <= 1e-14
        assert dec.gram_residual() <= 1e-13

    @pytest.mark.parametrize("shape,kw,make,value", ALL_GRIDS)
    def test_conjugate_eigen_gate_raises(self, shape, kw, make, value):
        # the axis bound models H under uniform weights: it refuses a
        # conjugate's weights and a conjugate's stencil, whose eigenpairs
        # the eigenpair map gates
        g = build_grid(shape, 16, **kw)
        op = assemble_h(g, make(g, value))
        h_rho = conjugated_operator(op, _rho(g))
        dec, dec_rho = op.eigendecomposition(), h_rho.eigendecomposition()
        assert formed_eigen_residual(dec_rho, h_rho) <= 1e-12
        for d, h in ((dec_rho, h_rho), (dec_rho, op), (dec, h_rho)):
            with pytest.raises(GridError):
                d.eigen_residual(h)
        assert eigenpair_map_residual(h_rho, dec) <= 1e-12

    @pytest.mark.parametrize("n", [5, 7, 8, 16, 33, 48, 64])
    @pytest.mark.parametrize("shape,kw,make,value",
                             TENSOR_GRIDS[:2] + [WIDE_GRID])
    def test_modes_are_the_formed_columns(self, shape, kw, make, value, n):
        g = build_grid(shape, n, **kw)
        op = assemble_h(g, make(g, value))
        dec = op.eigendecomposition()
        assert len(dec.axis_vectors) == 2
        lam, vecs = _formed_kronecker_solve(op)
        assert np.array_equal(_bits(dec.eigenvalues), _bits(lam))
        assert np.array_equal(_bits(dec.modes(slice(None))), _bits(vecs))
        picks = np.array([g.node_count - 1, 0, 3])
        assert np.array_equal(_bits(dec.modes(picks)), _bits(vecs[:, picks]))
        assert np.array_equal(_bits(dec.modes(3)), _bits(vecs[:, 3]))

    @pytest.mark.parametrize("shape,kw,make,value", TENSOR_GRIDS[:2])
    def test_every_shell_has_full_rank(self, shape, kw, make, value,
                                       monkeypatch):
        g = build_grid(shape, 16, **kw)
        op = assemble_h(g, make(g, value))
        dec = op.eigendecomposition()
        shells = _shells(dec.eigenvalues)
        assert max(s.size for s in shells) >= 2  # 4 and 8 on the torus
        assert _shell_gram_defect(dec) <= 1e-12
        # column k formed from pair k - 1 inside a shell: a mode repeated,
        # which the eigen and gram gates cannot see
        first = np.concatenate([np.full(s.size, s[0]) for s in shells])
        formed = SpectralDecomposition.modes

        def repeated(self, cols):
            k = np.arange(self.eigenvalues.size)[cols]
            return formed(self, np.where(k > first[k], k - 1, k))

        monkeypatch.setattr(SpectralDecomposition, "modes", repeated)
        assert dec.eigen_residual(op) <= 1e-12
        assert dec.gram_residual() <= 1e-13
        assert _shell_gram_defect(dec) > 0.5

    @pytest.mark.parametrize("n", [7, 16, 64])
    @pytest.mark.parametrize("shape,kw,make,value",
                             TENSOR_GRIDS[:2] + [WIDE_GRID])
    def test_expand_matches_the_formed_path(self, shape, kw, make, value, n):
        g = build_grid(shape, n, **kw)
        dec = assemble_h(g, make(g, value)).eigendecomposition()
        # the formed modes as one axis: the dense solve's form
        formed = one_axis(dec)
        fields = _test_fields(g, 5, n)
        assert _relative(dec.expand(fields), formed_expand(dec, fields)) \
            <= 1e-13
        one = fields.copy_with(fields.values[0])
        assert _relative(dec.expand(one), formed_expand(dec, one)) <= 1e-13
        assert _relative(formed.expand(fields), formed_expand(dec, fields)) \
            <= 1e-13
        ps = (0.0, 0.5, 1.0, 2.0)
        got = seminorm_p_batch(fields, ps, dec)
        want = seminorm_p_batch(fields, ps, formed)
        assert np.max(np.abs(got - want) / want) <= 1e-13
        modes = [1, 2, g.node_count - 1]
        cov = eigenvector_covector(dec, modes).values
        assert _relative(cov, eigenvector_covector(formed, modes).values) \
            <= 1e-13
        # i and j swapped: the expansion no longer matches
        swapped = dataclasses.replace(dec, pairs=dec.pairs[::-1])
        assert _relative(swapped.expand(fields),
                         formed_expand(dec, fields)) > 1e-3


def _negated(dec):
    """dec with a fixed subset of the columns of every axis negated, and
    the sign each mode took."""
    signs = [np.where(np.arange(x.shape[1]) % (3 - axis) == 1 - axis,
                      -1.0, 1.0) for axis, x in enumerate(dec.axis_vectors)]
    sign = np.prod([s[p] for s, p in zip(signs, dec.pairs)], axis=0)
    return (dataclasses.replace(dec, axis_vectors=tuple(
        x * s for x, s in zip(dec.axis_vectors, signs))), sign)


class TestOneAxis:
    """A 1-D H is the one-axis case of the per-axis solve, pinned against
    the dense solve of its matrix; every expansion, one axis or two,
    against the formed product."""

    @pytest.mark.parametrize("shape,kw,make,value,n", [
        ("circle", {"radius": 1.0}, WeightField.constant, 2.0, 16),
        ("circle", {"radius": 1.0}, WeightField.constant, 2.0, 257),
        ("interval", {"halfwidth": 8.0}, WeightField.quadratic, 1.0, 400)])
    def test_solve_is_the_eigh_of_the_matrix(self, shape, kw, make, value,
                                             n):
        # bit for bit on the interval; on the circle the reflection split
        # against eigh within the split's bounds, and bit for bit its own
        g = build_grid(shape, n, **kw)
        op = assemble_h(g, make(g, value))
        dec = op.eigendecomposition()
        lam, vecs = np.linalg.eigh(op.matrix)
        sqw = np.sqrt(op.node_weights)[:, None]
        if g.periodic:
            _assert_split_is_the_eigh(dec.eigenvalues, dec.axis_vectors[0],
                                      lam, vecs)
            lam, vecs = op._axis_solve(0, vectors=True)
        assert np.array_equal(_bits(dec.eigenvalues), _bits(lam))
        assert np.array_equal(_bits(dec.modes(slice(None))),
                              _bits(vecs / sqw))

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("shape,kw,make,value",
                             ALL_GRIDS[:2] + TENSOR_GRIDS[:2])
    def test_expand_is_the_formed_product(self, shape, kw, make, value,
                                          conjugate):
        g = build_grid(shape, 16, **kw)
        op = assemble_h(g, make(g, value))
        h = conjugated_operator(op, _rho(g)) if conjugate else op
        dec = h.eigendecomposition()
        fields = _test_fields(g, 5, 16)
        for vals in (fields.values, fields.values.real):
            f = fields.copy_with(vals)
            got = dec.expand(f)
            assert got.dtype == vals.dtype
            assert _relative(got, formed_expand(dec, f)) <= 1e-13
            one = f.copy_with(vals[0])
            assert _relative(dec.expand(one), formed_expand(dec, one)) \
                <= 1e-13
            # a set's coefficients are its members' own, bit for bit
            assert np.array_equal(got, np.stack([dec.expand(f.copy_with(v))
                                                 for v in vals]))


# the truncated grids whose axis operators LAPACK's tridiagonal solver
# solves: odd and even N, both potentials
TRUNCATED_GRIDS = [
    ("interval", {"halfwidth": 8.0}, WeightField.quadratic, 1.0, 8),
    ("interval", {"halfwidth": 8.0}, WeightField.quadratic, 1.0, 9),
    ("interval", {"halfwidth": 8.0}, WeightField.quadratic, 1.0, 200),
    ("interval", {"halfwidth": 8.0}, WeightField.constant, 2.0, 257),
    ("interval", {"halfwidth": 8.0}, WeightField.quadratic, 1.0, 400),
    *((shape, kw, make, value, n)
      for shape, kw in (("square", {"halfwidth": 3.0}),
                        ("punctured_square", {"halfwidth": 4.0}))
      for make, value in ((WeightField.quadratic, 1.0),
                          (WeightField.constant, 2.0))
      for n in (16, 33))]


class TestTridiagonalSolve:
    """Every truncated solve against the dense solve it replaces, bit for
    bit: `eigh` of each axis matrix, `eigvalsh` of a 1-D H's matrix, and
    the same reports where numpy's BLAS lacks dstevd."""

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("shape,kw,make,value,n", TRUNCATED_GRIDS)
    def test_solve_is_the_eigh_of_each_factor(self, shape, kw, make, value,
                                              n, conjugate):
        g = build_grid(shape, n, **kw)
        op = assemble_h(g, make(g, value))
        h = conjugated_operator(op, _rho(g)) if conjugate else op
        dec = h.eigendecomposition()
        solves = [np.linalg.eigh(f) for f in op.factors]
        for axis, (lam, vecs) in enumerate(solves):
            x = dec.axis_vectors[axis]
            assert np.array_equal(x, vecs) and x.flags.c_contiguous
            solved = operators._tridiagonal_solve(
                op.axis_diagonals[axis], op.stencil[1], axis, vectors=True)
            assert np.array_equal(solved[0], lam)
            assert np.array_equal(solved[1], vecs)
            assert solved[1].flags.c_contiguous
        summed = reduce(np.add.outer, [lam for lam, _ in solves]).ravel()
        assert np.array_equal(dec.eigenvalues,
                              summed[np.argsort(summed, kind="stable")])

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("shape,kw,make,value,n", TRUNCATED_GRIDS[:5])
    def test_eigenvalues_are_the_eigvalsh_of_the_matrix(self, shape, kw,
                                                        make, value, n,
                                                        conjugate):
        g = build_grid(shape, n, **kw)
        op = assemble_h(g, make(g, value))
        h = conjugated_operator(op, _rho(g)) if conjugate else op
        lam = h.eigenvalues()
        assert np.array_equal(lam, np.linalg.eigvalsh(op.matrix))
        solved = operators._tridiagonal_solve(op.stencil[0], op.stencil[1],
                                              0, vectors=False)
        assert np.array_equal(solved, lam)

    @pytest.mark.parametrize("shape,kw,make,value,n",
                             [TRUNCATED_GRIDS[2], TRUNCATED_GRIDS[-1]])
    def test_without_dstevd_the_solve_is_the_same(self, shape, kw, make,
                                                      value, n, monkeypatch):
        g = build_grid(shape, n, **kw)
        op = assemble_h(g, make(g, value))
        solved = op.eigendecomposition(), op.eigenvalues()
        # the lookup finds no library: every solve is the dense one
        monkeypatch.setattr(blas, "library_paths", lambda: ())
        assert blas.dstevd(np.ones(2), np.ones(1)) is None
        dense = op.eigendecomposition(), op.eigenvalues()
        assert np.array_equal(dense[0].eigenvalues, solved[0].eigenvalues)
        for x, y in zip(dense[0].axis_vectors, solved[0].axis_vectors):
            assert np.array_equal(x, y) and x.flags.c_contiguous
        assert np.array_equal(dense[1], solved[1])

    @pytest.mark.skipif(not TRIDIAGONAL_SOLVER,
                        reason="numpy's BLAS exports no dstevd")
    def test_dstevd_failure_raises_as_eigvalsh_does(self):
        # a NaN on the diagonal: the QL iteration does not converge
        diagonal, lower = np.ones(30), np.full(29, -1.0)
        diagonal[15] = np.nan
        matrix = np.diag(diagonal) + np.diag(lower, -1) + np.diag(lower, 1)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvalsh(matrix)
        with pytest.raises(np.linalg.LinAlgError):
            blas.dstevd(diagonal, lower, vectors=False)


# the reflection split against eigh of the same axis matrix: eigenvalues
# within this many ulps of the largest, and per degenerate cluster the
# largest norm of a split column's part outside the span of eigh's columns
# of that cluster, which bounds the 2-norm difference of the cluster's two
# spectral projectors up to sqrt of the cluster size (measured on the
# circle at N = 1024: 9 ulps and 5.4e-12)
SPLIT_VALUE_ULPS = 16
SPLIT_PROJECTOR_BOUND = 1e-10


def _assert_split_is_the_eigh(lam, x, eigh_lam, eigh_x):
    """The ascending eigenvalues lam and columns x of a split solve against
    eigh's, within the split's bounds; the clusters are `_shells` of eigh's
    eigenvalues."""
    scale = np.max(np.abs(eigh_lam))
    assert np.max(np.abs(lam - eigh_lam)) <= (
        SPLIT_VALUE_ULPS * np.finfo(float).eps * scale)
    cluster = np.empty(lam.size, dtype=int)
    for k, shell in enumerate(_shells(eigh_lam)):
        cluster[shell] = k
    overlap = eigh_x.T @ x
    overlap[cluster[:, None] != cluster[None, :]] = 0.0
    outside = x - eigh_x @ overlap
    assert np.max(np.linalg.norm(outside, axis=0)) <= SPLIT_PROJECTOR_BOUND


# periodic axes at odd and even N, from the smallest blocks up
SPLIT_SIZES = [5, 7, 8, 16, 33, 64, 257, 1024]


def _shifted_cosine(g):
    """A potential that is not even under the reflection on its first axis:
    W = 2 + cos(x - 0.3) on the circle; on the torus the parts
    1.5 + cos(x - 0.3) and a constant 1, which is even.  (cos y itself is
    not even bit for bit: the nodes h j and h (N - j) round apart.)"""
    if g.dimension == 1:
        w = 2.0 + np.cos(g.nodes[:, 0] - 0.3)
        return WeightField(g, w, np.zeros(g.node_count))
    parts = (1.5 + np.cos(g.axis_coordinates(0) - 0.3),
             np.ones(g.axis_sizes[1]))
    w = (parts[0][:, None] + parts[1][None, :]).ravel()
    return WeightField(g, w, np.zeros(g.node_count), parts)


class TestReflectionSolve:
    """Every periodic axis whose diagonal is even under i -> -i mod N is two
    tridiagonal solves, against `eigh` of its axis matrix within the split's
    bounds; an axis whose diagonal is not even is `eigh` of its matrix, and
    without dstevd every block is `eigh` of its own, with the same bits."""

    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("n", SPLIT_SIZES)
    @pytest.mark.parametrize("shape", ["circle", "torus"])
    def test_split_is_the_eigh_of_each_factor(self, shape, n, conjugate):
        g = build_grid(shape, n, radius=1.0)
        op = assemble_h(g, WeightField.constant(g, 2.0))
        h = conjugated_operator(op, _rho(g)) if conjugate else op
        dec = h.eigendecomposition()
        solves = [h._axis_solve(axis, vectors=True)
                  for axis in range(g.dimension)]
        for (lam, x), factor, y in zip(solves, op.factors, dec.axis_vectors):
            assert np.array_equal(x, y) and y.flags.c_contiguous
            _assert_split_is_the_eigh(lam, x, *np.linalg.eigh(factor))
            # each column is even or odd under the reflection
            mirrored = x[(-np.arange(n)) % n]
            assert np.all(np.all(mirrored == x, axis=0)
                          | np.all(mirrored == -x, axis=0))
        summed = reduce(np.add.outer, [lam for lam, _ in solves]).ravel()
        assert np.array_equal(dec.eigenvalues,
                              summed[np.argsort(summed, kind="stable")])

    @pytest.mark.parametrize("n", SPLIT_SIZES)
    def test_circle_eigenvalues_are_the_split_without_vectors(self, n):
        g, op = circle_operator(n)
        lam, ref = op.eigenvalues(), np.linalg.eigvalsh(op.matrix)
        assert np.max(np.abs(lam - ref)) <= (
            SPLIT_VALUE_ULPS * np.finfo(float).eps * np.max(ref))
        assert np.array_equal(lam, operators._reflection_solve(
            op.stencil[0], op.stencil[1], 0, vectors=False))

    @pytest.mark.parametrize("n", [4, 5])
    def test_merged_order_puts_the_even_block_first_on_a_tie(
            self, n, monkeypatch):
        # blocks whose values tie exactly: the even one's column comes first
        odd = np.arange(2.0, 2.0 + (n - 1) // 2)
        blocks = [np.array([1.0, 2.0, 3.0]), odd]

        def fixed(diagonal, lower, vectors):
            lam = blocks.pop(0)
            assert lam.size == diagonal.size
            return lam, np.eye(lam.size)

        monkeypatch.setattr(operators, "_tridiagonal", fixed)
        g, op = circle_operator(n)
        lam, x = operators._reflection_solve(op.stencil[0], op.stencil[1], 0,
                                             vectors=True)
        assert np.array_equal(lam, np.sort(np.r_[1.0, 2.0, 3.0, odd]))
        mirrored = x[(-np.arange(n)) % n]
        even = np.all(mirrored == x, axis=0)
        # value 2 twice: the even column, then the odd one
        assert list(even[:3]) == [True, True, False]

    @pytest.mark.parametrize("shape", ["circle", "torus"])
    def test_potential_not_even_takes_the_eigh(self, shape):
        g = build_grid(shape, 16, radius=1.0)
        op = assemble_h(g, _shifted_cosine(g))
        dec = op.eigendecomposition()
        lam, vecs = np.linalg.eigh(op.factors[0])
        assert np.array_equal(dec.axis_vectors[0], vecs)
        if g.dimension == 1:
            assert np.array_equal(dec.eigenvalues, lam)
            assert np.array_equal(op.eigenvalues(),
                                  np.linalg.eigvalsh(op.matrix))
        else:
            # the even part of the second axis is split
            assert np.array_equal(dec.axis_vectors[1],
                                  operators._reflection_solve(
                                      op.axis_diagonals[1], op.stencil[1], 1,
                                      vectors=True)[1])
        assert dec.eigen_residual(op) <= 1e-12

    @pytest.mark.parametrize("n", [5, 16, 257])
    @pytest.mark.parametrize("shape", ["circle", "torus"])
    def test_without_dstevd_the_split_is_the_same(self, shape, n,
                                                  monkeypatch):
        g = build_grid(shape, n, radius=1.0)
        op = assemble_h(g, WeightField.constant(g, 2.0))

        def solve():
            # a d = 2 grid has no solve without vectors but the dense one
            return (op.eigendecomposition(),
                    op.eigenvalues() if g.dimension == 1 else None)

        solved = solve()
        # the lookup finds no library: every block is eigh's of its matrix
        monkeypatch.setattr(blas, "library_paths", lambda: ())
        assert blas.dstevd(np.ones(2), np.ones(1)) is None
        dense = solve()
        assert np.array_equal(dense[0].eigenvalues, solved[0].eigenvalues)
        for x, y in zip(dense[0].axis_vectors, solved[0].axis_vectors):
            assert np.array_equal(x, y) and x.flags.c_contiguous
        assert np.array_equal(dense[1], solved[1])

    def test_circle_solve_at_1024_holds_two_n_by_n_arrays(self):
        # each block's vectors and dstevd's workspace, a quarter of N^2
        # doubles each, then the N columns written from the two blocks'
        # vectors: numpy arrays all, which tracemalloc sees
        g, op = circle_operator(1024)
        n = g.node_count
        for solve in (op.eigendecomposition, op.eigenvalues):
            tracemalloc.start()
            try:
                solve()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * (2 * n * n + 64 * n), f"peaked at {peak} bytes"


class TestSignInvariance:
    """Every reader of a decomposition is bit for bit invariant under
    negating eigenvector columns, so the eigenvectors need no sign
    convention; a coefficient <e_n, f> flips exactly with its mode."""

    @pytest.mark.parametrize("shape,kw,n,make,value,conjugate", [
        ("circle", {"radius": 1.0}, 32, WeightField.constant, 2.0, False),
        ("interval", {"halfwidth": 5.0}, 24, WeightField.quadratic, 1.0,
         False),
        ("circle", {"radius": 1.0}, 32, WeightField.constant, 2.0, True),
        ("torus", {"radius": 1.0}, 16, WeightField.constant, 2.0, False),
        ("square", {"halfwidth": 3.0}, 16, WeightField.quadratic, 1.0,
         False),
        # 2304 modes: expand and the residuals run over many column blocks
        ("torus", {"radius": 1.0}, 48, WeightField.constant, 2.0, False)])
    def test_readers_ignore_column_signs(self, shape, kw, n, make, value,
                                         conjugate):
        g = build_grid(shape, n, **kw)
        weight = make(g, value)
        op = assemble_h(g, weight)
        h_rho = conjugated_operator(op, _rho(g))
        h = h_rho if conjugate else op
        if conjugate:
            weight = WeightField(g, weight.w, h_rho.rho)
        dec = h.eigendecomposition()
        assert len(dec.axis_vectors) == g.dimension
        flipped, sign = _negated(dec)
        assert np.sum(sign < 0) >= g.node_count // 4
        if not conjugate:  # a conjugate's eigen gate raises
            assert flipped.eigen_residual(h) == dec.eigen_residual(h)
        assert flipped.gram_residual() == dec.gram_residual()
        fields = _test_fields(g, 4, n)
        assert np.array_equal(flipped.expand(fields),
                              sign[:, None] * dec.expand(fields))
        ps = (0.0, 0.5, 1.0, 2.0)
        modes = (0, 3, 7)
        assert np.any(sign[list(modes)] < 0)
        eig, eig_flipped = (eigenvector_covector(d, modes)
                            for d in (dec, flipped))
        for f in (fields, eig):
            assert np.array_equal(seminorm_p_batch(f, ps, flipped),
                                  seminorm_p_batch(f, ps, dec))
        assert np.array_equal(seminorm_p_batch(eig_flipped, ps, flipped),
                              seminorm_p_batch(eig, ps, dec))
        assert np.array_equal(seminorm_prime_batch(eig_flipped, (0, 1, 2),
                                                   weight),
                              seminorm_prime_batch(eig, (0, 1, 2), weight))
        if not conjugate:
            assert (eigenpair_map_residual(h_rho, flipped)
                    == eigenpair_map_residual(h_rho, dec))


def _conjugate_entries(change):
    """Stands in for `operators._entries`: a conjugate's entries with
    change(rows, cols, values, rho) applied; H's own are left as they are."""
    entries = operators._entries

    def changed(grid, stencil, rho):
        rows, cols, values = entries(grid, stencil, rho)
        if rho is None:
            return rows, cols, values
        return rows, cols, change(rows, cols, values, rho)

    return changed


def _without_e_c(rows, cols, values, rho):
    # E^{-1} H: each entry m taken to m / e_r, the e_c factor dropped
    return values / np.exp(rho / 2.0)[cols]


def _bent(rows, cols, values, rho):
    # each entry moved by a relative 1e-6, symmetric in (r, c)
    return values * (1.0 + 1e-6 * np.cos(rows + cols))


# the circle and the |x|^2 + 1 interval at their shipped sizes; against the
# dense oracle the torus and the square at n = 1024 join them, against a
# reference spectrum the torus alone
SHIPPED_1D_GRIDS = [
    ("circle", {"radius": 1.0}, WeightField.constant, 2.0, 64),
    ("interval", {"halfwidth": 8.0}, WeightField.quadratic, 1.0, 400)]
DENSE_ORACLE_GRIDS = SHIPPED_1D_GRIDS + [grid + (32,)
                                         for grid in TENSOR_GRIDS[:2]]
REFERENCE_GRIDS = SHIPPED_1D_GRIDS + [TENSOR_GRIDS[0] + (32,)]


def _exact_spectrum(g, op, value):
    """Oracle: the periodic dispersion of W = value on the circle and the
    torus, the dense solve on the interval."""
    if g.shape_name == "circle":
        return periodic_dispersion(g.axis_sizes[0], value)
    if g.shape_name == "torus":
        return _torus_dispersion(g.axis_sizes[0], value)
    return op.eigenvalues()


class TestWeylSpectrumMatch:
    """The spectrum check of a conjugate: the Weyl bound of the symmetrized
    H_rho against the symmetrized H, and two trace moments."""

    @pytest.mark.parametrize("change", [None, _bent, _without_e_c])
    @pytest.mark.parametrize("shape,kw,make,value,n", DENSE_ORACLE_GRIDS)
    def test_bound_covers_the_dense_spectra(self, shape, kw, make, value, n,
                                            change, monkeypatch):
        g = build_grid(shape, n, **kw)
        op = assemble_h(g, make(g, value))
        h_rho = conjugated_operator(op, _rho(g))
        if change is not None:
            monkeypatch.setattr(operators, "_entries",
                                _conjugate_entries(change))
        moved = np.max(np.abs(dense_eigenvalues(h_rho) - op.eigenvalues()))
        bound = operators.weyl_bound(h_rho)
        # each dense solve errs by up to about n u |S|_2 (LAPACK's bound);
        # clean, that is far above the bound of the exact eigenvalues
        solver = 2 * g.node_count * np.finfo(float).eps * np.max(
            op.eigenvalues())
        assert moved <= bound + solver
        ref = op.eigendecomposition().eigenvalues
        measured, tol, detail = operators.spectrum_match(h_rho, ref, 1e-8)
        assert tol == 1.0 and detail.startswith("weyl path:")
        if change is None:
            assert bound <= 1e-12 and measured <= 1e-3
        else:
            assert moved > 1e3 * solver and measured > tol

    @pytest.mark.parametrize("shape,kw,make,value", TENSOR_GRIDS[:2])
    def test_moments_are_the_dense_traces(self, shape, kw, make, value):
        g = build_grid(shape, 7, **kw)
        op = assemble_h(g, make(g, value))
        diag, bands = op.stencil
        # one band dropped, its mirror kept: an asymmetric stencil
        for h in (op, conjugated_operator(op, _rho(g)),
                  dataclasses.replace(op, stencil=(diag, bands[1:]))):
            s = symmetrized(h)
            tr1, tr2 = h.trace_moments()
            assert tr1 == np.sum(np.diagonal(s))
            assert abs(tr2 - np.sum(s * s.T)) <= 1e-14 * abs(tr2)

    @pytest.mark.parametrize("shape,kw,make,value", TENSOR_GRIDS[:2])
    def test_dropped_conjugation_factor_fails(self, shape, kw, make, value,
                                              monkeypatch):
        g = build_grid(shape, 32, **kw)
        op = assemble_h(g, make(g, value))
        ref = op.eigendecomposition().eigenvalues
        h_rho = conjugated_operator(op, _rho(g))
        monkeypatch.setattr(operators, "_entries",
                            _conjugate_entries(_without_e_c))
        measured, tol, _ = operators.spectrum_match(h_rho, ref, 1e-8)
        assert measured > tol

    def test_diagonal_swap_fails(self, monkeypatch):
        # two diagonal entries of the conjugate trade places: tr S and tr S^2
        # keep their values, so the moments alone cannot see it
        g = build_grid("square", 33, halfwidth=8.0)
        op = assemble_h(g, WeightField.quadratic(g, 1.0))
        ref = op.eigendecomposition().eigenvalues
        h_rho = conjugated_operator(op, _rho(g))
        clean = h_rho.trace_moments()
        assert operators.spectrum_match(h_rho, ref, 1e-8)[0] <= 1e-3
        nodes = [0, 16]  # (0, 0) and (0, 16), diagonal 138.4 and 78.2
        assert np.ptp(op.stencil[0][nodes]) > 60.0

        def swapped(rows, cols, values, rho):
            values = values.copy()
            values[nodes] = values[nodes[::-1]]  # the diagonal comes first
            return values

        monkeypatch.setattr(operators, "_entries", _conjugate_entries(swapped))
        moments = h_rho.trace_moments()
        assert all(abs(m - c) <= 1e-12 * c for m, c in zip(moments, clean))
        assert operators.weyl_bound(h_rho) > 60.0
        measured, tol, _ = operators.spectrum_match(h_rho, ref, 1e-8)
        assert measured > tol

    def test_weyl_only_defect_fails(self, monkeypatch):
        # one symmetric off-diagonal pair of the conjugate negated on a ring
        # of odd length: tr S and tr S^2 keep their values, and the ring is
        # not bipartite, so no +-1 similarity undoes the flip and the
        # spectrum moves; only the Weyl term can see it
        g = build_grid("circle", 33, radius=1.0)
        op = assemble_h(g, WeightField.constant(g, 2.0))
        h_rho = conjugated_operator(op, _rho(g))
        ref = op.eigendecomposition().eigenvalues
        clean = h_rho.trace_moments()
        assert operators.spectrum_match(h_rho, ref, 1e-8)[0] <= 1e-3

        def flipped(rows, cols, values, rho):
            pair = ((rows == 0) & (cols == 1)) | ((rows == 1) & (cols == 0))
            assert np.count_nonzero(pair) == 2
            return np.where(pair, -values, values)

        monkeypatch.setattr(operators, "_entries", _conjugate_entries(flipped))
        moved = np.max(np.abs(dense_eigenvalues(h_rho) - op.eigenvalues()))
        assert moved > 1.0
        moments = h_rho.trace_moments()
        assert all(abs(m - c) <= 1e-12 * c for m, c in zip(moments, clean))
        assert operators.weyl_bound(h_rho) >= moved
        measured, tol, _ = operators.spectrum_match(h_rho, ref, 1e-8)
        assert measured > tol

    @pytest.mark.parametrize("shape,kw,make,value,n", REFERENCE_GRIDS)
    def test_moment_only_defect_fails(self, shape, kw, make, value, n):
        g = build_grid(shape, n, **kw)
        op = assemble_h(g, make(g, value))
        h_rho = conjugated_operator(op, _rho(g))
        ref = _exact_spectrum(g, op, value)
        assert operators.spectrum_match(h_rho, ref, 1e-8)[0] <= 1e-3
        # the top of the spectrum: H_rho still matches H, not the reference
        ref[-1] *= 1.0 + 1e-6
        assert operators.weyl_bound(h_rho) <= 1e-12
        measured, tol, _ = operators.spectrum_match(h_rho, ref, 1e-8)
        assert measured > tol

    @pytest.mark.parametrize("shape,kw,make,value,n", REFERENCE_GRIDS)
    def test_nan_in_the_reference_fails(self, shape, kw, make, value, n):
        g = build_grid(shape, n // 4, **kw)
        op = assemble_h(g, make(g, value))
        ref = _exact_spectrum(g, op, value)
        ref[-1] = np.nan
        assert not operators.spectrum_match(op, ref, 1e-8)[0] <= 1.0


class TestHilbertSchmidt:
    def test_oscillator_partial_sums(self):
        g = build_grid("interval", 200, halfwidth=8.0)
        op = assemble_h(g, WeightField.quadratic(g, 1.0))
        dec = op.eigendecomposition()
        rep = hilbert_schmidt_test(dec, 1.0)
        # oracle: direct summation of the returned spectrum
        lam = np.sort(dec.eigenvalues)
        for k, s in zip(rep.k_list, rep.partial_sums):
            assert s == pytest.approx(float(np.sum(lam[:k] ** -2.0)), rel=1e-13)
        assert np.all(np.diff(rep.partial_sums) >= 0)
        assert rep.verdict == "converging"
        # the fitted tail should roughly cover the remainder the window missed
        assert rep.tail_estimate is not None and rep.tail_estimate > 0
        remainder = float(np.sum(lam[rep.k_list[-2]:] ** -2.0))
        assert rep.tail_estimate >= 0.1 * remainder

    def test_ideal_oscillator_constant(self):
        # sum over 1/(2n+2)^2 from n = 1 tends to pi^2/24 - 1/4
        n = np.arange(1, 200001)
        partial = np.sum(1.0 / (2 * n + 2.0) ** 2)
        assert partial == pytest.approx(np.pi ** 2 / 24 - 0.25, abs=1e-5)

    def test_p_zero_diverges(self):
        g, op = circle_operator(32)
        rep = hilbert_schmidt_test(op.eigendecomposition(), 0.0)
        for k, s in zip(rep.k_list, rep.partial_sums):
            assert s == pytest.approx(float(k))
        assert rep.verdict == "diverging"
        assert rep.tail_estimate is None

    def test_circle_converging(self):
        g, op = circle_operator(64)
        rep = hilbert_schmidt_test(op.eigendecomposition(), 1.0)
        assert rep.verdict == "converging"
        assert rep.fitted_exponent > 1.0  # lambda ~ k^2, two modes per k

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 3.0])
    def test_tail_matches_direct_formula(self, p):
        g, op = circle_operator(64)
        rep = hilbert_schmidt_test(op.eigendecomposition(), p)
        assert rep.verdict == "converging"
        a, c, k = rep.fitted_exponent, rep.fitted_prefactor, max(rep.k_list)
        direct = c ** (-2 * p) * k ** (1 - 2 * p * a) / (2 * p * a - 1)
        assert rep.tail_estimate == pytest.approx(direct, rel=1e-13)

    def test_tail_underflows_to_zero_without_raising(self):
        # hs.p = 1000 with domain.radius = 10: c^(-2p) overflows a double,
        # while the tail itself is about e^-3704
        g = build_grid("circle", 64, radius=10.0)
        op = assemble_h(g, WeightField.constant(g, 2.0))
        rep = hilbert_schmidt_test(op.eigendecomposition(), 1000.0)
        with pytest.raises(OverflowError):
            rep.fitted_prefactor ** -2000.0
        assert rep.verdict == "converging"
        assert rep.tail_estimate == 0.0

    def test_hypothesis_violation_reported(self):
        g = build_grid("circle", 16, radius=1.0)
        op = assemble_h(g, WeightField.constant(g, 1.0))
        rep = hilbert_schmidt_test(op.eigendecomposition(), 1.0)
        assert rep.lambda_min == pytest.approx(1.0, abs=1e-12)
        assert rep.verdict == "hypothesis_violated"
