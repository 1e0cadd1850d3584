"""SU(2)/su(2) structure: Killing form, adjoint actions, exact differentials.

The Killing form, the bracket, ad and Ad by conjugation are written here
from their definitions, as the oracles of `su2.rotation_of` and of the
factor `grid.ALGEBRA_METRIC_FACTOR` that every algebra inner product uses.
The contraction and trace forms of the written-out kernels are in
`helpers`.
"""
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
import hypothesis.strategies as st

from energyrep import su2
from energyrep.grid import ALGEBRA_METRIC_FACTOR
from helpers import (from_matrix_oracle, group_defect, product_oracle,
                     rotation_oracle, to_matrix_oracle)

coeffs = st.tuples(*[st.floats(-2.0, 2.0) for _ in range(3)]).map(np.array)


def bracket(x, y):
    """[X, Y] in coefficients: the cross product for this basis."""
    return np.cross(x, y)


def ad_matrix(x):
    """3x3 matrix of ad(X) acting on coefficients."""
    return np.array([[0.0, -x[2], x[1]], [x[2], 0.0, -x[0]],
                     [-x[1], x[0], 0.0]])


def killing_form(x, y):
    """B(X, Y) = trace(ad X ad Y) on the 3-dimensional adjoint realization."""
    return float(np.trace(ad_matrix(x) @ ad_matrix(y)))


def killing_matrix():
    """The Killing form as a 3x3 array on the basis."""
    e = np.eye(3)
    return np.array([[killing_form(e[a], e[b]) for b in range(3)]
                     for a in range(3)])


def algebra_inner(x, y):
    """<X, Y> := -B(X, Y), the invariant inner product."""
    return -killing_form(x, y)


def adjoint(g, x):
    """Ad(g) X in coefficients, as g x g^{-1} in the 2x2 realization."""
    return su2.from_matrix(g @ su2.to_matrix(x) @ np.conj(g.T))


class TestGroupAxioms:
    @settings(max_examples=30, deadline=None)
    @given(coeffs, coeffs)
    def test_closure_and_inverse(self, x, y):
        g, h = su2.exp_map(x), su2.exp_map(y)
        assert group_defect(g @ h) <= 1e-12
        inv = np.conj(g.T)
        assert np.max(np.abs(g @ inv - np.eye(2))) <= 1e-12

    def test_exp_zero_is_identity(self):
        assert np.array_equal(su2.exp_map(np.zeros(3)), np.eye(2))

    @settings(max_examples=25, deadline=None)
    @given(coeffs)
    def test_closed_form_matches_expm(self, x):
        got = su2.exp_map(x)
        want = scipy.linalg.expm(su2.to_matrix(x))
        assert np.max(np.abs(got - want)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(coeffs)
    def test_basis_realization_anti_hermitian_traceless(self, x):
        m = su2.to_matrix(x)
        assert su2.basis_projection_residual(m) <= 1e-12
        assert np.allclose(su2.from_matrix(m).real, x, atol=1e-12)


class TestKillingForm:
    def test_negative_definite(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(3)
            assert -killing_form(x, x) > 0

    def test_equals_four_times_fundamental_trace(self):
        # brute force over all 3x3 basis pairs: tr(ad X_a ad X_b) vs 4 tr(x_a x_b)
        for a in range(3):
            for b in range(3):
                ea, eb = np.eye(3)[a], np.eye(3)[b]
                lhs = killing_form(ea, eb)
                rhs = 4.0 * np.trace(su2.to_matrix(ea) @ su2.to_matrix(eb)).real
                assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_matrix_form(self):
        b = killing_matrix()
        assert np.allclose(b, b.T)
        assert np.all(np.linalg.eigvalsh(-b) > 0)
        # every algebra inner product of the lab contracts with this factor
        assert np.array_equal(-b, ALGEBRA_METRIC_FACTOR * np.eye(3))
        # ad-invariance of the matrix: R^T (-B) R = -B for rotations R
        r = su2.rotation_of(su2.exp_map(np.array([0.2, 1.4, -0.6])))
        assert np.allclose(r.T @ (-b) @ r, -b, atol=1e-12)

    def test_ad_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = su2.exp_map(rng.standard_normal(3))
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            lhs = killing_form(adjoint(g, x).real, adjoint(g, y).real)
            assert lhs == pytest.approx(killing_form(x, y), abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(coeffs, coeffs)
    def test_rotation_orthogonal_under_inner(self, x, y):
        g = su2.exp_map(np.array([0.3, -0.7, 1.1]))
        r = su2.rotation_of(g)
        assert algebra_inner(r @ x, r @ y) == pytest.approx(
            algebra_inner(x, y), abs=1e-10)


class TestAdjointActions:
    def test_structure_constants(self):
        # brute-force commutator table: [X_a, X_b] = eps_abc X_c
        eps = np.zeros((3, 3, 3))
        for a, b, c in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            eps[a, b, c] = 1.0
            eps[b, a, c] = -1.0
        for a in range(3):
            for b in range(3):
                comm = (su2.to_matrix(np.eye(3)[a]) @ su2.to_matrix(np.eye(3)[b])
                        - su2.to_matrix(np.eye(3)[b]) @ su2.to_matrix(np.eye(3)[a]))
                got = su2.from_matrix(comm).real
                assert np.allclose(got, eps[a, b], atol=1e-13)
                assert np.allclose(bracket(np.eye(3)[a], np.eye(3)[b]),
                                   eps[a, b])

    def test_ad_of_exp_equals_exp_of_ad(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.standard_normal(3)
            r1 = su2.rotation_of(su2.exp_map(x))
            r2 = scipy.linalg.expm(ad_matrix(x))
            assert np.max(np.abs(r1 - r2)) <= 1e-10

    def test_adjoint_matches_rotation(self):
        rng = np.random.default_rng(3)
        g = su2.exp_map(rng.standard_normal(3))
        y = rng.standard_normal(3)
        assert np.allclose(adjoint(g, y).real, su2.rotation_of(g) @ y,
                           atol=1e-12)


class TestDexp:
    def test_commuting_path(self):
        # A' parallel to A: derivative = exp(A) A'
        x = np.array([0.4, -0.2, 0.9])
        a = su2.to_matrix(x)
        ap = su2.to_matrix(2.5 * x)
        expected = su2.exp_map(x) @ ap
        assert np.max(np.abs(su2.dexp_batch(a, ap) - expected)) <= 1e-13

    def test_zero_base_point(self):
        ap = su2.to_matrix(np.array([1.0, 2.0, -0.5]))
        assert np.max(np.abs(su2.dexp_batch(np.zeros((2, 2)), ap) - ap)) <= 1e-14

    def test_against_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = su2.to_matrix(rng.standard_normal(3))
            ap = su2.to_matrix(rng.standard_normal(3))
            got = su2.dexp_batch(a, ap)
            eps = 1e-5
            fd = (scipy.linalg.expm(a + eps * ap)
                  - scipy.linalg.expm(a - eps * ap)) / (2 * eps)
            assert np.max(np.abs(got - fd)) <= 1e-8

    def test_product_rule(self):
        # d(exp A exp B) = dexp(A) exp(B) + exp(A) dexp(B), Richardson FD oracle
        rng = np.random.default_rng(5)
        for _ in range(5):
            ca, cb = rng.standard_normal(3), rng.standard_normal(3)
            da, db = rng.standard_normal(3), rng.standard_normal(3)

            def value(t):
                return (scipy.linalg.expm(su2.to_matrix(ca + t * da))
                        @ scipy.linalg.expm(su2.to_matrix(cb + t * db)))

            def central(h):
                return (value(h) - value(-h)) / (2 * h)

            fd = (4.0 * central(5e-4) - central(1e-3)) / 3.0
            got = (su2.dexp_batch(su2.to_matrix(ca), su2.to_matrix(da))
                   @ scipy.linalg.expm(su2.to_matrix(cb))
                   + scipy.linalg.expm(su2.to_matrix(ca))
                   @ su2.dexp_batch(su2.to_matrix(cb), su2.to_matrix(db)))
            assert np.max(np.abs(got - fd)) <= 1e-10


def block_dexp(a, aprime):
    """Reference: expm([[a, a'], [0, a]]) carries dexp in its upper-right block
    (Najfeld & Havel, Adv. Appl. Math. 16, 1995)."""
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = a
    block[2:, 2:] = a
    block[:2, 2:] = aprime
    return scipy.linalg.expm(block)[:2, 2:]


def scaled(direction, length):
    return direction * (length / np.linalg.norm(direction))


class TestDexpClosedFormAgainstBlock:
    """The closed-form dexp against the 4x4 block exponential, to 1e-14."""

    def assert_matches_block(self, coeffs, derivs):
        for c, dc in zip(coeffs, derivs):
            a, ap = su2.to_matrix(c), su2.to_matrix(dc)
            assert np.max(np.abs(su2.dexp_batch(a, ap) - block_dexp(a, ap))) <= 1e-14

    def test_random_coefficients(self):
        rng = np.random.default_rng(6)
        self.assert_matches_block(rng.standard_normal((200, 3)) * 2.0,
                                  rng.standard_normal((200, 3)))

    def test_tiny_coefficients(self):
        rng = np.random.default_rng(7)
        lengths = np.geomspace(1e-12, 9e-7, 40)
        coeffs = [scaled(rng.standard_normal(3), s) for s in lengths]
        self.assert_matches_block(coeffs, rng.standard_normal((40, 3)))

    @pytest.mark.parametrize("length", [2 * np.pi, 4 * np.pi])
    def test_near_full_turns(self, length):
        # phi = pi and 2 pi: sin(phi) = 0, so sinc and the I term vanish there
        rng = np.random.default_rng(8)
        offsets = [-1e-3, -1e-8, 0.0, 1e-8, 1e-3]
        coeffs = [scaled(rng.standard_normal(3), length + o)
                  for o in offsets for _ in range(4)]
        self.assert_matches_block(coeffs, rng.standard_normal((20, 3)))

    def test_both_sides_of_taylor_branch(self):
        # phi^2 = |c|^2 / 4 crosses su2._TAYLOR_PHI2 at |c| = 2 sqrt(_TAYLOR_PHI2)
        switch = 2.0 * np.sqrt(su2._TAYLOR_PHI2)
        rng = np.random.default_rng(9)
        factors = [0.5, 1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6, 2.0]
        coeffs = [scaled(rng.standard_normal(3), switch * f)
                  for f in factors for _ in range(4)]
        phi2 = np.array([np.dot(c, c) / 4.0 for c in coeffs])
        assert np.any(phi2 < su2._TAYLOR_PHI2)
        assert np.any(phi2 >= su2._TAYLOR_PHI2)
        self.assert_matches_block(coeffs, rng.standard_normal((24, 3)))

    def test_real_zero_input(self):
        zero = np.zeros((2, 2))
        got = su2.dexp_batch(zero, zero)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - block_dexp(zero, zero))) <= 1e-14

    def test_batch_equals_per_block_calls(self):
        rng = np.random.default_rng(10)
        n, d = 17, 2
        coeffs = rng.standard_normal((n, 3))
        coeffs[:3] *= 1e-5  # some nodes on the Taylor branch
        a = su2.to_matrix(coeffs)
        ap = su2.to_matrix(rng.standard_normal((n, d, 3)))
        batch = su2.dexp_batch(np.broadcast_to(a[:, None], ap.shape), ap)
        assert batch.shape == (n, d, 2, 2)
        for i in range(n):
            for j in range(d):
                assert np.array_equal(batch[i, j], su2.dexp_batch(a[i], ap[i, j]))
                assert (np.max(np.abs(batch[i, j] - block_dexp(a[i], ap[i, j])))
                        <= 1e-14)


def unit_rows(rng, count, length):
    """count coefficient vectors of the given length in random directions."""
    c = rng.standard_normal((count, 3))
    return c * (length / np.linalg.norm(c, axis=1, keepdims=True))


def assert_rotation(r):
    """R^T R = I and det R = 1 on every 3x3 block."""
    eye = np.eye(3)
    assert np.max(np.abs(np.swapaxes(r, -1, -2) @ r - eye)) <= 1e-14
    assert np.max(np.abs(np.linalg.det(r) - 1.0)) <= 1e-14


class TestClosedFormsAgainstContractions:
    """The written-out kernels against their contraction and trace
    definitions (`helpers`), on batches and at the edges of the group."""

    def test_rotation_on_a_random_batch(self):
        rng = np.random.default_rng(40)
        g = su2.exp_map(3.0 * rng.standard_normal((4, 50, 3)))
        r = su2.rotation_of(g)
        assert r.shape == (4, 50, 3, 3) and r.dtype == float
        assert np.max(np.abs(r - rotation_oracle(g))) <= 2e-15
        assert_rotation(r)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rotation_at_plus_minus_identity(self, sign):
        g = sign * np.eye(2, dtype=complex)
        assert np.array_equal(su2.rotation_of(g), np.eye(3))
        assert np.array_equal(rotation_oracle(g), np.eye(3))

    @pytest.mark.parametrize("length", [1e-12, 1e-8, 1e-5, 1e-3])
    def test_rotation_near_zero_angle(self, length):
        # R = I + ad(c) + O(|c|^2), and the oracle agrees to rounding
        c = unit_rows(np.random.default_rng(41), 20, length)
        g = su2.exp_map(c)
        r = su2.rotation_of(g)
        assert np.max(np.abs(r - rotation_oracle(g))) <= 1e-15
        first_order = np.eye(3) + np.array([ad_matrix(x) for x in c])
        assert np.max(np.abs(r - first_order)) <= length ** 2 + 2e-16
        assert_rotation(r)

    @pytest.mark.parametrize("offset", [-1e-3, -1e-8, 0.0, 1e-8, 1e-3])
    def test_rotation_near_a_full_turn(self, offset):
        # |c| near 2 pi: g near -I, R near I, both sides of the turn
        c = unit_rows(np.random.default_rng(42), 20, 2 * np.pi + offset)
        g = su2.exp_map(c)
        r = su2.rotation_of(g)
        assert np.max(np.abs(g + np.eye(2))) <= abs(offset) + 1e-15
        assert np.max(np.abs(r - rotation_oracle(g))) <= 2e-15
        assert np.max(np.abs(r[0] - scipy.linalg.expm(ad_matrix(c[0])))) <= 1e-12
        assert_rotation(r)

    def test_rotation_stack_equals_single_calls(self):
        rng = np.random.default_rng(43)
        g = su2.exp_map(rng.standard_normal((3, 7, 3)))
        r = su2.rotation_of(g)
        for i in range(3):
            for k in range(7):
                assert np.array_equal(r[i, k], su2.rotation_of(g[i, k]))

    def test_matrix_maps_equal_the_contractions(self):
        rng = np.random.default_rng(44)
        c = rng.standard_normal((4, 9, 3))
        assert np.array_equal(su2.to_matrix(c), to_matrix_oracle(c))
        # from_matrix on general complex blocks, not only the basis span
        m = (rng.standard_normal((4, 9, 2, 2))
             + 1j * rng.standard_normal((4, 9, 2, 2)))
        assert np.array_equal(su2.from_matrix(m), from_matrix_oracle(m))
        assert np.array_equal(su2.from_matrix(su2.to_matrix(c)).real, c)

    def test_matrix_maps_stack_equals_single_calls(self):
        rng = np.random.default_rng(45)
        c = rng.standard_normal((6, 3))
        m = su2.to_matrix(c)
        for i in range(6):
            assert np.array_equal(m[i], su2.to_matrix(c[i]))
            assert np.array_equal(su2.from_matrix(m)[i],
                                  su2.from_matrix(m[i]))

    def test_product_against_the_contraction(self):
        rng = np.random.default_rng(46)
        a = (rng.standard_normal((4, 9, 2, 2, 2))
             + 1j * rng.standard_normal((4, 9, 2, 2, 2)))
        b = su2.exp_map(rng.standard_normal((4, 9, 3)))[..., None, :, :]
        got = su2.product(a, b)
        assert got.shape == a.shape
        assert np.max(np.abs(got - product_oracle(a, b))) <= 2e-15
        for i in range(4):
            assert np.array_equal(got[i], su2.product(a[i], b[i]))
        # real blocks stay real
        x, y = rng.standard_normal((2, 5, 2, 2))
        assert su2.product(x, y).dtype == float
        assert np.max(np.abs(su2.product(x, y) - x @ y)) <= 1e-15
