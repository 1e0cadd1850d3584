"""Ladder-operator algebra on the truncated Hermite basis."""
import math
from pathlib import Path

import numpy as np
import pytest

from energyrep import hermite
from energyrep.config import load_config
from energyrep.suites import LADDER_WORDS, _guarded_sample, run_suite
from helpers import dense_letter

CIRCLE_CFG = Path(__file__).resolve().parents[1] / "configs" / "circle.cfg"


@pytest.fixture(scope="module")
def ladder2():
    return hermite.build_ladders(2, 16)


@pytest.fixture(scope="module")
def ladder1():
    return hermite.build_ladders(1, 12)


def guarded_random(ladder, rng, margin):
    mask = ladder.guard_mask(margin)
    v = np.zeros(ladder.size)
    v[mask] = rng.standard_normal(int(np.sum(mask)))
    return v / np.linalg.norm(v)


def ref_bound_check(ladder, word, f, constant):
    """One state at a time, with the dense (2N + d + 1)^{m/2}: the reference."""
    m = len(word)
    lhs = float(np.linalg.norm(hermite.word_apply(ladder, word, f)))
    half_power = np.diag(
        (2.0 * ladder.degrees() + ladder.dimension + 1.0) ** (m / 2.0))
    rhs = constant * float(np.linalg.norm(half_power @ f))
    return lhs, rhs, lhs / rhs if rhs > 0 else 0.0


class TestStructure:
    def test_ccr(self, ladder2):
        assert hermite.ccr_residual(ladder2) <= 1e-14

    def test_lowering_commute(self, ladder2):
        a1, a2 = (dense_letter(ladder2, j, False) for j in range(2))
        assert np.max(np.abs(a1 @ a2 - a2 @ a1)) == 0.0

    def test_raising_is_adjoint(self, ladder2):
        for j in range(2):
            assert np.array_equal(dense_letter(ladder2, j, True),
                                  dense_letter(ladder2, j, False).T)

    def test_degrees_computed_once(self, ladder2):
        degrees = ladder2.degrees()
        assert degrees is ladder2.degrees()
        want = np.array([sum(s) for s in ladder2.states])
        assert degrees.dtype == want.dtype and np.array_equal(degrees, want)
        with pytest.raises(ValueError):
            degrees[0] = 1

    def test_number_diagonal(self, ladder2):
        # the dense letters, and the words that the oscillator check forms
        n_dense = sum(dense_letter(ladder2, j, True)
                      @ dense_letter(ladder2, j, False) for j in range(2))
        n_words = sum(hermite.word_matrix(ladder2, ((j, True), (j, False)))
                      for j in range(2))
        for n_tot in (n_dense, n_words):
            assert np.allclose(n_tot, np.diag(ladder2.degrees()), atol=1e-13)

    def test_bound_operator_on_state(self, ladder2):
        # (2N + d + 1) |n> = (2n + d + 1) |n>
        for deg in [(0, 0), (3, 2), (7, 1)]:
            v = ladder2.state(deg)
            out = ladder2.bound_weights(1.0) * v
            assert np.allclose(out, (2 * sum(deg) + 3) * v)

    def test_vacuum_annihilated(self, ladder2):
        for j in range(2):
            a = dense_letter(ladder2, j, False)
            assert np.linalg.norm(a @ ladder2.vacuum()) == 0.0

    def test_raising_factors(self, ladder1):
        v = ladder1.state((4,))
        out = dense_letter(ladder1, 0, True) @ v
        assert out[ladder1.states.index((5,))] == pytest.approx(np.sqrt(5.0))

    def test_oscillator_identity(self, ladder2):
        assert hermite.oscillator_identity_residual(ladder2) <= 1e-13


def dense_word_apply(ladder, word, vec):
    """The reference: the dense letter matrices multiplied in, rightmost
    letter first."""
    out = np.asarray(vec, float)
    for (j, raising) in reversed(word):
        out = dense_letter(ladder, j, raising) @ out
    return out


class TestShiftTables:
    """`word_apply` gathers rows through each letter's shift table; the
    dense letter matrices of the Hermite definition are the oracle."""

    @pytest.mark.parametrize("d,n_cut", [(1, 12), (2, 16)])
    def test_every_letter_equals_the_dense_product(self, d, n_cut):
        ladder = hermite.build_ladders(d, n_cut)
        rng = np.random.default_rng(18)
        columns = np.stack([guarded_random(ladder, rng, 1)
                            for _ in range(30)], axis=1)
        assert sorted(ladder.shifts) == [(j, r) for j in range(d)
                                         for r in (False, True)]
        for letter in ladder.shifts:
            for vec in (np.eye(ladder.size), columns, columns[:, 0]):
                got = hermite.word_apply(ladder, (letter,), vec)
                assert got.shape == vec.shape
                assert np.array_equal(got, dense_word_apply(
                    ladder, (letter,), vec))

    @pytest.mark.parametrize("d,n_cut", [(1, 12), (2, 16)])
    def test_words_equal_the_dense_product_loop(self, d, n_cut):
        ladder = hermite.build_ladders(d, n_cut)
        rng = np.random.default_rng(19)
        for word in (hermite.CANONICAL_WORD,) + LADDER_WORDS:
            word = tuple((j % d, r) for j, r in word)  # one mode when d = 1
            full = hermite.word_dagger(word) + word
            columns = np.stack([guarded_random(ladder, rng, len(full))
                                for _ in range(30)], axis=1)
            for w in (word, full):
                for vec in (np.eye(ladder.size), columns):
                    assert np.array_equal(hermite.word_apply(ladder, w, vec),
                                          dense_word_apply(ladder, w, vec))

    def test_tables_match_the_hermite_definition(self, ladder2):
        for (j, raising), (src, coef) in ladder2.shifts.items():
            m = dense_letter(ladder2, j, raising)
            rows = np.arange(ladder2.size)
            assert np.array_equal(m[rows, src], coef)
            assert np.count_nonzero(m) == np.count_nonzero(coef)

    @staticmethod
    def corrupted(ladder):
        """ladder with one coefficient of A_1 (vacuum <- |1, 0>) off by 1e-9."""
        shifts = dict(ladder.shifts)
        src, coef = shifts[(0, False)]
        coef = coef.copy()
        coef[ladder.states.index((0,) * ladder.dimension)] += 1e-9
        shifts[(0, False)] = (src, coef)
        return hermite.HermiteLadder(ladder.dimension, ladder.n_cut,
                                     ladder.states, shifts)

    def test_corrupted_coefficient_breaks_the_ccr(self, ladder2):
        assert hermite.ccr_residual(ladder2) <= 1e-14
        assert hermite.ccr_residual(self.corrupted(ladder2)) > 1e-14

    def test_corrupted_coefficient_fails_ccr_below_guard(self, tmp_path,
                                                         monkeypatch):
        build = hermite.build_ladders
        monkeypatch.setattr(hermite, "build_ladders",
                            lambda d, n_cut: self.corrupted(build(d, n_cut)))
        (rep,) = run_suite("ladders", load_config(CIRCLE_CFG), tmp_path)
        verdicts = {c.name: c.verdict for c in rep.checks}
        assert verdicts["ccr_below_guard"] == "fail"


def dense_ccr_residual(ladder):
    """The reference: [A_j, A_k†] - delta_jk from the dense letters."""
    mask = ladder.guard_mask(2)
    worst = 0.0
    for j in range(ladder.dimension):
        for k in range(ladder.dimension):
            a, ad = dense_letter(ladder, j, False), dense_letter(ladder, k, True)
            comm = a @ ad - ad @ a
            if j == k:
                comm = comm - np.eye(ladder.size)
            worst = max(worst, float(np.max(np.abs(comm[:, mask]))))
    return worst


def dense_oscillator_residual(ladder):
    """The reference: -Laplacian + |x|^2 + 1 - (2N + d + 1) from the dense
    letters, x_j and d/dx_j applied as (A_j +- A_j†)/sqrt(2)."""
    d, eye = ladder.dimension, np.eye(ladder.size)
    lhs = np.zeros_like(eye)
    number = np.zeros_like(eye)
    for j in range(d):
        a, ad = dense_letter(ladder, j, False), dense_letter(ladder, j, True)

        def quadrature(sign, m):
            return (a @ m + sign * (ad @ m)) / np.sqrt(2.0)

        lhs += (-quadrature(-1.0, quadrature(-1.0, eye))
                + quadrature(1.0, quadrature(1.0, eye)))
        number += ad @ a
    lhs += eye
    rhs = 2.0 * number + (d + 1.0) * eye
    return float(np.max(np.abs((lhs - rhs)[:, ladder.guard_mask(2)])))


class TestStructureChecksAgainstDense:
    """The structure checks gather through the shift tables; every letter
    has at most one entry per row, so the dense products give the same
    values bit for bit."""

    @pytest.mark.parametrize("d,n_cut", [(1, 12), (2, 16)])
    def test_ccr_residual_is_the_dense_form(self, d, n_cut):
        ladder = hermite.build_ladders(d, n_cut)
        assert hermite.ccr_residual(ladder) == dense_ccr_residual(ladder)

    @pytest.mark.parametrize("d,n_cut", [(1, 12), (2, 16)])
    def test_oscillator_residual_is_the_dense_form(self, d, n_cut):
        ladder = hermite.build_ladders(d, n_cut)
        assert (hermite.oscillator_identity_residual(ladder)
                == dense_oscillator_residual(ladder))

    def test_corrupted_coefficient_breaks_the_oscillator_identity(self,
                                                                  ladder2):
        # the reference reads the Hermite definition, not the tables
        wrong = TestShiftTables.corrupted(ladder2)
        assert dense_oscillator_residual(wrong) <= 1e-13
        assert hermite.oscillator_identity_residual(wrong) > 1e-13


class TestNormalOrdering:
    def test_single_swap(self):
        # A A† = A†A + 1 in one mode
        word = ((0, False), (0, True))
        terms = dict(hermite.normal_order(word, 1))
        assert terms == {((1,), (1,)): 1, ((0,), (0,)): 1}

    def test_cross_mode_commute(self):
        word = ((0, False), (1, True))
        terms = dict(hermite.normal_order(word, 2))
        assert terms == {((0, 1), (1, 0)): 1}

    @pytest.mark.parametrize("word", [
        ((0, False), (0, True), (1, False), (1, False)),
        ((0, True), (0, False), (0, True)),
        ((1, False), (0, True), (1, True), (0, False)),
        ((0, False), (0, False), (0, True), (0, True)),
    ])
    def test_expansion_matches_brute_force(self, ladder2, word):
        full = hermite.word_dagger(word) + word
        expansion = hermite.normal_order(full, 2)
        brute = hermite.word_matrix(ladder2, full)
        ordered = hermite.expansion_matrix(ladder2, expansion)
        mask = ladder2.guard_mask(len(full))
        resid = np.max(np.abs((brute - ordered)[:, mask]))
        assert resid <= 1e-12 * max(np.max(np.abs(brute)), 1.0)

    @pytest.mark.parametrize("d,n_cut", [(1, 12), (2, 10)])
    def test_expansion_matrix_matches_lowering_then_raising_loop(self, d, n_cut):
        ladder = hermite.build_ladders(d, n_cut)
        for word in LADDER_WORDS:
            word = tuple((j % d, r) for j, r in word)  # one mode when d = 1
            expansion = hermite.normal_order(hermite.word_dagger(word) + word, d)
            want = np.zeros((ladder.size, ladder.size))
            for (raises, lowers), coeff in expansion:
                term = np.eye(ladder.size)
                for j in range(d):
                    for _ in range(lowers[j]):
                        term = dense_letter(ladder, j, False) @ term
                for j in range(d):
                    for _ in range(raises[j]):
                        term = dense_letter(ladder, j, True) @ term
                want += coeff * term
            assert np.array_equal(hermite.expansion_matrix(ladder, expansion),
                                  want)

    def test_coefficients_nonnegative(self):
        word = ((0, False), (0, True), (1, False), (1, False))
        full = hermite.word_dagger(word) + word
        for (_, coeff) in hermite.normal_order(full, 2):
            assert coeff >= 0

    def test_worked_chain_constant_below_one(self):
        assert hermite.word_bound_constant(hermite.CANONICAL_WORD, 2) <= 1.0


class TestBoundChecks:
    def test_worked_chain_never_violated(self, ladder2):
        rng = np.random.default_rng(12)
        for _ in range(300):
            f = guarded_random(ladder2, rng, 4)
            res = hermite.canonical_chain_check(ladder2, f)
            assert res.lhs <= res.rhs * (1 + 1e-13)

    def test_lowering_word_on_vacuum(self, ladder2):
        word = ((0, False), (1, False))
        res = hermite.commutation_bound_check(ladder2, word, ladder2.vacuum())
        assert res.lhs == 0.0

    def test_single_raise_on_vacuum(self, ladder2):
        # lhs = 1, rhs = |(2N+3)^{1/2} vacuum| = sqrt(3), ratio 1/sqrt(3)
        res = hermite.commutation_bound_check(ladder2, ((0, True),),
                                              ladder2.vacuum(), constant=1.0)
        assert res.lhs == pytest.approx(1.0)
        assert res.rhs == pytest.approx(np.sqrt(3.0))
        assert res.ratio == pytest.approx(1.0 / np.sqrt(3.0))

    def test_general_words_respect_derived_constant(self, ladder2):
        rng = np.random.default_rng(13)
        words = [((0, True),),
                 ((0, False), (1, True)),
                 ((0, True), (1, False), (1, True)),
                 ((1, True), (1, False), (0, True), (0, False))]
        for word in words:
            for _ in range(50):
                f = guarded_random(ladder2, rng, len(word))
                res = hermite.commutation_bound_check(ladder2, word, f)
                assert res.lhs <= res.rhs * (1 + 1e-12)

    def test_guard_rejects_boundary_support(self, ladder2):
        v = ladder2.state((ladder2.n_cut - 1, 0))
        with pytest.raises(ValueError):
            hermite.commutation_bound_check(ladder2, hermite.CANONICAL_WORD, v)

    def test_guard_rejects_one_boundary_column(self, ladder2):
        rng = np.random.default_rng(15)
        f = np.stack([guarded_random(ladder2, rng, 4) for _ in range(5)],
                     axis=1)
        f[:, 3] += ladder2.state((ladder2.n_cut - 1, 0))
        with pytest.raises(ValueError, match="truncation guard"):
            hermite.commutation_bound_check(ladder2, hermite.CANONICAL_WORD, f)

    def test_dimension_guard(self, ladder1):
        with pytest.raises(ValueError):
            hermite.canonical_chain_check(ladder1, ladder1.vacuum())


class TestBatchedAgainstPerState:
    @pytest.mark.parametrize("word", (hermite.CANONICAL_WORD,) + LADDER_WORDS)
    def test_columns_match_per_state_check(self, ladder2, word):
        rng = np.random.default_rng(14)
        states = [guarded_random(ladder2, rng, len(word)) for _ in range(40)]
        c = hermite.word_bound_constant(word, 2)
        res = hermite.commutation_bound_check(ladder2, word,
                                              np.stack(states, axis=1), c)
        want = np.array([ref_bound_check(ladder2, word, f, c) for f in states])
        assert np.array_equal(res.lhs, want[:, 0])
        assert np.array_equal(res.rhs, want[:, 1])
        assert np.array_equal(res.ratio, want[:, 2])
        assert res.constant == c

    def test_one_state_is_one_column(self, ladder2):
        f = guarded_random(ladder2, np.random.default_rng(16), 4)
        res = hermite.canonical_chain_check(ladder2, f)
        assert res.lhs.shape == res.rhs.shape == res.ratio.shape == (1,)
        want = ref_bound_check(ladder2, hermite.CANONICAL_WORD, f, 1.0)
        assert (res.lhs[0], res.rhs[0], res.ratio[0]) == want

    @pytest.mark.parametrize("margin", [1, 4, 8])
    def test_guarded_sample_matches_per_sample_draws(self, ladder2, margin):
        rng_new, rng_ref = (np.random.default_rng(17) for _ in range(2))
        got = _guarded_sample(ladder2, rng_new, margin, 30)
        want = np.stack([guarded_random(ladder2, rng_ref, margin)
                         for _ in range(30)], axis=1)
        assert got.shape == (ladder2.size, 30)
        assert np.array_equal(got, want)
        assert rng_new.standard_normal() == rng_ref.standard_normal()


def recursive_compositions(total, parts):
    """The recursive form of `hermite.compositions`: each head in
    increasing order, then the compositions of the rest."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in recursive_compositions(total - head, parts - 1):
            yield (head,) + rest


@pytest.mark.parametrize("parts", range(1, 7))
def test_compositions_match_recursive_form(parts):
    for total in range(9):
        got = list(hermite.compositions(total, parts))
        assert got == list(recursive_compositions(total, parts))
        assert all(type(n) is int for occ in got for n in occ)


def test_compositions_of_a_large_dimension():
    # the recursive form raises RecursionError here
    got = list(hermite.compositions(1, 3000))
    assert len(got) == len(set(got)) == 3000 and got == sorted(got)
    assert all(sum(occ) == 1 and len(occ) == 3000 for occ in got)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n_cut", range(4, 17))
def test_ladder_states_are_the_occupation_states(d, n_cut):
    # by degree, then lexicographically: the order the Fock truncation sums
    states = hermite.occupation_states(d, n_cut)
    assert hermite.build_ladders(d, n_cut).states == states
    assert states == tuple(sorted(states, key=lambda s: (sum(s), s)))
    assert len(states) == len(set(states)) == math.comb(n_cut + d, d)
    assert states[:math.comb(n_cut + d - 1, d)] == hermite.occupation_states(
        d, n_cut - 1)


def test_column_norms_are_one_dimensional_norms():
    rng = np.random.default_rng(31)
    for scale in 10.0 ** np.arange(-5, 6):
        states = scale * rng.standard_normal((66, 40))
        assert np.array_equal(hermite.column_norms(states),
                              [np.linalg.norm(col) for col in states.T])
    state = rng.standard_normal(66)
    assert np.array_equal(hermite.column_norms(state), [np.linalg.norm(state)])


def test_build_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        hermite.build_ladders(3, 10)
    with pytest.raises(ValueError):
        hermite.build_ladders(1, 2)
