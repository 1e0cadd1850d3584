"""Euclidean ladder operators on a truncated tensor-Hermite basis.

A_j = (x_j + d/dx_j)/sqrt(2) lowers the Hermite degree in mode j with factor
sqrt(n_j); its adjoint raises with sqrt(n_j + 1).  On the basis truncated at
total degree n_cut the canonical commutation relations are exact away from
the truncation boundary, hence the degree guard on every word operation.

Words of ladder operators are bounded through the normal-ordering procedure:
normal-order word†word (all coefficients nonnegative), dominate each balanced
monomial prod_j (A_j†)^k A_j^k = prod_j N_j(N_j-1)...(N_j-k+1) by
((2N+d+1)/2)^K, and read off a constant for
|word f|_0 <= C |(2N+d+1)^{m/2} f|_0.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


@dataclass(frozen=True, eq=False)
class HermiteLadder:
    """The retained states and one index-shift table per ladder letter.

    shifts[(j, raising)] = (src, coef): the letter takes a state v to
    coef * v[src], entry by entry.  At a target state n, coef is sqrt(n_j)
    for A_j† and sqrt(n_j + 1) for A_j, and 0 where the source state is not
    retained.  The tables are the letters' only form: words, and the
    structure checks, gather through them (`word_apply`).
    """

    dimension: int
    n_cut: int
    states: tuple               # occupation_states(dimension, n_cut)
    shifts: dict                # letter (mode, is_raising) -> (src, coef)
    _degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        degrees = np.array([sum(s) for s in self.states])
        degrees.flags.writeable = False  # shared by every caller
        object.__setattr__(self, "_degrees", degrees)

    @property
    def size(self) -> int:
        return len(self.states)

    def degrees(self) -> np.ndarray:
        """Total degree of each retained state (read-only, computed once)."""
        return self._degrees

    def guard_mask(self, margin: int) -> np.ndarray:
        """States safely below the truncation boundary for words of length margin."""
        return self.degrees() <= self.n_cut - margin

    def vacuum(self) -> np.ndarray:
        return self.state((0,) * self.dimension)

    def state(self, degrees) -> np.ndarray:
        v = np.zeros(self.size)
        v[self.states.index(tuple(degrees))] = 1.0
        return v

    def bound_weights(self, power: float) -> np.ndarray:
        """The diagonal of (2N + d + 1)^power on the retained basis."""
        return (2.0 * self.degrees() + self.dimension + 1.0) ** power


MIN_CUTOFF = 4


def compositions(total: int, parts: int):
    """All tuples of nonnegative ints of length parts summing to total, in
    lexicographic order: the gaps between parts - 1 bars among total stars."""
    end = total + parts - 1
    for bars in itertools.combinations(range(end), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (end,)))


def occupation_states(d: int, n_cut: int) -> tuple:
    """The occupation tuples |n_1..n_d> of total degree at most n_cut, by
    degree and then lexicographically: the retained tensor-Hermite basis,
    and the Fock truncation's.  A lower cutoff's states are a prefix."""
    return tuple(occ for total in range(n_cut + 1)
                 for occ in compositions(total, d))


def build_ladders(d: int, n_cut: int) -> HermiteLadder:
    if d not in (1, 2):
        raise ValueError("ladder calculus shipped for d in {1, 2}")
    if n_cut < MIN_CUTOFF:
        raise ValueError(f"need n_cut >= {MIN_CUTOFF}")
    states = occupation_states(d, n_cut)
    degrees = np.array(states)  # (dim, d)
    # the index of each retained degree tuple, -1 elsewhere; a degree of -1
    # reads the last slot, n_cut + 1, which is never retained
    lookup = np.full((n_cut + 2,) * d, -1)
    lookup[tuple(degrees.T)] = np.arange(len(states))
    shifts = {}
    for j in range(d):
        for raising, step in ((False, 1), (True, -1)):
            # the letter maps the state s + step e_j, when retained, to s
            source = degrees.copy()
            source[:, j] += step
            src = lookup[tuple(source.T)]
            kept = src >= 0
            coef = np.where(kept, np.sqrt(np.maximum(degrees[:, j],
                                                     source[:, j])), 0.0)
            shifts[(j, raising)] = (np.where(kept, src, 0), coef)
    return HermiteLadder(d, n_cut, states, shifts)


# ---------------------------------------------------------------------------
# Words and normal ordering
# ---------------------------------------------------------------------------
# A word is a tuple of (mode, is_raising) read left to right as an operator
# product, e.g. A_1 A_1† A_2 A_2 = ((0,False),(0,True),(1,False),(1,False)).

def word_dagger(word) -> tuple:
    return tuple((j, not r) for (j, r) in reversed(word))


def word_apply(ladder: HermiteLadder, word, vec: np.ndarray) -> np.ndarray:
    """The operator product of word applied to vec (a state or a matrix of
    state columns), rightmost letter first: each letter gathers rows through
    its shift table."""
    vec = np.asarray(vec, float)
    out = vec.reshape(ladder.size, -1)
    for letter in reversed(word):
        src, coef = ladder.shifts[letter]
        out = coef[:, None] * out[src]
    return out.reshape(vec.shape)


def word_matrix(ladder: HermiteLadder, word) -> np.ndarray:
    """The matrix of word: word_apply on the identity."""
    return word_apply(ladder, word, np.eye(ladder.size))


@lru_cache(maxsize=None)
def normal_order(word: tuple, d: int) -> tuple:
    """Normal-order a ladder word using [A_j, A_k†] = delta_jk.

    Returns a sorted tuple of ((raise_counts, lower_counts), coeff) with
    counts per mode; every generated coefficient is nonnegative.
    """
    for i in range(len(word) - 1):
        (j, rj), (k, rk) = word[i], word[i + 1]
        if (not rj) and rk:
            swapped = word[:i] + ((k, rk), (j, rj)) + word[i + 2:]
            terms = dict(normal_order(swapped, d))
            if j == k:
                for key, c in normal_order(word[:i] + word[i + 2:], d):
                    terms[key] = terms.get(key, 0) + c
            return tuple(sorted(terms.items()))
    raises = [0] * d
    lowers = [0] * d
    for (j, r) in word:
        if r:
            raises[j] += 1
        else:
            lowers[j] += 1
    return (((tuple(raises), tuple(lowers)), 1),)


def word_bound_constant(word, d: int) -> float:
    """C(m) with |word f|_0 <= C(m) |(2N+d+1)^{m/2} f|_0, m = len(word).

    From the normal-ordered form of word†word: every balanced monomial is a
    product of falling factorials in the N_j, bounded on the spectrum by
    ((2N+d+1)/2)^K with K raises, and (2N+d+1) >= 1 pads K up to m.
    """
    expansion = normal_order(word_dagger(tuple(word)) + tuple(word), d)
    c_sq = 0.0
    for (raises, lowers), coeff in expansion:
        if raises != lowers:
            raise AssertionError("word†word must normal-order to balanced terms")
        k = sum(raises)
        c_sq += coeff * 0.5 ** k
    return float(np.sqrt(c_sq))


def expansion_matrix(ladder: HermiteLadder, expansion) -> np.ndarray:
    """Realize a normal-ordered expansion as a matrix on the retained basis.

    Each monomial prod_j (A_j†)^{r_j} prod_j A_j^{l_j} is the word that,
    read right to left, lowers mode 0, 1, ... and then raises mode 0, 1, ...
    """
    modes = range(ladder.dimension - 1, -1, -1)
    out = np.zeros((ladder.size, ladder.size))
    for (raises, lowers), coeff in expansion:
        word = (tuple((j, True) for j in modes for _ in range(raises[j]))
                + tuple((j, False) for j in modes for _ in range(lowers[j])))
        out += coeff * word_matrix(ladder, word)
    return out


# ---------------------------------------------------------------------------
# Bound checks
# ---------------------------------------------------------------------------

def column_norms(states: np.ndarray) -> np.ndarray:
    """The 2-norm of each column (a 1-D array is one state): the square root
    of each contiguous row's vecdot with itself, as the rows of the
    transpose.

    That is the sum a 1-D np.linalg.norm takes, so batched and per-state
    norms agree bit for bit; np.linalg.norm(..., axis=0) sums in another
    order.
    """
    rows = np.ascontiguousarray(np.reshape(states, (len(states), -1)).T)
    return np.sqrt(np.vecdot(rows, rows))


@dataclass(frozen=True)
class WordBoundResult:
    lhs: np.ndarray      # |word f|_0 per state
    rhs: np.ndarray      # C |(2N+d+1)^{m/2} f|_0 per state
    ratio: np.ndarray    # lhs / rhs, 0 where rhs is 0
    constant: float


def commutation_bound_check(ladder: HermiteLadder, word, f: np.ndarray,
                            constant: float | None = None) -> WordBoundResult:
    """Evaluate |word f|_0 against C |(2N+d+1)^{m/2} f|_0 for every column of f.

    The states are the columns of f (a 1-D f is one state). Rejects input
    touching the truncation boundary, where the commutator algebra would be
    corrupted.
    """
    word = tuple(word)
    m = len(word)
    f = np.asarray(f, float).reshape(ladder.size, -1)
    support = np.abs(f) > 0
    if np.any(~ladder.guard_mask(m)[:, None] & support):
        raise ValueError(
            f"input touches the truncation guard (need degree <= "
            f"{ladder.n_cut - m} for a word of length {m})")
    if constant is None:
        constant = word_bound_constant(word, ladder.dimension)
    lhs = column_norms(word_apply(ladder, word, f))
    weighted = ladder.bound_weights(m / 2.0)[:, None] * f
    rhs = constant * column_norms(weighted)
    ratio = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs > 0)
    return WordBoundResult(lhs, rhs, ratio, float(constant))


CANONICAL_WORD = ((0, False), (0, True), (1, False), (1, False))
# A_1 A_1† A_2 A_2, the worked chain whose normal ordering yields C = 1.


def canonical_chain_check(ladder: HermiteLadder, f: np.ndarray) -> WordBoundResult:
    """The worked four-letter chain with C = 1 on the d = 2 ladder, per column."""
    if ladder.dimension != 2:
        raise ValueError("the worked chain lives in d = 2")
    return commutation_bound_check(ladder, CANONICAL_WORD, f, constant=1.0)


def oscillator_identity_residual(ladder: HermiteLadder) -> float:
    """Residual of -Laplacian + |x|^2 + 1 = 2N + d + 1 below the guard.

    Both sides from ladder words: x_j = (A_j + A_j†)/sqrt(2) and
    d/dx_j = (A_j - A_j†)/sqrt(2) applied through the shift tables, and
    N = sum_j A_j† A_j; applied to the guarded input states only, as
    columns: a letter acts row by row, so no other column reaches them.
    """
    d = ladder.dimension
    eye = np.eye(ladder.size)[:, ladder.guard_mask(2)]  # guarded inputs
    lhs = np.zeros(eye.shape)
    number = np.zeros(eye.shape)
    for j in range(d):
        lower, upper = ((j, False),), ((j, True),)
        a, r = word_apply(ladder, lower, eye), word_apply(ladder, upper, eye)
        x, dx = (a + r) / np.sqrt(2.0), (a - r) / np.sqrt(2.0)
        xx = (word_apply(ladder, lower, x)
              + word_apply(ladder, upper, x)) / np.sqrt(2.0)
        dxdx = (word_apply(ladder, lower, dx)
                - word_apply(ladder, upper, dx)) / np.sqrt(2.0)
        lhs += -dxdx + xx
        number += word_apply(ladder, upper, a)  # A_j† A_j
    lhs += eye
    rhs = 2.0 * number + (d + 1.0) * eye
    return float(np.max(np.abs(lhs - rhs)))


def ccr_residual(ladder: HermiteLadder) -> float:
    """Max residual of [A_j, A_k†] = delta_jk on guarded input states."""
    eye = np.eye(ladder.size)[:, ladder.guard_mask(2)]
    worst = 0.0
    for j in range(ladder.dimension):
        for k in range(ladder.dimension):
            comm = (word_apply(ladder, ((j, False), (k, True)), eye)
                    - word_apply(ladder, ((k, True), (j, False)), eye))
            if j == k:
                comm = comm - eye
            worst = max(worst, float(np.max(np.abs(comm))))
    return worst
