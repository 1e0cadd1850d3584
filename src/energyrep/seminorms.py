"""The two seminorm families: spectral |.|_p and weighted-derivative |.|'_m.

|f|_{rho,p} = |H_rho^p f|_{rho,0} runs through spectral calculus of the
matching decomposition; |f|'_{rho,m} = sum_{n<=m} |W^m grad_rho^n f|_{rho,0}
uses the centered covariant derivative with the multiplicative rho twist
grad_rho = e^{-rho/2} grad e^{rho/2}.  Their empirical comparability across
grid refinements is the finite-truncation rendering of the topology
equivalence condition; it is a probe, never a proof.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (ALGEBRA_METRIC_FACTOR, Field, GridError, WeightField,
                   covariant_derivative, derivative_rows, node_weights)
from .operators import SpectralDecomposition


# The probe's stability band: a p is stable for m when the comparability
# constants of every grid stay within this factor of each other.
STABILITY_FACTOR = 2.0

# A test set is evaluated in slices whose largest iterate holds about this
# many values, so a batch temporary stays near 256 kB for a real covector
# set (512 kB for complex one-forms) whatever the size of the set.  Where
# one field's top iterate is larger (the order-3 chain over one d = 2
# one-form from N = 27 on), the chain forms that order in blocks of mesh
# rows holding about as many values, so its peak is set by the field's
# whole lower orders, never by its top order.  On the seminorm probe's
# circle and interval grids (N = 32..256, 404 real fields) a sweep of
# 2^14..2^17 put 2^15 and 2^16 within noise of each other for |.|'_m and
# |.|_p, both ahead of 2^14 and 2^17.  Every sample and every node is
# computed on its own, so neither slices nor blocks change a bit of the
# result.
_SLICE_VALUES = 1 << 15


def _slices(fields, order: int = 0):
    """Yield (columns, slice) over a test set with a leading sample axis.

    A slice takes as many fields as fit in _SLICE_VALUES values of the
    largest iterate it holds: the fields themselves, or for a derivative
    chain up to `order` its top iterate, d**order values per field value.
    A field that does not fit alone is a slice of its own, and the chain
    splits its top order by `_row_blocks`.
    """
    count = len(fields.values)
    if fields.sample_axes != 1 or not count:
        raise GridError("a test set needs a sample axis and a field")
    top = fields.values.size * fields.grid.dimension ** order
    step = max(1, _SLICE_VALUES * count // top)
    for start in range(0, count, step):
        cols = slice(start, start + step)
        yield cols, fields.copy_with(fields.values[cols])


def seminorm_p_batch(fields, p_values, dec: SpectralDecomposition) -> np.ndarray:
    """|f|_{rho,p} for every field of a set and p, shape (len(p_values), S).

    sqrt(sum lambda^{2p} |c|^2) with one eigen-expansion per field, shared
    by every p.  The decomposition fixes rho through its weights; p = 0
    reproduces the base norm.
    """
    out = np.empty((len(p_values), len(fields.values)))
    weights = [dec.eigenvalues[:, None] ** (2.0 * p) for p in p_values]
    for cols, part in _slices(fields):
        # (samples, modes, channels), contiguous: each sample sums in one
        # order, whatever its neighbours
        power = np.abs(dec.expand(part)) ** 2
        for i, lam_2p in enumerate(weights):
            total = np.sum(lam_2p * power, axis=(1, 2))
            if part.algebra:
                total = total * ALGEBRA_METRIC_FACTOR
            out[i, cols] = np.sqrt(np.maximum(total, 0.0))
    return out


def seminorm_p(f: Field, p: float, dec: SpectralDecomposition) -> float:
    """|f|_{rho,p} of one field."""
    return float(seminorm_p_batch(f.copy_with(f.values[None]), (p,), dec)[0, 0])


def eigenvector_covector(dec: SpectralDecomposition, k) -> Field:
    """The k-th eigenvector of dec as a real covector along the first axis;
    for a sequence of k, the test set of those eigenvectors."""
    cols = dec.modes(np.asarray(k)).T  # (n,), or (len(k), n)
    vals = np.zeros(cols.shape + (dec.grid.dimension,))
    vals[..., 0] = cols
    return Field.covector(dec.grid, vals)


def _row_blocks(part: Field, order: int):
    """Slices of mesh rows along grid axis 0 that cover the grid, each as
    many rows as fit in _SLICE_VALUES values of the order-`order` iterate
    of a chain over the fields of `part`; one block when they all fit."""
    size = part.grid.axis_sizes[0]
    row = part.values.size * part.grid.dimension ** order // size
    step = max(1, _SLICE_VALUES // row)
    return [slice(start, min(start + step, size))
            for start in range(0, size, step)]


def _square(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The weighted pointwise |.|^2 of a block of values with a leading
    sample axis and a node axis: each node's components summed in one
    order, whatever the block, times its weight."""
    v = values.reshape(values.shape[:2] + (-1,)).view(float)
    square = np.einsum("ijk,ijk->ij", v, v)
    square *= weights
    return square


def _block_squares(block, inverse, weights, plain_weights,
                   in_place: bool) -> tuple:
    """(twisted, untwisted): the `_square` of a block of a chain iterate
    times e^{-rho/2} (`inverse`, per node of the block), and with
    plain_weights the block's own, else None.  A block that nothing else
    reads is twisted in place."""
    untwisted = None if plain_weights is None else _square(block,
                                                           plain_weights)
    shaped = inverse.reshape((-1,) + (1,) * (block.ndim - 2))
    twisted = _square(np.multiply(block, shaped,
                                  out=block if in_place else None), weights)
    return twisted, untwisted


def _joined(squares):
    """Block squares side by side on the node axis; one block as it is."""
    if squares[0] is None or len(squares) == 1:
        return squares[0]
    return np.concatenate(squares, axis=1)


def chain_squares(fields, rho, order: int, plain: bool = False):
    """Yield (cols, n, twisted, untwisted) per slice of a test set
    (`_slices`) and n = 0..order, from one derivative chain
    g_n = grad^n (e^{rho/2} f): `twisted` the weighted pointwise |.|^2 of
    grad_rho^n f = e^{-rho/2} g_n with e^rho, and with `plain` `untwisted`
    that of g_n without it (else None), each of shape (samples, nodes).

    The orders below the top are whole, each the next one's input.  The
    top order is formed in blocks of mesh rows along axis 0
    (`derivative_rows`), and every order is twisted and squared a block
    at a time, each block as many rows as fit in the slice budget at its
    order (`_row_blocks`), so neither the top iterate nor a twisted one is
    ever whole.  Exact as a chain, and bit for bit the squares of the
    whole iterates.
    """
    half = np.exp(np.asarray(rho, float) / 2.0)
    inverse = 1.0 / half
    ranks = range(fields.rank, fields.rank + order + 1)
    twisted_w = [node_weights(fields, rho, rank) for rank in ranks]
    plain_w = [node_weights(fields, None, rank) if plain else None
               for rank in ranks]
    row = fields.grid.node_count // fields.grid.axis_sizes[0]
    for cols, part in _slices(fields, order):
        g = part.scale_by_nodes(half)
        for n in range(order + 1):
            if 0 < n < order:
                g = covariant_derivative(g)
            top = 0 < n == order
            parts = []
            for rows in _row_blocks(part, n):
                nodes = slice(rows.start * row, rows.stop * row)
                parts.append(_block_squares(
                    derivative_rows(g, rows.start, rows.stop) if top
                    else g.values[:, nodes], inverse[nodes],
                    twisted_w[n][nodes],
                    None if plain_w[n] is None else plain_w[n][nodes],
                    in_place=top))
            yield (cols, n) + tuple(_joined(side) for side in zip(*parts))


def weighted_norms(square: np.ndarray, w2m) -> list:
    """|W^m f|_{rho,0} per sample, one array for each W^{2m} of w2m, from
    the weighted pointwise |f|^2 of `chain_squares`: one sum per m."""
    return [np.sqrt(np.maximum(np.sum(square * w, axis=-1), 0.0))
            for w in w2m]


def seminorm_prime_batch(fields, m_list, weight: WeightField) -> np.ndarray:
    """|f|'_{rho,m} = sum_{n=0}^m |W^m grad_rho^n f|_{rho,0} for every field
    of a set and m, shape (len(m_list), S).

    One derivative chain, up to max(m_list), serves every m, and each
    iterate's weighted |.|^2 is formed once for every m >= n; each m sums
    its terms in the order n = 0, 1, ..., m.
    """
    if any(m < 0 for m in m_list):
        raise ValueError("order m must be nonnegative")
    order = max(m_list, default=0)
    w2m = [weight.w ** (2 * m) for m in range(order + 1)]
    out = np.zeros((len(m_list), len(fields.values)))
    for cols, n, twisted, _ in chain_squares(fields, weight.rho, order):
        terms = weighted_norms(twisted, w2m[n:])
        for i, m in enumerate(m_list):
            if n <= m:
                out[i, cols] += terms[m - n]
    return out


def seminorm_prime(f: Field, m: int, weight: WeightField) -> float:
    """|f|'_{rho,m} of one field."""
    return float(seminorm_prime_batch(f.copy_with(f.values[None]), (m,),
                                      weight)[0, 0])


def chain_identity_residual(fields, order: int,
                            weight: WeightField) -> np.ndarray:
    """Per field of a set, the largest relative residual over n <= m <= order
    between |W^m grad_rho^n f|_{rho,0} and |W^m grad^n (e^{rho/2} f)|_0,
    both read from one derivative chain."""
    w2m = [weight.w ** (2 * m) for m in range(order + 1)]
    out = np.zeros(len(fields.values))
    for cols, n, twisted, untwisted in chain_squares(fields, weight.rho, order,
                                                     plain=True):
        for lhs, rhs in zip(weighted_norms(twisted, w2m[n:]),
                            weighted_norms(untwisted, w2m[n:])):
            rel = np.abs(lhs - rhs) / np.maximum(np.maximum(lhs, rhs), 1.0)
            out[cols] = np.maximum(out[cols], rel)
    return out


# ---------------------------------------------------------------------------
# Equivalence probe
# ---------------------------------------------------------------------------

@dataclass
class SeminormReport:
    """Empirical comparability constants between |.|'_m and |.|_p.

    prime_values[(m, N)] and spec_values[(p, N)] hold the per-test-function
    seminorm values; constants[(m, p, N)] = (C_m_to_p, C_p_to_m), each the
    max ratio over the test set at grid size N.  selected[m] is the smallest
    grid p whose constants stay within the STABILITY_FACTOR band across
    refinements.
    """

    domain: str
    m_list: tuple
    p_grid: tuple
    n_list: tuple
    constants: dict = dc_field(default_factory=dict)
    prime_values: dict = dc_field(default_factory=dict)
    spec_values: dict = dc_field(default_factory=dict)
    selected: dict = dc_field(default_factory=dict)
    sanity_rows: list = dc_field(default_factory=list)

    @property
    def stable(self) -> dict:
        """Per m, whether some p of the grid is stable within STABILITY_FACTOR."""
        return {m: p is not None for m, p in self.selected.items()}

    def stability_ratio(self, m: int, p: float) -> float:
        fwd = [self.constants[(m, p, n)][0] for n in self.n_list]
        bwd = [self.constants[(m, p, n)][1] for n in self.n_list]
        return max(max(fwd) / min(fwd), max(bwd) / min(bwd))

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "m_list": list(self.m_list),
            "p_grid": list(self.p_grid),
            "N_list": list(self.n_list),
            "constants": {
                f"m={m},p={p},N={n}": list(v)
                for (m, p, n), v in sorted(self.constants.items())
            },
            "prime_values": {f"m={m},N={n}": v for (m, n), v
                             in sorted(self.prime_values.items())},
            "spec_values": {f"p={p},N={n}": v for (p, n), v
                            in sorted(self.spec_values.items())},
            "selected_p": {str(m): self.selected[m] for m in self.selected},
            "stable_within_factor_2": {str(m): s for m, s
                                       in self.stable.items()},
            "sanity_rows": self.sanity_rows,
        }


def equivalence_probe(domain: str, grids_and_data, m_list, p_grid) -> SeminormReport:
    """Probe |f|'_m <= C |f|_p and conversely over a fixed test set.

    grids_and_data: list of (N, weight, decomposition, test_fields) built by
    the caller from the same draws per N (box bumps scale with the extent).
    """
    report = SeminormReport(domain, tuple(m_list), tuple(p_grid),
                            tuple(n for n, *_ in grids_and_data))
    for n_size, weight, dec, fields in grids_and_data:
        prime_vals = dict(zip(m_list, seminorm_prime_batch(fields, m_list, weight)))
        spec_vals = dict(zip(p_grid, seminorm_p_batch(fields, p_grid, dec)))
        for m, vals in prime_vals.items():
            report.prime_values[(m, n_size)] = vals.tolist()
        for p, vals in spec_vals.items():
            report.spec_values[(p, n_size)] = vals.tolist()
        for m in m_list:
            for p in p_grid:
                with np.errstate(divide="ignore", invalid="ignore"):
                    fwd = float(np.max(prime_vals[m] / spec_vals[p]))
                    bwd = float(np.max(spec_vals[p] / prime_vals[m]))
                report.constants[(m, p, n_size)] = (fwd, bwd)
        # sanity row: the ground mode has comparable small values in both families
        ground = eigenvector_covector(dec, 0)
        report.sanity_rows.append({
            "N": n_size,
            "prime_m1": seminorm_prime(ground, 1, weight),
            "spec_p1": seminorm_p(ground, 1.0, dec),
        })
    for m in m_list:
        chosen = None
        for p in p_grid:
            if report.stability_ratio(m, p) <= STABILITY_FACTOR:
                chosen = p
                break
        report.selected[m] = chosen
    return report
