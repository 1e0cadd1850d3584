"""The Schrodinger operator H = grad†grad + W, its spectrum, and conjugations.

H is assembled from one-sided difference links and their exact quadrature
adjoints, so it is symmetric by construction and its periodic eigenvalues obey
the classical dispersion (2/h^2)(1 - cos kh) + W exactly.  The link
Laplacian G^T G is written per axis in closed form, as its diagonal and
bands; no link matrix is formed.  The weighted conjugate H_rho = E^{-1} H E
(E = multiplication by e^{rho/2}) shares the spectrum of H with
eigenvectors e^{-rho/2} e_n, orthonormal under w e^rho: its decomposition
is H's, and no conjugate is diagonalized.

W splits by axis, W(x) = sum_j W_j(x_j), so H is the Kronecker sum of the
1-D axis operators A_j = L_j + diag(W_j), L_j the axis Laplacian, and its
spectrum comes from one symmetric solve per axis (Lynch, Rice & Thomas,
"Direct solution of partial difference equations by tensor product
methods", Numer. Math. 6 (1964)).  A 1-D H is the one-axis case.

An operator is stored once, as its stencil: the diagonal of H, the
off-diagonal bands of each axis Laplacian, and the diagonal of each A_j;
a conjugate adds its rho.  All of it is O(n) data.  `apply` and the gates
evaluate through the stencil.  A truncated axis operator is tridiagonal,
and LAPACK's `dstevd` (`blas`) solves it from its diagonal and its -1
band, with the bits of numpy's `eigh` of its matrix and no matrix
written.  The N x N axis matrices (`factors`) are written from the
stencil for the periodic solves only, and the dense n x n matrix
(`matrix`) for the dense references only (`eigenvalues` off a 1-D
truncated grid); where numpy's BLAS lacks dstevd, `eigh` and
`eigvalsh` solve those matrices on every grid.

A decomposition is kept as one column basis per axis and the index map of
the summed pairs: mode k is the tensor product of one column per axis over
sqrt(w).  `modes` forms a block of modes on demand, and `expand`
multiplies each channel's mesh by each axis' columns in turn.  The residual
gates form no mode: `gram_residual` reads the axis grams, and
`eigen_residual` bounds H e_k - lambda_k e_k from each axis operator
applied to its columns through the stencil bands.  No n x n array lies on
the spectrum path of a d = 2 grid.

`spectrum_match` checks the spectrum of a conjugate H_rho against a
reference, at every size, and solves nothing: the symmetrized H_rho equals
the symmetrized H exactly, so Weyl's inequality bounds every eigenvalue's
move from H to H_rho by the 2-norm of their entries' difference (Parlett,
"The Symmetric Eigenvalue Problem", SIAM (1998)), and the two trace moments
tr S = sum lambda and tr S^2 = sum lambda^2 tie the whole spectrum to the
reference.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import blas
from .grid import (Field, GridManifold, GridError, WeightField,
                   centered_stencil)
from .report import loglog_slope


# columns per block in the eigen residual: its temporaries stay N x _BLOCK
# instead of N x N
_BLOCK = 64


def _blocks(size: int):
    """Slices of _BLOCK consecutive columns covering range(size)."""
    return (slice(c, c + _BLOCK) for c in range(0, size, _BLOCK))


def _axis_bands(n: int, h: float, periodic: bool) -> tuple:
    """The 1-D link Laplacian G^T G of one axis, in closed form.

    G takes the node values to their one-sided links, differences of
    neighbours over h: around a periodic axis, and against the zero
    extension at both ends of a truncated one.
    Every node has two links, so with c = (1/h)(1/h) the diagonal is 2c
    and each neighbour couples with -c, on offsets -1 and 1 and, across the
    wrap of a periodic axis, -(n-1) and n-1.  Each entry of G^T G is one
    product +-(1/h)(1/h) or the exact sum of two equal ones, so these are
    its entries bit for bit.  Returns the diagonal and the (offset, values)
    bands in ascending offset.
    """
    c = (1.0 / h) * (1.0 / h)
    offsets = (-(n - 1), -1, 1, n - 1) if periodic else (-1, 1)
    return np.full(n, 2.0 * c), tuple((k, np.full(n - abs(k), -c))
                                      for k in offsets)


def _stencil(grid: GridManifold, axes: tuple, potential: np.ndarray) -> tuple:
    """H as its diagonal and the off-diagonal bands of the axis Laplacians.

    axes holds each axis' `_axis_bands`.  The diagonal is sum_j L_j[x_j, x_j]
    + W, added in axis order.  A band (axis, rows, cols, values) is diagonal
    k != 0 of that axis' 1-D Laplacian L_j: values[t] couples position
    rows[t] to cols[t] = rows[t] + k along the axis (slices), on every grid
    line along the axis.
    """
    sizes = grid.axis_sizes
    diag = np.zeros(sizes)
    bands = []
    for axis, (axis_diag, axis_bands) in enumerate(axes):
        line = [1] * grid.dimension
        line[axis] = -1
        diag = diag + axis_diag.reshape(line)
        n = sizes[axis]
        for k, values in axis_bands:
            bands.append((axis, slice(max(0, -k), n - max(0, k)),
                          slice(max(0, k), n - max(0, -k)), values))
    return diag.ravel() + potential, bands


def _axis_matrix(diagonal: np.ndarray, bands: list, axis: int) -> np.ndarray:
    """The N x N matrix of one axis operator: the diagonal, and the stencil
    bands that run along that axis."""
    mat = np.diag(diagonal)
    line = np.arange(diagonal.size)
    for band_axis, rows, cols, band in bands:
        if band_axis == axis:
            mat[line[rows], line[cols]] += band
    return mat


def _tridiagonal_solve(diagonal: np.ndarray, bands: list, axis: int,
                      vectors: bool):
    """LAPACK's dstevd (`blas.dstevd`) of the tridiagonal operator of one
    truncated axis: this diagonal and the axis' -1 band, the lower triangle
    that `eigh` reads.  The values and vectors of `eigh` of its
    `_axis_matrix` bit for bit, or without vectors the values of
    `eigvalsh`; None where numpy's BLAS lacks dstevd."""
    (lower,) = (band for band_axis, rows, cols, band in bands
                if band_axis == axis and cols.start < rows.start)
    return blas.dstevd(diagonal, lower, vectors)


def _axis_apply(diagonal: np.ndarray, bands: list, axis: int,
                x: np.ndarray) -> np.ndarray:
    """One axis operator applied to the columns of an (N, k) array, band by
    band, as `_axis_matrix` would multiply them: O(N k) work."""
    out = diagonal[:, None] * x
    for band_axis, rows, cols, band in bands:
        if band_axis == axis:
            out[rows] += band[:, None] * x[cols]
    return out


def _entries(grid: GridManifold, stencil: tuple,
             rho: np.ndarray | None) -> tuple:
    """The stencil's entries as flat (rows, cols, values), node indices;
    with rho those of E^{-1} H E, each entry m taken to (m e_c) / e_r."""
    diag, bands = stencil
    idx = np.arange(grid.node_count).reshape(grid.axis_sizes)
    rows, cols, values = [idx.ravel()], [idx.ravel()], [diag]
    for axis, r, c, band in bands:
        lines = np.moveaxis(idx, axis, 0)
        rows.append(lines[r].ravel())
        cols.append(lines[c].ravel())
        values.append(np.repeat(band, lines[r][0].size))
    rows, cols, values = (np.concatenate(x) for x in (rows, cols, values))
    if rho is not None:
        e = np.exp(rho / 2.0)
        values = (values * e[cols]) / e[rows]
    return rows, cols, values


def _kronecker_deviation(op: DiscreteOperator) -> float:
    """||H - A_0 (+) A_1 (+) ...||_2 for the axis operators A_j of op.

    Every A_j carries the stencil bands of its axis, so H and their
    Kronecker sum differ on the diagonal only: W against the sum of its
    parts, and the order in which the axis diagonals were added.  The
    2-norm of that diagonal difference is its largest entry.
    """
    summed = reduce(np.add.outer, op.axis_diagonals).ravel()
    return float(np.max(np.abs(op.stencil[0] - summed)))


def _transposed(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                n: int) -> np.ndarray:
    """The value at each entry's transpose (c, r), found among the sorted
    entries; 0 where the pattern lacks it, as in the dense matrix."""
    keys, transpose = rows * n + cols, cols * n + rows
    order = np.argsort(keys)
    at = order[np.minimum(np.searchsorted(keys[order], transpose),
                          keys.size - 1)]
    return np.where(keys[at] == transpose, values[at], 0.0)


def _assembled(grid: GridManifold, stencil: tuple,
               rho: np.ndarray | None) -> np.ndarray:
    """The dense matrix of the stencil's entries (see `_entries`), written
    into one zeroed n x n array."""
    rows, cols, values = _entries(grid, stencil, rho)
    mat = np.zeros((grid.node_count, grid.node_count))
    mat[rows, cols] = values
    return mat


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Square operator on per-node coefficients, symmetric under its weights.

    Stored once, as its stencil: `stencil` is H's diagonal and the bands of
    its axis Laplacians (see `_stencil`), and `axis_diagonals` the diagonal
    of each axis operator A_j = L_j + diag(W_j), W_j the part of W along
    axis j.  H is the Kronecker sum of the A_j up to the rounding of W
    against the sum of its parts.  A conjugate adds `rho` and keeps H's
    stencil.  No matrix is stored.
    """

    grid: GridManifold
    node_weights: np.ndarray  # quadrature weights incl. e^rho
    rho: np.ndarray | None
    stencil: tuple
    axis_diagonals: tuple     # one (N_j,) array per grid axis

    @property
    def matrix(self) -> np.ndarray:
        """The dense (n, n) matrix, written afresh from the stencil on every
        access: only the dense references need it."""
        return _assembled(self.grid, self.stencil, self.rho)

    @property
    def factors(self) -> tuple:
        """The N x N matrix of each axis operator A_j (H's, for a
        conjugate), written afresh from the stencil on every access: only
        the periodic solves need them, and the truncated ones where numpy's
        BLAS lacks LAPACK's tridiagonal solver.  On one axis it is H's
        matrix, bit for bit."""
        return tuple(_axis_matrix(d, self.stencil[1], axis)
                     for axis, d in enumerate(self.axis_diagonals))

    @property
    def base(self) -> "DiscreteOperator":
        """The H this operator is, or was conjugated from."""
        return self if self.rho is None else replace(
            self, rho=None, node_weights=self.grid.measure_weights())

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The operator applied to the columns of a node-major (n, k) array:
        each axis' 1-D Laplacian band by band, plus W, between e^{+-rho/2}
        for a conjugate.  O(nnz) work per column."""
        diag, bands = self.stencil
        e = None if self.rho is None else np.exp(self.rho / 2.0)[:, None]
        x = x if e is None else e * x
        hx = diag[:, None] * x
        mesh = self.grid.axis_sizes + (-1,)
        xm, hm = x.reshape(mesh), hx.reshape(mesh)
        for axis, rows, cols, band in bands:
            line = [1] * xm.ndim
            line[axis] = -1
            lead = (slice(None),) * axis
            hm[lead + (rows,)] += band.reshape(line) * xm[lead + (cols,)]
        if e is not None:
            hx /= e
        return hx

    def symmetry_residual(self) -> float:
        """Max asymmetry of diag(w) M, scaled by its own magnitude, over the
        stencil's entries (every other entry of diag(w) M is 0); a transpose
        the pattern lacks reads 0, as in M."""
        rows, cols, values = _entries(self.grid, self.stencil, self.rho)
        w = self.node_weights
        s = w[rows] * values
        asym = s - w[cols] * _transposed(rows, cols, values,
                                         self.grid.node_count)
        return float(np.max(np.abs(asym)) / np.max(np.abs(s)))

    def _symmetrized_entries(self) -> tuple:
        """(rows, cols, values) of diag(sqrt w) M diag(sqrt w)^{-1}, one per
        stencil entry; not symmetrized again, so an asymmetric entry formula
        stays visible."""
        rows, cols, values = _entries(self.grid, self.stencil, self.rho)
        sqw = np.sqrt(self.node_weights)
        return rows, cols, (sqw[rows] * values) / sqw[cols]

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of H's whole n x n matrix (a conjugate's
        too), no vectors; independent of the per-axis solve.  The 1-D
        references call it.  On a 1-D truncated grid H is tridiagonal, and
        LAPACK's dstevd solves its diagonal and -1 band with the values of
        `eigvalsh` bit for bit and no matrix written; elsewhere it is
        `eigvalsh` of the dense matrix."""
        diag, bands = self.stencil
        lam = (None if self.grid.periodic or self.grid.dimension > 1 else
               _tridiagonal_solve(diag, bands, 0, vectors=False))
        return np.linalg.eigvalsh(self.base.matrix) if lam is None else lam

    def trace_moments(self) -> tuple:
        """tr S and tr S^2 = sum_{r,c} S[r,c] S[c,r] of the symmetrized
        operator S, from its entries: sum lambda and sum lambda^2 of the
        whole spectrum."""
        rows, cols, values = self._symmetrized_entries()
        on_diag = rows == cols
        square = values * _transposed(rows, cols, values, self.grid.node_count)
        return float(np.sum(values[on_diag])), float(np.sum(square))

    def eigendecomposition(self) -> "SpectralDecomposition":
        """Ascending eigenvalues and eigenvectors orthonormal under the
        weights w, from one symmetric solve per axis operator.

        A truncated axis is solved by LAPACK's tridiagonal solver from its
        diagonal and -1 band, a periodic one by `eigh` of its matrix
        (`factors`), as is every axis where numpy's BLAS lacks dstevd;
        dstevd returns `eigh`'s bits.  The eigenvalues are the sums of
        one axis eigenvalue per axis, in stable ascending order, kept with
        the axis columns and the index map of the pairs.  A conjugate is
        not diagonalized: its modes are H's times e^{-rho/2}, orthonormal
        under w e^rho, so only the weights change.
        """
        solves = [None] if self.grid.periodic else [
            _tridiagonal_solve(d, self.stencil[1], axis, vectors=True)
            for axis, d in enumerate(self.axis_diagonals)]
        if None in solves:
            solves = [np.linalg.eigh(f) for f in self.factors]
        summed = reduce(np.add.outer, [lam for lam, _ in solves]).ravel()
        order = np.argsort(summed, kind="stable")
        return SpectralDecomposition(
            self.grid, summed[order], self.node_weights,
            tuple(x for _, x in solves),
            np.unravel_index(order, tuple(lam.size for lam, _ in solves)))


def _rows_times(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x: one matrix product over all of a's rows when they are
    contiguous (a one-axis expansion), else numpy's product per matrix.

    gemm rounds a row alike whatever rows share its call, so a sample's
    coefficients do not depend on its set.  numpy would hand a lone row to
    gemv, which rounds differently, so a lone row goes in twice.
    """
    if not a.flags.c_contiguous:
        return a @ x
    rows = a.reshape(-1, a.shape[-1])
    out = np.tile(rows, (2, 1)) @ x if len(rows) == 1 else rows @ x
    return out[:len(rows)].reshape(a.shape[:-1] + (-1,))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues with eigenvectors orthonormal under the weights
    w (H's times e^rho for a conjugate), read through `modes`.

    Kept as one column basis per axis, `axis_vectors`, and the index map of
    the summed pairs, `pairs`: mode k is the tensor product of the columns
    x_j[:, pairs[j][k]] over sqrt(w), node-major as np.kron orders it.  The
    axis sizes are read from the columns, so the dense solve of any grid is
    the one-axis case.
    """

    grid: GridManifold
    eigenvalues: np.ndarray
    node_weights: np.ndarray  # quadrature weights incl. e^rho
    axis_vectors: tuple       # one (N_j, N_j) column basis per axis
    pairs: tuple              # one (modes,) index array per axis

    def modes(self, cols) -> np.ndarray:
        """The eigenvectors that cols (an int, a slice or an index array)
        picks, as contiguous columns, formed on the call in one pass: the
        tensor product of each mode's axis columns over sqrt(w)."""
        k = np.arange(self.eigenvalues.size)[cols]
        if np.ndim(k) == 0:
            return self.modes(np.array([k]))[:, 0]
        # one row per mode, node-major within the row
        rows = np.ones((k.size, 1))
        for x, p in zip(self.axis_vectors, self.pairs):
            rows = np.multiply(rows[:, :, None], x.T[p[k], None, :],
                               order="C").reshape(k.size, -1)
        rows /= np.sqrt(self.node_weights)
        return rows.T

    def expand(self, f: Field) -> np.ndarray:
        """Coefficients <e_k, f>_w per channel, a contiguous array of shape
        (modes, channels) after the sample axes of a test set.

        <e_k, f>_w contracts sqrt(w) f, on the mesh of the axis sizes, with
        the axis columns of mode k.  Each channel's mesh is multiplied by
        each axis' columns in turn, real and imaginary parts as real
        channels, so every product is real (a real set has no imaginary
        channel); on one axis every sample's channels go through one
        product.  A sample's coefficients do not depend on the rest of the
        set.  One take then picks the modes' pairs.
        """
        sizes = tuple(x.shape[0] for x in self.axis_vectors)
        g = np.sqrt(self.node_weights)[:, None] * f.values.reshape(
            f.values.shape[:f.sample_axes] + (self.grid.node_count, -1))
        real = g.view(float)
        # channels first, then the mesh: (..., channels, N_0, N_1, ...)
        coeffs = np.swapaxes(real, -1, -2).reshape(real.shape[:-2] + (-1,)
                                                   + sizes)
        for x in self.axis_vectors:
            # the first mesh axis contracted; its mode index comes last
            coeffs = _rows_times(np.moveaxis(coeffs, -len(sizes), -1), x)
        picked = np.take(coeffs.reshape(coeffs.shape[:-len(sizes)] + (-1,)),
                         np.ravel_multi_index(self.pairs, sizes), axis=-1)
        return np.ascontiguousarray(np.swapaxes(picked, -1, -2)).view(g.dtype)

    def gram_residual(self) -> float:
        """Largest entry of |E^T diag(w) E - I| over the eigenvectors E.

        The Gram's w cancels the columns' sqrt(w), so entry (k, l) is the
        product over the axes of the axis gram entries x_j^T x_j at
        (pairs[j][k], pairs[j][l]).  Off the diagonal some axis has two
        distinct columns, so the entry is at most that axis' largest
        off-diagonal gram entry times the other axes' largest entries,
        provided the pairs visit every tuple once; a tuple visited twice
        puts its diagonal entry off the diagonal.
        """
        diagonals, offs, tops = [], [], []
        for x in self.axis_vectors:
            gram = x.T @ x
            d = np.diagonal(gram).copy()
            np.fill_diagonal(gram, 0.0)
            off = float(np.max(np.abs(gram, out=gram)))
            diagonals.append(d)
            offs.append(off)
            tops.append(max(off, float(np.max(np.abs(d)))))
        off = max(o * math.prod(tops[:j] + tops[j + 1:])
                  for j, o in enumerate(offs))
        diagonal = math.prod(d[p] for d, p in zip(diagonals, self.pairs))
        flat = np.ravel_multi_index(self.pairs, [d.size for d in diagonals])
        twice = np.bincount(flat)[flat] > 1
        if np.any(twice):
            off = max(off, float(np.max(np.abs(diagonal[twice]))))
        return float(max(off, np.max(np.abs(diagonal - 1.0))))

    def eigen_residual(self, op: DiscreteOperator) -> float:
        """Largest ||H e_k - lambda_k e_k|| / max(|lambda_k|, 1), bounded
        from the axis columns, for H under uniform weights; no mode is
        formed.

        Per axis j, the axis operator A_j applied through its stencil bands
        leaves r_j = A_j x - a x for each column x, a = <x, A_j x> / |x|^2.
        Mode k is the tensor product of its columns x_j over sqrt(w), and
        with c_k = sum_j a_j - lambda_k the Kronecker sum gives
            (A_0 (+) A_1 (+) ... - lambda_k) (x)_j x_j
                = sum_j (r_j in slot j) + c_k (x)_j x_j,
        of squared norm P (sum_j (q_j - t_j^2) + (c_k + sum_j t_j)^2), with
        P = prod_j |x_j|^2, q_j = |r_j|^2 / |x_j|^2 and
        t_j = <r_j, x_j> / |x_j|^2.  H differs from the Kronecker sum by
        `_kronecker_deviation` in the 2-norm, which adds that times |e_k|.
        c_k catches a wrong pair map or a wrong sort.  A conjugate, or
        non-uniform weights, raise GridError: the conjugate's eigenpairs
        have their own gate, `eigenpair_map_residual`.
        """
        w = self.node_weights
        if op.rho is not None or not np.all(w == w[0]):
            raise GridError("the eigen gate bounds H under uniform weights")
        lam = self.eigenvalues
        # per mode: sum_j (q_j - t_j^2), c_k + sum_j t_j, and P
        spread, shift, size = 0.0, -lam, 1.0
        for axis, (x, d, p) in enumerate(zip(self.axis_vectors,
                                             op.axis_diagonals, self.pairs)):
            # per column: |x|^2, the Rayleigh quotient, q and t
            xx, rq, q, t = (np.empty(x.shape[1]) for _ in range(4))
            for cols in _blocks(x.shape[1]):
                xb = x[:, cols]
                r = _axis_apply(d, op.stencil[1], axis, xb)
                xx[cols] = np.einsum("ij,ij->j", xb, xb)
                rq[cols] = np.einsum("ij,ij->j", xb, r) / xx[cols]
                r -= xb * rq[cols]
                q[cols] = np.einsum("ij,ij->j", r, r) / xx[cols]
                t[cols] = np.einsum("ij,ij->j", r, xb) / xx[cols]
                del r  # freed before the next block's is written
            spread = spread + (q - t * t)[p]
            shift = shift + (rq + t)[p]
            size = size * xx[p]
        square = size * (spread + shift * shift) / w[0]
        # rounding can take q - t^2 below 0 where the residual is 0
        norms = (np.sqrt(np.maximum(square, 0.0))
                 + _kronecker_deviation(op) * np.sqrt(size / w[0]))
        return float(np.max(norms / np.maximum(np.abs(lam), 1.0)))


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def assemble_h(grid: GridManifold, weight: WeightField) -> DiscreteOperator:
    """H = grad†grad + W, acting channelwise on fields of any rank.

    grad†grad is the link Laplacian G^T G of one-sided links and their exact
    adjoints, per axis (`_axis_bands`): H is the Kronecker sum of the axis
    Laplacians plus diag(W), kept as its stencil.  W must split by axis
    (`WeightField.parts`; on one axis W is its own part), and the operator
    also keeps each axis operator's diagonal: the axis Laplacian's plus
    that axis' part of W, which alone may be below 1.
    """
    if np.min(weight.w) < 1.0:
        raise GridError("potential W must satisfy W >= 1 (condition on the scale)")
    if not grid.has_unit_scale():
        raise GridError("operator assembly requires the unrescaled flat metric")
    parts = (weight.w,) if grid.dimension == 1 else weight.parts
    if parts is None:
        raise GridError("a d = 2 potential needs its per-axis parts")
    axes = tuple(_axis_bands(nn, grid.spacing[j], grid.periodic)
                 for j, nn in enumerate(grid.axis_sizes))
    return DiscreteOperator(grid, grid.measure_weights(), None,
                            _stencil(grid, axes, weight.w),
                            tuple(diag + part for (diag, _), part
                                  in zip(axes, parts)))


def conjugated_operator(op: DiscreteOperator,
                        rho: np.ndarray) -> DiscreteOperator:
    """H_rho = E^{-1} H E with E = diag(e^{rho/2}); H's stencil and
    spectrum."""
    if op.rho is not None:
        raise GridError("conjugate H itself, not a conjugate")
    rho = np.asarray(rho, float)
    return replace(op, node_weights=op.node_weights * np.exp(rho), rho=rho)


def adjoint_identity_residual(grid: GridManifold, rho: np.ndarray) -> float:
    """Residual of adj_rho(E^{-1} D E) = E^{-1} adj_0(D) E per axis.

    adj_w(A) = diag(w)^{-1} A^T diag(w); with uniform base weights adj_0 is
    the plain transpose.  This is the conjugated-adjoint identity as an
    operator statement on the centered gradient, evaluated entrywise on the
    stencil: both sides vanish wherever D^T does.
    """
    e = np.exp(rho / 2.0)
    w_rho = grid.measure_weights() * np.exp(rho)
    worst = 0.0
    for axis in range(grid.dimension):
        # entry D[r, c] = v sits at (c, r) of both sides
        r, c, v = centered_stencil(grid, axis)
        lhs = (((v * e[c]) / e[r]) * w_rho[r]) / w_rho[c]
        rhs = (v * e[r]) / e[c]
        scale = max(np.max(np.abs(lhs)), 1.0)
        worst = max(worst, float(np.max(np.abs(lhs - rhs)) / scale))
    return worst


def eigenpair_map_residual(h_rho: DiscreteOperator,
                           dec: "SpectralDecomposition") -> float:
    """Largest ||H_rho v - lambda v|| / (||v|| |lambda|) over v = e^{-rho/2} e_n
    for the lowest 32 modes, H_rho applied through its stencil."""
    k = min(dec.eigenvalues.size, 32)
    lam = dec.eigenvalues[:k]
    v = dec.modes(slice(0, k)) / np.exp(h_rho.rho / 2.0)[:, None]
    r = h_rho.apply(v) - v * lam
    return float(np.max(np.linalg.norm(r, axis=0) / np.maximum(
        np.linalg.norm(v, axis=0) * np.abs(lam), 1e-300)))


# ---------------------------------------------------------------------------
# Spectrum check of a conjugate
# ---------------------------------------------------------------------------

# the most nodes of a 1-D grid that a config may hand a dense solve: the
# largest circle of the scaling ladder, where one n x n array is 128 MiB
DENSE_SOLVE_NODES = 4096

# relative tolerance of the trace moments: above the worst-case relative
# rounding n u (u = 2^-53) of their sums for n up to 2^19 nodes; numpy's
# pairwise sums err far less (2.7e-16 on the torus at N = 512, n = 2^18)
MOMENT_RTOL = 1e-10


def weyl_bound(op: DiscreteOperator) -> float:
    """A bound on how far any eigenvalue of op lies from the same-index
    eigenvalue of the unconjugated H on op's stencil; 0 for H itself.

    With D0 = diag(sqrt w), w the grid's measure weights, and
    E = diag(e^{rho/2}), op's symmetrized matrix is
    S_rho = (D0 E)(E^{-1} H E)(D0 E)^{-1} = D0 H D0^{-1} = S_0, exactly.
    Both are read from `_entries` on the same stencil, so entry t of one is
    entry t of the other, and Delta = S_rho - S_0 has
    ||Delta||_2 <= sqrt(||Delta||_1 ||Delta||_inf), the largest column and
    row sums of |Delta|.  By Weyl's inequality that bounds the move of
    every eigenvalue of the symmetric part; `symmetry_residual` gates the
    rest.
    """
    rows, cols, s_rho = op._symmetrized_entries()
    delta = np.abs(s_rho - op.base._symmetrized_entries()[2])
    n = op.grid.node_count
    col_sums, row_sums = (np.bincount(x, delta, n) for x in (cols, rows))
    return float(np.sqrt(np.max(col_sums) * np.max(row_sums)))


def spectrum_match(op: DiscreteOperator, reference: np.ndarray,
                   tol: float) -> tuple:
    """(measured, 1.0, detail) of op's spectrum against the ascending
    reference eigenvalues, with no solve.

    measured is the larger of two ratios: `weyl_bound`, the largest move of
    an eigenvalue from H to op, divided by tol; and the larger relative
    deviation of tr S and tr S^2 from sum reference and sum reference^2,
    divided by MOMENT_RTOL.  So it fails exactly when either part fails,
    and a NaN in either part fails it.
    """
    bound = weyl_bound(op)
    targets = np.array([np.sum(reference), np.sum(np.square(reference))])
    moment = float(np.max(np.abs(np.subtract(op.trace_moments(), targets))
                          / np.abs(targets)))
    detail = (f"weyl path: |S_rho - S_0|_2 <= {bound:.3e}, "
              f"trace moment relative deviation = {moment:.3e}")
    return float(np.max([bound / tol, moment / MOMENT_RTOL])), 1.0, detail


# ---------------------------------------------------------------------------
# Hilbert-Schmidt probe for condition (a)
# ---------------------------------------------------------------------------

def saturating_exp(x: float) -> float:
    """e^x of a log-space value: inf where it would overflow, never raising."""
    return math.exp(x) if x < math.log(sys.float_info.max) else math.inf


@dataclass(frozen=True)
class HilbertSchmidtReport:
    p: float
    k_list: tuple
    partial_sums: tuple        # sum_{n<=K} lambda_n^{-2p}
    fitted_exponent: float     # alpha in lambda_n ~ c n^alpha over the fit window
    fitted_prefactor: float
    tail_estimate: float | None  # integral remainder past the last K under the fit
    fit_window: tuple
    lambda_min: float
    verdict: str               # converging | diverging | hypothesis_violated

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "K": list(self.k_list),
            "partial_sums": list(self.partial_sums),
            "fitted_exponent": self.fitted_exponent,
            "fitted_prefactor": self.fitted_prefactor,
            "tail_estimate": self.tail_estimate,
            "fit_window": list(self.fit_window),
            "lambda_min": self.lambda_min,
            "verdict": self.verdict,
        }


def hilbert_schmidt_test(dec: SpectralDecomposition,
                         p: float) -> HilbertSchmidtReport:
    """Partial sums of lambda_n^{-2p} at K = n/8, n/4, n/2 and n, with a
    power-law tail fit.

    A finite truncation cannot prove convergence; the verdict pairs the
    partial sums with the fitted growth exponent: converging when 2 p alpha > 1.
    """
    lam = np.sort(np.asarray(dec.eigenvalues, float))
    n_tot = lam.size
    k_list = sorted({max(2, n_tot // 8), n_tot // 4, n_tot // 2, n_tot})
    lam1 = float(lam[0])
    sums = tuple(float(np.sum(lam[:k] ** (-2.0 * p))) for k in k_list)
    lo, hi = max(1, n_tot // 4), max(2, n_tot // 2)
    idx = np.arange(lo + 1, hi + 1, dtype=float)
    alpha, logc = loglog_slope(idx, lam[lo:hi])
    prefactor = float(np.exp(logc))
    if lam1 <= 1.0 + 1e-12:  # eigensolver noise floor around an exact 1
        verdict = "hypothesis_violated"
    elif p > 0 and 2.0 * p * alpha > 1.0:
        verdict = "converging"
    else:
        verdict = "diverging"
    # integral remainder of sum (c n^alpha)^(-2p) past the last partial sum,
    # c^(-2p) K^(1 - 2p alpha) / (2p alpha - 1), in log space: it underflows
    # to 0 or saturates at inf instead of raising
    if verdict == "converging":
        log_tail = (-2.0 * p * logc
                    + (1.0 - 2.0 * p * alpha) * math.log(max(k_list))
                    - math.log(2.0 * p * alpha - 1.0))
        tail = saturating_exp(log_tail)
    else:
        tail = None  # no finite remainder to estimate
    return HilbertSchmidtReport(p, tuple(int(k) for k in k_list), sums, alpha,
                                prefactor, tail, (lo, hi), lam1, verdict)
