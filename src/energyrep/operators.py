"""The Schrodinger operator H = grad†grad + W, its spectrum, and conjugations.

H is assembled from one-sided difference links and their exact quadrature
adjoints, so it is symmetric by construction and its periodic eigenvalues obey
the classical dispersion (2/h^2)(1 - cos kh) + W exactly.  The link
Laplacian G^T G is written per axis in closed form, as its diagonal and
bands; no link matrix is formed.  The weighted conjugate H_rho = E^{-1} H E
(E = multiplication by e^{rho/2}) shares the spectrum of H with
eigenvectors e^{-rho/2} e_n, orthonormal under w e^rho: its decomposition
is H's, and no conjugate is diagonalized.

On a d = 2 tensor grid the potential splits by axis: H is the
Kronecker sum F_0 (x) I + I (x) F_1 of 1-D operators, and its spectrum comes
from one symmetric solve per axis (Lynch, Rice & Thomas, "Direct solution of
partial difference equations by tensor product methods", Numer. Math. 6
(1964)).  That decomposition is kept as its factors: the N x N axis
columns and the index map of the summed pairs.  `SpectralDecomposition.modes`
forms a block of eigenvectors on demand, bit for bit the columns a formed
solve would store, and `expand` works on the N x N mesh (U^T F V), so no
n x n array lies on the d = 2 spectrum path.

An operator is stored once, as its stencil: the diagonal of H and the
off-diagonal bands of each axis' 1-D Laplacian, and a conjugate its rho.
`apply` and the residual gates evaluate through the stencil and through the
per-axis factors of a decomposition.  The dense matrix is written from the
stencil only for the dense solves of a 1-D H, symmetric as assembled:
`eigendecomposition` and `eigenvalues`.

On a per-axis decomposition of H the residual gates form no mode.  H e_k -
lambda_k e_k splits over the Kronecker sum into axis residuals, so
`eigen_residual` bounds its norm from inner products of the N x N axis
columns and their residuals under the factors, plus a structural
deviation of H's stencil from the factors' Kronecker sum; `gram_residual`
reads the two axis grams.  Both are O(N^3 + n).

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

import numpy as np

from .grid import (Field, GridManifold, GridError, WeightField,
                   centered_stencil)
from .report import loglog_slope


# columns per block in the dense eigen residual: its temporaries stay
# n x _BLOCK instead of n x n
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
    """The N x N matrix of one axis: the diagonal, and the stencil bands
    that run along that axis."""
    mat = np.diag(diagonal)
    line = np.arange(diagonal.size)
    for band_axis, rows, cols, band in bands:
        if band_axis == axis:
            mat[line[rows], line[cols]] += band
    return mat


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
    """A bound on ||H - A (+) B||_2, from H's stencil and the factors (A, B).

    The diagonal of H is compared with diag A (x) 1 + 1 (x) diag B.  Each
    factor is compared with the N x N matrix written from its own diagonal
    and its axis' stencil bands, so a band that differs from the matching
    diagonal of the factor and an entry outside the pattern both count.  A
    row of |H - A (+) B| sums to at most the largest diagonal deviation plus
    the largest row sum of each axis' comparison, and a column likewise, so
    ||H - A (+) B||_2 <= sqrt(||.||_1 ||.||_inf) is at most the value
    returned: O(n + N^2) work.
    """
    diag, bands = op.stencil
    da, db = (np.diagonal(f) for f in op.factors)
    bound = np.max(np.abs(diag - (da[:, None] + db[None, :]).ravel()))
    for axis, f in enumerate(op.factors):
        dev = np.abs(f - _axis_matrix(np.diagonal(f), bands, axis))
        bound += max(np.max(np.sum(dev, axis=0)), np.max(np.sum(dev, axis=1)))
    return float(bound)


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

    `stencil` is H's diagonal and the bands of its axis Laplacians (see
    `_stencil`), the one stored form of the operator; a conjugate adds `rho`.
    `factors` holds the 1-D operators whose Kronecker sum H is, on a d = 2
    grid (a conjugate keeps H's); the eigendecomposition then solves per axis.
    """

    grid: GridManifold
    node_weights: np.ndarray  # quadrature weights incl. e^rho
    rho: np.ndarray | None
    stencil: tuple
    factors: tuple | None = None

    @property
    def matrix(self) -> np.ndarray:
        """The dense (n, n) matrix, written afresh from the stencil on every
        access: only the dense solves need it."""
        return _assembled(self.grid, self.stencil, self.rho)

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
        """Ascending eigenvalues of the dense solve of H's whole n x n
        matrix (a conjugate's too), no vectors; independent of the per-axis
        solve.  It writes the dense matrix: the 1-D references call it."""
        return np.linalg.eigvalsh(self.base.matrix)

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
        weights w, from one solve of H.

        With factors, one symmetric solve per axis and no n x n array: the
        eigenvalues are the sums a_i + b_j in stable ascending order, kept
        with the axis columns (u, v) and the index map (i, j) of the pairs;
        mode k is kron(u_i, v_j) / sqrt(w).  In 1-D, one dense solve, kept
        as its columns over sqrt(w).  A conjugate is not diagonalized: its
        modes are e^{-rho/2} e_n under w e^rho, so per axis only the weights
        change, and dense columns are also divided by e^{rho/2}.
        """
        if self.factors is not None:
            (a, u), (b, v) = (np.linalg.eigh(f) for f in self.factors)
            summed = (a[:, None] + b[None, :]).ravel()
            order = np.argsort(summed, kind="stable")
            return SpectralDecomposition(self.grid, summed[order], None,
                                         self.node_weights, (u, v),
                                         np.divmod(order, b.size))
        base = self.base
        eigvals, vecs = np.linalg.eigh(base.matrix)
        vecs /= np.sqrt(base.node_weights)[:, None]
        if self.rho is not None:
            vecs /= np.exp(self.rho / 2.0)[:, None]
        return SpectralDecomposition(self.grid, eigvals, vecs,
                                     self.node_weights)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues with eigenvectors orthonormal under the weights,
    read through `modes`.

    A dense decomposition keeps its formed columns in `vectors`.  A per-axis
    one keeps no n x n array: the axis columns (u, v) and the index map
    (i, j), mode k being kron(u[:, i_k], v[:, j_k]) / sqrt(w), with w the
    weights (H's times e^rho for a conjugate).
    """

    grid: GridManifold
    eigenvalues: np.ndarray
    vectors: np.ndarray | None  # formed columns of a dense solve
    node_weights: np.ndarray    # quadrature weights incl. e^rho
    axis_vectors: tuple | None = None
    pairs: tuple | None = None

    def modes(self, cols) -> np.ndarray:
        """The eigenvectors that cols (an int, a slice or an index array)
        picks, as columns, like `vectors[:, cols]`.  Per axis they are formed
        on the call, a block in one pass: kron(u_i, v_j) / sqrt(w), the same
        values as a dense array of all columns would hold."""
        if self.vectors is not None:
            return self.vectors[:, cols]
        k = np.arange(self.eigenvalues.size)[cols]
        if np.ndim(k) == 0:
            return self.modes(np.array([k]))[:, 0]
        u, v = self.axis_vectors
        i, j = self.pairs[0][k], self.pairs[1][k]
        # node x * ny + y of column k is u[x, i_k] v[y, j_k], as np.kron has it
        block = (u[:, None, i] * v[None, :, j]).reshape(-1, k.size)
        block /= np.sqrt(self.node_weights)[:, None]
        return block

    def expand(self, f: Field) -> np.ndarray:
        """Coefficients <e_n, f>_w per channel; shape (modes, channels),
        after the sample axis of a test set.

        Per axis, <e_k, f>_w = u_{i_k}^T G v_{j_k} with G the values
        of sqrt(w) f on the N x N mesh: U^T G V per channel, O(N^3), and
        the (i_k, j_k) entries of it.
        """
        # (n, channels) per sample, so the matmul acts on each sample
        flat = f.values.reshape(f.values.shape[:f.sample_axes]
                                + (self.grid.node_count, -1))
        if self.vectors is not None:
            weighted = self.node_weights[:, None] * flat
            if not np.iscomplexobj(weighted):
                return self.vectors.T @ weighted
            # real times complex would promote the vectors to one complex
            # product per sample: the real and imaginary columns are real
            return (self.vectors.T @ weighted.view(float)).view(complex)
        u, v = self.axis_vectors
        g = np.sqrt(self.node_weights)[:, None] * flat
        mesh = np.swapaxes(g, -1, -2).reshape(
            g.shape[:-2] + (g.shape[-1], u.shape[0], v.shape[0]))
        coeffs = (u.T @ mesh @ v)[..., self.pairs[0], self.pairs[1]]
        return np.swapaxes(coeffs, -1, -2)

    def gram_residual(self) -> float:
        """Largest entry of |E^T diag(w) E - I| over the eigenvectors E.

        Per axis, column k is kron(u_{i_k}, v_{j_k}) over sqrt(w), which the
        Gram's w cancels, so every entry is a product of entries of the axis
        grams u^T u and v^T v, provided (i, j) visits every pair once; a pair
        visited twice puts |u_i|^2 |v_j|^2 off the diagonal.  The diagonal
        entry of mode k is |u_{i_k}|^2 |v_{j_k}|^2.
        """
        w = self.node_weights
        if self.axis_vectors is None:
            g = self.vectors.T @ (w[:, None] * self.vectors)
            g[np.diag_indices_from(g)] -= 1.0
            return float(np.max(np.abs(g, out=g)))
        gu, gv = (f.T @ f for f in self.axis_vectors)
        du, dv = np.diagonal(gu), np.diagonal(gv)
        off_u = np.max(np.abs(gu - np.diag(du)))
        off_v = np.max(np.abs(gv - np.diag(dv)))
        off = max(off_u * np.max(np.abs(gv)), np.max(np.abs(du)) * off_v)
        i, j = self.pairs
        twice = np.flatnonzero(np.bincount(i * dv.size + j) > 1)
        if twice.size:
            ti, tj = np.divmod(twice, dv.size)
            off = max(off, np.max(np.abs(du[ti] * dv[tj])))
        return float(max(off, np.max(np.abs(du[i] * dv[j] - 1.0))))

    def eigen_residual(self, op: DiscreteOperator) -> float:
        """Largest ||H e_n - lambda_n e_n|| / max(|lambda_n|, 1).

        The stencil is applied to the formed eigenvectors, a block of modes
        at a time.  A per-axis decomposition of H forms no mode:
        `_factor_residuals` bounds each norm from the axis factors and the
        stencil, for H under uniform weights only, so not for a conjugate.
        """
        lam, w = self.eigenvalues, self.node_weights
        if (self.axis_vectors is not None and op.rho is None
                and np.all(w == w[0])):
            norms = self._factor_residuals(op)
        else:
            norms = np.empty(lam.size)
            for cols in _blocks(lam.size):
                v = self.modes(cols)
                hx = op.apply(v) - v * lam[cols]
                norms[cols] = np.linalg.norm(hx, axis=0)
        return float(np.max(norms / np.maximum(np.abs(lam), 1.0)))

    def _factor_residuals(self, op: DiscreteOperator) -> np.ndarray:
        """Per mode k = (i, j), a bound on ||H e_k - lambda_k e_k|| from the
        operator's factors (A, B) and its stencil, in O(N^3 + n).

        With the axis residuals r^A_i = A u_i - alpha_i u_i (alpha_i the
        Rayleigh quotient), r^B_j likewise, and c_k = alpha_i + beta_j -
        lambda_k, the Kronecker sum gives
            (A (+) B - lambda_k) kron(u_i, v_j)
                = r^A_i (x) v_j + u_i (x) r^B_j + c_k u_i (x) v_j,
        whose squared norm expands into axis inner products.  The weight w
        is the same at every node, so e_k = kron(u_i, v_j) / sqrt(w).  H
        differs from A (+) B by at most `_kronecker_deviation` in the
        2-norm, which adds that times |e_k|.  c_k catches a wrong pair map
        or a wrong sort.
        """
        # per axis, read at each mode's index: the Rayleigh quotient, |x|^2,
        # |r|^2 and <r, x> of the axis columns x
        axes = []
        for f, x, p in zip(op.factors, self.axis_vectors, self.pairs):
            fx = f @ x
            xx = np.sum(x * x, axis=0)
            rq = np.sum(x * fx, axis=0) / xx
            r = fx - x * rq
            axes.append([a[p] for a in (rq, xx, np.sum(r * r, axis=0),
                                        np.sum(r * x, axis=0))])
        (alpha, uu, rru, rxu), (beta, vv, rrv, rxv) = axes
        c = alpha + beta - self.eigenvalues
        w = self.node_weights[0]
        square = (rru * vv + uu * rrv + c * c * uu * vv + 2.0 * rxu * rxv
                  + 2.0 * c * rxu * vv + 2.0 * c * uu * rxv) / w
        # the expanded square can round below 0 where the residual is 0
        return (np.sqrt(np.maximum(square, 0.0))
                + _kronecker_deviation(op) * np.sqrt(uu * vv / w))


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def assemble_h(grid: GridManifold, weight: WeightField) -> DiscreteOperator:
    """H = grad†grad + W, acting channelwise on fields of any rank.

    grad†grad is the link Laplacian G^T G of one-sided links and their exact
    adjoints, per axis (`_axis_bands`): H is the Kronecker sum of the axis
    Laplacians plus diag(W), kept as its stencil.  On a d = 2 grid W must
    split by axis (`WeightField.parts`), and the operator also keeps its 1-D
    factors: the axis Laplacian plus that axis' part of W.
    """
    if np.min(weight.w) < 1.0:
        raise GridError("potential W must satisfy W >= 1 (condition on the scale)")
    if not grid.has_unit_scale():
        raise GridError("operator assembly requires the unrescaled flat metric")
    periodic = grid.topology == "periodic"
    axes = tuple(_axis_bands(nn, grid.spacing[j], periodic)
                 for j, nn in enumerate(grid.axis_sizes))
    stencil = _stencil(grid, axes, weight.w)
    factors = None
    if grid.dimension == 2:
        if weight.parts is None:
            raise GridError("a d = 2 potential needs its per-axis parts")
        # a part alone may be below 1: plain matrices, no WeightField
        factors = tuple(_axis_matrix(diag + part, stencil[1], axis)
                        for axis, ((diag, _), part)
                        in enumerate(zip(axes, weight.parts)))
    return DiscreteOperator(grid, grid.measure_weights(), None, stencil,
                            factors)


def conjugated_operator(op: DiscreteOperator,
                        rho: np.ndarray) -> DiscreteOperator:
    """H_rho = E^{-1} H E with E = diag(e^{rho/2}); H's spectrum and factors."""
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
