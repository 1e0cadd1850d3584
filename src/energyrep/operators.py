"""The Schrodinger operator H = grad†grad + W, its spectrum, and conjugations.

H is assembled from one-sided difference links and their exact quadrature
adjoints, so it is symmetric by construction and its periodic eigenvalues obey
the classical dispersion (2/h^2)(1 - cos kh) + W exactly.  The weighted
conjugate H_rho = E^{-1} H E (E = multiplication by e^{rho/2}) shares the
spectrum of H with eigenvectors e^{-rho/2} e_n.

On a d = 2 tensor grid with a potential that splits by axis, H is the
Kronecker sum F_0 (x) I + I (x) F_1 of 1-D operators, and its spectrum comes
from one symmetric solve per axis (Lynch, Rice & Thomas, "Direct solution of
partial difference equations by tensor product methods", Numer. Math. 6
(1964)); the dense matrix is still assembled, for the residual gates.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .grid import (Field, GridManifold, GridError, WeightField,
                   centered_stencil)


def _node_columns(f: Field, n: int) -> np.ndarray:
    """Values as an (n, channels) matrix, one per sample of a test set, so a
    matmul does for each sample what it does for a single field."""
    return f.values.reshape(f.values.shape[:f.sample_axes] + (n, -1))


def _symmetrized(matrix: np.ndarray, weights: np.ndarray) -> tuple:
    """sqrt(w) and diag(sqrt w) M diag(sqrt w)^{-1}, symmetric for H."""
    sqw = np.sqrt(weights)
    return sqw, (sqw[:, None] * matrix) / sqw[None, :]


def _signed(vecs: np.ndarray) -> np.ndarray:
    """Deterministic sign, in place: in every column the first component
    exceeding a relative floor is made positive."""
    mag = np.abs(vecs)
    first = np.argmax(mag > 1e-8 * np.max(mag, axis=0), axis=0)
    flip = vecs[first, np.arange(vecs.shape[1])] < 0
    vecs[:, flip] = -vecs[:, flip]
    return vecs


def symmetric_solve(matrix: np.ndarray, weights: np.ndarray) -> tuple:
    """Dense symmetric solve of M under the weights w: ascending eigenvalues
    and w-orthonormal eigenvectors (columns) under the sign rule."""
    sqw, sym = _symmetrized(matrix, weights)
    eigvals, eigvecs = np.linalg.eigh(sym)
    return eigvals, _signed(eigvecs / sqw[:, None])


def kronecker_sum_solve(factors: tuple, weights: np.ndarray) -> tuple:
    """Solve of F_0 (x) I + I (x) F_1 from one symmetric solve per axis.

    The eigenvalues are the sums a_i + b_j in stable ascending order; column
    k is kron(u_i, v_j) for the k-th pair, made w-orthonormal (the weights
    are uniform on every grid that has factors) and put under the sign rule
    again, since the rule does not survive the product.
    """
    (a, u), (b, v) = (symmetric_solve(f, np.ones(f.shape[0])) for f in factors)
    summed = (a[:, None] + b[None, :]).ravel()
    order = np.argsort(summed, kind="stable")
    i, j = np.divmod(order, b.size)
    # node x * ny + y of column k is u[x, i_k] v[y, j_k], as np.kron has it
    vecs = (u[:, None, i] * v[None, :, j]).reshape(summed.size, summed.size)
    vecs /= np.sqrt(weights)[:, None]
    return summed[order], _signed(vecs)


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Square operator on per-node coefficients, symmetric under its weights.

    `factors` holds the 1-D operators whose Kronecker sum the matrix is,
    when it is one; the eigendecomposition then solves per axis.
    """

    grid: GridManifold
    matrix: np.ndarray        # (n, n)
    node_weights: np.ndarray  # quadrature weights incl. e^rho
    rho: np.ndarray | None
    rank: int
    factors: tuple | None = None

    def apply(self, f: Field) -> Field:
        if f.rank != self.rank:
            raise GridError(f"operator assembled for rank {self.rank}")
        out = self.matrix @ _node_columns(f, self.grid.node_count)
        return f.copy_with(out.reshape(f.values.shape))

    def symmetry_residual(self) -> float:
        """Max asymmetry of diag(w) M, scaled by its own magnitude."""
        s = self.node_weights[:, None] * self.matrix
        scale = np.max(np.abs(s))
        # one n x n temporary at a time: this sets the peak memory of a
        # large d = 2 spectrum run
        asym = s - s.T
        return float(np.max(np.abs(asym, out=asym)) / scale)

    def _symmetrized(self) -> tuple:
        return _symmetrized(self.matrix, self.node_weights)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the dense symmetric solve, no vectors;
        independent of the per-axis solve."""
        return np.linalg.eigvalsh(self._symmetrized()[1])

    def eigendecomposition(self) -> "SpectralDecomposition":
        """Ascending eigenvalues, weight-orthonormal eigenvectors, first
        significant component made positive: one solve per axis when the
        operator has factors, one dense solve otherwise."""
        if self.factors is None:
            eigvals, vecs = symmetric_solve(self.matrix, self.node_weights)
        else:
            eigvals, vecs = kronecker_sum_solve(self.factors, self.node_weights)
        return SpectralDecomposition(self.grid, eigvals, vecs,
                                     self.node_weights, self.rho)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues with eigenvectors orthonormal under the weights."""

    grid: GridManifold
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns
    node_weights: np.ndarray
    rho: np.ndarray | None

    def expand(self, f: Field) -> np.ndarray:
        """Coefficients <e_n, f>_w per channel; shape (modes, channels),
        after the sample axis of a test set."""
        flat = _node_columns(f, self.grid.node_count)
        return self.eigenvectors.T @ (self.node_weights[:, None] * flat)

    def gram_residual(self) -> float:
        g = self.eigenvectors.T @ (self.node_weights[:, None] * self.eigenvectors)
        return float(np.max(np.abs(g - np.eye(g.shape[0]))))

    def eigen_residual(self, op: DiscreteOperator) -> float:
        r = op.matrix @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        return float(np.max(np.linalg.norm(r, axis=0)
                            / np.maximum(np.abs(self.eigenvalues), 1.0)))


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _forward_links_1d(n: int, h: float, periodic: bool) -> np.ndarray:
    """One-sided difference matrix, link values per node interval.

    Periodic: n x n circulant.  Truncated: (n+1) x n including the two
    boundary links against the zero extension.
    """
    if periodic:
        g = np.eye(n, k=1) - np.eye(n)
        g[n - 1, 0] += 1.0
        return g / h
    # link i holds (f_i - f_{i-1})/h with ghost values f_{-1} = f_n = 0
    g = np.zeros((n + 1, n))
    for i in range(n):
        g[i, i] += 1.0
        g[i + 1, i] -= 1.0
    return g / h


def _laplacian_1d(n: int, h: float, periodic: bool) -> np.ndarray:
    g = _forward_links_1d(n, h, periodic)
    return g.T @ g


def assemble_h(grid: GridManifold, weight: WeightField, rank: int = 0) -> DiscreteOperator:
    """H = grad†grad + W, acting channelwise on rank-0 or rank-1 fields.

    grad†grad is assembled from one-sided links and exact adjoints, per axis.
    On a d = 2 grid where W splits by axis, the operator also keeps its 1-D
    factors: the axis Laplacian plus that axis' part of W.
    """
    if rank not in (0, 1):
        raise GridError("H acts on rank-0 or rank-1 fields")
    if np.min(weight.w) < 1.0:
        raise GridError("potential W must satisfy W >= 1 (condition on the scale)")
    if not grid.has_unit_scale():
        raise GridError("operator assembly requires the unrescaled flat metric")
    periodic = grid.topology == "periodic"
    axes = [_laplacian_1d(nn, grid.spacing[j], periodic)
            for j, nn in enumerate(grid.axis_sizes)]
    factors = None
    if grid.dimension == 1:
        lap = axes[0]
    else:
        nx, ny = grid.axis_sizes
        lap = np.kron(axes[0], np.eye(ny)) + np.kron(np.eye(nx), axes[1])
        if weight.parts is not None:
            # a part alone may be below 1: plain matrices, no WeightField
            factors = tuple(a + np.diag(part)
                            for a, part in zip(axes, weight.parts))
    mat = lap + np.diag(weight.w)
    return DiscreteOperator(grid, mat, grid.measure_weights(), None, rank,
                            factors)


def conjugated_operator(op: DiscreteOperator,
                        rho: np.ndarray) -> DiscreteOperator:
    """H_rho = E^{-1} H E with E = diag(e^{rho/2}); same spectrum as H."""
    rho = np.asarray(rho, float)
    e = np.exp(rho / 2.0)
    mat = (op.matrix * e[None, :]) / e[:, None]
    weights = op.node_weights * np.exp(rho)
    return DiscreteOperator(op.grid, mat, weights, rho, op.rank)


def conjugation_residuals(h_rho: DiscreteOperator,
                          dec: "SpectralDecomposition") -> dict:
    """Residuals of the conjugation H_rho against the base decomposition dec.

    The adjoint-identity residual of the conjugated centered gradient, and the
    eigenpair mapping residual of e^{-rho/2} e_n for the lowest 32 modes.
    """
    return {
        "adjoint_identity_residual": _adjoint_identity_residual(h_rho.grid,
                                                                h_rho.rho),
        "eigenpair_residual": _eigenpair_map_residual(h_rho, dec),
    }


def _adjoint_identity_residual(grid: GridManifold, rho: np.ndarray) -> float:
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


def _eigenpair_map_residual(h_rho: DiscreteOperator,
                            dec: "SpectralDecomposition") -> float:
    e = np.exp(h_rho.rho / 2.0)
    worst = 0.0
    for k in range(min(dec.eigenvalues.size, 32)):
        v = dec.eigenvectors[:, k] / e
        r = h_rho.matrix @ v - dec.eigenvalues[k] * v
        worst = max(worst, float(np.linalg.norm(r) /
                                 max(np.linalg.norm(v) * abs(dec.eigenvalues[k]), 1e-300)))
    return worst


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


def hilbert_schmidt_test(dec: SpectralDecomposition, p: float,
                         k_list=None) -> HilbertSchmidtReport:
    """Partial sums of lambda_n^{-2p} with a power-law tail fit.

    A finite truncation cannot prove convergence; the verdict pairs the
    partial sums with the fitted growth exponent: converging when 2 p alpha > 1.
    """
    lam = np.sort(np.asarray(dec.eigenvalues, float))
    n_tot = lam.size
    if k_list is None:
        k_list = sorted({max(2, n_tot // 8), n_tot // 4, n_tot // 2, n_tot})
    lam1 = float(lam[0])
    sums = tuple(float(np.sum(lam[:k] ** (-2.0 * p))) for k in k_list)
    lo, hi = max(1, n_tot // 4), max(2, n_tot // 2)
    idx = np.arange(lo + 1, hi + 1, dtype=float)
    alpha, logc = np.polyfit(np.log(idx), np.log(lam[lo:hi]), 1)
    alpha = float(alpha)
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
