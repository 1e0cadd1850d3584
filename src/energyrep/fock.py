"""Coherent vectors in the boson Fock space and the energy representation U.

A coherent vector c * exp(f) is stored as (coefficient, one-particle
parameter); inner products go through the exponential kernel
<exp f, exp g> = e^{<f,g>}.  U(psi) acts by

    U(psi) exp(f) = exp(-|beta|^2/2 - <beta, V(psi) f>) exp(V(psi) f + beta),

with beta the logarithmic derivative of psi.  Because beta is real-valued in
the algebra and V is an isometry, U is unitary and a true (non-projective)
homomorphism; the checks below measure exactly those statements.

An explicit symmetric-tensor truncation (occupation-number coefficients on a
small orthonormalized one-particle space) cross-validates the kernel.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .gauge import GaugeField, gauge_product, log_derivative, v_action
from .grid import Field, inner_product, norm


@dataclass(frozen=True, eq=False)
class CoherentVector:
    """c * exp(f); norm^2 = |c|^2 exp(|f|^2)."""

    coeff: complex
    param: Field

    def norm(self, rho: np.ndarray | None = None) -> float:
        n2 = abs(self.coeff) ** 2 * np.exp(inner_product(self.param, self.param,
                                                         rho).real)
        return float(np.sqrt(n2))


def coherent_inner(a: CoherentVector, b: CoherentVector,
                   rho: np.ndarray | None = None) -> complex:
    """conj(c_a) c_b exp(<f_a, f_b>_{rho,0})."""
    z = inner_product(a.param, b.param, rho)
    return complex(np.conj(a.coeff) * b.coeff * np.exp(z))


def apply_u(psi: GaugeField, v: CoherentVector,
            rho: np.ndarray | None = None) -> CoherentVector:
    """The energy representation on a coherent vector."""
    beta = log_derivative(psi)
    vf = v_action(psi, v.param)
    exponent = (-0.5 * inner_product(beta, beta, rho)
                - inner_product(beta, vf, rho))
    coeff = v.coeff * np.exp(exponent)
    return CoherentVector(complex(coeff), vf + beta)


def kernel_discrepancy(psi: GaugeField, f: Field, g: Field,
                       rho: np.ndarray | None = None) -> float:
    """Relative change of <exp f, exp g> under U(psi); unitarity measure."""
    a, b = CoherentVector(1.0, f), CoherentVector(1.0, g)
    before = coherent_inner(a, b, rho)
    after = coherent_inner(apply_u(psi, a, rho), apply_u(psi, b, rho), rho)
    return abs(after - before) / abs(before)


@dataclass(frozen=True)
class HomomorphismResult:
    coeff_ratio: complex     # must be 1 exactly, not merely unit modulus
    param_residual: float


def homomorphism_check(psi: GaugeField, phi: GaugeField, f_set,
                       rho: np.ndarray | None = None) -> HomomorphismResult:
    """Compare U(psi phi) exp(f) with U(psi) U(phi) exp(f) componentwise."""
    worst_ratio = 1.0 + 0.0j
    worst_param = 0.0
    prod = gauge_product(psi, phi)
    for f in f_set:
        v = CoherentVector(1.0, f)
        lhs = apply_u(prod, v, rho)
        rhs = apply_u(psi, apply_u(phi, v, rho), rho)
        ratio = lhs.coeff / rhs.coeff
        if abs(ratio - 1.0) > abs(worst_ratio - 1.0):
            worst_ratio = ratio
        worst_param = max(worst_param, norm(lhs.param - rhs.param, rho))
    return HomomorphismResult(complex(worst_ratio), float(worst_param))


# ---------------------------------------------------------------------------
# Conformal invariance of the matrix elements
# ---------------------------------------------------------------------------

def matrix_element_scaled(psi: GaugeField, f: Field, g: Field, scale: float,
                          rho: np.ndarray | None = None) -> complex:
    """Matrix element with every one-particle inner product multiplied by scale.

    Independent route for the constant-conformal-factor prediction: under the
    metric rescaling all <.,.>_{rho,0} values pick up e^{(d/2-1)rho}.
    """
    beta = log_derivative(psi)
    vg = v_action(psi, g)
    coeff = np.exp(-0.5 * scale * inner_product(beta, beta, rho)
                   - scale * inner_product(beta, vg, rho))
    kernel = np.exp(scale * inner_product(f, vg + beta, rho))
    return complex(coeff * kernel)


@dataclass(frozen=True)
class ConformalReport:
    dimension: int
    max_relative_change: float       # after metric rescaling
    max_prediction_residual: float   # vs the analytic factor (constant rho only)
    one_particle_scale: float | None


def conformal_check(psi: GaugeField, rho_conf: np.ndarray, f_set, g_set,
                    rho_weight: np.ndarray | None = None) -> ConformalReport:
    """Recompute U-matrix elements after rescaling the metric by e^rho_conf.

    In dimension 2 the elements are invariant; otherwise the deviation is
    reported, and for constant rho_conf it is compared against the exact
    pointwise factor e^{(d/2-1)rho} on the one-particle inner products.
    """
    from .grid import conformal_rescale, rebind

    grid = psi.grid
    d = grid.dimension
    new_grid, _combined = conformal_rescale(grid, rho_conf)
    psi2 = GaugeField(new_grid, psi.u, psi.du)

    worst = 0.0
    worst_pred = 0.0
    rho_c = np.asarray(rho_conf, float)
    constant = bool(np.all(rho_c == rho_c[0]))
    scale = float(np.exp((d / 2.0 - 1.0) * rho_c[0])) if constant else None
    u_g = [apply_u(psi, CoherentVector(1.0, g), rho_weight) for g in g_set]
    u_g2 = [apply_u(psi2, CoherentVector(1.0, rebind(g, new_grid)), rho_weight)
            for g in g_set]
    for f in f_set:
        exp_f = CoherentVector(1.0, f)
        exp_f2 = CoherentVector(1.0, rebind(f, new_grid))
        for g, ug, ug2 in zip(g_set, u_g, u_g2):
            before = coherent_inner(exp_f, ug, rho_weight)
            after = coherent_inner(exp_f2, ug2, rho_weight)
            worst = max(worst, abs(after - before) / abs(before))
            if constant:
                pred = matrix_element_scaled(psi, f, g, scale, rho_weight)
                worst_pred = max(worst_pred, abs(after - pred) / abs(pred))
    return ConformalReport(d, float(worst), float(worst_pred), scale)


# ---------------------------------------------------------------------------
# Truncated symmetric-tensor cross-validation
# ---------------------------------------------------------------------------

# from_coherent divides by sqrt(n!) as a double; 170! is the last finite one.
MAX_CUTOFF = 170


@dataclass(frozen=True, eq=False)
class TruncatedFockVector:
    """Occupation-number coefficients per degree over a small orthonormal basis.

    Degree-k block: amplitudes on monomials |n_1..n_D|, sum n_j = k, with the
    sqrt(prod n_j!) normalization that makes the blocks orthonormal.
    """

    cutoff: int
    dim: int
    blocks: tuple  # tuple over degree of dict: occupation tuple -> complex

    @classmethod
    def from_coherent(cls, coords: np.ndarray, coeff: complex = 1.0,
                      cutoff: int = 12) -> "TruncatedFockVector":
        coords = np.asarray(coords, dtype=complex)
        dim = coords.size
        blocks = []
        for k in range(cutoff + 1):
            block = {}
            for occ in _compositions(k, dim):
                amp = coeff
                for nj, fj in zip(occ, coords):
                    amp = amp * fj ** nj / math.sqrt(math.factorial(nj))
                block[occ] = complex(amp)
            blocks.append(block)
        return cls(cutoff, dim, tuple(blocks))

    def inner(self, other: "TruncatedFockVector") -> complex:
        if self.dim != other.dim:
            raise ValueError("mismatched one-particle dimensions")
        total = 0.0 + 0.0j
        for ka in range(min(self.cutoff, other.cutoff) + 1):
            a, b = self.blocks[ka], other.blocks[ka]
            for occ, va in a.items():
                vb = b.get(occ)
                if vb is not None:
                    total += np.conj(va) * vb
        return complex(total)


def _compositions(total: int, parts: int):
    """All tuples of nonnegative ints of length parts summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def orthonormal_coordinates(fields, rho: np.ndarray | None = None) -> list:
    """Coordinates of the fields in an orthonormal basis of their span.

    Modified Gram-Schmidt under <.,.>_{rho,0}; the returned vectors satisfy
    coords_i† coords_j = <f_i, f_j>_{rho,0} up to rounding.
    """
    basis = []         # orthonormal Fields
    coords = [np.zeros(0, dtype=complex) for _ in fields]
    for i, f in enumerate(fields):
        resid = f
        comp = []
        for e in basis:
            c = inner_product(e, resid, rho)
            comp.append(c)
            resid = resid - e * c
        r = norm(resid, rho)
        if r > 1e-13:
            basis.append(resid * (1.0 / r))
            comp.append(r)
        coords[i] = np.array(comp, dtype=complex)
    dim = len(basis)
    return [np.pad(c, (0, dim - c.size)) for c in coords]


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def truncation_tail_bound(fa_norm: float, fb_norm: float, cutoff: int) -> float:
    """Tail of the exponential series: e^{|f||g|} (|f||g|)^{K+1} / (K+1)!.

    Evaluated in log space, so it never raises: it underflows to 0 at large
    cutoffs and saturates at inf for huge norms.
    """
    x = fa_norm * fb_norm
    if x == 0.0:
        return 0.0
    log_bound = x + (cutoff + 1) * math.log(x) - math.lgamma(cutoff + 2)
    return math.exp(log_bound) if log_bound < _LOG_FLOAT_MAX else math.inf
