"""Coherent vectors in the boson Fock space and the energy representation U.

A coherent vector c * exp(f) is stored as (coefficient, one-particle
parameter); inner products go through the exponential kernel
<exp f, exp g> = e^{<f,g>}.  U(psi) acts by

    U(psi) exp(f) = exp(-|beta|^2/2 - <beta, V(psi) f>) exp(V(psi) f + beta),

with beta the logarithmic derivative of psi.  Because beta is real-valued in
the algebra and V is an isometry, U is unitary and a true (non-projective)
homomorphism; the checks below measure exactly those statements.  Every
matrix element <exp f, U(psi) exp g> is a function of one-particle inner
products, so the conformal check takes all of them from one grid.gram.

An explicit symmetric-tensor truncation (occupation-number coefficients in
orthonormal coordinates from one QR of the fields) cross-validates the kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gauge import GaugeField, gauge_product, log_derivative, v_action
from .grid import (Field, conformal_rescale, gram, inner_product, node_weights,
                   norm, rebind)
from .hermite import occupation_states
from .operators import saturating_exp


@dataclass(frozen=True, eq=False)
class CoherentVector:
    """c * exp(f), or one per sample; norm^2 = |c|^2 exp(|f|^2)."""

    coeff: complex | np.ndarray
    param: Field

    def norm(self, rho: np.ndarray | None = None) -> float | np.ndarray:
        z = inner_product(self.param, self.param, rho)
        return np.sqrt(modulus(self.coeff) ** 2 * np.exp(z.real))


def modulus(z):
    """|z|, rounded as Python's abs rounds it (np.abs may differ; README)."""
    return np.hypot(np.real(z), np.imag(z))


def _times(a, b):
    """a b, rounded as Python's complex product rounds it (README)."""
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    return (ar * br - ai * bi) + 1j * (ar * bi + ai * br)


def coherent_inner(a: CoherentVector, b: CoherentVector,
                   rho: np.ndarray | None = None) -> complex | np.ndarray:
    """conj(c_a) c_b exp(<f_a, f_b>_{rho,0}), one value per sample."""
    z = inner_product(a.param, b.param, rho)
    return _times(_times(np.conj(a.coeff), b.coeff), np.exp(z))


def apply_u(psi: GaugeField, v: CoherentVector,
            rho: np.ndarray | None = None) -> CoherentVector:
    """The energy representation on a coherent vector, or on each sample."""
    exponent, image = _u_exponent(psi, v.param, rho)
    return CoherentVector(_times(v.coeff, np.exp(exponent)), image)


def _u_exponent(psi: GaugeField, f: Field, rho: np.ndarray | None = None):
    """(-|beta|^2/2 - <beta, V f>, V f + beta): the exponent of the
    coefficient and the parameter of U(psi) exp(f), with V = V(psi)."""
    beta, vf = log_derivative(psi), v_action(psi, f)
    return (-0.5 * inner_product(beta, beta, rho)
            - inner_product(beta, vf, rho)), vf + beta


def kernel_discrepancy(psi: GaugeField, f: Field, g: Field,
                       rho: np.ndarray | None = None) -> float | np.ndarray:
    """Relative change of <exp f, exp g> under U(psi); unitarity measure."""
    a, b = CoherentVector(1.0, f), CoherentVector(1.0, g)
    before = coherent_inner(a, b, rho)
    after = coherent_inner(apply_u(psi, a, rho), apply_u(psi, b, rho), rho)
    return modulus(after - before) / modulus(before)


@dataclass(frozen=True)
class HomomorphismResult:
    coeff_ratio: complex     # must be 1 exactly, not merely unit modulus
    param_residual: float


def homomorphism_check(psi: GaugeField, phi: GaugeField, f_set: Field,
                       rho: np.ndarray | None = None) -> HomomorphismResult:
    """Compare U(psi phi) exp(f) with U(psi) U(phi) exp(f) componentwise;
    worst case over f_set, whose sample axis psi, phi and rho may share."""
    v = CoherentVector(1.0, f_set)
    lhs = apply_u(gauge_product(psi, phi), v, rho)
    rhs = apply_u(psi, apply_u(phi, v, rho), rho)
    ratio = lhs.coeff / rhs.coeff
    return HomomorphismResult(
        complex(ratio[np.argmax(modulus(ratio - 1.0))]),
        float(np.max(norm(lhs.param - rhs.param, rho))))


# ---------------------------------------------------------------------------
# Conformal invariance of the matrix elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConformalReport:
    max_relative_change: float       # after metric rescaling
    max_prediction_residual: float   # vs the analytic factor (constant rho only)
    one_particle_scale: float | None


def conformal_check(psi: GaugeField, rho_conf: np.ndarray, f_set,
                    g_set) -> ConformalReport:
    """Recompute U-matrix elements after rescaling the metric by e^rho_conf.

    One element per pair (f, g) from the two test sets.  In dimension 2 they
    are invariant; otherwise the deviation is reported, and for constant
    rho_conf it is compared with the exact factor e^{(d/2-1)rho} on both
    exponents of every element.  The inner products carry no weight exponent.
    """
    new_grid = conformal_rescale(psi.grid, rho_conf)
    a, kernel = _element_exponents(psi, f_set, g_set, psi.grid)
    a2, kernel2 = _element_exponents(psi, f_set, g_set, new_grid)
    before = _times(np.exp(a), np.exp(kernel))
    after = _times(np.exp(a2), np.exp(kernel2))
    change = np.max(modulus(after - before) / modulus(before))

    rho_c = np.asarray(rho_conf, float)
    if not np.all(rho_c == rho_c[0]):
        return ConformalReport(float(change), 0.0, None)
    scale = float(np.exp((psi.grid.dimension / 2.0 - 1.0) * rho_c[0]))
    pred = _times(np.exp(scale * a), np.exp(scale * kernel))
    residual = np.max(modulus(after - pred) / modulus(pred))
    return ConformalReport(float(change), float(residual), scale)


def _element_exponents(psi: GaugeField, f_set: Field, g_set: Field, grid):
    """(a, K) with <exp f_i, U(psi) exp g_j> = e^{a_j} e^{K_ij} on grid, a
    conformal rescaling of psi's: K = gram(f_set, V g + beta), linear work."""
    a, image = _u_exponent(GaugeField(grid, psi.u, psi.du), rebind(g_set, grid))
    return a, gram(rebind(f_set, grid), image)


# ---------------------------------------------------------------------------
# Truncated symmetric-tensor cross-validation
# ---------------------------------------------------------------------------

# from_coherent divides by sqrt(n!) as a double; 170! is the last finite one.
MAX_CUTOFF = 170


@dataclass(frozen=True, eq=False)
class TruncatedFockVector:
    """Occupation-number coefficients over a small orthonormal basis.

    One amplitude per state of hermite.occupation_states(dim, cutoff), on
    the monomial |n_1..n_D> with the sqrt(prod n_j!) normalization that
    makes the states orthonormal.
    """

    dim: int
    amplitudes: tuple  # complex, in occupation_states order

    @classmethod
    def from_coherent(cls, coords: np.ndarray,
                      cutoff: int = 12) -> "TruncatedFockVector":
        coords = np.asarray(coords, dtype=complex)
        amplitudes = []
        for occ in occupation_states(coords.size, cutoff):
            amp = 1.0
            for nj, fj in zip(occ, coords):
                amp = amp * fj ** nj / math.sqrt(math.factorial(nj))
            amplitudes.append(complex(amp))
        return cls(coords.size, tuple(amplitudes))

    def inner(self, other: "TruncatedFockVector") -> complex:
        """Summed over the lower cutoff's states, a prefix of the other's."""
        if self.dim != other.dim:
            raise ValueError("mismatched one-particle dimensions")
        total = 0.0 + 0.0j
        for va, vb in zip(self.amplitudes, other.amplitudes):
            total += np.conj(va) * vb
        return complex(total)


def orthonormal_coordinates(fields) -> list:
    """Coordinates of the fields in an orthonormal basis, at most one
    dimension per field: the columns of R from one Householder QR of the
    values scaled by sqrt(node_weights), since R^H R is the Gram matrix.
    So coords_i† coords_j = <f_i, f_j>_0 up to rounding, dependent fields
    included.
    """
    scaled = [f.scale_by_nodes(np.sqrt(node_weights(f))).values.ravel()
              for f in fields]
    return list(np.linalg.qr(np.stack(scaled, axis=1), mode="r").T)


def truncation_tail_bound(fa_norm: float, fb_norm: float, cutoff: int) -> float:
    """Tail of the exponential series: e^{|f||g|} (|f||g|)^{K+1} / (K+1)!.

    Evaluated in log space, so it never raises: it underflows to 0 at large
    cutoffs and saturates at inf for huge norms.
    """
    x = fa_norm * fb_norm
    if x == 0.0:
        return 0.0
    log_bound = x + (cutoff + 1) * math.log(x) - math.lgamma(cutoff + 2)
    return saturating_exp(log_bound)
