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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gauge import GaugeField, gauge_product, log_derivative, v_action
from .grid import Field, conformal_rescale, inner_product, norm, rebind
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
    return _u_on(log_derivative(psi), v_action(psi, v.param), v.coeff, rho)


def _u_on(beta: Field, vf: Field, coeff,
          rho: np.ndarray | None = None) -> CoherentVector:
    """U(psi) on coeff * exp(f), from beta = log_derivative(psi) and
    vf = V(psi) f."""
    exponent = (-0.5 * inner_product(beta, beta, rho)
                - inner_product(beta, vf, rho))
    return CoherentVector(_times(coeff, np.exp(exponent)), vf + beta)


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
    rho_conf it is compared with the exact factor e^{(d/2-1)rho} on every
    one-particle inner product.  The inner products carry no weight
    exponent.
    """
    new_grid = conformal_rescale(psi.grid, rho_conf)
    psi2 = GaugeField(new_grid, psi.u, psi.du)

    f = f_set.copy_with(np.repeat(f_set.values, len(g_set.values), axis=0))
    g = g_set.copy_with(np.concatenate([g_set.values] * len(f_set.values)))
    beta, vg = log_derivative(psi), v_action(psi, g)
    image = _u_on(beta, vg, 1.0)  # U(psi) exp(g), read again by pred
    before = coherent_inner(CoherentVector(1.0, f), image)
    after = coherent_inner(CoherentVector(1.0, rebind(f, new_grid)),
                           apply_u(psi2, CoherentVector(1.0, rebind(g, new_grid))))
    change = np.max(modulus(after - before) / modulus(before))

    rho_c = np.asarray(rho_conf, float)
    if not np.all(rho_c == rho_c[0]):
        return ConformalReport(float(change), 0.0, None)
    # the apply_u exponent and the kernel exponent, each product scaled
    scale = float(np.exp((psi.grid.dimension / 2.0 - 1.0) * rho_c[0]))
    pred = _times(np.exp(-0.5 * scale * inner_product(beta, beta)
                         - scale * inner_product(beta, vg)),
                  np.exp(scale * inner_product(f, image.param)))
    residual = np.max(modulus(after - pred) / modulus(pred))
    return ConformalReport(float(change), float(residual), scale)


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
    """All tuples of nonnegative ints of length parts summing to total, in
    lexicographic order: the gaps between parts - 1 bars among total stars."""
    end = total + parts - 1
    for bars in itertools.combinations(range(end), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (end,)))


def orthonormal_coordinates(fields) -> list:
    """Coordinates of the fields in an orthonormal basis of their span.

    Modified Gram-Schmidt under <.,.>_0; the returned vectors satisfy
    coords_i† coords_j = <f_i, f_j>_0 up to rounding.
    """
    basis = []         # orthonormal Fields
    coords = [np.zeros(0, dtype=complex) for _ in fields]
    for i, f in enumerate(fields):
        resid = f
        comp = []
        for e in basis:
            c = inner_product(e, resid)
            comp.append(c)
            resid = resid - e * c
        r = norm(resid)
        if r > 1e-13:
            basis.append(resid * (1.0 / r))
            comp.append(r)
        coords[i] = np.array(comp, dtype=complex)
    dim = len(basis)
    return [np.pad(c, (0, dim - c.size)) for c in coords]


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
