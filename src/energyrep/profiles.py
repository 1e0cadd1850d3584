"""Analytic scalar profiles with exact first derivatives.

Random test fields, gauge fields and algebra-valued fields are built from the
array families below, so that logarithmic derivatives are exact at the nodes
and cocycle identities can be tested at machine precision.  Each family
evaluates P profiles at once, each on its own, and returns values (P, n) and
exact gradients (P, n, d), or None in place of the gradients when it is not
asked for them; the values are the same bits either way.  Plane waves take
their trig per axis.  The plateau and annulus cutoffs serve the cutoff
sequences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def fourier_series(nodes: np.ndarray, period: float, cos_amps: np.ndarray,
                   sin_amps: np.ndarray, gradients: bool = True):
    """sum_k ca_k cos(2 pi k s / period) + sa_k sin(...) on a periodic axis.

    cos_amps and sin_amps hold one row of amplitudes k = 1..K per profile.
    """
    s = nodes[:, 0]
    w = 2.0 * np.pi * np.arange(1, cos_amps.shape[1] + 1) / period
    arg = w[:, None] * s
    cos, sin = np.cos(arg), np.sin(arg)
    val = np.zeros((cos_amps.shape[0], s.size))
    grad = np.zeros_like(val) if gradients else None
    for k in range(w.size):
        ca, sa = cos_amps[:, k, None], sin_amps[:, k, None]
        val += ca * cos[k] + sa * sin[k]
        if gradients:
            grad += -ca * w[k] * sin[k] + sa * w[k] * cos[k]
    return val, (grad[:, :, None] if gradients else None)


def plane_waves(axes, periods, terms: np.ndarray, gradients: bool = True):
    """sum of waves amp cos(a + b), a = 2 pi kx x / Px, b = 2 pi ky y / Py
    + phase, one row (amp, kx, ky, phase) of terms (P, M, 4) each, on the
    grid of the axes (x, y).  By cos(a + b) = cos a cos b - sin a sin b and
    its sine analogue, trig runs on (P, N) tables only, and one matrix
    product per profile sums the waves (one more, the gradients)."""
    (x, y), (count, waves) = axes, terms.shape[:2]
    amp, ph = terms[:, :, 0, None], terms[:, :, 3, None]
    w = 2 * np.pi * terms[:, :, 1:3] / periods  # wave vectors, (P, M, 2)
    # amp (cos a, sin a) against (cos b, -sin b), and -w (sin b, cos b)
    left = np.empty((count, x.size, waves, 2))
    right = np.empty((count, waves, 2, y.size))
    dright = np.empty((count, waves, 2, y.size, 2)) if gradients else None
    for m in range(waves):
        a, b = w[:, m, :1] * x, w[:, m, 1:] * y + ph[:, m]
        left[:, :, m, 0], left[:, :, m, 1] = (amp[:, m] * t(a)
                                              for t in (np.cos, np.sin))
        cb, sb = np.cos(b), np.sin(b)
        right[:, m, 0], right[:, m, 1] = cb, -sb
        if gradients:
            dright[:, m, 0], dright[:, m, 1] = (-t[:, :, None] * w[:, m, None]
                                                for t in (sb, cb))
    left = left.reshape(count, x.size, -1)
    val = (left @ right.reshape(count, -1, y.size)).reshape(count, -1)
    if not gradients:
        return val, None
    return val, (left @ dright.reshape(count, -1, 2 * y.size)).reshape(
        count, -1, 2)


def bumps(nodes: np.ndarray, centers, widths, amplitudes,
          gradients: bool = True):
    """Compactly supported bumps amp * exp(1 - 1/(1 - r^2)), r = |x - c|/width.

    centers has shape (P, d); widths and amplitudes have shape (P,).
    """
    centers, widths = np.asarray(centers, float), np.asarray(widths, float)
    diff = nodes - centers[:, None, :]
    diff /= widths[:, None, None]
    r2 = np.sum(np.square(diff), axis=2)
    outside = ~(r2 < 1.0 - 1e-12)  # the support is r^2 < 1 - 1e-12
    # r2 becomes 1 - r^2 inside the support and 1 outside it
    denom = np.subtract(1.0, r2, out=r2)
    denom[outside] = 1.0
    if not gradients:
        del diff
    # amp * exp(1 - 1/denom) over every entry, 0 outside the support
    val = np.divide(1.0, denom)
    np.subtract(1.0, val, out=val)
    np.exp(val, out=val)
    val *= np.asarray(amplitudes, float)[:, None]
    val[outside] = 0.0
    if not gradients:
        return val, None
    # d/dx_i of -1/(1-r^2) is -2 (x_i - c_i)/width^2 / (1-r^2)^2.  width^2 is
    # the scalar power, which rounds differently from squaring in an array.
    w2 = np.array([w ** 2 for w in widths])[:, None]
    factor = np.square(denom, out=denom)
    factor *= w2
    np.divide(-2.0, factor, out=factor)
    factor[outside] = 0.0
    factor *= val
    diff *= factor[:, :, None]
    diff *= widths[:, None, None]
    return val, diff


# ---------------------------------------------------------------------------
# Smoothstep and cutoff profiles
# ---------------------------------------------------------------------------

def _sigma(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly monotone between."""
    t = np.asarray(t, dtype=float)
    a = _sigma(t)
    b = _sigma(1.0 - t)
    out = np.where(t >= 1.0, 1.0, 0.0)
    mid = (t > 0.0) & (t < 1.0)
    out[mid] = a[mid] / (a[mid] + b[mid])
    return out


def smoothstep_prime(t: np.ndarray) -> np.ndarray:
    """Exact derivative of smoothstep; max value 2 attained at t = 1/2."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = (a * b * (1.0 / tm ** 2 + 1.0 / (1.0 - tm) ** 2)) / (a + b) ** 2
    return out


SMOOTHSTEP_PRIME_SUP = 2.0  # sup |S'|, attained at the midpoint


@dataclass(frozen=True)
class PlateauProfile:
    """Radial cutoff: 1 for |x| <= inner, 0 for |x| >= inner + collar.

    The transition is a smoothstep over a collar of fixed width, so the
    gradient sup is 2/collar independently of inner.
    """

    inner: float
    collar: float

    def value(self, nodes):
        r = np.linalg.norm(nodes, axis=1)
        return smoothstep((self.inner + self.collar - r) / self.collar)

    def gradient_sup(self) -> float:
        return SMOOTHSTEP_PRIME_SUP / self.collar


# radii at which AnnulusStepProfile samples its transition annulus
ANNULUS_SAMPLES = 4001


@dataclass(frozen=True)
class AnnulusStepProfile:
    """Punctured-plane cutoff: 0 on the eps-disk, 1 outside 2*eps."""

    eps: float

    def value(self, nodes):
        r = np.linalg.norm(nodes, axis=1)
        return smoothstep((r - self.eps) / self.eps)

    def gradient_sup_dense(self) -> float:
        """Sup of |grad| over a dense radial sample of the transition annulus."""
        r = np.linspace(self.eps, 2.0 * self.eps, ANNULUS_SAMPLES)
        return float(np.max(smoothstep_prime((r - self.eps) / self.eps) / self.eps))

