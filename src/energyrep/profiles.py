"""Analytic scalar profiles with exact first derivatives.

Random test fields, gauge fields and algebra-valued fields are built from the
array families below, so that logarithmic derivatives are exact at the nodes
and cocycle identities can be tested at machine precision.  Each family
evaluates P profiles at once from one evaluation of their phases and returns
values (P, n) and exact gradients (P, n, d).  The plateau and annulus cutoffs
serve the cutoff sequences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def fourier_series(nodes: np.ndarray, period: float, cos_amps: np.ndarray,
                   sin_amps: np.ndarray):
    """sum_k ca_k cos(2 pi k s / period) + sa_k sin(...) on a periodic axis.

    cos_amps and sin_amps hold one row of amplitudes k = 1..K per profile.
    """
    s = nodes[:, 0]
    w = 2.0 * np.pi * np.arange(1, cos_amps.shape[1] + 1) / period
    arg = w[:, None] * s
    cos, sin = np.cos(arg), np.sin(arg)
    val = np.zeros((cos_amps.shape[0], s.size))
    grad = np.zeros_like(val)
    for k in range(w.size):
        ca, sa = cos_amps[:, k, None], sin_amps[:, k, None]
        val += ca * cos[k] + sa * sin[k]
        grad += -ca * w[k] * sin[k] + sa * w[k] * cos[k]
    return val, grad[:, :, None]


def plane_waves(nodes: np.ndarray, periods, terms: np.ndarray):
    """sum of plane waves amp * cos(2 pi (kx x / Px + ky y / Py) + phase).

    terms holds one row of (amp, kx, ky, phase) per wave, shape (P, M, 4).
    The waves are evaluated one at a time, so the temporaries stay (P, n).
    """
    px, py = periods
    amp, kx, ky, ph = (terms[:, :, i, None] for i in range(4))
    wx, wy = 2 * np.pi * kx / px, 2 * np.pi * ky / py
    val = np.zeros((terms.shape[0], nodes.shape[0]))
    grad = np.zeros(val.shape + (2,))
    for m in range(terms.shape[1]):
        arg = (2 * np.pi * (kx[:, m] * nodes[:, 0] / px
                            + ky[:, m] * nodes[:, 1] / py) + ph[:, m])
        val += amp[:, m] * np.cos(arg)
        s = -amp[:, m] * np.sin(arg)
        grad[:, :, 0] += s * wx[:, m]
        grad[:, :, 1] += s * wy[:, m]
    return val, grad


def bumps(nodes: np.ndarray, centers, widths, amplitudes):
    """Compactly supported bumps amp * exp(1 - 1/(1 - r^2)), r = |x - c|/width.

    centers has shape (P, d); widths and amplitudes have shape (P,).
    """
    centers, widths = np.asarray(centers, float), np.asarray(widths, float)
    diff = (nodes - centers[:, None, :]) / widths[:, None, None]
    r2 = np.sum(diff ** 2, axis=2)
    inside = r2 < 1.0 - 1e-12
    denom = np.where(inside, 1.0 - r2, 1.0)
    val = np.zeros(r2.shape)
    amp = np.broadcast_to(np.asarray(amplitudes, float)[:, None], r2.shape)
    val[inside] = amp[inside] * np.exp(1.0 - 1.0 / denom[inside])
    # d/dx_i of -1/(1-r^2) is -2 (x_i - c_i)/width^2 / (1-r^2)^2.  width^2 is
    # the scalar power, which rounds differently from squaring in an array.
    w2 = np.broadcast_to(np.array([w ** 2 for w in widths])[:, None], r2.shape)
    factor = np.zeros(r2.shape)
    factor[inside] = -2.0 / (w2[inside] * denom[inside] ** 2)
    return val, (val * factor)[:, :, None] * diff * widths[:, None, None]


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

