"""Analytic scalar profiles with exact first derivatives.

Gauge fields, algebra-valued fields and cutoff sequences are built from these
so that logarithmic derivatives are exact at the nodes and cocycle identities
can be tested at machine precision.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Profile:
    """Scalar function of the grid coordinates with an exact gradient."""

    def value(self, nodes: np.ndarray) -> np.ndarray:  # (n, d) -> (n,)
        raise NotImplementedError

    def gradient(self, nodes: np.ndarray) -> np.ndarray:  # (n, d) -> (n, d)
        raise NotImplementedError


@dataclass(frozen=True)
class FourierProfile(Profile):
    """sum_k ca_k cos(2 pi k s / period) + sa_k sin(...) on a periodic axis."""

    period: float
    cos_amps: tuple
    sin_amps: tuple

    def value(self, nodes):
        s = nodes[:, 0]
        out = np.zeros_like(s)
        for k, (ca, sa) in enumerate(zip(self.cos_amps, self.sin_amps), start=1):
            w = 2.0 * np.pi * k / self.period
            out += ca * np.cos(w * s) + sa * np.sin(w * s)
        return out

    def gradient(self, nodes):
        s = nodes[:, 0]
        out = np.zeros_like(s)
        for k, (ca, sa) in enumerate(zip(self.cos_amps, self.sin_amps), start=1):
            w = 2.0 * np.pi * k / self.period
            out += -ca * w * np.sin(w * s) + sa * w * np.cos(w * s)
        g = np.zeros_like(nodes)
        g[:, 0] = out
        return g


@dataclass(frozen=True)
class TorusWaveProfile(Profile):
    """sum of plane waves amp * cos(2 pi (kx x / Px + ky y / Py) + phase)."""

    periods: tuple
    terms: tuple  # of (amp, kx, ky, phase)

    def _phases(self, nodes):
        px, py = self.periods
        return [(a, 2 * np.pi * (kx * nodes[:, 0] / px + ky * nodes[:, 1] / py) + ph,
                 2 * np.pi * kx / px, 2 * np.pi * ky / py)
                for (a, kx, ky, ph) in self.terms]

    def value(self, nodes):
        out = np.zeros(nodes.shape[0])
        for a, arg, _, _ in self._phases(nodes):
            out += a * np.cos(arg)
        return out

    def gradient(self, nodes):
        g = np.zeros_like(nodes)
        for a, arg, wx, wy in self._phases(nodes):
            s = -a * np.sin(arg)
            g[:, 0] += s * wx
            g[:, 1] += s * wy
        return g


@dataclass(frozen=True)
class GaussianProfile(Profile):
    center: tuple
    sigma: float
    amplitude: float

    def _r2(self, nodes):
        c = np.asarray(self.center)
        diff = nodes - c
        return diff, np.sum(diff ** 2, axis=1)

    def value(self, nodes):
        _, r2 = self._r2(nodes)
        return self.amplitude * np.exp(-r2 / (2.0 * self.sigma ** 2))

    def gradient(self, nodes):
        diff, r2 = self._r2(nodes)
        v = self.amplitude * np.exp(-r2 / (2.0 * self.sigma ** 2))
        return -v[:, None] * diff / self.sigma ** 2


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
class PlateauProfile(Profile):
    """Radial cutoff: 1 for |x| <= inner, 0 for |x| >= inner + collar.

    The transition is a smoothstep over a collar of fixed width, so the
    gradient sup is 2/collar independently of inner.
    """

    inner: float
    collar: float

    def _radius(self, nodes):
        return np.linalg.norm(nodes, axis=1)

    def value(self, nodes):
        r = self._radius(nodes)
        return smoothstep((self.inner + self.collar - r) / self.collar)

    def gradient(self, nodes):
        r = self._radius(nodes)
        t = (self.inner + self.collar - r) / self.collar
        dv = -smoothstep_prime(t) / self.collar
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(r[:, None] > 0, nodes / np.maximum(r, 1e-300)[:, None], 0.0)
        return dv[:, None] * unit

    def gradient_sup(self) -> float:
        return SMOOTHSTEP_PRIME_SUP / self.collar


@dataclass(frozen=True)
class AnnulusStepProfile(Profile):
    """Punctured-plane cutoff: 0 on the eps-disk, 1 outside 2*eps."""

    eps: float

    def value(self, nodes):
        r = np.linalg.norm(nodes, axis=1)
        return smoothstep((r - self.eps) / self.eps)

    def gradient(self, nodes):
        r = np.linalg.norm(nodes, axis=1)
        dv = smoothstep_prime((r - self.eps) / self.eps) / self.eps
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(r[:, None] > 0, nodes / np.maximum(r, 1e-300)[:, None], 0.0)
        return dv[:, None] * unit

    def gradient_sup_dense(self, samples: int = 4001) -> float:
        """Sup of |grad| over a dense radial sample of the transition annulus."""
        r = np.linspace(self.eps, 2.0 * self.eps, samples)
        return float(np.max(smoothstep_prime((r - self.eps) / self.eps) / self.eps))


def derivative_sup_estimate(profile: Profile, order: int, lo: float, hi: float,
                            samples: int = 4001) -> float:
    """Numerical sup of the order-th radial derivative on [lo, hi].

    Order 1 uses the exact gradient; higher orders use repeated central
    differences of the exact first derivative on a dense sample.
    """
    r = np.linspace(lo, hi, samples)
    nodes = np.zeros((samples, 1))
    nodes[:, 0] = r
    d = profile.gradient(nodes)[:, 0]
    step = r[1] - r[0]
    for _ in range(order - 1):
        d = np.gradient(d, step)
    return float(np.max(np.abs(d)))


@dataclass(frozen=True)
class BumpProfile(Profile):
    """Compactly supported bump amp * exp(1 - 1/(1 - r^2)), r = |x - c|/width."""

    center: tuple
    width: float
    amplitude: float

    def _inside(self, nodes):
        c = np.asarray(self.center)
        diff = (nodes - c) / self.width
        r2 = np.sum(diff ** 2, axis=1)
        inside = r2 < 1.0 - 1e-12
        return diff, r2, inside

    def value(self, nodes):
        _, r2, inside = self._inside(nodes)
        out = np.zeros(nodes.shape[0])
        denom = np.where(inside, 1.0 - r2, 1.0)
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / denom[inside])
        return out

    def gradient(self, nodes):
        diff, r2, inside = self._inside(nodes)
        g = np.zeros_like(nodes)
        denom = np.where(inside, 1.0 - r2, 1.0)
        v = np.zeros(nodes.shape[0])
        v[inside] = self.amplitude * np.exp(1.0 - 1.0 / denom[inside])
        # d/dx_i of -1/(1-r^2) is -2 (x_i - c_i)/width^2 / (1-r^2)^2
        factor = np.zeros(nodes.shape[0])
        factor[inside] = -2.0 / (self.width ** 2 * denom[inside] ** 2)
        return (v * factor)[:, None] * diff * self.width
