"""SU(2) and su(2): the basis, the adjoint action and the exponential with
its exact differential.

Basis convention: X_k = -(i/2) sigma_k, anti-Hermitian and traceless, with
[X_a, X_b] = eps_abc X_c, so the bracket in coefficients is the cross product.
The Killing form on this basis is B = -2 * identity
(`grid.ALGEBRA_METRIC_FACTOR`).
"""
from __future__ import annotations

import numpy as np

IDENTITY2 = np.eye(2, dtype=complex)


def to_matrix(coeff: np.ndarray) -> np.ndarray:
    """Coefficients (..., 3) -> 2x2 realization sum_k c_k X_k,

        [[-i c_3, -i c_1 - c_2], [-i c_1 + c_2, i c_3]] / 2.
    """
    c = np.asarray(coeff)
    c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2]
    m = np.empty(c.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0] = -0.5j * c3
    m[..., 0, 1] = -0.5 * c2 - 0.5j * c1
    m[..., 1, 0] = 0.5 * c2 - 0.5j * c1
    m[..., 1, 1] = 0.5j * c3
    return m


def from_matrix(m: np.ndarray) -> np.ndarray:
    """Inverse of to_matrix; m_k = i tr(sigma_k m) for m in the basis span,

        (i (m_01 + m_10), m_10 - m_01, i (m_00 - m_11)).
    """
    m = np.asarray(m)
    out = np.empty(m.shape[:-2] + (3,), dtype=complex)
    out[..., 0] = 1.0j * (m[..., 1, 0] + m[..., 0, 1])
    out[..., 1] = m[..., 1, 0] - m[..., 0, 1]
    out[..., 2] = 1.0j * (m[..., 0, 0] - m[..., 1, 1])
    return out


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over broadcast stacks of 2x2 blocks, written out per entry."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                   dtype=np.result_type(a, b))
    for i in range(2):
        for k in range(2):
            out[..., i, k] = (a[..., i, 0] * b[..., 0, k]
                              + a[..., i, 1] * b[..., 1, k])
    return out


def basis_projection_residual(m: np.ndarray) -> float:
    """How far m is from anti-Hermitian traceless (a broken derivative signal)."""
    m = np.asarray(m)
    anti = m + np.conj(np.swapaxes(m, -1, -2))
    tr = np.trace(m, axis1=-2, axis2=-1)
    return float(max(np.max(np.abs(anti)), np.max(np.abs(tr))))


# ---------------------------------------------------------------------------
# The adjoint action
# ---------------------------------------------------------------------------

def rotation_of(g: np.ndarray) -> np.ndarray:
    """Ad(g) as a real 3x3 matrix on coefficients, R_ab = tr(sigma_a g sigma_b g†)/2.

    g in SU(2) is w I - i (x sigma_1 + y sigma_2 + z sigma_3) with
    w^2 + |v|^2 = 1, v = (x, y, z); (w, v) is read off the first column of
    g, and the rotation R = I + 2w [v]x + 2 [v]x^2 of that unit quaternion
    is written out per entry.
    """
    g = np.asarray(g)
    w, z = g[..., 0, 0].real, -g[..., 0, 0].imag
    y, x = g[..., 1, 0].real, -g[..., 1, 0].imag
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    r = np.empty(g.shape[:-2] + (3, 3))
    r[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    r[..., 0, 1] = 2.0 * (xy - wz)
    r[..., 0, 2] = 2.0 * (xz + wy)
    r[..., 1, 0] = 2.0 * (xy + wz)
    r[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    r[..., 1, 2] = 2.0 * (yz - wx)
    r[..., 2, 0] = 2.0 * (xz - wy)
    r[..., 2, 1] = 2.0 * (yz + wx)
    r[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return r


# ---------------------------------------------------------------------------
# Exponentials
# ---------------------------------------------------------------------------

def exp_map(coeff: np.ndarray) -> np.ndarray:
    """Closed-form su(2) exponential (Rodrigues type), batched over leading axes.

    exp(sum c_k X_k) = cos(t/2) I + sinc(t/2) * (sum c_k X_k), t = |c|.
    """
    c = np.asarray(coeff, dtype=float)
    theta = np.linalg.norm(c, axis=-1)
    half = theta / 2.0
    # np.sinc(z) = sin(pi z)/(pi z), so sin(half)/half = sinc(half/pi)
    s = np.sinc(half / np.pi)
    m = to_matrix(c)
    return (np.cos(half)[..., None, None] * IDENTITY2
            + s[..., None, None] * m)


# Below this phi^2 the middle coefficient of dexp comes from its Taylor series,
# whose first dropped term, -phi^4/1680, is then below 6e-16.
_TAYLOR_PHI2 = 1e-6


def dexp_batch(a: np.ndarray, aprime: np.ndarray) -> np.ndarray:
    """Frechet derivative of exp at a along aprime, batched over leading axes.

    a and aprime are 2x2 su(2) matrices of shape (..., 2, 2).  With
    phi^2 = det a (a^2 = -phi^2 I, phi = |c|/2) and delta = -tr(a aprime),

        dexp = -(sinc(phi)/2) delta I
               + ((cos(phi) - sinc(phi)) / (2 phi^2)) delta a + sinc(phi) aprime,

    sinc(phi) = sin(phi)/phi; for small phi the middle coefficient is
    (-1/3 + phi^2/30) / 2.  Hall, Lie Groups, Lie Algebras, and
    Representations (2015), Thm 5.4.
    """
    a = np.asarray(a)
    b = np.asarray(aprime)
    phi2 = (a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]).real
    phi = np.sqrt(phi2)
    sinc = np.sinc(phi / np.pi)
    # -tr(a b) written out, so that a batch rounds exactly like one block
    delta = -(a[..., 0, 0] * b[..., 0, 0] + a[..., 0, 1] * b[..., 1, 0]
              + a[..., 1, 0] * b[..., 0, 1] + a[..., 1, 1] * b[..., 1, 1])
    small = phi2 < _TAYLOR_PHI2
    mid = np.where(small, (phi2 / 30.0 - 1.0 / 3.0) / 2.0,
                   (np.cos(phi) - sinc) / np.where(small, 1.0, 2.0 * phi2))
    return ((-0.5 * sinc * delta)[..., None, None] * IDENTITY2
            + (mid * delta)[..., None, None] * a
            + sinc[..., None, None] * b)
