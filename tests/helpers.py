"""Helpers shared by the test modules: hand-made test sets, the gauge
fields that the package itself never builds, and the contraction and trace
definitions of the su(2) kernels that the package writes out entry by
entry."""
import numpy as np

from energyrep import su2
from energyrep.gauge import GaugeField


PAULI = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], dtype=complex)

BASIS = -0.5j * PAULI  # X_1, X_2, X_3


def to_matrix_oracle(coeff):
    """sum_k c_k X_k as a contraction with the basis."""
    return np.einsum("...k,kij->...ij", np.asarray(coeff), BASIS)


def from_matrix_oracle(m):
    """m_k = i tr(sigma_k m) as a contraction with the Pauli matrices."""
    return 1.0j * np.einsum("kij,...ji->...k", PAULI, np.asarray(m))


def rotation_oracle(g):
    """R_ab = tr(sigma_a g sigma_b g†)/2 as one four-operand contraction."""
    g = np.asarray(g)
    gd = np.conj(np.swapaxes(g, -1, -2))
    return (0.5 * np.einsum("aij,...jk,bkl,...li->...ab", PAULI, g, PAULI,
                            gd)).real


def product_oracle(a, b):
    """a @ b over stacks of 2x2 blocks as a contraction."""
    return np.einsum("...ij,...jk->...ik", a, b)


def rotate_oracle(r, f):
    """The algebra leg of f rotated by per-node r, shape (..., n, 3, 3),
    as a contraction."""
    if f.rank == 0:
        return np.einsum("...xab,...xb->...xa", r, f.values)
    return np.einsum("...xab,...xjb->...xja", r, f.values)


def stack(fields):
    """Single fields of one grid as one test set, on a leading sample axis."""
    return fields[0].copy_with(np.stack([f.values for f in fields]))


def gauge_identity(grid):
    """The constant gauge field 1, with zero derivatives."""
    n, d = grid.node_count, grid.dimension
    return GaugeField(grid, np.tile(su2.IDENTITY2, (n, 1, 1)),
                      np.zeros((n, d, 2, 2), dtype=complex))


def gauge_inverse(a):
    """Pointwise u^{-1} = u†, with d(u^{-1}) = -u^{-1} du u^{-1}."""
    ui = np.conj(np.swapaxes(a.u, -1, -2))
    du = -np.einsum("...xab,...xjbc,...xcd->...xjad", ui, a.du, ui)
    return GaugeField(a.grid, ui, du)


def group_defect(g):
    """Max deviation from u†u = I and det u = 1 over a batch of 2x2 blocks."""
    uni = np.max(np.abs(np.conj(np.swapaxes(g, -1, -2)) @ g - np.eye(2)))
    return float(max(uni, np.max(np.abs(np.linalg.det(g) - 1.0))))
