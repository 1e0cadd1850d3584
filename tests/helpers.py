"""Helpers shared by the test modules: hand-made test sets, the gauge
fields that the package itself never builds, the contraction and trace
definitions of the su(2) kernels that the package writes out entry by
entry, the centered difference as shifted copies, which the package reads
from slices, and the dense matrices of the operators that the package
keeps only in sparse form (the link Laplacian, the ladder letters), and
their dense solves, a conjugate's too, which the package never makes."""
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


def centered_difference_oracle(f):
    """The values of covariant_derivative(f) from whole shifted copies of
    f: per axis the neighbours as np.roll copies (periodic) or as windows
    of f padded with zeros (truncated), (up - down) / 2h, the axes stacked
    after the node axis."""
    g, lead = f.grid, f.sample_axes
    mesh = g.to_mesh(f.values, lead)
    parts = []
    for j in range(g.dimension):
        ax = lead + j
        if g.topology == "periodic":
            up, down = np.roll(mesh, -1, ax), np.roll(mesh, 1, ax)
        else:
            pad = [(0, 0)] * mesh.ndim
            pad[ax] = (1, 1)
            wide = np.pad(mesh, pad)
            up = np.take(wide, range(2, mesh.shape[ax] + 2), axis=ax)
            down = np.take(wide, range(mesh.shape[ax]), axis=ax)
        parts.append(g.from_mesh((up - down) / (2.0 * g.spacing[j]), lead))
    return np.stack(parts, axis=lead + 1)


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


def link_laplacian(n, h, periodic):
    """The 1-D link Laplacian as the product G^T G of the one-sided
    difference matrix G, link values per node interval.

    Periodic: G is the n x n circulant.  Truncated: G is (n+1) x n and
    includes the two boundary links against the zero extension.
    """
    if periodic:
        g = np.eye(n, k=1) - np.eye(n)
        g[n - 1, 0] += 1.0
    else:
        # link i holds (f_i - f_{i-1})/h with ghost values f_{-1} = f_n = 0
        g = np.eye(n + 1, n) - np.eye(n + 1, n, k=-1)
    g = g / h
    return g.T @ g


def dense_letter(ladder, j, raising):
    """The matrix of A_j (or A_j† when raising) on the retained states,
    from the Hermite definition: A_j |n> = sqrt(n_j) |n - e_j> and
    A_j† |n> = sqrt(n_j + 1) |n + e_j>, where the target is retained."""
    index = {s: i for i, s in enumerate(ladder.states)}
    step = 1 if raising else -1
    m = np.zeros((ladder.size, ladder.size))
    for col, state in enumerate(ladder.states):
        target = state[:j] + (state[j] + step,) + state[j + 1:]
        if target in index:
            m[index[target], col] = np.sqrt(state[j] + max(step, 0))
    return m


def symmetrized(op):
    """The dense matrix of op symmetrized by its weights w (w e^rho for a
    conjugate): diag(sqrt w) M diag(sqrt w)^{-1}."""
    sqw = np.sqrt(op.node_weights)
    return (sqw[:, None] * op.matrix) / sqw[None, :]


def dense_solve(op):
    """The eigh solve of op's own symmetrized matrix, a conjugate's too:
    ascending eigenvalues, and the columns over sqrt(w), orthonormal under
    the weights."""
    lam, vecs = np.linalg.eigh(symmetrized(op))
    return lam, vecs / np.sqrt(op.node_weights)[:, None]


def dense_eigenvalues(op):
    """The eigvalsh solve of op's own symmetrized matrix."""
    return np.linalg.eigvalsh(symmetrized(op))
