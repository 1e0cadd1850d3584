"""Helpers shared by the test modules: hand-made test sets and the gauge
fields that the package itself never builds."""
import numpy as np

from energyrep import su2
from energyrep.gauge import GaugeField


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
