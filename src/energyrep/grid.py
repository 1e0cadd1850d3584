"""Discretized flat manifolds: grids, fields, quadrature and covariant derivatives.

Supported domains are the circle (arclength coordinates), the torus, and
truncated boxes (interval, square) with zero extension outside.  All shipped
metrics are conformally flat, metric = scale(x) * identity, so the Levi-Civita
connection is coordinate trivial and the covariant derivative reduces to
componentwise finite differences.
"""
from __future__ import annotations

import dataclasses
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .report import write_csv

# Every shape by name: dimension, periodic axes (else truncated to [-L, L])
# and condition (c); no other module decodes a shape name.
Shape = namedtuple("Shape", "dimension periodic condition_c")
SHAPES = {
    "circle": Shape(1, True, True),
    "interval": Shape(1, False, True),
    "torus": Shape(2, True, True),
    "square": Shape(2, False, True),
    "punctured_square": Shape(2, False, False),
}
MIN_NODES = 4  # per axis

# -B on the su(2) basis used throughout is 2 * identity, so every algebra
# contraction in an inner product carries this factor.
ALGEBRA_METRIC_FACTOR = 2.0


class GridError(ValueError):
    """Invalid grid construction or mismatched grid operands."""


@dataclass(frozen=True, eq=False)
class GridManifold:
    """A uniform tensor grid with measure weights and a conformal metric scale."""

    dimension: int
    shape_name: str
    topology: str  # "periodic" | "truncated"
    axis_sizes: tuple
    extent: float             # radius if periodic, else halfwidth
    spacing: np.ndarray       # (d,)
    nodes: np.ndarray         # (n, d)
    metric_scale: np.ndarray  # (n,), metric = scale * identity at each node
    condition_c_ok: bool = True

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    def measure_weights(self) -> np.ndarray:
        """Quadrature weight per node, sqrt|g| * prod(h)."""
        cell = float(np.prod(self.spacing))
        return cell * self.metric_scale ** (self.dimension / 2.0)

    def has_unit_scale(self) -> bool:
        return bool(np.all(self.metric_scale == 1.0))

    def constant_scale(self) -> float:
        s = self.metric_scale
        if not np.all(s == s[0]):
            raise GridError("operation requires a constant metric scale")
        return float(s[0])

    def to_mesh(self, values: np.ndarray, lead: int = 0) -> np.ndarray:
        """Split the node axis, which follows `lead` sample axes, per grid axis."""
        return values.reshape(values.shape[:lead] + self.axis_sizes
                              + values.shape[lead + 1:])

    def from_mesh(self, mesh: np.ndarray, lead: int = 0) -> np.ndarray:
        return mesh.reshape(mesh.shape[:lead] + (self.node_count,)
                            + mesh.shape[lead + self.dimension:])

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Coordinates of the nodes along one grid axis, in axis order."""
        line = [0] * self.dimension
        line[axis] = slice(None)
        return self.to_mesh(self.nodes[:, axis])[tuple(line)]

    def compatible_with(self, other: "GridManifold") -> bool:
        return (
            self.shape_name == other.shape_name
            and self.axis_sizes == other.axis_sizes
            and np.array_equal(self.spacing, other.spacing)
        )


def build_grid(shape: str, nodes: int, radius: float | None = None,
               halfwidth: float | None = None) -> GridManifold:
    """Build one of the supported uniform grids.

    ``nodes`` counts grid points per axis.  Periodic shapes take ``radius``
    (circumference 2*pi*radius per axis), truncated shapes take ``halfwidth``
    (domain [-L, L] per axis, cell centered nodes, zero extension outside).
    """
    facts = SHAPES.get(shape)
    if facts is None:
        raise GridError(f"unsupported shape {shape!r}; choose from {tuple(SHAPES)}")
    if nodes < MIN_NODES:
        raise GridError(f"need at least {MIN_NODES} nodes per axis")

    d = facts.dimension
    if facts.periodic:
        extent = 1.0 if radius is None else float(radius)
        if extent <= 0:
            raise GridError("radius must be positive")
        h = 2.0 * np.pi * extent / nodes
        axis = h * np.arange(nodes)
    else:
        if halfwidth is None or halfwidth <= 0:
            raise GridError("truncated shapes need a positive halfwidth")
        extent = float(halfwidth)
        h = 2.0 * extent / nodes
        axis = -extent + h * (np.arange(nodes) + 0.5)

    coords = np.stack([x.reshape(-1) for x in
                       np.meshgrid(*(axis,) * d, indexing="ij")], axis=1)

    return GridManifold(
        dimension=d,
        shape_name=shape,
        topology="periodic" if facts.periodic else "truncated",
        axis_sizes=(nodes,) * d,
        extent=extent,
        spacing=np.full(d, h),
        nodes=coords,
        metric_scale=np.ones(coords.shape[0]),
        condition_c_ok=facts.condition_c,
    )


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Field:
    """A tensor field on a grid, or a test set of them.

    values has shape (n,) + (d,)*rank, with a trailing (3,) axis when the
    field carries complexified su(2) coefficients (algebra=True).  A test set
    carries one more, leading, sample axis; scaling, arithmetic, the
    covariant derivative, inner products and spectral expansion then act on
    every sample at once.
    """

    grid: GridManifold
    rank: int
    values: np.ndarray
    algebra: bool = False

    def __post_init__(self):
        expected = (self.grid.node_count,) + (self.grid.dimension,) * self.rank
        if self.algebra:
            expected = expected + (3,)
        if self.values.shape not in (expected, self.values.shape[:1] + expected):
            raise GridError(
                f"field values have shape {self.values.shape}, expected {expected}")

    @property
    def sample_axes(self) -> int:
        """1 for a test set with a leading sample axis, 0 for a single field."""
        return self.values.ndim - 1 - self.rank - int(self.algebra)

    @classmethod
    def covector(cls, grid: GridManifold, values: np.ndarray) -> "Field":
        return cls(grid, 1, np.asarray(values))

    @classmethod
    def zero(cls, grid: GridManifold, rank: int = 0, algebra: bool = False) -> "Field":
        shape = (grid.node_count,) + (grid.dimension,) * rank
        if algebra:
            shape = shape + (3,)
        return cls(grid, rank, np.zeros(shape, dtype=complex), algebra)

    def copy_with(self, values: np.ndarray) -> "Field":
        return Field(self.grid, self.rank, values, self.algebra)

    def scale_by_nodes(self, factor: np.ndarray) -> "Field":
        """Multiply by a per-node scalar (broadcast over the other axes)."""
        extra = self.values.ndim - 1 - self.sample_axes
        shaped = np.asarray(factor).reshape((-1,) + (1,) * extra)
        return self.copy_with(self.values * shaped)

    def __add__(self, other: "Field") -> "Field":
        _check_pair(self, other)
        return self.copy_with(self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_pair(self, other)
        return self.copy_with(self.values - other.values)

    def __mul__(self, scalar) -> "Field":
        return self.copy_with(self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class WeightField:
    """The potential W (>= 1 everywhere) together with a weight exponent rho.

    `parts`, when known, splits W by axis: W(x) = sum_j parts[j][x_j] up to
    rounding, one array per grid axis.  A part alone may be below 1.  W built
    from a raw array has no parts.
    """

    grid: GridManifold
    w: np.ndarray
    rho: np.ndarray
    parts: tuple | None = None

    def __post_init__(self):
        if self.w.shape != (self.grid.node_count,):
            raise GridError("W must be a per-node scalar array")
        if self.rho.shape != (self.grid.node_count,):
            raise GridError("rho must be a per-node scalar array")
        if np.min(self.w) < 1.0:
            raise GridError("potential W must satisfy W >= 1 everywhere")
        if self.parts is not None and (
                tuple(np.shape(p) for p in self.parts)
                != tuple((n,) for n in self.grid.axis_sizes)):
            raise GridError("W needs one part per grid axis, one value per "
                            "node of that axis")

    @classmethod
    def constant(cls, grid: GridManifold, value: float = 2.0,
                 rho: np.ndarray | None = None) -> "WeightField":
        r = np.zeros(grid.node_count) if rho is None else np.asarray(rho, float)
        parts = tuple(np.full(n, float(value) / grid.dimension)
                      for n in grid.axis_sizes)
        return cls(grid, np.full(grid.node_count, float(value)), r, parts)

    @classmethod
    def quadratic(cls, grid: GridManifold, offset: float = 1.0,
                  rho: np.ndarray | None = None) -> "WeightField":
        """W = |x|^2 + offset, with parts x_j^2 + offset/d."""
        w = np.sum(grid.nodes ** 2, axis=1) + float(offset)
        r = np.zeros(grid.node_count) if rho is None else np.asarray(rho, float)
        parts = tuple(grid.axis_coordinates(j) ** 2 + float(offset) / grid.dimension
                      for j in range(grid.dimension))
        return cls(grid, w, r, parts)


# potential.kind -> W from its value, which is W's least value, at the origin
WEIGHT_KINDS = {"constant": WeightField.constant,
                "quadratic": WeightField.quadratic}


def _check_pair(f: Field, g: Field) -> None:
    if f.grid is not g.grid and not f.grid.compatible_with(g.grid):
        raise GridError("fields live on different grids")
    if f.rank != g.rank or f.algebra != g.algebra:
        raise GridError("fields have mismatched rank or algebra structure")


def _check_scales(f: Field, g: Field) -> None:
    # one grid object has one metric scale, so only distinct grids are compared
    if f.grid is not g.grid and not np.allclose(f.grid.metric_scale,
                                                g.grid.metric_scale):
        raise GridError("fields live on different conformal rescalings")


# ---------------------------------------------------------------------------
# Quadrature inner products
# ---------------------------------------------------------------------------

def inner_product(f: Field, g: Field,
                  rho: np.ndarray | None = None) -> complex | np.ndarray:
    """<f, g>_{rho,0}: the pointwise inner product summed against
    node_weights.  Antilinear in the left argument; with a sample axis on
    either field, an array with one value per sample.
    """
    _check_pair(f, g)
    _check_scales(f, g)
    product = np.conj(f.values) * g.values
    lead = max(f.sample_axes, g.sample_axes)
    pointwise = np.sum(product, axis=tuple(range(lead + 1, product.ndim)))
    total = np.sum(pointwise * node_weights(f, rho), axis=-1)
    return total if lead else complex(total)


def gram(fs: Field, gs: Field, rho: np.ndarray | None = None) -> np.ndarray:
    """<f_i, g_j>_{rho,0} for every sample i of fs and j of gs (a single
    field has no sample axis), as one matrix product of node-weighted
    values.  Of two equal-length sets, inner_product is the diagonal."""
    _check_pair(fs, gs)
    _check_scales(fs, gs)
    left = np.conj(fs.scale_by_nodes(node_weights(fs, rho)).values)
    return (left.reshape(left.shape[:fs.sample_axes] + (-1,))
            @ gs.values.reshape(gs.values.shape[:gs.sample_axes] + (-1,)).T)


def node_weights(f: Field, rho: np.ndarray | None = None) -> np.ndarray:
    """Per-node weight of <f, f>_{rho,0}: the measure, times scale^-rank for
    the covector indices, -B = 2 * identity for algebra indices, and e^rho."""
    grid = f.grid
    weight = grid.measure_weights() * grid.metric_scale ** (-f.rank)
    if f.algebra:
        weight = weight * ALGEBRA_METRIC_FACTOR  # a power of 2: exact
    if rho is not None:
        weight = weight * np.exp(np.asarray(rho, float))
    return weight


def norm(f: Field, rho: np.ndarray | None = None) -> float | np.ndarray:
    """|f|_{rho,0}; an array with one value per sample for a test set."""
    val = np.sqrt(np.maximum(inner_product(f, f, rho).real, 0.0))
    return val if f.sample_axes else float(val)


def conformal_rescale(grid: GridManifold, rho: np.ndarray) -> GridManifold:
    """The grid with its metric rescaled by e^rho; on covector fields this
    scales <f, g>_0 by e^{(d/2 - 1) rho} per node."""
    rho = np.asarray(rho, float)
    if rho.shape != (grid.node_count,):
        raise GridError("rho must be a per-node scalar array")
    return dataclasses.replace(grid, metric_scale=grid.metric_scale * np.exp(rho))


def rebind(field: Field, grid: GridManifold) -> Field:
    """Carry a field's raw components onto a conformally rescaled copy of its grid."""
    if field.grid.axis_sizes != grid.axis_sizes or field.grid.topology != grid.topology:
        raise GridError("cannot rebind field to an unrelated grid")
    return Field(grid, field.rank, field.values, field.algebra)


# ---------------------------------------------------------------------------
# Covariant derivative (centered, second order)
# ---------------------------------------------------------------------------

def _neighbours(periodic: bool) -> tuple:
    """The centered difference's one neighbour rule along an axis, as
    (nodes, their +1 neighbours, their -1 neighbours) slice triples: the
    interior, then the two ends.  A periodic axis wraps at its ends; past a
    truncated axis' end the neighbour is the zero extension, None."""
    first, second = slice(0, 1), slice(1, 2)
    last, penultimate = slice(-1, None), slice(-2, -1)
    return ((slice(1, -1), slice(2, None), slice(None, -2)),
            (first, second, last if periodic else None),
            (last, first if periodic else None, penultimate))


def _along(a: np.ndarray, axis: int, part: slice) -> np.ndarray:
    """The view of a's `part` along one axis, whole along the others."""
    return a[(slice(None),) * axis + (part,)]


def centered_stencil(grid: GridManifold, axis: int) -> tuple:
    """(rows, cols, values) of the nonzero entries of the centered-difference
    matrix (f_{i+1} - f_{i-1}) / 2h along one axis, the one covariant_derivative
    applies: each node and its +1 neighbour by _neighbours."""
    idx = np.arange(grid.node_count).reshape(grid.axis_sizes)
    pairs = [(_along(idx, axis, nodes).ravel(), _along(idx, axis, up).ravel())
             for nodes, up, _ in _neighbours(grid.topology == "periodic")
             if up is not None]
    lo, hi = (np.concatenate(side) for side in zip(*pairs))
    c = 1.0 / (2.0 * grid.spacing[axis])
    # D[lo, hi] = c, D[hi, lo] = -c
    return (np.concatenate([lo, hi]), np.concatenate([hi, lo]),
            np.repeat([c, -c], lo.size))


def covariant_derivative(f: Field) -> Field:
    """Centered-difference covariant derivative, rank k -> k+1.

    (f_{i+1} - f_{i-1}) / 2h per axis, subtracted from slices of f straight
    into its slot of the new covector index, which sits right after the
    node axis; a zero extension enters as the scalar 0.  Requires a
    constant metric scale (flat connection); O(h^2) on smooth fields.
    """
    grid = f.grid
    grid.constant_scale()
    lead = f.sample_axes
    mesh = grid.to_mesh(f.values, lead)
    split = lead + grid.dimension
    out = np.empty(mesh.shape[:split] + (grid.dimension,) + mesh.shape[split:],
                   np.result_type(mesh, grid.spacing))
    rule = _neighbours(grid.topology == "periodic")
    for j in range(grid.dimension):
        ax, slot = lead + j, out[(slice(None),) * split + (j,)]
        for nodes, up, down in rule:
            np.subtract(*(0.0 if part is None else _along(mesh, ax, part)
                          for part in (up, down)), out=_along(slot, ax, nodes))
        slot /= 2.0 * grid.spacing[j]
    return Field(grid, f.rank + 1, grid.from_mesh(out, lead), f.algebra)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def field_to_csv(f: Field, outdir, name: str) -> None:
    """Write node coordinates plus every component (re, im) as `<name>.csv`."""
    if f.sample_axes:
        raise GridError("CSV export takes a single field")
    grid = f.grid
    header = [f"x{j}" for j in range(grid.dimension)]
    for idx in np.ndindex(*f.values.shape[1:]):
        tag = "c" + "_".join(str(i) for i in idx) if idx else "c"
        header += [f"{tag}_re", f"{tag}_im"]
    n = grid.node_count
    comps = f.values.reshape(n, -1).astype(complex)
    parts = np.stack([comps.real, comps.imag], axis=-1).reshape(n, -1)
    write_csv(outdir, name, header, np.hstack([grid.nodes, parts]).tolist())
