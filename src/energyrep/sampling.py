"""Seeded generators for test fields, gauge fields and weight exponents.

Everything is driven by an explicit numpy Generator so that fixed seeds give
byte-identical reports.  Smooth test functions are fixed continuum profiles
(low Fourier modes, plane waves, bumps) evaluated per grid, so values converge
under refinement and probe constants stabilize.
A sampler makes one sample, or with a `count` a set on a leading sample
axis: one generator call draws its parameter rows in one-at-a-time order
(the torus draws term by term), one call of the grid's family evaluates them,
with exact gradients only for the kinds that read them.
"""
from __future__ import annotations

import numpy as np

from .gauge import AlgebraValuedField, GaugeField, gauge_from_algebra
from .grid import Field, GridManifold, norm
from .profiles import bumps, fourier_series, plane_waves


# the kinds built from their profiles' gradients as well as their values
GRADIENT_KINDS = ("algebra", "gauge")


def suite_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def _draw_rows(grid: GridManifold, rng: np.random.Generator, samples: int,
               kinds) -> list:
    """Parameter rows per kind (name, modes, amplitude) of profiles adapted
    to the topology, as a loop making one sample of each kind in turn draws
    them: in one generator call per set, or term by term on the torus, whose
    plane waves interleave integer and uniform draws."""
    d = grid.dimension
    # profiles per sample; a one-form takes six per axis
    per = {"rho": 1, "algebra": 3, "gauge": 3, "covector": d}
    specs = [(per.get(kind, 6 * d), modes, a) for kind, modes, a in kinds]
    if grid.periodic and d > 1:
        # one (amplitude, kx, ky, phase) row per plane wave
        sets = [np.zeros((samples, c, m, 4)) for c, m, _ in specs]
        for s in range(samples):
            for terms, (*_, a) in zip(sets, specs):
                for term in terms[s].reshape(-1, 4):
                    kx, ky = int(rng.integers(0, 3)), int(rng.integers(0, 3))
                    kx = 1 if kx == ky == 0 else kx
                    term[:] = (rng.uniform(-a, a) / max(kx + ky, 1), kx, ky,
                               rng.uniform(0, 2 * np.pi))
        return [np.concatenate(terms) for terms in sets]
    if grid.periodic:
        # cosine, then sine amplitudes of the modes 1..modes, the k-th over k
        parts = [(np.tile([[-a / max(m, 1)], [a / max(m, 1)]], c * 2 * m),
                  (2, m), np.arange(1, m + 1)) for c, m, a in specs]
    else:
        # truncated box: interior bumps, each row a center, width, amplitude
        extent = np.max(np.abs(grid.nodes))
        parts = [(np.tile([[-extent / 2] * d + [extent / 3, -a],
                           [extent / 2] * d + [2 * extent / 3, a]], c),
                  (d + 2,), 1) for c, _, a in specs]
    # one sample's bounds; uniform reads one double per element in C order
    bounds, shapes, over = zip(*parts)
    low, high = np.concatenate(bounds, axis=1)
    draws = np.split(rng.uniform(low, high, size=(samples, low.size)),
                     np.cumsum([b.shape[1] for b in bounds])[:-1], axis=1)
    return [rows.reshape((samples * c,) + shape) / k
            for rows, (c, *_), shape, k in zip(draws, specs, shapes, over)]


def _profiles(grid: GridManifold, rows: np.ndarray, gradients: bool):
    """Values (P, n) of the profiles with the given parameter rows, and their
    exact gradients (P, n, d) if asked for, else None, from one call of the
    grid's family; the values do not depend on the ask."""
    nodes, periods = grid.nodes, grid.spacing * grid.axis_sizes
    if grid.periodic and grid.dimension == 1:
        return fourier_series(nodes, periods[0], rows[:, 0], rows[:, 1],
                              gradients)
    if grid.periodic:
        return plane_waves([grid.axis_coordinates(j) for j in (0, 1)], periods,
                           rows, gradients)
    return bumps(nodes, rows[:, :-2], rows[:, -2], rows[:, -1], gradients)


def _build(grid: GridManifold, kind: str, lead: tuple, vals, grads):
    """One sample (lead ()) or a set (lead (count,)) of a kind from the
    values of its profiles, sample after sample, and their gradients for
    the GRADIENT_KINDS (None for the others)."""
    n, d = grid.node_count, grid.dimension
    if kind == "rho":
        return vals.reshape(lead + (n,))
    if kind == "covector":
        return Field.covector(grid, np.ascontiguousarray(
            np.swapaxes(vals.reshape(lead + (d, n)), -1, -2)))
    if kind in GRADIENT_KINDS:
        field = AlgebraValuedField(grid, np.ascontiguousarray(
            np.swapaxes(vals.reshape(lead + (3, n)), -1, -2)),
            np.ascontiguousarray(np.moveaxis(grads.reshape(lead + (3, n, d)),
                                             -3, -1)))
        return gauge_from_algebra(field) if kind == "gauge" else field
    # one_form, unit_one_form: axis j, algebra index a, real/imaginary part
    parts = vals.reshape(lead + (d, 3, 2, n))
    f = Field(grid, 1, np.ascontiguousarray(np.moveaxis(
        parts[..., 0, :] + 1j * parts[..., 1, :], -1, -3)), algebra=True)
    if kind == "unit_one_form":
        nv = norm(f)
        inv = 1.0 / np.where(nv > 0, nv, 1.0)
        f = f.copy_with(f.values * np.reshape(inv, np.shape(nv) + (1, 1, 1)))
    return f


def random_tuples(grid: GridManifold, rng: np.random.Generator,
                  count: int | None, *kinds) -> tuple:
    """One set of `count` samples per kind (name, modes, amplitude), or one
    sample per kind for count None, as a loop making one sample of each kind
    in turn draws them, in one generator call off the torus; each kind is
    evaluated once, with gradients only for the GRADIENT_KINDS.  Names: rho,
    covector, algebra, gauge, (unit_)one_form."""
    if count is not None and count < 1:
        raise ValueError("a sampled set needs at least one sample")
    lead = () if count is None else (count,)
    rows = _draw_rows(grid, rng, count or 1, kinds)
    return tuple(_build(grid, kind, lead,
                        *_profiles(grid, r, kind in GRADIENT_KINDS))
                 for (kind, *_), r in zip(kinds, rows))


def random_one_form(grid: GridManifold, rng: np.random.Generator,
                    modes: int = 3, amplitude: float = 1.0,
                    normalized: bool = False, count: int | None = None) -> Field:
    """Random smooth g_C-valued one-form from analytic profiles, or a set."""
    kind = "unit_one_form" if normalized else "one_form"
    return random_tuples(grid, rng, count, (kind, modes, amplitude))[0]


def random_covector_testset(grid: GridManifold, rng: np.random.Generator,
                            count: int, modes: int = 3) -> Field:
    """A set of smooth real covector fields (float64 values) for the
    seminorm probe."""
    return random_tuples(grid, rng, count, ("covector", modes, 1.0))[0]


def random_gauge_field(grid: GridManifold, rng: np.random.Generator,
                       modes: int = 3, amplitude: float = 1.0,
                       count: int | None = None) -> GaugeField:
    """psi(x) = exp(sum_k b_k(x) X_k) from three random analytic profiles."""
    return random_tuples(grid, rng, count, ("gauge", modes, amplitude))[0]


def random_algebra_field(grid: GridManifold, rng: np.random.Generator,
                         modes: int = 3, amplitude: float = 1.0,
                         count: int | None = None) -> AlgebraValuedField:
    return random_tuples(grid, rng, count, ("algebra", modes, amplitude))[0]


# the profile names rho_field accepts; "cosine" needs a periodic domain
RHO_PROFILES = ("zero", "constant", "cosine", "bump", "random")


def rho_field(grid: GridManifold, profile: str, amplitude: float,
              mode: int = 1, rng: np.random.Generator | None = None) -> np.ndarray:
    """Weight exponent values per the named profile."""
    nodes = grid.nodes
    if profile == "zero":
        return np.zeros(grid.node_count)
    if profile == "constant":
        return np.full(grid.node_count, float(amplitude))
    if profile == "cosine":
        if not grid.periodic:
            raise ValueError("cosine rho profile needs a periodic domain")
        phases = 2 * np.pi * mode * nodes / (grid.spacing * grid.axis_sizes)
        if grid.dimension == 1:
            return amplitude * np.cos(phases[:, 0])
        return amplitude * (np.cos(phases[:, 0]) + np.sin(phases[:, 1]))
    if profile == "bump":
        sigma = float(np.max(np.abs(nodes))) / 3.0
        return amplitude * np.exp(-np.sum(nodes ** 2, axis=1) / (2.0 * sigma ** 2))
    if profile == "random":
        if rng is None:
            raise ValueError("random rho profile needs a generator")
        return random_tuples(grid, rng, None, ("rho", 2, amplitude))[0]
    raise ValueError(f"unknown rho profile {profile!r}")
