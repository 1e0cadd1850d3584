"""Seeded generators for test fields, gauge fields and weight exponents.

Everything is driven by an explicit numpy Generator so that fixed seeds give
byte-identical reports.  Smooth test functions are fixed continuum profiles
(low Fourier modes, Gaussians, bumps) evaluated per grid, so values converge
under refinement and probe constants stabilize.
"""
from __future__ import annotations

import numpy as np

from .gauge import AlgebraValuedField, GaugeField, gauge_from_algebra
from .grid import Field, GridManifold
from .profiles import bumps, fourier_series, plane_waves


def suite_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def _random_profiles(grid: GridManifold, rng: np.random.Generator, count: int,
                     modes: int, amplitude: float):
    """Values (count, n) and exact gradients (count, n, d) of random smooth
    profiles adapted to the topology.

    The draws come profile after profile, each in the order of its own
    terms, as drawing one profile at a time would make them.
    """
    nodes = grid.nodes
    if grid.topology == "periodic" and grid.dimension == 1:
        period = grid.spacing[0] * grid.axis_sizes[0]
        scale = amplitude / max(modes, 1)
        amps = (rng.uniform(-scale, scale, size=(count, 2, modes))
                / np.arange(1, modes + 1))
        return fourier_series(nodes, period, amps[:, 0], amps[:, 1])
    if grid.topology == "periodic":
        periods = tuple(grid.spacing[j] * grid.axis_sizes[j] for j in range(2))
        terms = np.zeros((count, modes, 4))
        for term in terms.reshape(-1, 4):
            kx, ky = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            if kx == 0 and ky == 0:
                kx = 1
            term[:] = (rng.uniform(-amplitude, amplitude) / max(kx + ky, 1),
                       kx, ky, rng.uniform(0, 2 * np.pi))
        return plane_waves(nodes, periods, terms)
    # truncated box: random interior bumps, compactly supported; each row
    # draws the center, then the width, then the amplitude
    extent = np.max(np.abs(nodes))
    d = grid.dimension
    rows = rng.uniform([-extent / 2] * d + [extent / 3, -amplitude],
                       [extent / 2] * d + [2 * extent / 3, amplitude],
                       size=(count, d + 2))
    return bumps(nodes, rows[:, :d], rows[:, d], rows[:, d + 1])


def random_one_form(grid: GridManifold, rng: np.random.Generator,
                    modes: int = 3, amplitude: float = 1.0,
                    normalized: bool = False) -> Field:
    """Random smooth g_C-valued one-form from analytic profiles."""
    n, d = grid.node_count, grid.dimension
    parts = _random_profiles(grid, rng, 6 * d, modes, amplitude)[0]
    parts = parts.reshape(d, 3, 2, n)  # axis j, algebra index a, real/imag
    vals = np.ascontiguousarray(
        (parts[:, :, 0] + 1j * parts[:, :, 1]).transpose(2, 0, 1))
    f = Field(grid, 1, vals, algebra=True)
    if normalized:
        from .grid import norm
        nv = norm(f)
        if nv > 0:
            f = f * (1.0 / nv)
    return f


def random_covector_testset(grid: GridManifold, rng: np.random.Generator,
                            count: int, modes: int = 3) -> list:
    """Smooth plain covector fields for the seminorm probe."""
    n, d = grid.node_count, grid.dimension
    vals = _random_profiles(grid, rng, count * d, modes, 1.0)[0]
    vals = np.ascontiguousarray(vals.reshape(count, d, n).transpose(0, 2, 1),
                                dtype=complex)
    return [Field.covector(grid, v) for v in vals]


def random_gauge_field(grid: GridManifold, rng: np.random.Generator,
                       modes: int = 3, amplitude: float = 1.0) -> GaugeField:
    """psi(x) = exp(sum_k b_k(x) X_k) from three random analytic profiles."""
    return gauge_from_algebra(random_algebra_field(grid, rng, modes, amplitude))


def random_algebra_field(grid: GridManifold, rng: np.random.Generator,
                         modes: int = 3, amplitude: float = 1.0
                         ) -> AlgebraValuedField:
    vals, grads = _random_profiles(grid, rng, 3, modes, amplitude)
    return AlgebraValuedField(grid, np.ascontiguousarray(vals.T),
                              np.ascontiguousarray(grads.transpose(1, 2, 0)))


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
        if grid.topology != "periodic":
            raise ValueError("cosine rho profile needs a periodic domain")
        if grid.dimension == 1:
            period = grid.spacing[0] * grid.axis_sizes[0]
            return amplitude * np.cos(2 * np.pi * mode * nodes[:, 0] / period)
        px = grid.spacing[0] * grid.axis_sizes[0]
        py = grid.spacing[1] * grid.axis_sizes[1]
        return amplitude * (np.cos(2 * np.pi * mode * nodes[:, 0] / px)
                            + np.sin(2 * np.pi * mode * nodes[:, 1] / py))
    if profile == "bump":
        sigma = float(np.max(np.abs(nodes))) / 3.0
        return amplitude * np.exp(-np.sum(nodes ** 2, axis=1) / (2.0 * sigma ** 2))
    if profile == "random":
        if rng is None:
            raise ValueError("random rho profile needs a generator")
        return _random_profiles(grid, rng, 1, 2, amplitude)[0][0]
    raise ValueError(f"unknown rho profile {profile!r}")

