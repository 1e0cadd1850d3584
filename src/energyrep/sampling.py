"""Seeded generators for test fields, gauge fields and weight exponents.

Everything is driven by an explicit numpy Generator so that fixed seeds give
byte-identical reports.  Smooth test functions are fixed continuum profiles
(low Fourier modes, Gaussians, bumps) evaluated per grid, so values converge
under refinement and probe constants stabilize.
"""
from __future__ import annotations

import numpy as np

from .gauge import AlgebraValuedField, GaugeField, gauge_from_profiles
from .grid import Field, GridManifold
from .profiles import (BumpProfile, FourierProfile, GaussianProfile,
                       TorusWaveProfile)


def suite_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def _scalar_profile(grid: GridManifold, rng: np.random.Generator, modes: int,
                    amplitude: float):
    """A random smooth profile adapted to the topology, with exact gradient."""
    if grid.topology == "periodic" and grid.dimension == 1:
        period = grid.spacing[0] * grid.axis_sizes[0]
        scale = amplitude / max(modes, 1)
        cos_amps = tuple(rng.uniform(-scale, scale) / k for k in range(1, modes + 1))
        sin_amps = tuple(rng.uniform(-scale, scale) / k for k in range(1, modes + 1))
        return FourierProfile(period, cos_amps, sin_amps)
    if grid.topology == "periodic":
        periods = tuple(grid.spacing[j] * grid.axis_sizes[j] for j in range(2))
        terms = []
        for _ in range(modes):
            kx, ky = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            if kx == 0 and ky == 0:
                kx = 1
            terms.append((rng.uniform(-amplitude, amplitude) / max(kx + ky, 1),
                          kx, ky, rng.uniform(0, 2 * np.pi)))
        return TorusWaveProfile(periods, tuple(terms))
    # truncated box: random interior bumps, compactly supported
    extent = np.max(np.abs(grid.nodes))
    center = tuple(rng.uniform(-extent / 2, extent / 2)
                   for _ in range(grid.dimension))
    width = rng.uniform(extent / 3, 2 * extent / 3)
    return BumpProfile(center, width, rng.uniform(-amplitude, amplitude))


def random_one_form(grid: GridManifold, rng: np.random.Generator,
                    modes: int = 3, amplitude: float = 1.0,
                    normalized: bool = False) -> Field:
    """Random smooth g_C-valued one-form from analytic profiles."""
    n, d = grid.node_count, grid.dimension
    vals = np.zeros((n, d, 3), dtype=complex)
    for j in range(d):
        for a in range(3):
            real = _scalar_profile(grid, rng, modes, amplitude)
            imag = _scalar_profile(grid, rng, modes, amplitude)
            vals[:, j, a] = real.value(grid.nodes) + 1j * imag.value(grid.nodes)
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
    out = []
    for _ in range(count):
        vals = np.zeros((grid.node_count, grid.dimension), dtype=complex)
        for j in range(grid.dimension):
            prof = _scalar_profile(grid, rng, modes, 1.0)
            vals[:, j] = prof.value(grid.nodes)
        out.append(Field.covector(grid, vals))
    return out


def random_gauge_field(grid: GridManifold, rng: np.random.Generator,
                       modes: int = 3, amplitude: float = 1.0) -> GaugeField:
    profiles = [_scalar_profile(grid, rng, modes, amplitude) for _ in range(3)]
    return gauge_from_profiles(grid, profiles)


def random_algebra_field(grid: GridManifold, rng: np.random.Generator,
                         modes: int = 3, amplitude: float = 1.0,
                         bounded: bool = True) -> AlgebraValuedField:
    profiles = [_scalar_profile(grid, rng, modes, amplitude) for _ in range(3)]
    return AlgebraValuedField.from_profiles(grid, profiles, bounded)


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
        extent = float(np.max(np.abs(nodes)))
        prof = GaussianProfile((0.0,) * grid.dimension, extent / 3.0, amplitude)
        return prof.value(nodes)
    if profile == "random":
        if rng is None:
            raise ValueError("random rho profile needs a generator")
        prof = _scalar_profile(grid, rng, 2, amplitude)
        return prof.value(nodes)
    raise ValueError(f"unknown rho profile {profile!r}")

