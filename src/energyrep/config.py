"""Flat key-value experiment configuration.

Format: one `section.key = value` per line, `#` comments, blank lines ignored.
Every key has a default except `seed` and `domain.shape`; unknown keys are
rejected so typos fail loudly before any computation.  The full schema is
documented in the README.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import typing
from dataclasses import dataclass


class ConfigError(ValueError):
    """Missing, unknown or malformed configuration keys."""


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    domain_shape: str
    domain_nodes: int = 64
    domain_radius: float = 1.0
    domain_halfwidth: float = 8.0
    potential_kind: str = "constant"
    potential_value: float = 2.0
    rho_profile: str = "cosine"
    rho_amplitude: float = 0.3
    rho_mode: int = 1
    hs_p: float = 1.0
    spectrum_circle_nodes: int = 64
    spectrum_oscillator_nodes: int = 400
    spectrum_oscillator_halfwidth: float = 8.0
    ladders_cutoff: int = 16
    ladders_samples: int = 1000
    seminorms_nodes: tuple[int, ...] = (16, 32, 64)
    seminorms_m_list: tuple[int, ...] = (0, 1, 2)
    seminorms_p_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0)
    seminorms_functions: int = 100
    seminorms_interval_halfwidth: float = 6.0
    gauge_nodes: int = 32
    gauge_pairs: int = 50
    gauge_modes: int = 3
    gauge_amplitude: float = 1.0
    regularity_t_list: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4)
    regularity_p: float = 1.0
    regularity_q: float = 1.0
    regularity_m: int = 1
    regularity_functions: int = 100
    cutoff_count: int = 8
    cutoff_step: float = 1.0
    cutoff_collar: float = 1.0
    cutoff_p: float = 1.0
    cutoff_halfwidth: float = 8.0
    cutoff_nodes: int = 200
    punctured_eps0: float = 1.0
    punctured_halvings: int = 5
    fock_tuples: int = 100
    fock_pairs: int = 50
    fock_nodes: int = 32
    fock_cutoff: int = 12
    conformal_torus_nodes: int = 12
    conformal_circle_nodes: int = 16
    conformal_rho_amplitude: float = 0.4
    conformal_elements: int = 6
    source_digest: str = ""

    def digest(self) -> str:
        return self.source_digest


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parser(annotation):
    """The field's own type, a finite float for `float`, or for
    `tuple[T, ...]` a list of T separated by blanks or commas (separators
    alone parse as one empty item, which T refuses)."""
    if typing.get_origin(annotation) is tuple:
        item = _parser(typing.get_args(annotation)[0])
        return lambda text: tuple(map(item,
                                      text.replace(",", " ").split() or [""]))
    return _finite_float if annotation is float else annotation


# key -> (attribute, parser); the key `section.rest` names the field
# `section_rest`, and every field but `source_digest` is a key
_HINTS = typing.get_type_hints(ExperimentConfig)
_SCHEMA = {f.name.replace("_", ".", 1): (f.name, _parser(_HINTS[f.name]))
           for f in dataclasses.fields(ExperimentConfig)
           if f.name != "source_digest"}


def parse_kv(path) -> dict:
    pairs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            if key in pairs:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            pairs[key] = value
    return pairs


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    """Parse and validate a config file; a given `seed` overrides its own."""
    pairs = parse_kv(path)
    unknown = sorted(set(pairs) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in ("seed", "domain.shape") if k not in pairs]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    kwargs = {}
    for key, value in pairs.items():
        attr, parser = _SCHEMA[key]
        try:
            kwargs[attr] = parser(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc
    canonical = "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs))
    kwargs["source_digest"] = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    if seed is not None:
        kwargs["seed"] = seed
    cfg = ExperimentConfig(**kwargs)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    from .fock import MAX_CUTOFF
    from .grid import MIN_NODES, PERIODIC_SHAPES, SUPPORTED_SHAPES
    from .operators import DENSE_SOLVE_NODES
    from .sampling import RHO_PROFILES
    from .suites import EIGENVECTOR_MODES, LADDER_WORDS, OSCILLATOR_LEVELS
    if cfg.domain_shape not in SUPPORTED_SHAPES:
        raise ConfigError(f"domain.shape must be one of {SUPPORTED_SHAPES}")
    if cfg.rho_profile not in RHO_PROFILES:
        raise ConfigError(f"rho.profile must be one of {RHO_PROFILES}")
    if cfg.rho_profile == "cosine" and cfg.domain_shape not in PERIODIC_SHAPES:
        raise ConfigError(f"rho.profile = cosine needs a periodic domain.shape "
                          f"{PERIODIC_SHAPES}")
    # a zero amplitude makes the gauge or conformal checks hold trivially
    for key in ("domain.radius", "domain.halfwidth", "potential.value", "hs.p",
                "spectrum.oscillator_halfwidth", "seminorms.interval_halfwidth",
                "cutoff.step", "cutoff.collar", "cutoff.halfwidth",
                "punctured.eps0", "gauge.amplitude", "conformal.rho_amplitude"):
        if getattr(cfg, _SCHEMA[key][0]) <= 0:
            raise ConfigError(f"{key} must be positive")
    # each halfwidth bounds a grid that may carry the weight |x|^2 + 1
    for key in ("domain.halfwidth", "spectrum.oscillator_halfwidth",
                "seminorms.interval_halfwidth", "cutoff.halfwidth"):
        halfwidth = getattr(cfg, _SCHEMA[key][0])
        if not math.isfinite(halfwidth * halfwidth):
            raise ConfigError(f"{key} must keep the weight |x|^2 + 1 finite")
    if cfg.potential_kind not in ("constant", "quadratic"):
        raise ConfigError("potential.kind must be constant or quadratic")
    if cfg.potential_kind == "constant" and cfg.potential_value < 1.0:
        raise ConfigError("constant potential must be >= 1")
    if any(t <= 0 for t in cfg.regularity_t_list):
        raise ConfigError("regularity.t_list entries must be positive")
    if len(set(cfg.regularity_t_list)) < 2:
        raise ConfigError("regularity.t_list needs at least two distinct "
                          "values for the slope fit")
    # inclusive ranges of the integer keys and of each entry of a list key.
    # The 1-D grids stop at the largest dense solve (a d = 2 solve is per
    # axis); every other upper end keeps one key from exhausting memory or
    # time: at each, with the other keys at test sizes, a suite ends in
    # seconds under 0.5 GiB.
    one_d = cfg.domain_shape in ("circle", "interval")
    grid = (MIN_NODES, DENSE_SOLVE_NODES)
    ranges = {
        "seed": (0, math.inf),
        "domain.nodes": grid if one_d else (MIN_NODES, math.inf),
        "spectrum.circle_nodes": grid, "spectrum.oscillator_nodes": grid,
        "seminorms.nodes": grid, "gauge.nodes": grid, "cutoff.nodes": grid,
        "fock.nodes": grid, "conformal.circle_nodes": grid,
        "conformal.torus_nodes": (MIN_NODES, 256),
        "seminorms.m_list": (0, 16), "regularity.m": (0, 16),
        # twice the longest ladder word, so word†word stays below the guard
        "ladders.cutoff": (2 * max(len(word) for word in LADDER_WORDS), 64),
        # the truncation oracle needs n! as a finite double
        "fock.cutoff": (0, MAX_CUTOFF),
        "ladders.samples": (1, 100_000), "seminorms.functions": (1, 10_000),
        "gauge.pairs": (1, 10_000), "gauge.modes": (1, 1000),
        "regularity.functions": (1, 10_000), "cutoff.count": (1, 1000),
        "punctured.halvings": (1, 100), "fock.tuples": (1, 10_000),
        "fock.pairs": (1, 10_000), "conformal.elements": (1, 100),
    }
    for key, (low, high) in ranges.items():
        value = getattr(cfg, _SCHEMA[key][0])
        for entry in value if type(value) is tuple else (value,):
            if entry < low:
                raise ConfigError(f"{key} must be at least {low}")
            if entry > high:
                raise ConfigError(f"{key} must be at most {high}")
    if cfg.spectrum_circle_nodes < 8:
        raise ConfigError("spectrum.circle_nodes must be at least 8, so the "
                          "continuum check has a mode |k| <= N/8")
    if one_d and cfg.domain_nodes < 8:
        raise ConfigError("domain.nodes must be at least 8 on a 1-D domain, so "
                          "the Hilbert-Schmidt fit window n/4..n/2 holds two "
                          "distinct eigenvalues")
    if cfg.spectrum_oscillator_nodes < OSCILLATOR_LEVELS:
        raise ConfigError(f"spectrum.oscillator_nodes must be at least "
                          f"{OSCILLATOR_LEVELS}, the oscillator levels checked")
    if len(set(cfg.seminorms_nodes)) < 2:
        raise ConfigError("seminorms.nodes needs at least two distinct sizes "
                          "for the refinement-stability ratio")
    if max(cfg.seminorms_nodes) <= max(EIGENVECTOR_MODES):
        raise ConfigError(f"seminorms.nodes needs an entry of at least "
                          f"{max(EIGENVECTOR_MODES) + 1}, for the eigenvectors "
                          f"{EIGENVECTOR_MODES} on its largest circle")
    if all(m > 2 for m in cfg.seminorms_m_list):
        raise ConfigError("seminorms.m_list needs an entry in 0..2, the orders "
                          "the equivalence gates cover")
