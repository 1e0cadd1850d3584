"""Flat key-value experiment configuration.

Format: one `section.key = value` per line, `#` comments, blank lines ignored.
Every key has a default except `seed` and `domain.shape`; unknown keys are
rejected so typos fail loudly before any computation.  The full schema is
documented in the README.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass


class ConfigError(ValueError):
    """Missing, unknown or malformed configuration keys."""


def _int_list(text: str):
    return tuple(int(x) for x in text.replace(",", " ").split())


def _float_list(text: str):
    return tuple(float(x) for x in text.replace(",", " ").split())


# key -> (attribute, parser)
_SCHEMA = {
    "seed": ("seed", int),
    "domain.shape": ("domain_shape", str),
    "domain.nodes": ("domain_nodes", int),
    "domain.radius": ("domain_radius", float),
    "domain.halfwidth": ("domain_halfwidth", float),
    "potential.kind": ("potential_kind", str),
    "potential.value": ("potential_value", float),
    "rho.profile": ("rho_profile", str),
    "rho.amplitude": ("rho_amplitude", float),
    "rho.mode": ("rho_mode", int),
    "hs.p": ("hs_p", float),
    "spectrum.circle_nodes": ("spectrum_circle_nodes", int),
    "spectrum.oscillator_nodes": ("spectrum_oscillator_nodes", int),
    "spectrum.oscillator_halfwidth": ("spectrum_oscillator_halfwidth", float),
    "ladders.cutoff": ("ladders_cutoff", int),
    "ladders.samples": ("ladders_samples", int),
    "seminorms.nodes": ("seminorms_nodes", _int_list),
    "seminorms.m_list": ("seminorms_m_list", _int_list),
    "seminorms.p_grid": ("seminorms_p_grid", _float_list),
    "seminorms.functions": ("seminorms_functions", int),
    "seminorms.interval_halfwidth": ("seminorms_interval_halfwidth", float),
    "gauge.nodes": ("gauge_nodes", int),
    "gauge.pairs": ("gauge_pairs", int),
    "gauge.modes": ("gauge_modes", int),
    "gauge.amplitude": ("gauge_amplitude", float),
    "regularity.t_list": ("regularity_t_list", _float_list),
    "regularity.p": ("regularity_p", float),
    "regularity.q": ("regularity_q", float),
    "regularity.m": ("regularity_m", int),
    "regularity.functions": ("regularity_functions", int),
    "cutoff.count": ("cutoff_count", int),
    "cutoff.step": ("cutoff_step", float),
    "cutoff.collar": ("cutoff_collar", float),
    "cutoff.p": ("cutoff_p", float),
    "cutoff.halfwidth": ("cutoff_halfwidth", float),
    "cutoff.nodes": ("cutoff_nodes", int),
    "punctured.eps0": ("punctured_eps0", float),
    "punctured.halvings": ("punctured_halvings", int),
    "fock.tuples": ("fock_tuples", int),
    "fock.pairs": ("fock_pairs", int),
    "fock.nodes": ("fock_nodes", int),
    "fock.cutoff": ("fock_cutoff", int),
    "conformal.torus_nodes": ("conformal_torus_nodes", int),
    "conformal.circle_nodes": ("conformal_circle_nodes", int),
    "conformal.rho_amplitude": ("conformal_rho_amplitude", float),
    "conformal.elements": ("conformal_elements", int),
}


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
    seminorms_nodes: tuple = (16, 32, 64)
    seminorms_m_list: tuple = (0, 1, 2)
    seminorms_p_grid: tuple = (0.0, 0.5, 1.0, 1.5, 2.0)
    seminorms_functions: int = 100
    seminorms_interval_halfwidth: float = 6.0
    gauge_nodes: int = 32
    gauge_pairs: int = 50
    gauge_modes: int = 3
    gauge_amplitude: float = 1.0
    regularity_t_list: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
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
    from .sampling import RHO_PROFILES
    from .suites import LADDER_WORDS
    if cfg.domain_shape not in SUPPORTED_SHAPES:
        raise ConfigError(f"domain.shape must be one of {SUPPORTED_SHAPES}")
    if cfg.rho_profile not in RHO_PROFILES:
        raise ConfigError(f"rho.profile must be one of {RHO_PROFILES}")
    if cfg.rho_profile == "cosine" and cfg.domain_shape not in PERIODIC_SHAPES:
        raise ConfigError(f"rho.profile = cosine needs a periodic domain.shape "
                          f"{PERIODIC_SHAPES}")
    for name in ("domain_radius", "domain_halfwidth", "potential_value",
                 "hs_p", "cutoff_step", "cutoff_collar", "punctured_eps0"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    if cfg.potential_kind not in ("constant", "quadratic"):
        raise ConfigError("potential.kind must be constant or quadratic")
    if cfg.potential_kind == "constant" and cfg.potential_value < 1.0:
        raise ConfigError("constant potential must be >= 1")
    if any(t <= 0 for t in cfg.regularity_t_list):
        raise ConfigError("regularity.t_list entries must be positive")
    if len(set(cfg.regularity_t_list)) < 2:
        raise ConfigError("regularity.t_list needs at least two distinct "
                          "values for the slope fit")
    for key in ("domain.nodes", "spectrum.circle_nodes",
                "spectrum.oscillator_nodes", "gauge.nodes", "cutoff.nodes",
                "fock.nodes", "conformal.torus_nodes", "conformal.circle_nodes"):
        if getattr(cfg, _SCHEMA[key][0]) < MIN_NODES:
            raise ConfigError(f"{key} must be at least {MIN_NODES}")
    if any(n < MIN_NODES for n in cfg.seminorms_nodes):
        raise ConfigError(f"seminorms.nodes entries must be at least {MIN_NODES}")
    if len(set(cfg.seminorms_nodes)) < 2:
        raise ConfigError("seminorms.nodes needs at least two distinct sizes "
                          "for the refinement-stability ratio")
    min_cutoff = 2 * max(len(word) for word in LADDER_WORDS)
    if cfg.ladders_cutoff < min_cutoff:
        raise ConfigError(f"ladders.cutoff must be at least {min_cutoff}, "
                          f"twice the longest ladder word")
    if not 0 <= cfg.fock_cutoff <= MAX_CUTOFF:
        raise ConfigError(f"fock.cutoff must be in 0..{MAX_CUTOFF}; the "
                          f"truncation oracle needs n! as a finite double")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    for key in ("gauge.pairs", "fock.tuples", "fock.pairs",
                "conformal.elements", "ladders.samples", "seminorms.functions",
                "regularity.functions", "cutoff.count"):
        if getattr(cfg, _SCHEMA[key][0]) < 1:
            raise ConfigError(f"{key} must be at least 1")
