"""CLI runner: subcommands, exit codes, determinism, report artifacts."""
import dataclasses
import filecmp
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from energyrep import blas, cli, config, gauge, operators, report
from energyrep.cli import main
from energyrep.config import ConfigError, load_config
from energyrep.grid import SHAPES, WEIGHT_KINDS
from energyrep.report import Report, check, refusal, write_sidecar_meta

REPO = Path(__file__).resolve().parents[1]
CIRCLE_CFG = REPO / "configs" / "circle.cfg"
INTERVAL_CFG = REPO / "configs" / "interval.cfg"
PUNCTURED_CFG = REPO / "configs" / "punctured.cfg"
TORUS_CFG = REPO / "configs" / "torus.cfg"
# Every key load_config accepts, written out here rather than read from
# config.py; the four list keys parse to tuples of the given item type.
ACCEPTED_KEYS = [
    "seed", "domain.shape", "domain.nodes", "domain.radius", "domain.halfwidth",
    "potential.kind", "potential.value", "rho.profile", "rho.amplitude",
    "rho.mode", "hs.p", "spectrum.circle_nodes", "spectrum.oscillator_nodes",
    "spectrum.oscillator_halfwidth", "ladders.cutoff", "ladders.samples",
    "seminorms.nodes", "seminorms.m_list", "seminorms.p_grid",
    "seminorms.functions", "seminorms.interval_halfwidth", "gauge.nodes",
    "gauge.pairs", "gauge.modes", "gauge.amplitude", "regularity.t_list",
    "regularity.p", "regularity.q", "regularity.m", "regularity.functions",
    "cutoff.count", "cutoff.step", "cutoff.collar", "cutoff.p",
    "cutoff.halfwidth", "cutoff.nodes", "punctured.eps0", "punctured.halvings",
    "fock.tuples", "fock.pairs", "fock.nodes", "fock.cutoff",
    "conformal.torus_nodes", "conformal.circle_nodes",
    "conformal.rho_amplitude", "conformal.elements",
]
LIST_KEYS = {"seminorms.nodes": int, "seminorms.m_list": int,
             "seminorms.p_grid": float, "regularity.t_list": float}
# Every key that parses to a float, or to a tuple of floats.
FLOAT_KEYS = [
    "domain.radius", "domain.halfwidth", "potential.value", "rho.amplitude",
    "hs.p", "spectrum.oscillator_halfwidth", "seminorms.p_grid",
    "seminorms.interval_halfwidth", "gauge.amplitude", "regularity.t_list",
    "regularity.p", "regularity.q", "cutoff.step", "cutoff.collar",
    "cutoff.p", "cutoff.halfwidth", "punctured.eps0", "conformal.rho_amplitude",
]
STRING_KEYS = ["domain.shape", "potential.kind", "rho.profile"]
# Edge values by the type a key (or a list key's item) parses to: zero,
# negative, huge, nan, empty and the wrong type.
EDGE_VALUES = {
    "int": ("0", "-1", "1000000000000", "nan", "", "1.5"),
    "float": ("0", "-1.0", "1e300", "nan", "", "abc"),
    "str": ("0", "-1", "x" * 10000, "nan", "", "1.5"),
}
# The largest accepted value of each integer key that has no other upper
# bound; a list key holds each entry to it.
UPPER_LIMITS = {
    "ladders.cutoff": 64, "ladders.samples": 100_000,
    "seminorms.functions": 10_000, "seminorms.m_list": 16, "gauge.pairs": 10_000,
    "gauge.modes": 1000, "regularity.functions": 10_000, "regularity.m": 16,
    "cutoff.count": 1000, "punctured.halvings": 100, "fock.tuples": 10_000,
    "fock.pairs": 10_000, "fock.nodes": 4096, "conformal.torus_nodes": 256,
    "conformal.circle_nodes": 4096, "conformal.elements": 100,
}
# The smallest accepted value of each integer key that has a range (rho.mode
# has none), on the circle of small_config; a list key holds each entry to
# it.  A 1-D domain.nodes starts at 8, and cutoff.count at 2, since the
# cutoff decay gates compare two stages.
LOWER_LIMITS = {
    "seed": 0, "domain.nodes": 8, "spectrum.circle_nodes": 8,
    "spectrum.oscillator_nodes": 11, "ladders.cutoff": 8, "ladders.samples": 1,
    "seminorms.nodes": 4, "seminorms.m_list": 0, "seminorms.functions": 1,
    "gauge.nodes": 4, "gauge.pairs": 1, "gauge.modes": 1, "regularity.m": 0,
    "regularity.functions": 1, "cutoff.count": 2, "cutoff.nodes": 4,
    "punctured.halvings": 1, "fock.tuples": 1, "fock.pairs": 1,
    "fock.nodes": 4, "fock.cutoff": 0, "conformal.torus_nodes": 4,
    "conformal.circle_nodes": 4, "conformal.elements": 1,
}
HALFWIDTH_KEYS = ["domain.halfwidth", "spectrum.oscillator_halfwidth",
                  "seminorms.interval_halfwidth", "cutoff.halfwidth"]
NODE_KEYS = ["spectrum.circle_nodes", "spectrum.oscillator_nodes", "gauge.nodes",
             "cutoff.nodes", "fock.nodes", "conformal.torus_nodes",
             "conformal.circle_nodes"]


def small_config(tmp_path, **overrides) -> Path:
    """A fast config for CLI round trips."""
    values = {
        "seed": 2024,
        "domain.shape": "circle",
        "domain.nodes": 32,
        "spectrum.circle_nodes": 32,
        "spectrum.oscillator_nodes": 240,
        "spectrum.oscillator_halfwidth": 6.0,
        "ladders.cutoff": 10,
        "ladders.samples": 50,
        "seminorms.nodes": "16 24",
        "seminorms.functions": 15,
        "gauge.pairs": 5,
        "regularity.functions": 5,
        "cutoff.nodes": 80,
        "fock.tuples": 10,
        "fock.pairs": 5,
        "conformal.torus_nodes": 8,
        "conformal.elements": 2,
    }
    values.update(overrides)
    path = tmp_path / "fast.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


class TestConfigParsing:
    def test_loads_shipped_config(self):
        cfg = load_config(CIRCLE_CFG)
        assert cfg.seed == 12345
        assert cfg.domain_shape == "circle"
        assert cfg.seminorms_nodes == (16, 32, 64)

    @pytest.mark.parametrize("name", ["circle", "interval", "torus",
                                      "punctured"])
    def test_every_shipped_config_loads(self, name):
        assert load_config(REPO / "configs" / f"{name}.cfg").domain_shape

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("domain.shape = circle\n")
        with pytest.raises(ConfigError, match="seed"):
            load_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("seed = 1\ndomain.shape = circle\nnot.a.key = 2\n")
        with pytest.raises(ConfigError, match="not.a.key"):
            load_config(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("seed = twelve\ndomain.shape = circle\n")
        with pytest.raises(ConfigError, match="seed"):
            load_config(p)

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "ok.cfg"
        p.write_text("# comment\n\nseed = 3  # trailing\ndomain.shape = circle\n")
        assert load_config(p).seed == 3

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "dup.cfg"
        p.write_text("seed = 1\nseed = 2\ndomain.shape = circle\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(p)

    def test_accepted_keys_are_the_listed_ones(self, tmp_path):
        assert len(ACCEPTED_KEYS) == len(set(ACCEPTED_KEYS)) == 46
        assert sorted(config._SCHEMA) == sorted(ACCEPTED_KEYS)
        # circle.cfg sets every key but domain.halfwidth; all of them load
        assert sorted(config.parse_kv(CIRCLE_CFG)) == sorted(
            k for k in ACCEPTED_KEYS if k != "domain.halfwidth")
        p = tmp_path / "every.cfg"
        p.write_text(CIRCLE_CFG.read_text() + "domain.halfwidth = 8.0\n")
        cfg = load_config(p)
        for key, item in LIST_KEYS.items():
            value = getattr(cfg, key.replace(".", "_"))
            assert type(value) is tuple and value
            assert all(type(x) is item for x in value), key
        values = {k: getattr(cfg, k.replace(".", "_", 1)) for k in ACCEPTED_KEYS}
        assert sorted(FLOAT_KEYS) == sorted(
            k for k, v in values.items()
            if type(v[0] if type(v) is tuple else v) is float)
        assert sorted(STRING_KEYS) == sorted(
            k for k, v in values.items() if type(v) is str)

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, tmp_path, key, text):
        # a list key with one bad item among finite ones
        value = f"1.0 {text}" if key in LIST_KEYS else text
        with pytest.raises(ConfigError, match=f"bad value for {key}: "):
            load_config(small_config(tmp_path, **{key: value}))

    @pytest.mark.parametrize("key", [
        "gauge.pairs", "fock.tuples", "fock.pairs", "conformal.elements",
        "ladders.samples", "seminorms.functions", "regularity.functions",
        "cutoff.count", "gauge.modes", "punctured.halvings"])
    def test_count_below_one_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match=key):
            load_config(small_config(tmp_path, **{key: 0}))

    @pytest.mark.parametrize("key,limit", UPPER_LIMITS.items())
    def test_size_above_its_limit_rejected(self, tmp_path, key, limit):
        # m_list keeps a gated order beside the edited entry
        sized = (lambda n: f"0 {n}") if key == "seminorms.m_list" else str
        with pytest.raises(ConfigError, match=f"{key} must be at most {limit}"):
            load_config(small_config(tmp_path, **{key: sized(limit + 1)}))
        assert load_config(small_config(tmp_path, **{key: sized(limit)}))

    @pytest.mark.parametrize("key,low", LOWER_LIMITS.items())
    def test_size_at_its_low_end_runs(self, tmp_path, key, low):
        # seminorms.nodes keeps a second, larger size beside the edited entry
        sized = (lambda n: f"{n} 24") if key == "seminorms.nodes" else str
        with pytest.raises(ConfigError, match=f"{key} must be at least"):
            load_config(small_config(tmp_path, **{key: sized(low - 1)}))
        cfg = small_config(tmp_path, **{key: sized(low)})
        assert main(["all", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) in (0, 1)

    @pytest.mark.parametrize("shape", [*SHAPES, "klein_bottle", "Circle"])
    def test_domain_shapes_are_the_shape_table(self, tmp_path, shape):
        cfg = small_config(tmp_path, **{"domain.shape": shape,
                                        "rho.profile": "zero"})
        if shape in SHAPES:
            assert load_config(cfg).domain_shape == shape
        else:
            with pytest.raises(ConfigError, match="domain.shape must be one"):
                load_config(cfg)

    @pytest.mark.parametrize("kind", [*WEIGHT_KINDS, "linear", "Constant"])
    def test_potential_kinds_are_the_weight_table(self, tmp_path, kind):
        cfg = small_config(tmp_path, **{"potential.kind": kind})
        if kind in WEIGHT_KINDS:
            assert load_config(cfg).potential_kind == kind
        else:
            with pytest.raises(ConfigError, match="potential.kind must be one"):
                load_config(cfg)

    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    def test_potential_value_below_one_rejected(self, tmp_path, kind):
        # each kind's W equals potential.value at the origin, a circle node
        for value, ok in ((0.5, False), (0.999, False), (1.0, True)):
            cfg = small_config(tmp_path, **{"potential.kind": kind,
                                            "potential.value": value})
            if ok:
                assert load_config(cfg).potential_value == value
            else:
                with pytest.raises(ConfigError, match="potential.value"):
                    load_config(cfg)

    @pytest.mark.parametrize("key", HALFWIDTH_KEYS)
    def test_halfwidth_rejected(self, tmp_path, key):
        # a halfwidth bounds a grid that may carry the weight |x|^2 + 1
        for value in (0, -1.0):
            with pytest.raises(ConfigError, match=f"{key} must be positive"):
                load_config(small_config(tmp_path, **{key: value}))
        with pytest.raises(ConfigError, match=f"{key} must keep the weight"):
            load_config(small_config(tmp_path, **{key: 1e300}))
        assert load_config(small_config(tmp_path, **{key: 1e150}))

    @pytest.mark.parametrize("key", LIST_KEYS)
    def test_list_of_separators_only_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"bad value for {key}: "):
            load_config(small_config(tmp_path, **{key: ", ,"}))

    @pytest.mark.parametrize("key,value", [(k, 3) for k in NODE_KEYS]
                             + [("seminorms.nodes", "3 16")])
    def test_node_count_below_four_rejected(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key):
            load_config(small_config(tmp_path, **{key: value}))

    @pytest.mark.parametrize("sizes", ["16", "16 16"])
    def test_single_refinement_size_rejected(self, tmp_path, sizes):
        with pytest.raises(ConfigError, match="seminorms.nodes"):
            load_config(small_config(tmp_path, **{"seminorms.nodes": sizes}))

    @pytest.mark.parametrize("key,value", [("seminorms.m_list", "0 -1"),
                                           ("regularity.m", -1)])
    def test_negative_derivative_order_rejected(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key):
            load_config(small_config(tmp_path, **{key: value}))
        assert load_config(small_config(tmp_path, **{key: 0}))

    def test_m_list_without_gated_order_rejected(self, tmp_path):
        # the equivalence gates cover m <= 2; larger orders go to the CSV only
        with pytest.raises(ConfigError, match="seminorms.m_list"):
            load_config(small_config(tmp_path, **{"seminorms.m_list": "3 4"}))
        assert load_config(small_config(tmp_path, **{"seminorms.m_list": "2 3"}))

    def test_continuum_check_needs_a_mode(self, tmp_path):
        # the Taylor-envelope check covers |k| <= N/8
        with pytest.raises(ConfigError, match="spectrum.circle_nodes"):
            load_config(small_config(tmp_path, **{"spectrum.circle_nodes": 7}))
        assert load_config(small_config(tmp_path, **{"spectrum.circle_nodes": 8}))

    @pytest.mark.parametrize("key", ["gauge.amplitude",
                                     "conformal.rho_amplitude"])
    @pytest.mark.parametrize("value", [0, -0.5])
    def test_zero_amplitude_rejected(self, tmp_path, key, value):
        # identity gauge fields or rescalings would pass the checks trivially
        with pytest.raises(ConfigError, match=f"{key} must be positive"):
            load_config(small_config(tmp_path, **{key: value}))
        assert load_config(small_config(tmp_path, **{key: 0.1}))

    @pytest.mark.parametrize("sizes", ["4 5", "7 4"])
    def test_seminorm_sizes_below_checked_eigenvector_rejected(self, tmp_path,
                                                               sizes):
        # eigenvector_p_norm reads eigenvectors up to index 7 on the largest
        # circle, so that circle needs at least 8 nodes
        with pytest.raises(ConfigError, match="seminorms.nodes"):
            load_config(small_config(tmp_path, **{"seminorms.nodes": sizes}))
        assert load_config(small_config(tmp_path, **{"seminorms.nodes": "4 8"}))

    def test_oscillator_nodes_below_checked_levels_rejected(self, tmp_path):
        from energyrep.suites import OSCILLATOR_LEVELS
        with pytest.raises(ConfigError, match="spectrum.oscillator_nodes"):
            load_config(small_config(tmp_path, **{
                "spectrum.oscillator_nodes": OSCILLATOR_LEVELS - 1}))
        assert load_config(small_config(tmp_path, **{
            "spectrum.oscillator_nodes": OSCILLATOR_LEVELS}))

    @pytest.mark.parametrize("shape", ["circle", "interval"])
    @pytest.mark.parametrize("nodes", [4, 6])
    def test_one_dimensional_domain_below_eight_nodes_rejected(
            self, tmp_path, shape, nodes):
        # the Hilbert-Schmidt fit window n/4..n/2 needs two distinct
        # eigenvalues; at 4 and 5 it holds one, at 6 and 7 the pair k = +-1
        keys = {"domain.shape": shape, "rho.profile": "zero"}
        with pytest.raises(ConfigError, match="domain.nodes"):
            load_config(small_config(tmp_path, **keys, **{"domain.nodes": nodes}))
        assert load_config(small_config(tmp_path, **keys, **{"domain.nodes": 8}))
        # a 2-D domain has n = N^2 eigenvalues in its window
        assert load_config(small_config(tmp_path, **{"domain.shape": "torus",
                                                     "domain.nodes": nodes}))

    @pytest.mark.parametrize("key,shape", [
        ("domain.nodes", "circle"), ("domain.nodes", "interval"),
        ("spectrum.circle_nodes", "torus"),
        ("spectrum.oscillator_nodes", "torus"), ("seminorms.nodes", "torus"),
        ("gauge.nodes", "torus"), ("cutoff.nodes", "torus")])
    def test_dense_solve_above_the_cap_rejected(self, tmp_path, capsys, key,
                                                shape):
        # each key sizes a 1-D grid whose solve writes an n x n matrix
        cap = operators.DENSE_SOLVE_NODES
        keys = {"domain.shape": shape, "rho.profile": "zero"}

        def sized(nodes):
            value = f"16 {nodes}" if key == "seminorms.nodes" else nodes
            return small_config(tmp_path, **keys, **{key: value})

        with pytest.raises(ConfigError, match=f"{key} must be at most {cap}"):
            load_config(sized(cap + 1))
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(sized(cap + 1)),
                     "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()
        assert load_config(sized(cap))

    def test_two_dimensional_domain_is_not_capped(self, tmp_path):
        # the per-axis solve takes N x N factors, and the spectrum check
        # solves nothing
        assert load_config(small_config(tmp_path, **{
            "domain.shape": "torus",
            "domain.nodes": operators.DENSE_SOLVE_NODES + 1}))

    def test_ladder_cutoff_below_four_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="ladders.cutoff"):
            load_config(small_config(tmp_path, **{"ladders.cutoff": 3}))

    @pytest.mark.parametrize("cutoff", [4, 6, 7])
    def test_ladder_cutoff_below_twice_longest_word_rejected(self, tmp_path,
                                                             cutoff):
        # the length-4 suite word needs guarded states of word†word (length 8)
        with pytest.raises(ConfigError, match="ladders.cutoff"):
            load_config(small_config(tmp_path, **{"ladders.cutoff": cutoff}))
        assert load_config(small_config(tmp_path, **{"ladders.cutoff": 8}))

    @pytest.mark.parametrize("t_list", ["0.1", "0.1 0.1"])
    def test_single_regularity_t_rejected(self, tmp_path, t_list):
        with pytest.raises(ConfigError, match="regularity.t_list"):
            load_config(small_config(tmp_path, **{"regularity.t_list": t_list}))

    def test_negative_fock_cutoff_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="fock.cutoff"):
            load_config(small_config(tmp_path, **{"fock.cutoff": -1}))
        assert load_config(small_config(tmp_path, **{"fock.cutoff": 0}))

    def test_fock_cutoff_capped_at_finite_factorial(self, tmp_path):
        with pytest.raises(ConfigError, match="fock.cutoff"):
            load_config(small_config(tmp_path, **{"fock.cutoff": 171}))
        assert load_config(small_config(tmp_path, **{"fock.cutoff": 170}))

    def test_unknown_rho_profile_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="rho.profile"):
            load_config(small_config(tmp_path, **{"rho.profile": "bogus"}))

    @pytest.mark.parametrize("shape", ["interval", "square",
                                       "punctured_square"])
    def test_cosine_rho_on_truncated_domain_rejected(self, tmp_path, shape):
        with pytest.raises(ConfigError, match="cosine"):
            load_config(small_config(tmp_path, **{"domain.shape": shape,
                                                  "rho.profile": "cosine"}))

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            load_config(small_config(tmp_path, seed=-1))
        with pytest.raises(ConfigError, match="seed"):
            load_config(small_config(tmp_path), seed=-1)


def run_python(*args, env=None) -> subprocess.CompletedProcess:
    """A fresh interpreter with the package on its path, so a traceback
    would reach stderr; env adds to the inherited environment."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path, **(env or {})))


def run_cli(*argv, python_flags=(), env=None) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter."""
    return run_python(*python_flags, "-m", "energyrep.cli", *argv, env=env)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["spectrum", "--config", str(tmp_path / "none.cfg")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_config_error_before_computation(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("seed = 1\ndomain.shape = klein_bottle\n")
        code = main(["spectrum", "--config", str(p),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suite,overrides,argv", [
        ("gauge", {"gauge.pairs": 0}, ()),
        ("fock", {"fock.tuples": 0}, ()),
        ("ladders", {}, ("--seed", "-1")),
        ("fock", {"fock.nodes": 3}, ()),
        ("seminorms", {"seminorms.nodes": 16}, ()),
        ("ladders", {"ladders.cutoff": 2}, ()),
        ("spectrum", {"rho.profile": "bogus"}, ()),
        ("spectrum", {"domain.shape": "interval", "rho.profile": "cosine"}, ()),
        ("ladders", {"ladders.cutoff": 4}, ()),
        ("ladders", {"ladders.cutoff": 6}, ()),
        ("gauge", {"regularity.t_list": "0.1"}, ()),
        ("gauge", {"regularity.t_list": "0.1 0.1"}, ()),
        ("fock", {"fock.cutoff": -1}, ()),
        ("fock", {"fock.cutoff": 171}, ()),
        ("gauge", {"punctured.halvings": 0}, ()),
        ("seminorms", {"seminorms.m_list": "0 -1"}, ()),
        ("gauge", {"regularity.m": -1}, ()),
        ("seminorms", {"seminorms.m_list": 3}, ()),
        ("spectrum", {"spectrum.circle_nodes": 7}, ()),
        ("fock", {"gauge.modes": 0}, ()),
        ("gauge", {"gauge.amplitude": 0}, ()),
        ("conformal", {"conformal.rho_amplitude": 0}, ()),
        ("seminorms", {"seminorms.nodes": "4 5"}, ()),
        ("seminorms", {"seminorms.nodes": "7 4"}, ()),
        ("spectrum", {"spectrum.oscillator_nodes": 10}, ()),
        ("spectrum", {"domain.nodes": 4}, ()),
        ("spectrum", {"domain.nodes": 6}, ()),
        ("gauge", {"gauge.amplitude": "nan"}, ()),
        ("gauge", {"cutoff.count": 1}, ()),
        ("spectrum", {"domain.shape": "interval", "rho.profile": "zero",
                      "potential.kind": "quadratic", "potential.value": 0.5},
         ()),
        ("seminorms", {"seminorms.p_grid": "0.0 nan"}, ()),
    ])
    def test_bad_domain_exits_2_before_output(self, tmp_path, suite,
                                              overrides, argv):
        cfg = small_config(tmp_path, **overrides)
        out = tmp_path / "out"
        proc = run_cli(suite, "--config", str(cfg), "--out", str(out), *argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "configuration error" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True])
    def test_unusable_out_exits_2_before_any_suite(self, tmp_path, under):
        # --out names an existing file, or a path below one
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        out = blocker / "out" if under else blocker
        proc = run_cli("ladders", "--config", str(small_config(tmp_path)),
                       "--out", str(out))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "output directory error" in proc.stderr
        assert proc.stdout == ""
        assert blocker.read_text() == "keep\n"

    def test_fock_cutoff_170_fails_without_traceback(self, tmp_path):
        # the tail bound underflows to 0 there; the gate fails with inf
        cfg = small_config(tmp_path, **{"fock.cutoff": 170})
        out = tmp_path / "out"
        proc = run_cli("fock", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        data = json.loads((out / "fock.json").read_text())
        trunc = {c["name"]: c for c in data["checks"]}[
            "kernel_vs_truncated_expansion"]
        assert trunc["verdict"] == "fail"
        assert trunc["measured"] == "inf"
        assert trunc["tolerance"] == 1.0

    def test_all_suites_run_warning_free(self, tmp_path):
        # warnings are errors here: a RankWarning from a fit or a
        # RuntimeWarning from any suite's arithmetic fails the run
        out = tmp_path / "out"
        proc = run_cli("all", "--config", str(small_config(tmp_path)),
                       "--out", str(out), python_flags=("-W", "error"))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_cli_import_leaves_scipy_out(self, tmp_path):
        # scipy is a test dependency only: neither the import, nor `all`,
        # nor the spectrum of a torus loads scipy or any of its submodules
        runs = [["all", "--config", str(small_config(tmp_path)),
                 "--out", str(tmp_path / "all")],
                ["spectrum", "--config", str(TORUS_CFG),
                 "--out", str(tmp_path / "torus")]]
        loaded = ("[m for m in sys.modules "
                  "if m == 'scipy' or m.startswith('scipy.')]")
        code = ("import sys, energyrep.cli; "
                f"print({loaded}); "
                f"codes = [energyrep.cli.main(argv) for argv in {runs!r}]; "
                f"print(codes, {loaded})")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "[]"
        assert lines[-1] == "[0, 0] []"

    def test_weyl_spectrum_check_runs_warning_free(self, tmp_path):
        out = tmp_path / "out"
        proc = run_cli("spectrum", "--config", str(TORUS_CFG), "--out",
                       str(out), python_flags=("-W", "error"))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        checks = {c["name"]: c for c in json.loads(
            (out / "spectrum.json").read_text())["checks"]}
        match = checks["conjugated_spectrum_match"]
        assert match["detail"].startswith("weyl path:")
        assert match["tolerance"] == 1.0 and match["verdict"] == "pass"

    @pytest.mark.parametrize("cfg", [TORUS_CFG, PUNCTURED_CFG])
    def test_two_dimensional_spectrum_writes_no_matrix_of_its_grid(
            self, tmp_path, cfg, monkeypatch):
        # the 1-D references (spectrum.circle_nodes = 64 and
        # spectrum.oscillator_nodes = 400) are tridiagonal solves too, the
        # circle's split by its reflection: no dense matrix is written,
        # with LAPACK's dstevd or without it
        written = []
        assembled = operators._assembled

        def spy(grid, stencil, rho):
            written.append(grid.node_count)
            return assembled(grid, stencil, rho)

        monkeypatch.setattr(operators, "_assembled", spy)
        assert main(["spectrum", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert written == []

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x"])
        assert exc.value.code == 2

    def test_passing_suite_returns_zero(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["ladders", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "ladders.json").exists()

    def test_condition_c_refusal_returns_one(self, tmp_path, capsys):
        code = main(["gauge", "--config", str(PUNCTURED_CFG),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        data = json.loads((tmp_path / "out" / "gauge.json").read_text())
        checks = {c["name"]: c for c in data["checks"]}
        refused = checks["suite_refused_condition_c"]
        assert refused["verdict"] == "refused"
        assert checks["punctured_gradient_growth"]["verdict"] == "pass"
        # the refusal line gives the reason, not nan sentinels
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if "suite_refused_condition_c" in ln)
        assert line == ("[REFUSED] gauge.suite_refused_condition_c: "
                        + refused["detail"])
        assert "condition (c)" in line and "nan" not in line

    def test_uncovered_cutoff_supports_are_refused(self, tmp_path):
        # stages of step 0.1 stay inside every test field's support, so no
        # stage is covered and the exact-zero gate has nothing to read
        cfg = small_config(tmp_path, **{"cutoff.step": 0.1})
        out = tmp_path / "out"
        assert main(["gauge", "--config", str(cfg), "--out", str(out)]) == 1
        data = json.loads((out / "gauge.json").read_text())
        checks = {c["name"]: c for c in data["checks"]}
        assert checks["cutoff_exact_zero_when_covered"]["verdict"] == "refused"
        assert checks["cutoff_decay_monotone"]["verdict"] == "pass"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cutoff_tail_leaves_out_a_field_zero_on_the_grid(self, tmp_path):
        # at 4 nodes the bump f1 is zero at every node; its 0/0 ratio once
        # read nan, which max(0.0, nan) turned into a vacuous 0.0
        cfg = small_config(tmp_path, **{"cutoff.nodes": 4})
        out = tmp_path / "out"
        assert main(["gauge", "--config", str(cfg), "--out", str(out)]) in (0, 1)
        data = json.loads((out / "gauge.json").read_text())
        tail = {c["name"]: c for c in data["checks"]}["cutoff_decay_tail"]
        # columns n, f0, f1; one row per stage
        rows = np.loadtxt(out / "gauge_cutoff_decay.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        assert np.all(rows[:, 2] == 0.0) and rows[0, 1] > 0.0
        assert tail["measured"] == rows[-1, 1] / rows[0, 1]

    def test_cutoff_tail_over_no_nonzero_field_is_refused(self, tmp_path,
                                                          monkeypatch):
        decay = gauge.cutoff_approximation

        def zeroed(*args):
            found = decay(*args)
            return dataclasses.replace(found, values=0.0 * found.values)

        monkeypatch.setattr(gauge, "cutoff_approximation", zeroed)
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["gauge", "--config", str(cfg), "--out", str(out)]) == 1
        data = json.loads((out / "gauge.json").read_text())
        checks = {c["name"]: c for c in data["checks"]}
        assert checks["cutoff_decay_tail"]["verdict"] == "refused"
        assert "zero" in checks["cutoff_decay_tail"]["detail"]


class TestConfigEdits:
    # a huge float overflows inside the run it is allowed to fail
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(key=st.sampled_from(ACCEPTED_KEYS), edge=st.integers(0, 5))
    def test_single_key_edge_value_exits_cleanly(self, tmp_path_factory, key,
                                                  edge):
        # any edit of one key either runs or exits 2 before any output
        kind = ("str" if key in STRING_KEYS else
                "float" if key in FLOAT_KEYS else "int")
        tmp = tmp_path_factory.mktemp("edit")
        config_path = small_config(tmp, **{key: EDGE_VALUES[kind][edge]})
        out = tmp / "out"
        code = main(["all", "--config", str(config_path), "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()


class TestReports:
    def test_fock_suite_artifacts(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["fock", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads((out / "fock.json").read_text())
        assert data["passed"] is True
        for c in data["checks"]:
            assert set(c) == {"name", "measured", "tolerance", "comparator",
                              "verdict", "detail"}
        assert "environment" not in data
        # the machine goes to the sidecar
        meta = (out / "run_meta.txt").read_text().splitlines()
        assert f"python={sys.version.split()[0]}" in meta
        assert f"numpy={np.__version__}" in meta

    def test_suite_json_independent_of_platform(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        outs = [tmp_path / "a", tmp_path / "b"]
        for name, out in zip(("machine-a", "machine-b"), outs):
            monkeypatch.setattr(report, "machine_stamp",
                                lambda name=name: name)
            assert main(["ladders", "--config", str(cfg),
                         "--out", str(out)]) == 0
        a, b = ((out / "ladders.json").read_bytes() for out in outs)
        assert a == b
        metas = [(out / "run_meta.txt").read_text().splitlines()
                 for out in outs]
        assert "platform=machine-a" in metas[0]
        assert "platform=machine-b" in metas[1]

    def test_machine_stamp_is_platform_platform(self):
        assert report.machine_stamp() == platform.platform()

    def test_sidecar_spawns_no_subprocess(self, tmp_path):
        # platform.platform() would run `uname -p` through subprocess
        code = ("import sys; from energyrep.report import write_sidecar_meta; "
                "before = 'subprocess' in sys.modules; "
                f"write_sidecar_meta({str(tmp_path)!r}); "
                "print(before, 'subprocess' in sys.modules)")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False"

    def test_numpy_non_finite_floats_are_written_as_words(self, tmp_path):
        # repr of a numpy scalar names its type: "np.float64(nan)"
        rep = Report("numpy", 1, "digest")
        rep.extras.update(values=[np.float64("nan"), np.float64(0.25),
                                  np.float64("-inf")], one=np.float64("inf"))
        data = json.loads(rep.write_json(tmp_path).read_text())
        assert data["extras"] == {"values": ["nan", 0.25, "-inf"],
                                  "one": "inf"}

    def test_non_finite_failure_is_not_a_refusal(self, tmp_path):
        rep = Report("mixed", 1, "digest")
        rep.add(check("nan_measurement", float("nan"), 1.0))
        rep.add(check("inf_measurement", float("inf"), 1.0))
        rep.add(refusal("declined", "not applicable"))
        rep.extras.update(nan=float("nan"), inf=float("inf"),
                          neg=[float("-inf"), 2.5])
        data = json.loads(rep.write_json(tmp_path).read_text())
        checks = {c["name"]: c for c in data["checks"]}
        assert checks["nan_measurement"]["verdict"] == "fail"
        assert checks["nan_measurement"]["measured"] == "nan"
        assert checks["nan_measurement"]["tolerance"] == 1.0
        assert checks["inf_measurement"]["measured"] == "inf"
        assert checks["declined"]["verdict"] == "refused"
        assert checks["declined"]["measured"] == "refused"
        assert checks["declined"]["tolerance"] == "refused"
        assert data["extras"] == {"nan": "nan", "inf": "inf",
                                  "neg": ["-inf", 2.5]}

    def test_loglog_slope_is_the_fit_of_the_logs(self):
        rng = np.random.default_rng(3)
        x, y = rng.uniform(1e-3, 10.0, (2, 6))
        want = np.polyfit(np.log(x), np.log(y), 1)
        assert report.loglog_slope(x, y) == (want[0], want[1])
        # one rule for an entry that has no logarithm
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            for pair in ((np.append(x, bad), np.append(y, 1.0)),
                         (np.append(x, 1.0), np.append(y, bad))):
                assert np.all(np.isnan(report.loglog_slope(*pair)))

    def test_sidecar_records_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "1")
        lines = write_sidecar_meta(tmp_path, note="n").read_text().splitlines()
        assert lines[0].startswith("timestamp_utc=")
        assert lines[-4:] == ["OPENBLAS_NUM_THREADS=3", "OMP_NUM_THREADS=unset",
                              "MKL_NUM_THREADS=1", "n"]

    def test_spectrum_csv_tables(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "spectrum_domain.csv").read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 1 + 32

    def test_seed_override(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["ladders", "--config", str(cfg), "--out", str(out1)])
        main(["ladders", "--config", str(cfg), "--out", str(out2),
              "--seed", "999"])
        d1 = json.loads((out1 / "ladders.json").read_text())
        d2 = json.loads((out2 / "ladders.json").read_text())
        assert d1["seed"] == 2024 and d2["seed"] == 999

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        target = tmp_path / "env_out"
        monkeypatch.setenv("ENERGYREP_OUT", str(target))
        assert main(["ladders", "--config", str(cfg)]) == 0
        assert (target / "ladders.json").exists()

    def test_explicit_out_beats_env(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        monkeypatch.setenv("ENERGYREP_OUT", str(tmp_path / "env_out"))
        explicit = tmp_path / "explicit"
        main(["ladders", "--config", str(cfg), "--out", str(explicit)])
        assert (explicit / "ladders.json").exists()
        assert not (tmp_path / "env_out").exists()


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["all", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("spectrum", "ladders", "seminorms", "gauge", "fock",
                     "conformal"):
            assert filecmp.cmp(out1 / f"{name}.json", out2 / f"{name}.json",
                               shallow=False), f"{name}.json differs"
        for csv_file in out1.glob("*.csv"):
            assert filecmp.cmp(csv_file, out2 / csv_file.name, shallow=False)

    @pytest.mark.parametrize("cfg", [
        ("spectrum", TORUS_CFG), ("spectrum", PUNCTURED_CFG),
        ("spectrum", INTERVAL_CFG),
        # the seminorm probe up to N = 256, as in perfbench's probe-refine
        ("seminorms", {"seminorms.nodes": "32 64 128 256"})])
    def test_reports_independent_of_blas_threads(self, tmp_path, cfg):
        # run_meta.txt records the thread setup, so it alone may differ
        suite, cfg = cfg
        if isinstance(cfg, dict):
            cfg = small_config(tmp_path, **cfg)
        outs = [tmp_path / "threads1", tmp_path / "threads2"]
        for threads, out in zip("12", outs):
            proc = run_cli(suite, "--config", str(cfg), "--out", str(out),
                           env={"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
        names = [sorted(f.name for f in out.iterdir()
                        if f.name != "run_meta.txt") for out in outs]
        assert names[0] == names[1]
        _, mismatch, errors = filecmp.cmpfiles(*outs, names[0], shallow=False)
        assert (mismatch, errors) == ([], [])

    def test_reports_without_the_tridiagonal_solver_are_the_same(
            self, tmp_path, monkeypatch):
        # where numpy's BLAS lacks LAPACK's dstevd every truncated solve is
        # the dense eigh or eigvalsh, and every report keeps its bytes
        outs = [tmp_path / "dstevd", tmp_path / "dense"]
        assert main(["all", "--config", str(INTERVAL_CFG),
                     "--out", str(outs[0])]) == 0
        monkeypatch.setattr(blas, "library_paths", lambda: ())
        assert blas.dstevd(np.ones(2), np.ones(1)) is None
        assert main(["all", "--config", str(INTERVAL_CFG),
                     "--out", str(outs[1])]) == 0
        names = [sorted(f.name for f in out.iterdir()
                        if f.name != "run_meta.txt") for out in outs]
        assert names[0] == names[1]
        _, mismatch, errors = filecmp.cmpfiles(*outs, names[0], shallow=False)
        assert (mismatch, errors) == ([], [])

    def test_all_equals_individual_runs(self, tmp_path):
        cfg = small_config(tmp_path)
        out_all, out_one = tmp_path / "all", tmp_path / "one"
        main(["all", "--config", str(cfg), "--out", str(out_all)])
        main(["gauge", "--config", str(cfg), "--out", str(out_one)])
        assert filecmp.cmp(out_all / "gauge.json", out_one / "gauge.json",
                           shallow=False)


class TestBlasPin:
    def test_unpinned_when_no_setter_is_found(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_blas_libraries",
                            lambda: ["no-such-blas-library.so"])
        assert cli.pin_blas_threads() == "unpinned"
        out = tmp_path / "out"
        assert main(["ladders", "--config", str(small_config(tmp_path)),
                     "--out", str(out)]) == 0
        meta = (out / "run_meta.txt").read_text().splitlines()
        assert "blas_pin=unpinned" in meta

    def test_main_runs_bundled_openblas_on_one_thread(self, tmp_path):
        # a fresh interpreter that loaded numpy on two threads before the CLI
        bundled = cli._blas_libraries()[0]
        if bundled is None:
            pytest.skip("numpy bundles no scipy-openblas here")
        argv = ["ladders", "--config", str(small_config(tmp_path)),
                "--out", str(tmp_path / "out")]
        code = ("import ctypes, numpy; "
                f"lib = ctypes.CDLL({bundled!r}); "
                "get = lib.scipy_openblas_get_num_threads64_; "
                "get.argtypes, get.restype = [], ctypes.c_int; "
                "import energyrep.cli as cli; before = get(); "
                f"print(before, cli.main({argv!r}), get())")
        proc = run_python("-c", code, env={"OPENBLAS_NUM_THREADS": "2"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "2 0 1"
        meta = (tmp_path / "out" / "run_meta.txt").read_text().splitlines()
        assert "blas_pin=scipy_openblas_set_num_threads64_" in meta
        assert "OPENBLAS_NUM_THREADS=2" in meta


class TestStartup:
    """What a fresh interpreter holds after an import, before any `main`."""

    def test_importing_the_package_loads_nothing(self):
        proc = run_python("-c", "import sys, energyrep; print(sorted(m for m "
                          "in sys.modules if m.split('.')[0] == 'numpy' "
                          "or m.startswith('energyrep.')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("caller", ["2", None])
    def test_cli_loads_openblas_on_one_thread(self, caller):
        # the caller's value, or its absence, is what the environment keeps
        unset = "os.environ.pop('OPENBLAS_NUM_THREADS'); " if caller is None else ""
        code = ("import json, os, sys; " + unset + "import energyrep.cli as cli; "
                "path = cli._blas_libraries()[0]; "
                "get = path and cli.ctypes.CDLL(path)"
                ".scipy_openblas_get_num_threads64_; "
                "tasks = ('/proc/self/task' if sys.platform.startswith('linux') "
                "else None); "
                "print(json.dumps([get and get(), "
                "tasks and len(os.listdir(tasks)), "
                "os.environ.get('OPENBLAS_NUM_THREADS', 'unset')]))")
        proc = run_python("-c", code, env={"OPENBLAS_NUM_THREADS": "2"})
        assert proc.returncode == 0, proc.stderr
        blas_threads, tasks, environ = json.loads(proc.stdout.splitlines()[-1])
        assert environ == (caller or "unset")
        if blas_threads is None:
            pytest.skip("numpy bundles no scipy-openblas here")
        assert blas_threads == 1
        if tasks is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert tasks == 1

    @pytest.mark.parametrize("numpy_first", [True, False])
    def test_numpy_loaded_first_leaves_the_environment_alone(self, numpy_first):
        # every write to the process environment goes through os.putenv or
        # os.unsetenv; record them while energyrep.cli loads (numpy's own
        # import sets and clears a variable of its own)
        code = ("import os; " + ("import numpy; " if numpy_first else "")
                + "calls = []; "
                "os.putenv = lambda *a: calls.append(list(map(os.fsdecode, a))); "
                "os.unsetenv = lambda *a: calls.append(list(map(os.fsdecode, a))); "
                "import json, energyrep.cli; print(json.dumps(calls))")
        proc = run_python("-c", code, env={"OPENBLAS_NUM_THREADS": "2"})
        assert proc.returncode == 0, proc.stderr
        calls = json.loads(proc.stdout.strip())
        if numpy_first:
            assert calls == []
        else:
            assert [c for c in calls if c[0] == "OPENBLAS_NUM_THREADS"] == [
                ["OPENBLAS_NUM_THREADS", "1"], ["OPENBLAS_NUM_THREADS", "2"]]


def test_layer_trace_binds_every_traced_name():
    """perfbench/layertrace.py wraps package functions by name; one that is
    deleted or renamed fails here instead of in `run.py --trace 1`."""
    from energyrep import seminorms  # energyrep.cli is loaded at the top

    spec = importlib.util.spec_from_file_location(
        "layertrace", REPO / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    original = seminorms.seminorm_p
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert seminorms.seminorm_p is not original
    finally:
        tracer.uninstall()
    assert seminorms.seminorm_p is original
