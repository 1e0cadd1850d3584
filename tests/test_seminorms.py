"""Spectral and weighted-derivative seminorm families and their probe."""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from energyrep import grid as grid_module, operators, seminorms
from energyrep.config import ExperimentConfig, load_config
from energyrep.grid import (ALGEBRA_METRIC_FACTOR, Field, GridError,
                            WeightField, build_grid, conformal_rescale,
                            covariant_derivative, norm, rebind)
from energyrep.operators import assemble_h, conjugated_operator
from energyrep.profiles import bumps
from energyrep.sampling import (random_covector_testset, random_one_form,
                                rho_field)
from energyrep.seminorms import (chain_identity_residual,
                                 eigenvector_covector, equivalence_probe,
                                 seminorm_p, seminorm_p_batch, seminorm_prime,
                                 seminorm_prime_batch, twisted_chain,
                                 weighted_norms)
from energyrep.suites import (REFERENCE_DOMAINS, SUITE_STREAMS, _probe_data,
                              run_suite)
from helpers import dense_decomposition, stack


@pytest.fixture(scope="module")
def circle_setup():
    g = build_grid("circle", 48, radius=1.0)
    w = WeightField.constant(g, 2.0)
    dec = assemble_h(g, w).eigendecomposition()
    return g, w, dec


class TestSpectralSeminorm:
    def test_p_zero_is_base_norm(self, circle_setup):
        g, w, dec = circle_setup
        f = random_one_form(g, np.random.default_rng(0), modes=3)
        assert seminorm_p(f, 0.0, dec) == pytest.approx(norm(f), rel=1e-12)

    def test_eigenvector_value(self, circle_setup):
        g, w, dec = circle_setup
        for k, p in [(0, 0.5), (4, 1.0), (9, 2.0)]:
            vals = np.zeros((g.node_count, 1), dtype=complex)
            vals[:, 0] = dec.modes(k)
            f = Field.covector(g, vals)
            assert seminorm_p(f, p, dec) == pytest.approx(
                float(dec.eigenvalues[k] ** p), rel=1e-10)

    def test_integer_power_matches_matrix_route(self, circle_setup):
        # independent route: |f|_1 must equal the norm of the assembled H
        # applied channelwise, and |f|_2 that of H applied twice
        g, w, dec = circle_setup
        op = assemble_h(g, WeightField.constant(g, 2.0))
        rng = np.random.default_rng(23)
        f = random_one_form(g, rng, modes=3)

        def applied(x):  # H on the node-major columns of x's channels
            return x.copy_with(op.apply(x.values.reshape(g.node_count, -1))
                               .reshape(x.values.shape))

        hf = applied(f)
        assert seminorm_p(f, 1.0, dec) == pytest.approx(norm(hf), rel=1e-11)
        assert seminorm_p(f, 2.0, dec) == pytest.approx(norm(applied(hf)),
                                                        rel=1e-10)

    def test_monotone_in_p(self, circle_setup):
        # all eigenvalues exceed 1, so p -> |f|_p is nondecreasing
        g, w, dec = circle_setup
        rng = np.random.default_rng(1)
        for _ in range(10):
            f = random_one_form(g, rng, modes=3)
            vals = [seminorm_p(f, p, dec) for p in (0.0, 0.5, 1.0, 1.7)]
            assert np.all(np.diff(vals) >= -1e-12 * vals[0])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(-3.0, 3.0))
    def test_triangle_and_homogeneity(self, seed, scale):
        g = build_grid("circle", 16, radius=1.0)
        dec = assemble_h(g, WeightField.constant(g, 2.0)).eigendecomposition()
        rng = np.random.default_rng(seed)
        f = random_one_form(g, rng, modes=2)
        h = random_one_form(g, rng, modes=2)
        tri = seminorm_p(f + h, 1.0, dec)
        assert tri <= seminorm_p(f, 1.0, dec) + seminorm_p(h, 1.0, dec) + 1e-12
        assert seminorm_p(f * scale, 1.0, dec) == pytest.approx(
            abs(scale) * seminorm_p(f, 1.0, dec), abs=1e-12)


class TestPrimeSeminorm:
    def test_m_zero_unit_weight_is_base_norm(self):
        g = build_grid("circle", 24, radius=1.0)
        w1 = WeightField.constant(g, 1.0)
        f = random_one_form(g, np.random.default_rng(2), modes=2)
        assert seminorm_prime(f, 0, w1) == pytest.approx(norm(f), rel=1e-12)

    def test_constant_field_m1(self):
        # derivative of a constant vanishes: |2c|_0 + 0 = 2 |c|_0
        g = build_grid("circle", 24, radius=1.0)
        w = WeightField.constant(g, 2.0)
        c = Field.covector(g, np.full((24, 1), 1.5, dtype=complex))
        assert seminorm_prime(c, 1, w) == pytest.approx(2.0 * norm(c), rel=1e-12)

    def test_triangle_inequality(self):
        g = build_grid("circle", 24, radius=1.0)
        w = WeightField.constant(g, 2.0)
        rng = np.random.default_rng(3)
        f, h = random_one_form(g, rng), random_one_form(g, rng)
        lhs = seminorm_prime(f + h, 2, w)
        assert lhs <= seminorm_prime(f, 2, w) + seminorm_prime(h, 2, w) + 1e-12

    def test_absolute_homogeneity(self):
        g = build_grid("circle", 24, radius=1.0)
        w = WeightField.constant(g, 2.0)
        f = random_one_form(g, np.random.default_rng(8))
        base = seminorm_prime(f, 2, w)
        for s in (-2.5, 0.0, 1.75):
            assert seminorm_prime(f * s, 2, w) == pytest.approx(
                abs(s) * base, abs=1e-12 * max(base, 1.0))

    @pytest.mark.parametrize("shape,kw,wkind", [
        ("circle", {"radius": 1.0}, "constant"),
        ("interval", {"halfwidth": 6.0}, "quadratic"),
    ])
    def test_weighted_chain_identity(self, shape, kw, wkind):
        g = build_grid(shape, 40, **kw)
        rho = rho_field(g, "bump" if shape == "interval" else "cosine", 0.4)
        w = (WeightField.constant(g, 2.0, rho) if wkind == "constant"
             else WeightField.quadratic(g, 1.0, rho))
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(5):
            f = random_one_form(g, rng, modes=3)
            for m in range(4):
                for n in range(m + 1):
                    worst = max(worst, weighted_chain_residual(f, m, n, w))
        assert worst <= 1e-12

    @pytest.mark.parametrize("shape,kw,wkind", [
        ("circle", {"radius": 1.0}, "constant"),
        ("interval", {"halfwidth": 6.0}, "quadratic"),
        ("torus", {"radius": 1.0}, "constant"),
    ])
    def test_one_chain_is_the_per_pair_maximum(self, shape, kw, wkind):
        # each (m, n) side of twisted_chain_identity against a fresh pair of
        # chains for that (m, n), and the gate value against their maximum
        g = build_grid(shape, 12 if shape == "torus" else 40, **kw)
        rho = rho_field(g, "bump" if shape == "interval" else "cosine", 0.4)
        w = (WeightField.constant(g, 2.0, rho) if wkind == "constant"
             else WeightField.quadratic(g, 1.0, rho))
        fs = random_one_form(g, np.random.default_rng(5), modes=3,
                             amplitude=1.0, count=5)
        w2m = [w.w ** (2 * m) for m in range(4)]
        seen = set()
        for _, part in seminorms._slices(fs):
            for n, (g, twisted) in enumerate(twisted_chain(part, w.rho, 3)):
                sides = zip(weighted_norms(twisted, w.rho, w2m[n:]),
                            weighted_norms(g, None, w2m[n:]))
                for m, (lhs, rhs) in enumerate(sides, start=n):
                    ref = chain_sides_oracle(part, m, n, w)
                    bound = chain_rounding_bound(part, n)
                    for got, want in zip((lhs, rhs), ref):
                        assert np.all(np.abs(got - want) <= bound * want)
                    seen.add((m, n))
        assert seen == {(m, n) for m in range(4) for n in range(m + 1)}
        per_pair = max(float(np.max(weighted_chain_residual(fs, m, n, w)))
                       for m in range(4) for n in range(m + 1))
        one_chain = chain_identity_residual(fs, 3, w)
        assert one_chain.shape == (5,)
        # each residual moves by at most the sides' bound, twice, plus its
        # denominator's share
        assert (abs(float(np.max(one_chain)) - per_pair)
                <= 3 * chain_rounding_bound(fs, 3))

    def test_one_chain_holds_one_slice_at_a_time(self):
        g = build_grid("torus", 24, radius=1.0)
        rho = rho_field(g, "cosine", 0.3, 1)
        w = WeightField.constant(g, 2.0, rho)
        fs = random_one_form(g, np.random.default_rng(6), modes=3,
                             amplitude=1.0, count=5)
        top = fs
        for _ in range(3):
            top = covariant_derivative(top)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            chain_identity_residual(fs, 3, w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # below one copy of the whole set's third derivative: the set is
        # never held at the top order, let alone both sides of the identity
        assert peak < top.values.nbytes


@pytest.mark.parametrize("shape,nodes,count", [
    ("circle", 64, 300), ("torus", 12, 40), ("torus", 48, 3)])
def test_slices_are_sized_by_the_largest_iterate(shape, nodes, count):
    # as many fields per slice as fit in the budget at the top order, in
    # order and whole; one field when a single one exceeds it (N = 48)
    g = build_grid(shape, nodes, radius=1.0)
    fs = random_one_form(g, np.random.default_rng(8), modes=2, count=count)
    for order in range(4):
        top = fs.values[0].size * g.dimension ** order
        parts = list(seminorms._slices(fs, order))
        fit = max(1, seminorms._SLICE_VALUES // top)
        assert [len(part.values) for _, part in parts[:-1]] == (
            [fit] * (len(parts) - 1))
        assert np.array_equal(np.concatenate([part.values for _, part in parts]),
                              fs.values)
        assert [cols.start for cols, _ in parts] == list(
            range(0, count, fit))


class TestWeightedIntertwine:
    def test_conjugated_scale_equals_premultiplied(self):
        g = build_grid("circle", 32, radius=1.0)
        w = WeightField.constant(g, 2.0)
        op = assemble_h(g, w)
        rho = rho_field(g, "cosine", 0.5, 1)
        dec = op.eigendecomposition()
        dec_rho = conjugated_operator(op, rho).eigendecomposition()
        rng = np.random.default_rng(5)
        for p in (0.5, 1.0, 2.0):
            f = random_one_form(g, rng, modes=3)
            lhs = seminorm_p(f, p, dec_rho)
            rhs = seminorm_p(f.scale_by_nodes(np.exp(rho / 2.0)), p, dec)
            assert abs(lhs - rhs) <= 1e-10 * max(lhs, rhs)


class TestEquivalenceProbe:
    @pytest.mark.parametrize("domain", ["circle", "interval"])
    def test_constants_stable_under_refinement(self, domain):
        cfg = ExperimentConfig(seed=12345, domain_shape="circle",
                               seminorms_functions=40)
        data = _probe_data(domain, cfg, 3)
        rep = equivalence_probe(domain, data, (0, 1, 2), (0.0, 0.5, 1.0, 1.5, 2.0))
        for m in (0, 1, 2):
            assert rep.stable[m], f"no stable p for m={m} on {domain}"
            assert rep.stability_ratio(m, rep.selected[m]) <= 2.0

    def test_reference_domains_are_distinct_streams(self):
        # a probe stream shared with another probe or a suite would repeat
        # that stream's draws
        streams = [ref.stream for ref in REFERENCE_DOMAINS.values()]
        assert len(set(streams)) == len(streams)
        assert not set(streams) & set(SUITE_STREAMS.values())
        for shape, ref in REFERENCE_DOMAINS.items():
            assert shape in grid_module.SHAPES
            assert ref.weight[0] in grid_module.WEIGHT_KINDS

    def test_probe_bump_scales_with_the_extent(self):
        # the interval's bump is centred at 0 with half the halfwidth as its
        # width; the circle's at pi with width 2.5 on the unit circle
        cfg = ExperimentConfig(seed=1, domain_shape="circle",
                               seminorms_functions=2, seminorms_nodes=(16, 24),
                               seminorms_interval_halfwidth=5.0)
        for domain, (center, width) in (("circle", (np.pi, 2.5)),
                                        ("interval", (0.0, 2.5))):
            for n_size, _, _, fields in _probe_data(domain, cfg, 3):
                grid = fields.grid
                want = bumps(grid.nodes, [[center]], [width], [1.0])[0][0]
                assert np.array_equal(fields.values[2], want[:, None])
                assert n_size == grid.axis_sizes[0]

    def test_interval_m1_finite_constant(self):
        # the position/derivative recombination predicts |f|'_1 <= C |f|_1
        cfg = ExperimentConfig(seed=7, domain_shape="circle",
                               seminorms_functions=30)
        data = _probe_data("interval", cfg, 11)
        rep = equivalence_probe("interval", data, (1,), (1.0,))
        for n in rep.n_list:
            fwd, _ = rep.constants[(1, 1.0, n)]
            assert np.isfinite(fwd) and fwd > 0

    def test_empty_test_set_rejected(self):
        g = build_grid("circle", 16, radius=1.0)
        w = WeightField.constant(g, 2.0)
        dec = assemble_h(g, w).eigendecomposition()
        one = random_one_form(g, np.random.default_rng(0), count=1)
        empty = one.copy_with(one.values[:0])
        with pytest.raises(ValueError):
            equivalence_probe("circle", [(16, w, dec, empty)], (1,), (1.0,))

    def test_report_serializable(self):
        import json
        cfg = ExperimentConfig(seed=1, domain_shape="circle",
                               seminorms_functions=10,
                               seminorms_nodes=(16, 32))
        data = _probe_data("circle", cfg, 5)
        rep = equivalence_probe("circle", data, (0, 1), (0.0, 1.0))
        json.dumps(rep.to_dict())


# ---------------------------------------------------------------------------
# Batched test sets against the per-field loop they replace
# ---------------------------------------------------------------------------

def loop_seminorm_p(f, p, dec):
    """One field, one p: expand, weight by lambda^{2p}, sum."""
    coeffs = dec.expand(f)
    weights = dec.eigenvalues[:, None] ** (2.0 * p)
    total = float(np.sum(weights * np.abs(coeffs) ** 2))
    if f.algebra:
        total *= ALGEBRA_METRIC_FACTOR
    return float(np.sqrt(max(total, 0.0)))


def loop_seminorm_prime(f, m, weight):
    """One field, one m: a fresh derivative chain for every n <= m."""
    half = np.exp(weight.rho / 2.0)
    total = 0.0
    for n in range(m + 1):
        g = f.scale_by_nodes(half)
        for _ in range(n):
            g = covariant_derivative(g)
        g = g.scale_by_nodes(1.0 / half).scale_by_nodes(weight.w ** m)
        total += norm(g, weight.rho)
    return total


def chain_sides_oracle(f, m, n, weight):
    """Oracle: |W^m grad_rho^n f|_{rho,0} and |W^m grad^n (e^{rho/2} f)|_0
    for one (m, n), per sample, from a fresh derivative chain on each side."""
    half = np.exp(weight.rho / 2.0)
    wm = weight.w ** m
    g = f.scale_by_nodes(half)
    for _ in range(n):
        g = covariant_derivative(g)
    lhs = norm(g.scale_by_nodes(1.0 / half).scale_by_nodes(wm), weight.rho)
    g = f.scale_by_nodes(np.exp(weight.rho / 2.0))
    for _ in range(n):
        g = covariant_derivative(g)
    return lhs, norm(g.scale_by_nodes(wm), None)


def weighted_chain_residual(f, m, n, weight):
    """Oracle: the relative residual of chain_sides_oracle's two sides."""
    lhs, rhs = chain_sides_oracle(f, m, n, weight)
    return np.abs(lhs - rhs) / np.maximum(np.maximum(lhs, rhs), 1.0)


def chain_rounding_bound(f, n):
    """Relative bound between two evaluations of one side of the chain
    identity that differ only in the order of their roundings.

    Both sum, per sample, K = nodes x (values per node of grad^n f) positive
    terms, each a product of at most 8 rounded factors (|v|^2, W^{2m} or
    W^m squared, the node weight, e^rho), from the same chain iterate.  For
    positive terms any summation order stays within (K + 8) u relative
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 4.2), the square root halves that, and the two evaluations
    differ by at most the sum of their errors: (K + 8) u."""
    per_node = f.values[0].size // f.grid.node_count * f.grid.dimension ** n
    return (f.grid.node_count * per_node + 8) * np.finfo(float).eps / 2


def prime_rounding_bound(f, m):
    """Relative bound between two evaluations of |f|'_m that differ only in
    the order of their roundings: each of its m + 1 terms moves by at most
    chain_rounding_bound of itself, and each evaluation adds the terms in
    the order n = 0..m, within m u of their sum."""
    return (sum(chain_rounding_bound(f, n) for n in range(m + 1))
            + m * np.finfo(float).eps)


def members(fields):
    """The members of a test set, one by one."""
    return [fields.copy_with(v) for v in fields.values]


def assert_batch_equals_loop(field_set, m_list, p_list, weight, dec):
    prime = seminorm_prime_batch(field_set, m_list, weight)
    spec = seminorm_p_batch(field_set, p_list, dec)
    fields = members(field_set)
    assert prime.shape == (len(m_list), len(fields))
    assert spec.shape == (len(p_list), len(fields))
    for row, m in zip(prime, m_list):
        loop = np.array([loop_seminorm_prime(f, m, weight) for f in fields])
        assert np.all(np.abs(row - loop)
                      <= prime_rounding_bound(field_set, m) * loop)
    assert np.array_equal(spec, [[loop_seminorm_p(f, p, dec) for f in fields]
                                 for p in p_list])


M_LIST = (0, 1, 2, 3)
P_LIST = (0.0, 0.5, 1.0, 1.25, 2.0)


class TestBatchedAgainstLoop:
    @pytest.mark.parametrize("shape,kw,make,value,rho_kind", [
        ("circle", {"radius": 1.0}, WeightField.constant, 2.0, "cosine"),
        ("interval", {"halfwidth": 6.0}, WeightField.quadratic, 1.0, "bump"),
    ])
    def test_one_dimensional_sets(self, shape, kw, make, value, rho_kind):
        g = build_grid(shape, 40, **kw)
        rho = rho_field(g, rho_kind, 0.4)
        weight = make(g, value, rho)
        dec = conjugated_operator(assemble_h(g, make(g, value)),
                                  rho).eigendecomposition()
        rng = np.random.default_rng(31)
        covectors = random_covector_testset(g, rng, 12)
        algebra = random_one_form(g, rng, modes=3, count=3)
        for subset in (covectors, algebra):
            assert_batch_equals_loop(subset, M_LIST, P_LIST, weight, dec)

    def test_torus_algebra_one_forms_with_rho(self):
        torus = build_grid("torus", 8, radius=1.0)
        rho = rho_field(torus, "cosine", 0.3, 1)
        weight = WeightField.constant(torus, 2.0, rho)
        h_rho = conjugated_operator(
            assemble_h(torus, WeightField.constant(torus, 2.0)), rho)
        dense = dense_decomposition(h_rho)
        rng = np.random.default_rng(17)
        fields = random_one_form(torus, rng, modes=2, count=6)
        chain = list(twisted_chain(fields, rho, 3))
        # a test set of rank-1 algebra fields climbs to rank 4 at n = 3
        assert [g.values.shape for pair in chain for g in pair] == [
            (6, 64) + (2,) * (k + 1) + (3,) for k in range(4) for _ in "ut"]
        # the dense solve of H_rho, the path a per-axis solve replaces
        assert_batch_equals_loop(fields, M_LIST, P_LIST, weight, dense)

    def test_torus_per_axis_decomposition(self):
        # a two-axis expansion: every field still sums in one order,
        # whatever the other fields of its set
        torus = build_grid("torus", 8, radius=1.0)
        rho = rho_field(torus, "cosine", 0.3, 1)
        weight = WeightField.constant(torus, 2.0, rho)
        dec = conjugated_operator(
            assemble_h(torus, WeightField.constant(torus, 2.0)),
            rho).eigendecomposition()
        assert len(dec.axis_vectors) == 2
        rng = np.random.default_rng(17)
        algebra = random_one_form(torus, rng, modes=2, count=6)
        covectors = random_covector_testset(torus, rng, 6)
        for subset in (algebra, covectors):
            assert_batch_equals_loop(subset, M_LIST, P_LIST, weight, dec)

    def test_single_field_is_the_one_field_batch(self, circle_setup):
        g, w, dec = circle_setup
        rng = np.random.default_rng(9)
        fields = random_one_form(g, rng, modes=3, count=5)
        prime = seminorm_prime_batch(fields, (0, 2), w)
        spec = seminorm_p_batch(fields, (0.5, 1.5), dec)
        for k, f in enumerate(members(fields)):
            for i, m in enumerate((0, 2)):
                one = seminorm_prime_batch(stack([f]), (m,), w)
                assert one.shape == (1, 1)
                assert seminorm_prime(f, m, w) == one[0, 0] == prime[i, k]
            for i, p in enumerate((0.5, 1.5)):
                one = seminorm_p_batch(stack([f]), (p,), dec)
                assert seminorm_p(f, p, dec) == one[0, 0] == spec[i, k]

    def test_empty_set_rejected(self, circle_setup):
        g, w, dec = circle_setup
        one = random_one_form(g, np.random.default_rng(1), count=1)
        empty = one.copy_with(one.values[:0])
        with pytest.raises(ValueError):
            seminorm_p_batch(empty, (1.0,), dec)
        with pytest.raises(ValueError):
            seminorm_prime_batch(empty, (1,), w)

    def test_negative_order_rejected(self, circle_setup):
        g, w, dec = circle_setup
        f = random_one_form(g, np.random.default_rng(2))
        with pytest.raises(ValueError, match="nonnegative"):
            seminorm_prime_batch(stack([f]), (1, -1), w)

    def test_conformally_rescaled_fields_rejected(self, circle_setup):
        g, w, dec = circle_setup
        f = random_one_form(g, np.random.default_rng(3))
        g2 = conformal_rescale(g, rho_field(g, "cosine", 0.5, 1))
        moved = rebind(f, g2)
        # the covariant derivative needs a constant metric scale
        with pytest.raises(GridError):
            seminorm_prime(moved, 1, w)
        with pytest.raises(GridError):
            seminorm_prime_batch(stack([moved]), (1,), w)


# ---------------------------------------------------------------------------
# Real covector sets against the same values held as complex
# ---------------------------------------------------------------------------

FOUR_SHAPES = [("circle", 48, {"radius": 1.0}),
               ("interval", 48, {"halfwidth": 6.0}),
               ("torus", 12, {"radius": 1.0}),
               ("square", 12, {"halfwidth": 3.0})]

# Real and complex arrays of the same values differ only in how numpy
# rounds them: the centered difference's / 2h is a true quotient on a real
# array and a product by the reciprocal on a complex one (within an ulp of
# each other per step), and in d = 2 the weighted |.|^2 sums the same
# squares with or without zero imaginary channels between them.  On these
# smooth sets that moved |.|'_m (m <= 3) by at most 2 ulp and the expansion
# and |.|_p by none; the bound allows a few ulp.
REAL_PATH_BOUND = 8 * np.finfo(float).eps


class TestRealCovectorSets:
    @pytest.mark.parametrize("shape,nodes,kw", FOUR_SHAPES)
    def test_sets_are_real(self, shape, nodes, kw):
        g = build_grid(shape, nodes, **kw)
        fields = random_covector_testset(g, np.random.default_rng(4), 3)
        assert fields.values.dtype == np.float64
        dec = assemble_h(g, WeightField.constant(g, 2.0)).eigendecomposition()
        for k in (0, [0, 2, 5]):
            assert eigenvector_covector(dec, k).values.dtype == np.float64

    def test_probe_sets_are_real(self):
        # the random members, the bump and the eigenvectors join as real rows
        cfg = ExperimentConfig(seed=1, domain_shape="circle",
                               seminorms_functions=4, seminorms_nodes=(16, 24))
        for domain in REFERENCE_DOMAINS:
            for *_, fields in _probe_data(domain, cfg, 3):
                assert fields.values.dtype == np.float64
                assert len(fields.values) == 4 + 1 + 3

    @pytest.mark.parametrize("shape,nodes,kw", FOUR_SHAPES)
    def test_real_path_matches_complex(self, shape, nodes, kw):
        g = build_grid(shape, nodes, **kw)
        rho = rho_field(g, "bump", 0.4)
        weight = WeightField.constant(g, 2.0, rho)
        dec = conjugated_operator(assemble_h(g, WeightField.constant(g, 2.0)),
                                  rho).eigendecomposition()
        real = random_covector_testset(g, np.random.default_rng(6), 9)
        held = real.copy_with(real.values.astype(complex))
        got, want = dec.expand(real), dec.expand(held)
        assert got.dtype == np.float64 and not np.any(want.imag)
        scale = np.max(np.abs(want), axis=(1, 2), keepdims=True)
        assert np.all(np.abs(got - want.real) <= REAL_PATH_BOUND * scale)
        for batch, orders, op in ((seminorm_p_batch, P_LIST, dec),
                                  (seminorm_prime_batch, M_LIST, weight)):
            values, reference = (batch(f, orders, op) for f in (real, held))
            assert np.all(np.abs(values - reference)
                          <= REAL_PATH_BOUND * reference)
        # relative residuals, both at rounding level: a few ulp apart
        residual, reference = (chain_identity_residual(f, 3, weight)
                               for f in (real, held))
        assert np.all(np.abs(residual - reference) <= REAL_PATH_BOUND)
        assert np.max(residual) <= 1e-12


# ---------------------------------------------------------------------------
# The intertwining gate of the seminorms suite
# ---------------------------------------------------------------------------

CIRCLE_CFG = Path(__file__).resolve().parents[1] / "configs" / "circle.cfg"


def _without_inverse(apply):
    """DiscreteOperator.apply with E^{-1} dropped from a conjugate: H E."""
    def changed(self, x):
        if self.rho is None:
            return apply(self, x)
        return apply(self.base, np.exp(self.rho / 2.0)[:, None] * x)
    return changed


def _doubled_rho(conjugate):
    """conjugated_operator with twice the rho it is given."""
    return lambda op, rho: conjugate(op, 2.0 * np.asarray(rho))


class TestIntertwiningGate:
    """weighted_scale_intertwines applies H_rho through its stencil and reads
    H's spectrum, so it can see a wrong conjugation."""

    @staticmethod
    def intertwine(tmp_path):
        (rep,) = run_suite("seminorms", load_config(CIRCLE_CFG), tmp_path)
        return {c.name: c for c in rep.checks}["weighted_scale_intertwines"]

    def test_passes_as_shipped(self, tmp_path):
        gate = self.intertwine(tmp_path)
        assert gate.verdict == "pass" and gate.measured <= 1e-13

    def test_dropped_conjugation_factor_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(operators.DiscreteOperator, "apply",
                            _without_inverse(operators.DiscreteOperator.apply))
        gate = self.intertwine(tmp_path)
        assert gate.verdict == "fail" and gate.measured > 1e-3

    def test_wrong_rho_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(operators, "conjugated_operator",
                            _doubled_rho(operators.conjugated_operator))
        gate = self.intertwine(tmp_path)
        assert gate.verdict == "fail" and gate.measured > 1e-3


def _mutated_chain(twist, untwist):
    """seminorms.twisted_chain with e^{twist rho} in place of e^{rho/2} and
    e^{untwist rho} in place of e^{-rho/2}."""
    def chain(f, rho, order):
        out = f.scale_by_nodes(np.exp(twist * rho))
        for n in range(order + 1):
            if n:
                out = covariant_derivative(out)
            yield out, out.scale_by_nodes(np.exp(untwist * rho))
    return chain


class TestTwistedChainGate:
    """twisted_chain_identity compares the twisted and untwisted sides of
    one chain, so a wrong twist of the chain fails it."""

    @staticmethod
    def chain_gate(name, tmp_path):
        cfg = load_config(CIRCLE_CFG.parent / f"{name}.cfg")
        (rep,) = run_suite("spectrum", cfg, tmp_path)
        return {c.name: c for c in rep.checks}["twisted_chain_identity"]

    @pytest.mark.parametrize("name", ["circle", "torus"])
    @pytest.mark.parametrize("twist,untwist,verdict", [
        (0.5, -0.5, "pass"),   # the shipped chain, through the same builder
        (0.5, 0.5, "fail"),    # untwisted by e^{+rho/2}
        (1.0, -1.0, "fail"),   # twisted by e^{rho}
    ])
    def test_twist_mutations_fail(self, name, twist, untwist, verdict,
                                  tmp_path, monkeypatch):
        monkeypatch.setattr(seminorms, "twisted_chain",
                            _mutated_chain(twist, untwist))
        gate = self.chain_gate(name, tmp_path)
        assert gate.verdict == verdict
        if verdict == "fail":
            assert gate.measured > 1e-2


def test_chain_gate_work_is_linear_in_the_order(monkeypatch):
    # per slice: one twist and one untwist per order, no norm per (m, n),
    # for the chain gate and for |.|'_m alike
    g = build_grid("torus", 24, radius=1.0)
    w = WeightField.constant(g, 2.0, rho_field(g, "cosine", 0.3, 1))
    fs = random_one_form(g, np.random.default_rng(6), modes=3, count=5)
    calls = {"scale": 0, "norm": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Field, "scale_by_nodes",
                        counted("scale", Field.scale_by_nodes))
    monkeypatch.setattr(grid_module, "norm", counted("norm", grid_module.norm))
    assert not hasattr(seminorms, "norm")  # no copy that bypasses the count
    order, slices = 3, len(list(seminorms._slices(fs, 3)))
    assert slices > 1
    for run in (lambda: chain_identity_residual(fs, order, w),
                lambda: seminorm_prime_batch(fs, tuple(range(order + 1)), w)):
        calls.update(scale=0, norm=0)
        run()
        assert calls["scale"] <= (order + 2) * slices
        assert calls["norm"] == 0
