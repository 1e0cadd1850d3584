"""Coherent vectors, the representation U, and its structural properties."""
import math

import numpy as np
import pytest

from energyrep import fock, gauge, hermite
from energyrep.grid import Field, build_grid, inner_product, norm
from energyrep.sampling import (random_gauge_field, random_one_form,
                                random_tuples, rho_field)
from helpers import (gauge_identity, gauge_inverse, stack, truncation_blocks,
                     truncation_blocks_inner)


@pytest.fixture(scope="module")
def circle():
    return build_grid("circle", 24, radius=1.0)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(555)


class TestCoherentKernel:
    def test_vacuum_normalized(self, circle):
        vac = fock.CoherentVector(1.0, Field.zero(circle, 1, algebra=True))
        assert fock.coherent_inner(vac, vac) == 1.0

    def test_diagonal_kernel(self, circle, rng):
        f = random_one_form(circle, rng, normalized=True)
        v = fock.CoherentVector(1.0, f)
        expected = np.exp(inner_product(f, f).real)
        assert fock.coherent_inner(v, v) == pytest.approx(expected, rel=1e-14)

    def test_weighted_kernel_uses_rho(self, circle, rng):
        rho = rho_field(circle, "cosine", 0.5, 1)
        f = random_one_form(circle, rng, normalized=True)
        g = random_one_form(circle, rng, normalized=True)
        a, b = fock.CoherentVector(1.0, f), fock.CoherentVector(1.0, g)
        expected = np.exp(inner_product(f, g, rho))
        assert fock.coherent_inner(a, b, rho) == pytest.approx(expected,
                                                               rel=1e-14)


class TestTruncatedExpansion:
    def test_matches_kernel_within_tail_bound(self, circle, rng):
        # make the overlap sizable so the factorial tail is the binding term
        base = random_one_form(circle, rng, normalized=True)
        other = random_one_form(circle, rng, normalized=True)
        f = base * 0.95
        g = base * 0.7 + other * 0.4
        coords = fock.orthonormal_coordinates([f, g])
        exact = fock.coherent_inner(fock.CoherentVector(1.0, f),
                                    fock.CoherentVector(1.0, g))
        for cutoff in (6, 9, 12):
            tf = fock.TruncatedFockVector.from_coherent(coords[0], cutoff)
            tg = fock.TruncatedFockVector.from_coherent(coords[1], cutoff)
            diff = abs(exact - tf.inner(tg))
            bound = fock.truncation_tail_bound(norm(f), norm(g), cutoff)
            assert diff <= bound

    def test_factorial_convergence_rate(self, circle, rng):
        base = random_one_form(circle, rng, normalized=True)
        f, g = base * 0.9, base * 0.8
        coords = fock.orthonormal_coordinates([f, g])
        exact = fock.coherent_inner(fock.CoherentVector(1.0, f),
                                    fock.CoherentVector(1.0, g))
        diffs = []
        for cutoff in (4, 6, 8):
            tf = fock.TruncatedFockVector.from_coherent(coords[0], cutoff)
            tg = fock.TruncatedFockVector.from_coherent(coords[1], cutoff)
            diffs.append(abs(exact - tf.inner(tg)))
        assert diffs[0] > diffs[1] > diffs[2] > 0

    def test_gram_schmidt_preserves_inner_products(self, circle, rng):
        fields = [random_one_form(circle, rng) for _ in range(3)]
        coords = fock.orthonormal_coordinates(fields)
        for i in range(3):
            for j in range(3):
                want = inner_product(fields[i], fields[j])
                got = np.vdot(coords[i], coords[j])
                assert got == pytest.approx(want, abs=1e-10)

    def test_coordinates_of_a_dependent_set(self, circle, rng):
        # [f, 2f, g, 0] spans two dimensions; every coordinate still holds
        # the inner products, and there is at most one dimension per field
        f = random_one_form(circle, rng, normalized=True)
        g = random_one_form(circle, rng, normalized=True)
        fields = [f, f * 2.0, g, f * 0.0]
        coords = fock.orthonormal_coordinates(fields)
        assert len(coords) == 4 and coords[0].size <= 4
        assert all(c.shape == coords[0].shape for c in coords)
        for a, ca in zip(fields, coords):
            for b, cb in zip(fields, coords):
                # relative to |a| |b| + 1, for the zero field: at most
                # 7.1e-16 over 50 seeds
                bound = 2e-15 * (norm(a) * norm(b) + 1.0)
                assert abs(np.vdot(ca, cb) - inner_product(a, b)) <= bound

    def test_occupation_normalization(self):
        # single mode: exp(z) has amplitude z^n / sqrt(n!) on |n>
        v = fock.TruncatedFockVector.from_coherent(np.array([0.5 + 0.2j]), 6)
        for n in range(7):
            amp = v.amplitudes[n]
            want = (0.5 + 0.2j) ** n / math.sqrt(math.factorial(n))
            assert amp == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_amplitudes_are_the_per_degree_truncation(self, dim):
        # one amplitude per occupation state, in order, with the bits of
        # the per-degree dict form
        rng = np.random.default_rng(71 + dim)
        coords = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for cutoff in (0, 1, 7, 12):
            v = fock.TruncatedFockVector.from_coherent(coords, cutoff)
            blocks = truncation_blocks(coords, cutoff)
            assert v.dim == dim
            assert v.amplitudes == tuple(
                amp for block in blocks for amp in block.values())
            assert tuple(occ for block in blocks for occ in block) == (
                hermite.occupation_states(dim, cutoff))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_inner_is_the_per_degree_sum(self, dim):
        # bit for bit, at equal cutoffs and at unequal ones (either side
        # the lower), where the sum stops at the lower cutoff
        rng = np.random.default_rng(83 + dim)
        coords = rng.standard_normal((2, dim)) + 1j * rng.standard_normal(
            (2, dim))
        for ca, cb in ((9, 9), (5, 12), (12, 5), (0, 3)):
            a = fock.TruncatedFockVector.from_coherent(coords[0], ca)
            b = fock.TruncatedFockVector.from_coherent(coords[1], cb)
            want = truncation_blocks_inner(truncation_blocks(coords[0], ca),
                                           truncation_blocks(coords[1], cb))
            got = a.inner(b)
            assert type(got) is complex and got == want

    def test_inner_rejects_mismatched_dimensions(self):
        a = fock.TruncatedFockVector.from_coherent(np.array([0.5, 0.1]), 4)
        b = fock.TruncatedFockVector.from_coherent(np.array([0.5]), 4)
        with pytest.raises(ValueError, match="mismatched"):
            a.inner(b)

    @pytest.mark.parametrize("x", [0.05, 0.6, 1.0, 3.0])
    def test_tail_bound_equals_factorial_form(self, x):
        for cutoff in range(0, 40):
            want = math.exp(x) * x ** (cutoff + 1) / math.factorial(cutoff + 1)
            got = fock.truncation_tail_bound(x, 1.0, cutoff)
            assert got == pytest.approx(want, rel=1e-12)

    def test_tail_bound_never_raises(self):
        # the factorial form raised ZeroDivisionError (via the gate) at 169
        # and OverflowError at 170
        for cutoff in (169, 170, fock.MAX_CUTOFF, 10 ** 6):
            assert fock.truncation_tail_bound(0.9, 0.7, cutoff) == 0.0
        assert fock.truncation_tail_bound(0.0, 0.7, 12) == 0.0
        assert fock.truncation_tail_bound(1e200, 1e200, 12) == math.inf
        assert fock.truncation_tail_bound(30.0, 30.0, 12) == math.inf

    def test_max_cutoff_normalization_is_finite(self):
        v = fock.TruncatedFockVector.from_coherent(np.array([0.5]),
                                                   fock.MAX_CUTOFF)
        assert math.isfinite(abs(v.amplitudes[fock.MAX_CUTOFF]))
        with pytest.raises(OverflowError):
            math.sqrt(math.factorial(fock.MAX_CUTOFF + 1))


class TestEnergyRepresentation:
    def test_identity_gauge_field_acts_trivially(self, circle, rng):
        f = random_one_form(circle, rng, normalized=True)
        v = fock.CoherentVector(1.3 - 0.4j, f)
        out = fock.apply_u(gauge_identity(circle), v)
        assert out.coeff == pytest.approx(v.coeff, rel=1e-14)
        assert np.max(np.abs(out.param.values - f.values)) == 0.0

    def test_unitary_on_kernel(self, circle, rng):
        for _ in range(20):
            rho = rho_field(circle, "random", 0.4, rng=rng)
            psi = random_gauge_field(circle, rng)
            f = random_one_form(circle, rng, normalized=True)
            g = random_one_form(circle, rng, normalized=True)
            assert fock.kernel_discrepancy(psi, f, g, rho) <= 1e-10

    def test_vacuum_image_has_unit_norm(self, circle, rng):
        # U psi exp(0) = e^{-|beta|^2/2} exp(beta), norm exactly 1
        psi = random_gauge_field(circle, rng)
        vac = fock.CoherentVector(1.0, Field.zero(circle, 1, algebra=True))
        out = fock.apply_u(psi, vac)
        beta = gauge.log_derivative(psi)
        assert out.coeff == pytest.approx(
            np.exp(-0.5 * inner_product(beta, beta).real), rel=1e-13)
        # beta is real up to dust, so the exponent's imaginary part is dust squared
        assert abs(out.coeff.imag) <= 1e-15 * abs(out.coeff)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_homomorphism_identity_right_factor(self, circle, rng):
        psi = random_gauge_field(circle, rng)
        fs = random_one_form(circle, rng, normalized=True, count=1)
        res = fock.homomorphism_check(psi, gauge_identity(circle), fs)
        assert abs(res.coeff_ratio - 1.0) <= 1e-13
        assert res.param_residual <= 1e-13

    def test_homomorphism_on_coherent_vectors(self, circle, rng):
        for _ in range(10):
            rho = rho_field(circle, "random", 0.4, rng=rng)
            psi = random_gauge_field(circle, rng)
            phi = random_gauge_field(circle, rng)
            fs = random_one_form(circle, rng, normalized=True, count=1)
            res = fock.homomorphism_check(psi, phi, fs, rho)
            assert abs(res.coeff_ratio - 1.0) <= 1e-9
            assert res.param_residual <= 1e-10

    def test_inverse_pair_returns_argument(self, circle, rng):
        psi = random_gauge_field(circle, rng)
        inv = gauge_inverse(psi)
        f = random_one_form(circle, rng, normalized=True)
        v = fock.CoherentVector(1.0, f)
        out = fock.apply_u(psi, fock.apply_u(inv, v))
        assert abs(out.coeff - 1.0) <= 1e-10
        assert norm(out.param - f) <= 1e-10


class TestConformal:
    def test_dimension2_invariant(self, rng):
        torus = build_grid("torus", 8, radius=1.0)
        psi = random_gauge_field(torus, rng, modes=2, amplitude=0.8)
        fs = random_one_form(torus, rng, modes=2, normalized=True, count=2)
        gs = random_one_form(torus, rng, modes=2, normalized=True, count=2)
        rho = rho_field(torus, "random", 0.5, rng=rng)
        rep = fock.conformal_check(psi, rho, fs, gs)
        assert rep.max_relative_change <= 1e-10

    def test_zero_rho_exactly_invariant(self, circle, rng):
        psi = random_gauge_field(circle, rng)
        fs = random_one_form(circle, rng, normalized=True, count=1)
        rep = fock.conformal_check(psi, np.zeros(circle.node_count), fs, fs)
        assert rep.max_relative_change == 0.0

    def test_dimension1_constant_rho_factor(self, circle, rng):
        # one-particle products scale by e^{(1/2-1) rho}; matrix elements follow
        psi = random_gauge_field(circle, rng)
        fs = random_one_form(circle, rng, normalized=True, count=2)
        gs = random_one_form(circle, rng, normalized=True, count=2)
        rep = fock.conformal_check(psi, np.full(circle.node_count, 1.0), fs, gs)
        assert rep.one_particle_scale == pytest.approx(np.exp(-0.5), rel=1e-14)
        assert rep.max_prediction_residual <= 1e-8
        assert rep.max_relative_change > 0.01  # genuinely not invariant in d=1

    def test_constant_rho_reads_beta_and_v_once_per_grid(self, circle, rng,
                                                        monkeypatch):
        # one log_derivative and one v_action per grid: the prediction reads
        # the unrescaled grid's values instead of computing them again
        psi = random_gauge_field(circle, rng)
        fs = random_one_form(circle, rng, normalized=True, count=2)
        gs = random_one_form(circle, rng, normalized=True, count=3)
        calls = {"log_derivative": 0, "v_action": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(fock, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(fock, name, counted)
        rep = fock.conformal_check(psi, np.full(circle.node_count, 1.0), fs, gs)
        assert rep.one_particle_scale is not None
        assert rep.max_prediction_residual <= 1e-8
        assert calls == {"log_derivative": 2, "v_action": 2}

    @pytest.mark.parametrize("profile", ["random", "constant"])
    def test_v_action_sees_each_g_once(self, circle, rng, monkeypatch,
                                       profile):
        # the work is linear in each set: V(psi) acts on the K_g samples of
        # g_set, never on K_f * K_g copies of them, one per pair
        psi = random_gauge_field(circle, rng)
        fs = random_one_form(circle, rng, normalized=True, count=4)
        gs = random_one_form(circle, rng, normalized=True, count=3)
        rho = (rho_field(circle, "random", 0.4, rng=rng) if profile == "random"
               else np.full(circle.node_count, 1.0))
        samples = []

        def counted(psi, f, _original=fock.v_action):
            samples.append(f.values.shape[0] if f.sample_axes else 1)
            return _original(psi, f)

        monkeypatch.setattr(fock, "v_action", counted)
        fock.conformal_check(psi, rho, fs, gs)
        assert samples == [3, 3]

    def test_one_particle_products_scale(self, circle, rng):
        from energyrep.grid import conformal_rescale, rebind
        f = random_one_form(circle, rng, normalized=True)
        g2 = conformal_rescale(circle, np.full(circle.node_count, 1.0))
        before = inner_product(f, f).real
        after = inner_product(rebind(f, g2), rebind(f, g2)).real
        assert after == pytest.approx(before * np.exp(-0.5), rel=1e-12)


def members(sample_set):
    """The members of a sampled set of gauge fields or forms, one by one."""
    if isinstance(sample_set, gauge.GaugeField):
        return [gauge.GaugeField(sample_set.grid, u, du)
                for u, du in zip(sample_set.u, sample_set.du)]
    return [sample_set.copy_with(v) for v in sample_set.values]


class TestStackedSamples:
    """Coherent vectors with a sample axis against the per-sample loop."""

    @pytest.fixture
    def samples(self, circle):
        local = np.random.default_rng(41)
        psi = random_gauge_field(circle, local, count=5)
        phi = random_gauge_field(circle, local, count=5)
        f = random_one_form(circle, local, normalized=True, count=5)
        g = random_one_form(circle, local, normalized=True, count=5)
        (rho,) = random_tuples(circle, local, 5, ("rho", 2, 0.4))
        coeffs = local.normal(size=5) + 1j * local.normal(size=5)
        return psi, phi, f, g, rho, coeffs

    def test_apply_u(self, samples):
        psi, _, f, _, rho, coeffs = samples
        got = fock.apply_u(psi, fock.CoherentVector(coeffs, f), rho)
        loop = [fock.apply_u(p, fock.CoherentVector(complex(c), h), r)
                for p, h, r, c in zip(members(psi), members(f), rho, coeffs)]
        assert np.array_equal(got.coeff, [v.coeff for v in loop])
        assert np.array_equal(got.param.values, [v.param.values for v in loop])

    def test_kernel_discrepancy(self, samples):
        psi, _, f, g, rho, _ = samples
        got = fock.kernel_discrepancy(psi, f, g, rho)
        assert np.array_equal(got, [fock.kernel_discrepancy(p, a, b, r)
                                    for p, a, b, r in zip(members(psi),
                                                          members(f),
                                                          members(g), rho)])

    def test_homomorphism_check(self, samples):
        psi, phi, f, _, rho, _ = samples
        got = fock.homomorphism_check(psi, phi, f, rho)
        loop = [fock.homomorphism_check(p, q, stack([h]), r)
                for p, q, h, r in zip(members(psi), members(phi), members(f),
                                      rho)]
        worst = max(loop, key=lambda res: abs(res.coeff_ratio - 1.0))
        assert got.coeff_ratio == worst.coeff_ratio
        assert got.param_residual == max(res.param_residual for res in loop)

    def test_modulus_rounds_like_python_abs(self):
        local = np.random.default_rng(7)
        z = local.normal(size=4000) * 10.0 ** local.integers(-5, 5, 4000) \
            + 1j * local.normal(size=4000)
        assert np.array_equal(fock.modulus(z), [abs(complex(x)) for x in z])
        assert fock.modulus(3.0 - 4.0j) == 5.0
