"""Cocycle, V and V' actions, regularity rate, cutoffs, punctured plane."""
import numpy as np
import pytest

from energyrep import gauge
from energyrep.grid import Field, GridError, WeightField, build_grid, norm
from energyrep.operators import assemble_h, conjugated_operator
from energyrep.profiles import bumps, fourier_series
from energyrep.sampling import (random_algebra_field, random_gauge_field,
                                random_one_form, random_tuples, rho_field)
from energyrep.seminorms import (seminorm_p, seminorm_p_batch,
                                 seminorm_prime_batch)
from helpers import (from_matrix_oracle, gauge_identity, gauge_inverse,
                     group_defect, product_oracle, rotate_oracle,
                     rotation_oracle, stack)


@pytest.fixture(scope="module")
def circle32():
    return build_grid("circle", 32, radius=1.0)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2024)


class TestLogDerivative:
    def test_identity_field(self, circle32):
        beta = gauge.log_derivative(gauge_identity(circle32))
        assert np.all(beta.values == 0)

    def test_constant_field(self, circle32):
        psi = gauge.gauge_from_algebra(
            gauge.AlgebraValuedField.constant(circle32, (0.7, -0.4, 1.2)))
        beta = gauge.log_derivative(psi)
        assert np.max(np.abs(beta.values)) == 0.0

    def test_single_direction_commuting_profile(self, circle32):
        # psi = exp(b(x) X_1) gives beta = b'(x) dx tensor X_1 exactly
        vals, grads = fourier_series(circle32.nodes, 2 * np.pi,
                                     np.array([[0.8, 0.3], [0, 0], [0, 0]]),
                                     np.array([[0.0, -0.5], [0, 0], [0, 0]]))
        psi = gauge.gauge_from_algebra(gauge.AlgebraValuedField(
            circle32, vals.T, grads.transpose(1, 2, 0)))
        beta = gauge.log_derivative(psi)
        expected = grads[0, :, 0]
        assert np.max(np.abs(beta.values[:, 0, 0] - expected)) <= 1e-12
        assert np.max(np.abs(beta.values[:, 0, 1:])) <= 1e-13

    def test_real_valued(self, circle32, rng):
        for _ in range(5):
            beta = gauge.log_derivative(random_gauge_field(circle32, rng))
            assert gauge.reality_defect(beta) <= 1e-10

    def test_broken_derivative_data_rejected(self, circle32):
        psi = random_gauge_field(circle32, np.random.default_rng(1))
        bad = gauge.GaugeField(circle32, psi.u, psi.du + 0.1)
        with pytest.raises(ValueError):
            gauge.log_derivative(bad)


class TestCocycle:
    def test_identity_right_factor(self, circle32, rng):
        psi = random_gauge_field(circle32, rng)
        assert gauge.cocycle_residual(psi, gauge_identity(circle32)) \
            <= 1e-12

    def test_inverse_pair(self, circle32, rng):
        psi = random_gauge_field(circle32, rng)
        assert gauge.cocycle_residual(psi, gauge_inverse(psi)) <= 1e-10

    def test_random_noncommuting_pairs(self, circle32, rng):
        rho = rho_field(circle32, "cosine", 0.3, 1)
        for _ in range(10):
            psi = random_gauge_field(circle32, rng)
            phi = random_gauge_field(circle32, rng)
            assert gauge.cocycle_residual(psi, phi, rho) <= 1e-10

    def test_torus_pairs(self, rng):
        torus = build_grid("torus", 8, radius=1.0)
        for _ in range(3):
            psi = random_gauge_field(torus, rng, modes=2)
            phi = random_gauge_field(torus, rng, modes=2)
            assert gauge.cocycle_residual(psi, phi) <= 1e-10

    def test_product_unitary(self, circle32, rng):
        psi = random_gauge_field(circle32, rng)
        phi = random_gauge_field(circle32, rng)
        assert group_defect(gauge.gauge_product(psi, phi).u) <= 1e-12


class TestVAction:
    def test_identity_acts_trivially(self, circle32, rng):
        f = random_one_form(circle32, rng)
        out = gauge.v_action(gauge_identity(circle32), f)
        assert np.max(np.abs(out.values - f.values)) == 0.0

    def test_isometry(self, circle32, rng):
        rho = rho_field(circle32, "cosine", 0.4, 1)
        for _ in range(10):
            psi = random_gauge_field(circle32, rng)
            f = random_one_form(circle32, rng)
            assert abs(norm(gauge.v_action(psi, f), rho) - norm(f, rho)) \
                <= 1e-12 * norm(f, rho)

    def test_homomorphism(self, circle32, rng):
        psi = random_gauge_field(circle32, rng)
        phi = random_gauge_field(circle32, rng)
        f = random_one_form(circle32, rng)
        lhs = gauge.v_action(gauge.gauge_product(psi, phi), f)
        rhs = gauge.v_action(psi, gauge.v_action(phi, f))
        assert norm(lhs - rhs) <= 1e-12 * norm(f)


def members(sample_set):
    """The members of a sampled set of gauge fields or forms, one by one."""
    if isinstance(sample_set, gauge.GaugeField):
        return [gauge.GaugeField(sample_set.grid, u, du)
                for u, du in zip(sample_set.u, sample_set.du)]
    return [sample_set.copy_with(v) for v in sample_set.values]


class TestStackedSamples:
    """A sample axis on gauge fields and forms against the per-sample loop."""

    @pytest.fixture(params=["circle", "torus"])
    def samples(self, request):
        grid = (build_grid("circle", 32, radius=1.0)
                if request.param == "circle"
                else build_grid("torus", 8, radius=1.0))
        local = np.random.default_rng(31)
        psi = random_gauge_field(grid, local, modes=2, count=4)
        phi = random_gauge_field(grid, local, modes=2, count=4)
        f = random_one_form(grid, local, modes=2, count=4)
        (rho,) = random_tuples(grid, local, 4, ("rho", 2, 0.4))
        return grid, psi, phi, f, rho

    def test_log_derivative(self, samples):
        _, psi, *_ = samples
        got = gauge.log_derivative(psi)
        want = [gauge.log_derivative(p).values for p in members(psi)]
        assert got.sample_axes == 1
        assert np.array_equal(got.values, want)

    def test_gauge_product(self, samples):
        _, psi, phi, *_ = samples
        psis, phis = members(psi), members(phi)
        prod = gauge.gauge_product(psi, phi)
        loop = [gauge.gauge_product(p, q) for p, q in zip(psis, phis)]
        assert np.array_equal(prod.u, [g.u for g in loop])
        assert np.array_equal(prod.du, [g.du for g in loop])

    def test_v_action(self, samples):
        _, psi, _, f, _ = samples
        psis, fs = members(psi), members(f)
        assert np.array_equal(gauge.v_action(psi, f).values,
                              [gauge.v_action(p, g).values
                               for p, g in zip(psis, fs)])
        # one gauge field acting on a stacked set broadcasts
        assert np.array_equal(gauge.v_action(psis[0], f).values,
                              [gauge.v_action(psis[0], g).values for g in fs])

    def test_cocycle_residual(self, samples):
        _, psi, phi, _, rho = samples
        got = gauge.cocycle_residual(psi, phi, rho)
        assert np.array_equal(got, [gauge.cocycle_residual(p, q, r)
                                    for p, q, r in zip(members(psi),
                                                       members(phi), rho)])

    def test_sets_on_mixed_grids_rejected(self, samples):
        grid, psi, *_ = samples
        other = build_grid("circle", 12, radius=1.0)
        with pytest.raises(GridError):
            gauge.gauge_product(psi, gauge_identity(other))


class TestAgainstContractions:
    """The written-out 2x2 and 3x3 kernels of the gauge layer against their
    contraction forms (`helpers`), on stacked samples in d = 1 and d = 2."""

    @pytest.fixture(params=["circle", "torus"])
    def samples(self, request):
        grid = (build_grid("circle", 32, radius=1.0)
                if request.param == "circle"
                else build_grid("torus", 8, radius=1.0))
        local = np.random.default_rng(32)
        psi = random_gauge_field(grid, local, modes=2, count=3)
        phi = random_gauge_field(grid, local, modes=2, count=3)
        f = random_one_form(grid, local, modes=2, count=3)
        return psi, phi, f

    def test_gauge_product(self, samples):
        psi, phi, _ = samples
        got = gauge.gauge_product(psi, phi)
        du = (product_oracle(psi.du, phi.u[..., None, :, :])
              + product_oracle(psi.u[..., None, :, :], phi.du))
        assert np.max(np.abs(got.u - psi.u @ phi.u)) <= 1e-15
        assert np.max(np.abs(got.du - du)) <= 1e-14 * np.max(np.abs(du))

    def test_log_derivative(self, samples):
        psi, _, _ = samples
        ui = np.conj(np.swapaxes(psi.u, -1, -2))
        want = from_matrix_oracle(product_oracle(psi.du, ui[..., None, :, :]))
        got = gauge.log_derivative(psi).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_v_action_on_both_ranks(self, samples):
        psi, _, f = samples
        r = rotation_oracle(psi.u)
        scalar = Field(f.grid, 0, f.values[..., 0, :], algebra=True)
        for field in (f, scalar):
            want = rotate_oracle(r, field)
            got = gauge.v_action(psi, field).values
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestVPrime:
    def test_zero_field(self, circle32, rng):
        zero = gauge.AlgebraValuedField.constant(circle32, (0, 0, 0))
        f = random_one_form(circle32, rng)
        assert np.all(gauge.v_prime(zero, f).values == 0)

    def test_kills_parallel_leg(self, circle32):
        # constant Psi and f with algebra leg along Psi: ad kills it
        psi = gauge.AlgebraValuedField.constant(circle32, (0.3, -0.6, 0.9))
        vals = np.zeros((32, 1, 3), dtype=complex)
        vals[:, 0, :] = np.array([0.3, -0.6, 0.9]) * (1.0 + 0.5j)
        f = Field(circle32, 1, vals, algebra=True)
        assert np.max(np.abs(gauge.v_prime(psi, f).values)) <= 1e-15

    def test_series_matches_pointwise_action(self, circle32, rng):
        psi = random_algebra_field(circle32, rng, amplitude=1.0)
        f = random_one_form(circle32, rng, normalized=True)
        for t in (0.3, 1.0):
            series = gauge.exp_series_action(psi, t, f)
            direct = gauge.v_action_of_exp(psi, t, f)
            assert norm(series - direct) <= 1e-10

    def test_bound_constant_stable_under_refinement(self, rng):
        # |V'(Psi) f|'_m <= C |f|'_m with C stable across grids
        consts = []
        for n in (24, 48):
            g = build_grid("circle", n, radius=1.0)
            w = WeightField.constant(g, 2.0)
            local = np.random.default_rng(6)
            psi = random_algebra_field(g, local, amplitude=1.0)
            fs = random_one_form(g, local, normalized=True, count=30)
            consts.append(gauge.v_prime_bound_constant(psi, fs, 2, w))
        assert max(consts) / min(consts) <= 2.0


@pytest.fixture(scope="module")
def setup():
    g = build_grid("circle", 32, radius=1.0)
    rho = rho_field(g, "cosine", 0.3, 1)
    w = WeightField.constant(g, 2.0, rho)
    dec = conjugated_operator(
        assemble_h(g, WeightField.constant(g, 2.0)), rho) \
        .eigendecomposition()
    rng = np.random.default_rng(77)
    psi = random_algebra_field(g, rng, amplitude=1.0)
    fs = random_one_form(g, rng, normalized=True, count=15)
    return g, w, dec, psi, fs


class TestRegularity:
    def test_zero_generator_gives_zero_error(self, setup):
        g, w, dec, _, fs = setup
        zero = gauge.AlgebraValuedField.constant(g, (0, 0, 0))
        rep = gauge.regularity_check(zero, fs, (1e-1, 1e-3), 1.0, 1.0, 1, w, dec)
        assert max(rep.errors) == 0.0
        assert np.isnan(rep.slope)  # no rate to fit, so the gate fails

    def test_linear_rate(self, setup):
        g, w, dec, psi, fs = setup
        rep = gauge.regularity_check(psi, fs, (1e-1, 1e-2, 1e-3, 1e-4),
                                     1.0, 1.0, 1, w, dec)
        assert abs(rep.slope - 1.0) <= 0.05
        # error at each t stays under t e^C |f|'_m with the measured constant
        assert max(rep.bound_margins) <= 1.0

    def test_linear_rate_on_torus(self):
        torus = build_grid("torus", 10, radius=1.0)
        rho = rho_field(torus, "cosine", 0.2, 1)
        w = WeightField.constant(torus, 2.0, rho)
        dec = conjugated_operator(
            assemble_h(torus, WeightField.constant(torus, 2.0)),
            rho).eigendecomposition()
        rng = np.random.default_rng(13)
        psi = random_algebra_field(torus, rng, 2, 0.8)
        fs = random_one_form(torus, rng, modes=2, normalized=True, count=8)
        rep = gauge.regularity_check(psi, fs, (1e-1, 1e-2, 1e-3),
                                     1.0, 1.0, 1, w, dec)
        assert abs(rep.slope - 1.0) <= 0.05
        assert max(rep.bound_margins) <= 1.0

    def test_shared_rotation_matches_per_field_action(self, setup):
        g, w, dec, psi, fs = setup
        t_list = (1e-1, 1e-2, 1e-3, 1e-4)
        rep = gauge.regularity_check(psi, fs, t_list, 1.0, 0.5, 1, w, dec)
        errors, margins = loop_regularity(psi, fs, t_list, 1.0, 0.5, 1, w, dec,
                                          rep.bound_constant)
        assert np.array_equal(rep.errors, errors)
        assert np.array_equal(rep.bound_margins, margins)


def loop_regularity(field, fs, t_list, p, q, m, weight, dec, c_hat):
    """Errors and margins with V(exp(t Psi)) rebuilt for every field and t."""
    den = seminorm_p_batch(fs, (q,), dec)[0]
    den_m = seminorm_prime_batch(fs, (m,), weight)[0]
    drift = [gauge.v_prime(field, f) for f in members(fs)]
    errors, margins = [], []
    for t in t_list:
        quotients = stack(
            [(gauge.v_action_of_exp(field, t, f) - f) * (1.0 / t) - vf
             for f, vf in zip(members(fs), drift)])
        err = seminorm_p_batch(quotients, (p,), dec)[0]
        err_m = seminorm_prime_batch(quotients, (m,), weight)[0]
        worst = 0.0
        worst_m = 0.0
        for e, d, e_m, d_m in zip(err, den, err_m, den_m):
            if d > 0:
                worst = max(worst, e / d)
            if d_m > 0:
                worst_m = max(worst_m, e_m / (t * np.exp(c_hat) * d_m))
        errors.append(float(worst))
        margins.append(float(worst_m))
    return errors, margins


@pytest.fixture(scope="module")
def interval_setup():
    g = build_grid("interval", 160, halfwidth=8.0)
    w = WeightField.quadratic(g, 1.0)
    dec = assemble_h(g, w).eigendecomposition()
    return g, dec


class TestCutoffs:
    def test_sup_gradients_n_independent(self, interval_setup):
        g, _ = interval_setup
        stages = gauge.cutoff_sequence(g, 6, 1.0, 1.0)
        sups = {s.gradient_sup for s in stages}
        assert sups == {2.0}

    def test_pointwise_convergence_to_one(self, interval_setup):
        g, _ = interval_setup
        stages = gauge.cutoff_sequence(g, 8, 1.0, 1.0)
        assert np.all(stages[-1].values == 1.0)
        fixed_node = g.node_count // 3
        vals = [s.values[fixed_node] for s in stages]
        assert np.all(np.diff(vals) >= 0)

    def test_decay_for_constant_generator(self, interval_setup):
        g, dec = interval_setup
        psi = gauge.AlgebraValuedField.constant(g, (0.8, -0.5, 0.3))
        stages = gauge.cutoff_sequence(g, 8, 1.0, 1.0)
        gauss = np.zeros((g.node_count, 1, 3), dtype=complex)
        gauss[:, 0, 0] = np.exp(-g.nodes[:, 0] ** 2 / 4.0)
        f = Field(g, 1, gauss, algebra=True)
        rep = gauge.cutoff_approximation(psi, stages, stack([f]), 1.0,
                                         dec)
        row = rep.values[0]
        assert row[-1] <= 1e-3 * row[0]
        assert np.all(np.diff(row) <= 1e-12 * row[0])

    def test_decay_with_weight_exponent(self, interval_setup):
        # the weighted scale |.|_{rho,p} shows the same decay to exact zero
        g, _ = interval_setup
        rho = rho_field(g, "bump", 0.4)
        dec = conjugated_operator(
            assemble_h(g, WeightField.quadratic(g, 1.0)),
            rho).eigendecomposition()
        psi = gauge.AlgebraValuedField.constant(g, (0.8, -0.5, 0.3))
        stages = gauge.cutoff_sequence(g, 8, 1.0, 1.0)
        gauss = np.zeros((g.node_count, 1, 3), dtype=complex)
        gauss[:, 0, 0] = np.exp(-g.nodes[:, 0] ** 2 / 4.0)
        f = Field(g, 1, gauss, algebra=True)
        rep = gauge.cutoff_approximation(psi, stages, stack([f]), 1.0,
                                         dec)
        row = rep.values[0]
        assert row[-1] == 0.0
        assert all(b <= a + 1e-12 * row[0] for a, b in zip(row, row[1:]))

    def test_exact_zero_once_support_covered(self, interval_setup):
        g, dec = interval_setup
        psi = gauge.AlgebraValuedField.constant(g, (1.0, 0.0, 0.0))
        stages = gauge.cutoff_sequence(g, 6, 1.0, 1.0)
        bump = np.zeros((g.node_count, 1, 3), dtype=complex)
        bump[:, 0, 1] = bumps(g.nodes, [[0.0]], [2.0], [1.0])[0][0]
        f = Field(g, 1, bump, algebra=True)
        rep = gauge.cutoff_approximation(psi, stages, stack([f]), 1.0,
                                         dec)
        covered = rep.covered_from[0]
        assert covered == 2
        idx = rep.n_list.index(covered)
        assert all(v == 0.0 for v in rep.values[0][idx:])

    def test_batched_rows_match_per_field_seminorm(self, interval_setup):
        g, dec = interval_setup
        psi = gauge.AlgebraValuedField.constant(g, (0.8, -0.5, 0.3))
        stages = gauge.cutoff_sequence(g, 8, 1.0, 1.0)
        rng = np.random.default_rng(41)
        fs = random_one_form(g, rng, modes=3, count=3)
        rep = gauge.cutoff_approximation(psi, stages, fs, 1.0, dec)
        rows = []
        for f in members(fs):
            row = []
            for stage in stages:
                diff = gauge.AlgebraValuedField(
                    g, (1.0 - stage.values)[:, None] * psi.values,
                    np.zeros_like(psi.derivs))
                row.append(seminorm_p(gauge.v_prime(diff, f), 1.0, dec))
            rows.append(row)
        assert np.array_equal(rep.values, rows)

    def test_refusal_on_flagged_domain(self):
        g = build_grid("punctured_square", 8, halfwidth=4.0)
        psi = gauge.AlgebraValuedField.constant(g, (1.0, 0.0, 0.0))
        with pytest.raises(gauge.ConditionCViolation):
            gauge.cutoff_approximation(psi, [], [], 1.0, None)


class TestPuncturedPlane:
    def test_gradient_growth_per_halving(self):
        eps = [1.0 * 0.5 ** i for i in range(6)]
        rep = gauge.punctured_plane_demo(eps)
        assert len(rep.ratios) == 5
        for r in rep.ratios:
            assert r >= 1.9

    def test_baseline_and_plateaus(self):
        rep = gauge.punctured_plane_demo([1.0, 0.5])
        # profile transitions over [eps, 2 eps]; sup |S'| = 2 at the midpoint
        assert rep.gradient_sups[0] == pytest.approx(2.0, rel=1e-3)
        assert rep.inner_zero_ok and rep.outer_one_ok
