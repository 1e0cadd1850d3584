"""Check suites behind the CLI subcommands.

Each suite builds its inputs from the experiment config and a dedicated
seeded stream, adds its checks to a Report and writes CSV tables; run_suite
supplies the report and stream, and writes the report's JSON.  A check is
named by its gate alone: the report header carries the suite, seed and
config digest it was computed from.
`all` is literally the concatenation of the individual suites; per-suite
streams make the reports independent of execution order.
"""
from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import fock, gauge, hermite, operators, seminorms
from .config import ExperimentConfig
from .grid import SHAPES, WEIGHT_KINDS, Field, build_grid, field_to_csv, norm
from .profiles import bumps
from .report import Report, check, refusal, write_csv, write_json
from .sampling import (random_algebra_field, random_covector_testset,
                       random_gauge_field, random_one_form, random_tuples,
                       rho_field, suite_rng)

SUITE_STREAMS = {
    "spectrum": 1,
    "ladders": 2,
    "seminorms": 103,  # not 3: the stream the seminorms reports are made with
    "gauge": 4,
    "fock": 5,
    "conformal": 6,
}


# Fixed domains beside the configured one, each probed for seminorm
# equivalence: W as (kind, value), the probe's bump (center, width) per unit
# radius or halfwidth, and the probe's stream.  Call sites give the sizes.
ReferenceDomain = namedtuple("ReferenceDomain", "weight bump stream")
REFERENCE_DOMAINS = {
    "circle": ReferenceDomain(("constant", 2.0), (np.pi, 2.5), 21),
    "interval": ReferenceDomain(("quadratic", 1.0), (0.0, 0.5), 22),
}


def _reference_weight(grid, rho=None):
    kind, value = REFERENCE_DOMAINS[grid.shape_name].weight
    return WEIGHT_KINDS[kind](grid, value, rho)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

# the lowest levels 2k + 2 of the discretized oscillator that the spectrum
# suite compares (config.py derives its load rule from this)
OSCILLATOR_LEVELS = 11


def circle_modes(n: int) -> np.ndarray:
    """Fourier mode multiplicities on n nodes: 0, +-1, ..., (n/2 if even)."""
    return np.concatenate([[0], np.repeat(np.arange(1, (n + 1) // 2), 2),
                           np.repeat(n // 2, 1 - n % 2)])


def circle_dispersion(k, n: int) -> np.ndarray:
    """(2/h^2)(1 - cos kh) + 2, h = 2 pi / n: the exact eigenvalue of H at
    Fourier mode k on the reference circle of n nodes (unit radius, W = 2)."""
    h = 2.0 * np.pi / n
    return (2.0 / h ** 2) * (1.0 - np.cos(k * h)) + 2.0


def suite_spectrum(cfg: ExperimentConfig, rng, rep: Report,
                   outdir: Path) -> None:
    grid = build_grid(cfg.domain_shape, cfg.domain_nodes,
                      radius=cfg.domain_radius, halfwidth=cfg.domain_halfwidth)
    rho = rho_field(grid, cfg.rho_profile, cfg.rho_amplitude, cfg.rho_mode,
                    rng)
    # assemble_h reads W alone; the chain gate below reads its rho
    weight = WEIGHT_KINDS[cfg.potential_kind](grid, cfg.potential_value, rho)
    h_op = operators.assemble_h(grid, weight)
    rep.add(check("h_symmetry", h_op.symmetry_residual(), 1e-12))

    dec = h_op.eigendecomposition()
    rep.add(check("eigen_residual", dec.eigen_residual(h_op), 1e-8))
    rep.add(check("gram_identity", dec.gram_residual(), 1e-10))
    rep.add(check("lambda1_exceeds_1",
                  float(dec.eigenvalues[0]) - 1.0, 1e-9, comparator=">="))
    write_csv(outdir, "spectrum_domain",
              ["index", "eigenvalue"],
              [(i + 1, float(v)) for i, v in enumerate(dec.eigenvalues)])

    # reference: periodic dispersion is exact for the link-built Laplacian
    nc = cfg.spectrum_circle_nodes
    circle = build_grid("circle", nc)
    lam = operators.assemble_h(circle, _reference_weight(circle)).eigenvalues()
    formula = np.sort(circle_dispersion(circle_modes(nc), nc))
    rep.add(check("circle_dispersion_formula",
                  float(np.max(np.abs(lam - formula))), 1e-9))
    # second-order stencil: continuum deficit is k^4 h^2 / 12 + O(h^4)
    h, ks = 2.0 * np.pi / nc, np.arange(1, nc // 8 + 1)
    worst = float(np.max(np.abs(circle_dispersion(ks, nc) - (ks ** 2 + 2.0))
                         / (ks ** 4 * h ** 2 / 12.0)))
    rep.add(check("circle_continuum_taylor_bound", worst, 1.05,
                  detail="deficit vs k^2+2 within the k^4 h^2/12 envelope"))

    osc_grid = build_grid("interval", cfg.spectrum_oscillator_nodes,
                          halfwidth=cfg.spectrum_oscillator_halfwidth)
    h_osc = operators.assemble_h(osc_grid, _reference_weight(osc_grid))
    lam_osc = h_osc.eigenvalues()[:OSCILLATOR_LEVELS]
    target = 2.0 * np.arange(OSCILLATOR_LEVELS) + 2.0
    rep.add(check("oscillator_spectrum",
                  float(np.max(np.abs(lam_osc - target) / target)), 5e-3))
    write_csv(outdir, "spectrum_oscillator", ["index", "eigenvalue", "target"],
              [(i, float(v), float(t)) for i, (v, t) in
               enumerate(zip(lam_osc, target))])

    hs = operators.hilbert_schmidt_test(dec, cfg.hs_p)
    rep.extras["hilbert_schmidt"] = hs.to_dict()
    write_json(outdir, "hilbert_schmidt", rep.extras["hilbert_schmidt"])
    rep.add(check("hs_verdict_converging",
                  1.0 if hs.verdict == "converging" else 0.0, 1.0,
                  comparator=">=", detail=f"verdict={hs.verdict}"))

    h_rho = operators.conjugated_operator(h_op, rho)
    rep.add(check("conjugated_adjoint_identity",
                  operators.adjoint_identity_residual(grid, h_rho.rho), 1e-12))
    rep.add(check("conjugated_symmetry", h_rho.symmetry_residual(), 1e-12))
    # not derived from dec: the Weyl bound of H_rho against H and two trace
    # moments of H_rho against dec, with no solve
    measured, tolerance, detail = operators.spectrum_match(
        h_rho, dec.eigenvalues, 1e-8)
    rep.add(check("conjugated_spectrum_match", measured, tolerance,
                  detail=detail))
    rep.add(check("conjugated_eigenpair_map",
                  operators.eigenpair_map_residual(h_rho, dec), 1e-8))

    # multiplicative chain for the twisted derivative norms, m <= 3
    fs = random_one_form(grid, rng, modes=3, amplitude=1.0, count=5)
    worst_chain = float(np.max(seminorms.chain_identity_residual(fs, 3,
                                                                 weight)))
    rep.add(check("twisted_chain_identity", worst_chain, 1e-12))


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------

# The words whose bounds and normal-ordered forms the ladders suite checks.
# word†word has length 2m, so ladders.cutoff must leave guarded states for
# twice the longest word (config.py derives its load rule from this).
LADDER_WORDS = (
    ((0, True),),
    ((0, False), (1, True)),
    ((0, True), (0, False), (1, True)),
    ((1, False), (0, True), (1, True), (0, False)),
)


def _guarded_sample(ladder, rng, margin: int, count: int) -> np.ndarray:
    """count random unit states below the guard, as the columns of one array.

    One (count, k) block holds the draws that count one-state draws of k
    values would make, in the same order.
    """
    mask = ladder.guard_mask(margin)
    v = np.zeros((count, ladder.size))
    v[:, mask] = rng.standard_normal((count, int(np.sum(mask))))
    nrm = hermite.column_norms(v.T)
    v /= np.where(nrm > 0, nrm, 1.0)[:, None]
    return v.T


def suite_ladders(cfg: ExperimentConfig, rng, rep: Report,
                  outdir: Path) -> None:
    ladder = hermite.build_ladders(2, cfg.ladders_cutoff)
    rep.add(check("ccr_below_guard", hermite.ccr_residual(ladder), 1e-14))
    rep.add(check("oscillator_identity",
                  hermite.oscillator_identity_residual(ladder), 1e-13))
    vac = ladder.vacuum()
    lowered = hermite.word_apply(ladder, ((0, False),), vac)
    rep.add(check("vacuum_annihilated", float(np.linalg.norm(lowered)), 0.0))

    res = hermite.canonical_chain_check(
        ladder, _guarded_sample(ladder, rng, 4, cfg.ladders_samples))
    violations = int(np.sum(res.lhs > res.rhs * (1.0 + 1e-13)))
    worst_ratio = float(np.max(res.ratio))
    rep.add(check("worked_chain_violations", float(violations),
                  0.0, detail=f"max ratio {worst_ratio:.6f} over "
                              f"{cfg.ladders_samples} samples"))

    rows = []
    worst_word = 0.0
    expansion_resid = 0.0
    for word in LADDER_WORDS:
        m = len(word)
        c = hermite.word_bound_constant(word, 2)
        res = hermite.commutation_bound_check(
            ladder, word, _guarded_sample(ladder, rng, m, 50), constant=c)
        word_max = float(np.max(res.ratio))
        worst_word = max(worst_word, word_max)
        rows.append(["".join(("R" if r else "L") + str(j) for j, r in word),
                     m, c, word_max])
        expansion = hermite.normal_order(
            hermite.word_dagger(word) + word, 2)
        brute = hermite.word_matrix(ladder, hermite.word_dagger(word) + word)
        ordered = hermite.expansion_matrix(ladder, expansion)
        mask = ladder.guard_mask(2 * m)
        scale = max(float(np.max(np.abs(brute))), 1.0)
        expansion_resid = max(expansion_resid, float(
            np.max(np.abs((brute - ordered)[:, mask]))) / scale)
    rep.add(check("word_bounds_hold", worst_word, 1.0))
    rep.add(check("normal_order_vs_brute_force", expansion_resid, 1e-12))
    write_csv(outdir, "ladder_words", ["word", "m", "constant", "last_ratio"],
              rows)


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------

def _probe_data(domain: str, cfg: ExperimentConfig, seed_stream):
    center, width = REFERENCE_DOMAINS[domain].bump
    data = []
    for n_size in cfg.seminorms_nodes:
        # same draws per N; interval bumps scale with the outermost node
        rng = suite_rng(cfg.seed, seed_stream)
        grid = build_grid(domain, n_size,
                          halfwidth=cfg.seminorms_interval_halfwidth)
        weight = _reference_weight(grid)
        dec = operators.assemble_h(grid, weight).eigendecomposition()
        fields = random_covector_testset(grid, rng, cfg.seminorms_functions)
        # fixed bump and low eigenvectors round out the random members
        bump = bumps(grid.nodes, [[center * grid.extent]], [width * grid.extent],
                     [1.0], gradients=False)[0][:, :, None]
        eig = seminorms.eigenvector_covector(dec, range(3)).values
        data.append((n_size, weight, dec, fields.copy_with(
            np.concatenate([fields.values, bump, eig]))))
    return data


# the eigenvectors whose spectral seminorm the seminorms suite checks on the
# largest circle grid (config.py derives its load rule from this)
EIGENVECTOR_MODES = (0, 3, 7)


def suite_seminorms(cfg: ExperimentConfig, rng, rep: Report,
                    outdir: Path) -> None:
    rows = []
    probes = {}
    for domain, reference in REFERENCE_DOMAINS.items():
        data = probes[domain] = _probe_data(domain, cfg, reference.stream)
        report = seminorms.equivalence_probe(domain, data, cfg.seminorms_m_list,
                                             cfg.seminorms_p_grid)
        rep.extras[f"probe_{domain}"] = report.to_dict()
        for m in cfg.seminorms_m_list:
            if m > 2:
                continue
            best = min(report.stability_ratio(m, p) for p in cfg.seminorms_p_grid)
            rep.add(check(f"{domain}_constants_stable_m{m}", best,
                          seminorms.STABILITY_FACTOR,
                          detail=f"selected p={report.selected[m]}"))
        for (m, p, n_size), (fwd, bwd) in sorted(report.constants.items()):
            rows.append([domain, m, p, n_size, fwd, bwd])
    write_csv(outdir, "seminorm_constants",
              ["domain", "m", "p", "N", "C_prime_to_spec", "C_spec_to_prime"],
              rows)

    # spectral-seminorm structure on the largest circle grid, as probed
    _, weight, dec, _ = max(probes["circle"], key=lambda entry: entry[0])
    grid = weight.grid
    fs = random_one_form(grid, rng, modes=3, count=10)
    vals = seminorms.seminorm_p_batch(fs, (0.0, 0.5, 1.5), dec)
    mono_defect = max(0.0, float(np.max(vals[:-1] - vals[1:])))
    got = seminorms.seminorm_p_batch(
        seminorms.eigenvector_covector(dec, EIGENVECTOR_MODES), (1.25,), dec)[0]
    want = np.array([dec.eigenvalues[k] ** 1.25 for k in EIGENVECTOR_MODES])
    eig_defect = max(0.0, float(np.max(np.abs(got - want) / want)))
    rep.add(check("p_scale_monotone", mono_defect, 1e-12))
    rep.add(check("eigenvector_p_norm", eig_defect, 1e-10))

    # |f|_{rho,1} = |H_rho f|_{rho,0}, H_rho through its stencil, against
    # the spectral |e^{rho/2} f|_1 of H
    rho = rho_field(grid, "cosine", 0.4, 1)
    h_rho = operators.conjugated_operator(
        operators.assemble_h(grid, weight), rho)
    fs = random_one_form(grid, rng, modes=3, count=5)
    cols = np.moveaxis(fs.values, 1, 0)  # node-major
    hf = h_rho.apply(cols.reshape(grid.node_count, -1)).reshape(cols.shape)
    lhs = norm(fs.copy_with(np.moveaxis(hf, 0, 1)), rho)
    rhs = seminorms.seminorm_p_batch(fs.scale_by_nodes(np.exp(rho / 2.0)),
                                     (1.0,), dec)[0]
    intertwine = max(0.0, float(np.max(np.abs(lhs - rhs)
                                       / np.maximum(lhs, rhs))))
    rep.add(check("weighted_scale_intertwines", intertwine, 1e-10))


# ---------------------------------------------------------------------------
# gauge
# ---------------------------------------------------------------------------

def suite_gauge(cfg: ExperimentConfig, rng, rep: Report,
                outdir: Path) -> None:
    if not SHAPES[cfg.domain_shape].condition_c:
        rep.add(refusal("suite_refused_condition_c",
                        "domain violates condition (c); cutoff machinery is "
                        "unavailable, see the punctured growth table"))
        _punctured_checks(cfg, rep, outdir)
        return

    grid = build_grid("circle", cfg.gauge_nodes)
    rho = rho_field(grid, "cosine", cfg.rho_amplitude, cfg.rho_mode)

    gauge_kind = ("gauge", cfg.gauge_modes, cfg.gauge_amplitude)
    psi, phi, f = random_tuples(grid, rng, cfg.gauge_pairs, gauge_kind,
                                gauge_kind, ("unit_one_form", 3, 1.0))
    beta = gauge.log_derivative(psi)
    nf = norm(f, rho)
    iso = np.abs(norm(gauge.v_action(psi, f), rho) - nf) / nf
    both = gauge.v_action(gauge.gauge_product(psi, phi), f)
    nested = gauge.v_action(psi, gauge.v_action(phi, f))
    rep.add(check("cocycle_identity",
                  np.max(gauge.cocycle_residual(psi, phi, rho)), 1e-10))
    rep.add(check("cocycle_real_valued", gauge.reality_defect(beta), 1e-10))
    rep.add(check("v_isometry", np.max(iso), 1e-12))
    rep.add(check("v_homomorphism", np.max(norm(both - nested, rho)), 1e-12))
    field_to_csv(beta.copy_with(beta.values[0]), outdir, "gauge_beta_sample")

    psi_field = random_algebra_field(grid, rng, cfg.gauge_modes, 1.0)
    f = random_one_form(grid, rng, modes=3, normalized=True)
    series = gauge.exp_series_action(psi_field, 1.0, f)
    direct = gauge.v_action_of_exp(psi_field, 1.0, f)
    rep.add(check("exp_series_matches_action",
                  norm(series - direct, rho), 1e-10))

    weight = _reference_weight(grid, rho)
    dec = operators.conjugated_operator(
        operators.assemble_h(grid, weight), rho).eigendecomposition()
    test_set = random_one_form(grid, rng, modes=3, normalized=True,
                               count=cfg.regularity_functions)
    reg = gauge.regularity_check(psi_field, test_set, cfg.regularity_t_list,
                                 cfg.regularity_p, cfg.regularity_q,
                                 cfg.regularity_m, weight, dec)
    rep.extras["regularity"] = {
        "t": list(reg.t_list), "error": list(reg.errors),
        "slope": reg.slope, "constant": reg.bound_constant,
        "bound_margins": list(reg.bound_margins),
    }
    rep.add(check("regularity_slope", abs(reg.slope - 1.0), 0.05,
                  detail=f"slope={reg.slope:.4f}"))
    rep.add(check("regularity_series_bound",
                  float(max(reg.bound_margins)), 1.0))
    write_csv(outdir, "gauge_regularity", ["t", "sup_error"],
              list(zip(reg.t_list, reg.errors)))

    _cutoff_checks(cfg, rep, outdir)
    _punctured_checks(cfg, rep, outdir)


def _cutoff_checks(cfg: ExperimentConfig, rep: Report, outdir: Path) -> None:
    grid = build_grid("interval", cfg.cutoff_nodes, halfwidth=cfg.cutoff_halfwidth)
    dec = operators.assemble_h(grid, _reference_weight(grid)).eigendecomposition()
    psi = gauge.AlgebraValuedField.constant(grid, (0.8, -0.5, 0.3))
    stages = gauge.cutoff_sequence(grid, cfg.cutoff_count, cfg.cutoff_step,
                                   cfg.cutoff_collar)

    vals = np.zeros((2, grid.node_count, 1, 3), dtype=complex)
    vals[0, :, 0, 0] = np.exp(-grid.nodes[:, 0] ** 2 / 4.0)
    vals[0, :, 0, 1] = 0.5 * np.exp(-grid.nodes[:, 0] ** 2 / 4.5)
    vals[1, :, 0, 1] = bumps(grid.nodes, [[0.0]], [2.0], [1.0],
                             gradients=False)[0][0]
    f_set = Field(grid, 1, vals, algebra=True)

    # an interval meets condition (c), so cutoff_approximation does not refuse
    decay = gauge.cutoff_approximation(psi, stages, f_set, cfg.cutoff_p, dec)
    rows, covered = decay.values, decay.covered_from[:, None]
    worst_monotone = max(0.0, float(np.max(
        np.diff(rows) / np.maximum(rows[:, :1], 1e-300))))
    # every stage from the first that covers the support (-1: none does)
    when_covered = (covered > 0) & (np.array(decay.n_list) >= covered)
    # a field zero on the grid reads 0 at every stage: it has no decay
    live = rows[:, 0] > 0
    if live.any():
        rep.add(check("cutoff_decay_tail",
                      float(np.max(rows[live, -1] / rows[live, 0])), 1e-3))
    else:
        rep.add(refusal("cutoff_decay_tail",
                        "every test field is zero on the cutoff grid"))
    rep.add(check("cutoff_decay_monotone", worst_monotone, 1e-12))
    if when_covered.any():
        rep.add(check("cutoff_exact_zero_when_covered", float(np.max(
            rows, initial=0.0, where=when_covered)), 0.0))
    else:
        rep.add(refusal("cutoff_exact_zero_when_covered",
                        "no stage covers a test field's support"))
    rep.extras["cutoff_sup_gradients"] = [s.gradient_sup for s in stages]
    write_csv(outdir, "gauge_cutoff_decay",
              ["n"] + [f"f{i}" for i in range(len(rows))],
              [(nn, *col) for nn, col in zip(decay.n_list, rows.T.tolist())])


def _punctured_checks(cfg: ExperimentConfig, rep: Report, outdir: Path) -> None:
    eps_list = [cfg.punctured_eps0 * 0.5 ** i
                for i in range(cfg.punctured_halvings + 1)]
    growth = gauge.punctured_plane_demo(eps_list)
    rep.add(check("punctured_gradient_growth",
                  float(min(growth.ratios)), 1.9, comparator=">=",
                  detail=f"sup at eps0: {growth.gradient_sups[0]:.6f}"))
    rep.add(check("punctured_profile_plateaus",
                  0.0 if (growth.inner_zero_ok and growth.outer_one_ok) else 1.0,
                  0.0))
    write_csv(outdir, "gauge_punctured_growth", ["eps", "sup_gradient"],
              list(zip(growth.eps_list, growth.gradient_sups)))


# ---------------------------------------------------------------------------
# fock
# ---------------------------------------------------------------------------

def suite_fock(cfg: ExperimentConfig, rng, rep: Report,
               outdir: Path) -> None:
    grid = build_grid("circle", cfg.fock_nodes)

    rho_kind, gauge_kind = ("rho", 2, 0.4), ("gauge", cfg.gauge_modes, 1.0)
    unit_form = ("unit_one_form", 3, 1.0)
    rho, psi, f, g = random_tuples(grid, rng, cfg.fock_tuples, rho_kind,
                                   gauge_kind, unit_form, unit_form)
    unitary = fock.kernel_discrepancy(psi, f, g, rho)
    rep.add(check("u_unitary_kernel", np.max(unitary), 1e-10))

    rho, psi, phi, f_set = random_tuples(grid, rng, cfg.fock_pairs, rho_kind,
                                         gauge_kind, gauge_kind, unit_form)
    res = fock.homomorphism_check(psi, phi, f_set, rho)
    rep.add(check("u_homomorphism_coefficient",
                  abs(res.coeff_ratio - 1.0), 1e-9))
    rep.add(check("u_homomorphism_parameter", res.param_residual, 1e-10))

    vac = fock.CoherentVector(1.0, Field.zero(grid, 1, algebra=True))
    rep.add(check("vacuum_kernel",
                  abs(fock.coherent_inner(vac, vac) - 1.0), 0.0))
    psi = random_gauge_field(grid, rng, cfg.gauge_modes, 1.0)
    moved = fock.apply_u(psi, vac, None)
    rep.add(check("translated_vacuum_norm", abs(moved.norm() - 1.0), 1e-12))

    worst_trunc = 0.0
    bases, others = random_tuples(grid, rng, 10, unit_form, unit_form)
    for base, other in zip(bases.values, others.values):
        f = Field(grid, 1, base * 0.9, algebra=True)
        # sizable overlap, so the tail binds
        g = Field(grid, 1, base * 0.6 + other * 0.4, algebra=True)
        coords = fock.orthonormal_coordinates([f, g])
        tf = fock.TruncatedFockVector.from_coherent(coords[0], 1.0, cfg.fock_cutoff)
        tg = fock.TruncatedFockVector.from_coherent(coords[1], 1.0, cfg.fock_cutoff)
        exact = fock.coherent_inner(fock.CoherentVector(1.0, f),
                                    fock.CoherentVector(1.0, g))
        bound = fock.truncation_tail_bound(norm(f), norm(g), cfg.fock_cutoff)
        ratio = abs(exact - tf.inner(tg)) / bound if bound > 0.0 else math.inf
        worst_trunc = max(worst_trunc, ratio)
    rep.add(check("kernel_vs_truncated_expansion", worst_trunc, 1.0,
                  detail="difference over the factorial tail bound"))


# ---------------------------------------------------------------------------
# conformal
# ---------------------------------------------------------------------------

def suite_conformal(cfg: ExperimentConfig, rng, rep: Report,
                    outdir: Path) -> None:
    torus = build_grid("torus", cfg.conformal_torus_nodes)
    psi2 = random_gauge_field(torus, rng, 2, 0.8)
    f_set = random_one_form(torus, rng, modes=2, normalized=True,
                            count=cfg.conformal_elements)
    g_set = random_one_form(torus, rng, modes=2, normalized=True,
                            count=cfg.conformal_elements)
    rho2 = rho_field(torus, "random", cfg.conformal_rho_amplitude, rng=rng)
    res2 = fock.conformal_check(psi2, rho2, f_set, g_set)
    rep.add(check("dimension2_invariance", res2.max_relative_change, 1e-10))

    zero = fock.conformal_check(psi2, np.zeros(torus.node_count),
                                f_set.copy_with(f_set.values[:2]),
                                g_set.copy_with(g_set.values[:2]))
    rep.add(check("zero_rescale_identity", zero.max_relative_change, 0.0))

    circle = build_grid("circle", cfg.conformal_circle_nodes)
    psi1 = random_gauge_field(circle, rng, 2, 0.8)
    f1 = random_one_form(circle, rng, modes=2, normalized=True,
                         count=cfg.conformal_elements)
    g1 = random_one_form(circle, rng, modes=2, normalized=True,
                         count=cfg.conformal_elements)
    rho1 = np.full(circle.node_count, 1.0)
    res1 = fock.conformal_check(psi1, rho1, f1, g1)
    rep.add(check("dimension1_matches_factor",
                  res1.max_prediction_residual, 1e-8,
                  detail=f"one-particle scale {res1.one_particle_scale:.6f}"))
    rep.extras["dimension1_max_change"] = res1.max_relative_change


SUITES = {
    "spectrum": suite_spectrum,
    "ladders": suite_ladders,
    "seminorms": suite_seminorms,
    "gauge": suite_gauge,
    "fock": suite_fock,
    "conformal": suite_conformal,
}


def run_suite(name: str, cfg: ExperimentConfig, outdir: Path) -> list:
    """Run one suite, or each in turn for "all", and write `<suite>.json`.

    Every suite gets a fresh report and its own seeded stream; the suite
    function only adds checks.
    """
    reports = []
    for suite in (tuple(SUITES) if name == "all" else (name,)):
        rep = Report(suite, cfg.seed, cfg.digest())
        rng = suite_rng(cfg.seed, SUITE_STREAMS[suite])
        SUITES[suite](cfg, rng, rep, outdir)
        rep.write_json(outdir)
        reports.append(rep)
    return reports
