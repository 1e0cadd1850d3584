"""Gauge fields, the Maurer-Cartan cocycle, the actions V and V', cutoffs.

Gauge fields carry exact per-node derivative data (built from analytic
profiles through the closed-form differential of the su(2) exponential,
`su2.dexp_batch`), so the cocycle identity
beta(psi phi) = V(psi) beta(phi) + beta(psi) is a machine-precision statement,
uncontaminated by grid differencing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import su2
from .grid import SHAPES, Field, GridManifold, GridError, norm
from .profiles import AnnulusStepProfile, PlateauProfile
from .report import loglog_slope
from .seminorms import seminorm_p_batch, seminorm_prime_batch


class ConditionCViolation(RuntimeError):
    """The domain admits no uniformly-derivative-bounded cutoff sequence."""


@dataclass(frozen=True, eq=False)
class GaugeField:
    """A map into SU(2) with exact differentials at the nodes.

    u has shape (n, 2, 2); du has shape (n, d, 2, 2) and holds the exact
    coordinate derivatives of u; a sample set puts a sample axis first.
    """

    grid: GridManifold
    u: np.ndarray
    du: np.ndarray


@dataclass(frozen=True, eq=False)
class AlgebraValuedField:
    """su(2)-valued function with exact derivatives; a sample set puts a
    sample axis first."""

    grid: GridManifold
    values: np.ndarray  # (n, 3) real
    derivs: np.ndarray  # (n, d, 3) real

    @classmethod
    def constant(cls, grid: GridManifold, coeff) -> "AlgebraValuedField":
        vals = np.tile(np.asarray(coeff, float), (grid.node_count, 1))
        ders = np.zeros((grid.node_count, grid.dimension, 3))
        return cls(grid, vals, ders)


def gauge_from_algebra(field: AlgebraValuedField, t: float = 1.0) -> GaugeField:
    """Pointwise exp(t Psi), with derivatives from the closed-form dexp.

    One `su2.dexp_batch` call covers every sample, node and axis.
    """
    a = su2.to_matrix(t * field.values)[..., None, :, :]  # (..., n, 1, 2, 2)
    aprime = su2.to_matrix(t * field.derivs)               # (..., n, d, 2, 2)
    du = su2.dexp_batch(np.broadcast_to(a, aprime.shape), aprime)
    return GaugeField(field.grid, su2.exp_map(t * field.values), du)


def gauge_product(a: GaugeField, b: GaugeField) -> GaugeField:
    """Pointwise product with exact product-rule derivatives."""
    if not a.grid.compatible_with(b.grid):
        raise GridError("gauge fields live on different grids")
    du = (su2.product(a.du, b.u[..., None, :, :])
          + su2.product(a.u[..., None, :, :], b.du))
    return GaugeField(a.grid, su2.product(a.u, b.u), du)


# ---------------------------------------------------------------------------
# The cocycle beta and the actions V, V'
# ---------------------------------------------------------------------------

def log_derivative(psi: GaugeField) -> Field:
    """beta(psi)(x) = dpsi_x psi(x)^{-1}, expressed on the algebra basis.

    The result is a g-valued one-form; an anti-Hermitian projection residual
    above 1e-10 indicates inconsistent derivative data and raises.
    """
    ui = np.conj(np.swapaxes(psi.u, -1, -2))
    m = su2.product(psi.du, ui[..., None, :, :])
    resid = su2.basis_projection_residual(m)
    if resid > 1e-10:
        raise ValueError(
            f"derivative data inconsistent with a group-valued map "
            f"(projection residual {resid:.3e})")
    coeffs = su2.from_matrix(m)  # (..., n, d, 3), complex, tiny imaginary part
    return Field(psi.grid, 1, coeffs, algebra=True)


def _rotate(r: np.ndarray, f: Field) -> Field:
    """Rotate the algebra leg of f by per-node r, shape (..., n, 3, 3):
    (r v)_a = r_a0 v_0 + r_a1 v_1 + r_a2 v_2, written out per entry."""
    v = f.values
    if f.rank:
        r = r[..., None, :, :]  # the same rotation on every axis j
    return f.copy_with(r[..., 0] * v[..., 0, None]
                       + r[..., 1] * v[..., 1, None]
                       + r[..., 2] * v[..., 2, None])


def v_action(psi: GaugeField, f: Field) -> Field:
    """V(psi) f: pointwise Ad(psi(x)) on the algebra leg."""
    if not psi.grid.compatible_with(f.grid):
        raise GridError("gauge field and one-form live on different grids")
    return _rotate(su2.rotation_of(psi.u), f)


def v_action_of_exp(field: AlgebraValuedField, t: float, f: Field) -> Field:
    """V(exp(t Psi)) f without derivative data (values only)."""
    return _rotate(su2.rotation_of(su2.exp_map(t * field.values)), f)


def v_prime(field: AlgebraValuedField, f: Field) -> Field:
    """V'(Psi) f: pointwise ad(Psi(x)) = bracket with Psi on the algebra leg."""
    psi = field.values
    if f.rank == 0:
        vals = np.cross(psi, f.values)
    else:
        vals = np.cross(psi[:, None, :], f.values)
    return f.copy_with(vals)


def cocycle_residual(psi: GaugeField, phi: GaugeField,
                     rho: np.ndarray | None = None) -> float | np.ndarray:
    """|beta(psi phi) - V(psi) beta(phi) - beta(psi)|_{rho,0}, per sample."""
    lhs = log_derivative(gauge_product(psi, phi))
    rhs = v_action(psi, log_derivative(phi)) + log_derivative(psi)
    return norm(lhs - rhs, rho)


def reality_defect(beta: Field) -> float:
    """Norm of the imaginary part; the cocycle is g-valued, hence real."""
    return float(np.max(np.abs(beta.values.imag))) if beta.values.size else 0.0


# the series of exp_series_action stops at the first term below SERIES_TOL
# in every component, or after SERIES_TERMS terms
SERIES_TOL = 1e-16
SERIES_TERMS = 60


def exp_series_action(field: AlgebraValuedField, t: float, f: Field) -> Field:
    """sum_k (t V'(Psi))^k f / k!, the series form of V(exp(t Psi)) f."""
    acc = f
    term = f
    for k in range(1, SERIES_TERMS):
        term = v_prime(field, term) * (t / k)
        acc = acc + term
        if np.max(np.abs(term.values)) < SERIES_TOL:
            break
    return acc


# ---------------------------------------------------------------------------
# Derived-action bound and the regularity check
# ---------------------------------------------------------------------------

# V' iterates of each test field over which v_prime_bound_constant maximizes
BOUND_ITERATES = 4


def v_prime_bound_constant(field: AlgebraValuedField, test_set: Field, m: int,
                           weight) -> float:
    """Empirical constant C with |V'(Psi) f|'_m <= C |f|'_m over the test set.

    The max runs over the set and BOUND_ITERATES V' iterates of each member,
    so the constant also controls the series terms used by the regularity
    bound.
    """
    chain = [test_set]  # the test set, then its V' iterates
    for _ in range(BOUND_ITERATES):
        chain.append(v_prime(field, chain[-1]))
    values = seminorm_prime_batch(test_set.copy_with(np.concatenate(
        [g.values for g in chain])), (m,), weight)[0].reshape(len(chain), -1)
    return _sup_ratio(values[1:], values[:-1])


def _sup_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """max(0, num / den) over the entries with den > 0."""
    return max(0.0, float(np.max(num / np.where(den > 0, den, np.inf))))


@dataclass(frozen=True)
class RegularityReport:
    t_list: tuple
    errors: tuple          # sup_f |(V(psi_t)f - f)/t - V'(Psi)f|_{rho,p} / |f|_{rho,q}
    slope: float
    bound_constant: float  # measured C(Psi, m)
    bound_margins: tuple   # per t: max_f error'_m / (t e^C |f|'_m); <= 1 expected


def regularity_check(field: AlgebraValuedField, test_set, t_list, p: float,
                     q: float, m: int, weight, decomposition) -> RegularityReport:
    """Difference-quotient convergence of V(exp(t Psi)) toward V'(Psi).

    The sup over the unit |.|_{rho,q} ball is rendered as a max over the
    fixed seeded test set (an under-approximation of the true sup).  Reports
    that sup error per t with a log-log slope fit, plus the series bound
    margin in the weighted-derivative seminorm.
    """
    c_hat = v_prime_bound_constant(field, test_set, m, weight)
    den = seminorm_p_batch(test_set, (q,), decomposition)[0]
    den_m = seminorm_prime_batch(test_set, (m,), weight)[0]
    drift = v_prime(field, test_set)
    errors = []
    margins = []
    for t in t_list:
        quotients = ((v_action_of_exp(field, t, test_set) - test_set)
                     * (1.0 / t) - drift)
        err = seminorm_p_batch(quotients, (p,), decomposition)[0]
        err_m = seminorm_prime_batch(quotients, (m,), weight)[0]
        errors.append(_sup_ratio(err, den))
        margins.append(_sup_ratio(err_m, t * np.exp(c_hat) * den_m))
    # nan for an identically zero error, e.g. Psi = 0
    slope = loglog_slope(t_list, errors)[0]
    return RegularityReport(tuple(t_list), tuple(errors), slope, c_hat,
                            tuple(margins))


# ---------------------------------------------------------------------------
# Cutoff sequences, condition (c), and the punctured-plane counterexample
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CutoffStage:
    index: int
    values: np.ndarray        # per node
    gradient_sup: float       # analytic sup over the collar, n-independent


def cutoff_sequence(grid: GridManifold, count: int, step: float,
                    collar: float) -> list:
    """Nested plateau cutoffs psi_n == 1 on |x| <= n*step, collar of fixed width.

    The fixed collar keeps every derivative bound independent of n, which is
    exactly what condition (c) requires; psi_n -> 1 pointwise as n grows.
    """
    stages = []
    for n in range(1, count + 1):
        prof = PlateauProfile(inner=n * step, collar=collar)
        stages.append(CutoffStage(n, prof.value(grid.nodes),
                                  prof.gradient_sup()))
    return stages


@dataclass(frozen=True, eq=False)
class CutoffDecayReport:
    n_list: tuple
    values: np.ndarray        # (f, n): |V'(Psi - Psi_n) f|_{rho,p}
    covered_from: np.ndarray  # per f: first stage with psi_n == 1 on supp f (or -1)


def cutoff_approximation(field: AlgebraValuedField, stages, f_set: Field,
                         p: float, decomposition) -> CutoffDecayReport:
    """Decay of |V'(Psi - Psi_n) f|_{rho,p} along the cutoff family.

    Psi_n := psi_n Psi.  Refuses on domains flagged as violating condition (c)
    (see punctured_plane_demo for why such domains admit no usable family).
    """
    grid = field.grid
    if not SHAPES[grid.shape_name].condition_c:
        raise ConditionCViolation(
            "domain violates condition (c); no uniformly bounded cutoff "
            "sequence exists (see punctured_plane_demo)")
    count, n_list = len(f_set.values), tuple(s.index for s in stages)
    images = np.concatenate([v_prime(AlgebraValuedField(
        grid, (1.0 - s.values)[:, None] * field.values,
        np.zeros_like(field.derivs)), f_set).values for s in stages])
    values = seminorm_p_batch(f_set.copy_with(images), (p,), decomposition)[0]
    # the first stage with psi_n == 1 on each support; -1 if none has
    supp = np.any(f_set.values.reshape(count, grid.node_count, -1) != 0, axis=2)
    covers = [np.all((s.values == 1.0) | ~supp, axis=1) for s in stages]
    first = np.argmax(covers + [np.ones(count, bool)], axis=0)
    return CutoffDecayReport(n_list, values.reshape(len(stages), count).T,
                             np.array(n_list + (-1,))[first])


@dataclass(frozen=True)
class PuncturedGrowthReport:
    eps_list: tuple
    gradient_sups: tuple
    ratios: tuple  # successive sup ratios under eps halving
    inner_zero_ok: bool
    outer_one_ok: bool


def punctured_plane_demo(eps_list) -> PuncturedGrowthReport:
    """Cutoffs on the punctured plane: vanish on the eps-disk, 1 outside 2 eps.

    Forcing pointwise convergence to 1 pushes the transition annulus into the
    puncture and the gradient sup grows like 1/eps, so condition (c) fails.
    """
    sups = []
    for eps in eps_list:
        prof = AnnulusStepProfile(float(eps))
        sups.append(prof.gradient_sup_dense())
    ratios = tuple(sups[i] / sups[i + 1] if eps_list[i] < eps_list[i + 1]
                   else sups[i + 1] / sups[i] for i in range(len(sups) - 1))
    # structural checks on the first profile at a dense radial sample
    prof = AnnulusStepProfile(float(eps_list[0]))
    r_in = np.linspace(0.0, prof.eps, 101)[:, None] * np.array([[1.0, 0.0]])
    r_out = np.linspace(2.0 * prof.eps, 4.0 * prof.eps, 101)[:, None] * np.array([[1.0, 0.0]])
    inner_ok = bool(np.all(prof.value(r_in) == 0.0))
    outer_ok = bool(np.all(prof.value(r_out) == 1.0))
    return PuncturedGrowthReport(tuple(float(e) for e in eps_list), tuple(sups),
                                 ratios, inner_ok, outer_ok)
