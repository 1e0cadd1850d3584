"""Numerical verification lab for the energy representation of a gauge group.

Discretizes flat manifolds, builds the Schrodinger-operator seminorm scales,
and renders every identity, inequality and convergence claim about the
representation U(psi) exp(f) as a quantitative residual check.
"""

__version__ = "0.1.0"

from .grid import (Field, GridManifold, GridError, WeightField, build_grid,
                   conformal_rescale, covariant_derivative, field_to_csv,
                   inner_product, norm)
from .su2 import exp_map, rotation_of
from .operators import (DiscreteOperator, SpectralDecomposition,
                        adjoint_identity_residual, assemble_h,
                        conjugated_operator, eigenpair_map_residual,
                        hilbert_schmidt_test)
from .hermite import (HermiteLadder, build_ladders, canonical_chain_check,
                      commutation_bound_check, normal_order,
                      word_bound_constant)
from .seminorms import equivalence_probe, seminorm_p, seminorm_prime
from .gauge import (AlgebraValuedField, ConditionCViolation, CutoffStage,
                    GaugeField, cocycle_residual, cutoff_approximation,
                    cutoff_sequence, gauge_from_algebra, gauge_product,
                    log_derivative, punctured_plane_demo, regularity_check,
                    v_action, v_prime)
from .fock import (CoherentVector, TruncatedFockVector, apply_u,
                   coherent_inner, conformal_check, homomorphism_check,
                   kernel_discrepancy)
from .config import ConfigError, ExperimentConfig, load_config
