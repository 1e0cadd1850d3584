"""Numerical verification lab for the energy representation of a gauge group.

Discretizes flat manifolds, builds the Schrodinger-operator seminorm scales,
and renders every identity, inequality and convergence claim about the
representation U(psi) exp(f) as a quantitative residual check.
"""

__version__ = "0.1.0"
