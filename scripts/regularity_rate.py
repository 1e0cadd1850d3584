#!/usr/bin/env python3
"""Difference-quotient error of the one-parameter group t -> V(exp(t Psi)).

Prints sup_f |(V(psi_t) f - f)/t - V'(Psi) f|_{rho,p} per t together with the
fitted log-log slope (expected 1.0: the error is linear in t).
"""
import numpy as np

from energyrep.gauge import regularity_check
from energyrep.grid import WeightField, build_grid
from energyrep.operators import assemble_h, conjugated_operator
from energyrep.sampling import random_algebra_field, random_one_form, rho_field


def main():
    grid = build_grid("circle", 32, radius=1.0)
    rho = rho_field(grid, "cosine", 0.3, 1)
    weight = WeightField.constant(grid, 2.0, rho)
    dec = conjugated_operator(
        assemble_h(grid, WeightField.constant(grid, 2.0)),
        rho).eigendecomposition()
    rng = np.random.default_rng(20260809)
    psi = random_algebra_field(grid, rng, 3, 1.0)
    fs = [random_one_form(grid, rng, modes=3, normalized=True)
          for _ in range(20)]
    t_list = tuple(10.0 ** -k for k in range(1, 5))
    rep = regularity_check(psi, fs, t_list, 1.0, 1.0, 1, weight, dec)
    print(f"{'t':>10} {'sup error':>12} {'bound margin':>13}")
    for t, e, m in zip(rep.t_list, rep.errors, rep.bound_margins):
        print(f"{t:>10.1e} {e:>12.4e} {m:>13.4e}")
    print(f"\nfitted slope: {rep.slope:.4f}   measured constant: "
          f"{rep.bound_constant:.4f}")


if __name__ == "__main__":
    main()
