#!/usr/bin/env python3
"""Circle spectrum vs grid size: discrete dispersion against the continuum.

Prints, per N, the deviation of the assembled eigenvalues from the exact
discrete dispersion (2/h^2)(1 - cos kh) + 2 (machine precision) and the
relative deviation from the continuum k^2 + 2 (second-order deficit
~ k^4 h^2 / 12): at single modes, at the moving mode k = N/8, and as the
maximum over the fixed window |k| <= 8 together with its observed order
log2(dev_{N/2} / dev_N) against the previous row.  The last two columns are
the numbers acceptance criterion 5b checks (N = 64, 128, 256).
"""
import numpy as np

from energyrep.grid import WeightField, build_grid
from energyrep.operators import assemble_h
from energyrep.suites import circle_dispersion, circle_modes

WINDOW = 8  # fixed continuum window |k| <= 8, i.e. k <= N/8 at N = 64


def main():
    print(f"{'N':>5} {'formula dev':>12} {'k=1 rel':>10} {'k=N/18 rel':>11} "
          f"{'k=N/8 rel':>10} {'|k|<=8 max':>11} {'order':>6}")
    previous = None
    for n in (32, 64, 128, 256):
        grid = build_grid("circle", n)
        op = assemble_h(grid, WeightField.constant(grid, 2.0))
        lam = np.sort(op.eigendecomposition().eigenvalues)
        formula = np.sort(circle_dispersion(circle_modes(n), n))
        dev = np.max(np.abs(lam - formula))

        def rel(k):
            idx = 0 if k == 0 else 2 * k - 1
            return abs(lam[idx] - (k ** 2 + 2.0)) / (k ** 2 + 2.0)

        window = max(rel(k) for k in range(WINDOW + 1))
        order = "" if previous is None else f"{np.log2(previous / window):.3f}"
        previous = window
        print(f"{n:>5} {dev:>12.3e} {rel(1):>10.2e} {rel(max(1, n // 18)):>11.2e} "
              f"{rel(n // 8):>10.2e} {window:>11.2e} {order:>6}")
    print("\nThe k = N/8 column sits at the second-order dispersion floor: "
          "kh = pi/4 for every N, so (kh)^2/12 ~ 4.9e-2 and refining N does "
          "not move it.")
    print("The |k| <= 8 column is fixed-k convergence: it quarters with each "
          "doubling, and the envelope k^4 h^2 / 12 puts it below 1e-2 from "
          "N >= 143, first reached at N = 256 among these rows.")


if __name__ == "__main__":
    main()
