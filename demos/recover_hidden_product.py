#!/usr/bin/env python3
"""Reconstruct adjoints and products from norms alone, watching 1/t decay.

Nothing in these computations multiplies matrices out directly: the
recovery solves a feasibility problem whose only ingredient is the norm
of a 2x2 coefficient block at a single large parameter t. The guaranteed
error is 1/t + 1/t^2, so doubling the digits of t roughly doubles the
digits of the answer. The last section shows the failure mode: when the
true product leaves the space, the block norm stays visibly above its
target and the recovery reports an escape instead of a wrong matrix.
"""

import numpy as np

from opcert.cstar import recover_product
from opcert.funcspace import catalog_space
from opcert.matcore import adjoint
from opcert.sysdetect import involution_error_bound, recover_involution


def main():
    space = catalog_space("m2-full")
    rng = np.random.default_rng(2024)
    xc = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    xc /= 1.3 * space.norm(xc)
    true_adj = adjoint(space.embed(xc))

    print("involution recovery on full M2 (true answer: the adjoint)")
    print(f"{'t':>8} {'measured error':>16} {'guaranteed bound':>18}")
    for t in (5.0, 20.0, 100.0, 500.0):
        rec = recover_involution(space, None, xc, t_large=t)
        err = np.linalg.norm(rec.matrix - true_adj, 2)
        print(f"{t:8.0f} {err:16.2e} {involution_error_bound(t):18.2e}")

    print("\nproduct recovery against a rotation (true answer: v y* u)")
    theta = 0.6
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]], dtype=np.complex128)
    vc = space.membership(rot)[0]
    yc = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    yc /= 1.5 * space.norm(yc)
    for t in (10.0, 100.0):
        rec = recover_product(space, space.unit_coeffs(), vc, yc, t=t)
        err = np.linalg.norm(rec.element.matrix - rec.ambient_truth, 2)
        print(f"  t={t:<6.0f} error {err:.2e}  escaped={rec.escaped}")

    print("\nthe same recovery where the product leaves the space")
    upper = catalog_space("m2-upper")   # span of I and E12
    rec = recover_product(upper, [1.0, 0], [1.0, 0], [0, 1.0], t=100.0)
    print(f"  target block norm {rec.target:.4f}, achieved {rec.achieved:.4f},"
          f" certified at least {rec.target + rec.diagnostics['lower']:.4f}"
          f" -> escaped={rec.escaped}")
    print("  the true product E21 is not in the span, and the search's lower"
          " bound on the gap certifies that instead of guessing")


if __name__ == "__main__":
    main()
