#!/usr/bin/env python3
"""Walk through unitarity certificates on three small matrix spaces.

The defect measured here is (1 + |x|^2) - |[u x]|^2 maximized over unit
spheres of coefficient grids: zero exactly when multiplying by the
designated element preserves the amplified norms. The three spaces show
the three possible outcomes: a clean pass, a clean fail with a concrete
witness, and a one-sided element that passes as a coisometry only.
"""

import numpy as np

from opcert.certify import certify_coisometry, certify_isometry, certify_unitary
from opcert.funcspace import catalog_space
from opcert.opspace import make_space


def show(label, report):
    # a direction settled by the concrete bound reports the bound, a
    # searched one its defect per level
    d = report.diagnostics
    if d["upper_route"] == "concrete":
        bound = max(v for k, v in d.items() if k.endswith("_defect_bound"))
        what = f"defect bound {bound:.3e} (every level)"
    else:
        worst = max(v for k, v in d.items() if "_defect_level_" in k)
        what = f"worst defect {worst:.3e}"
    print(f"  {label:<34} {report.verdict:<13} {what}")
    return report


def main():
    print("1. Full M2 with the identity as designated element")
    space = catalog_space("m2-full")
    show("certify_unitary (levels 1-2)", certify_unitary(space, max_level=2))

    print("\n2. Same space, designated element diag(1, 1/2)")
    report = show("certify_unitary (level 1)",
                  certify_unitary(space, [1.0, 0, 0, -0.5], max_level=1))
    grid = report.witness["coeff_grid"]
    print(f"  witness element (norm {space.grid_norm(grid):.3f}):")
    print(np.array_str(space.embed(grid[0, 0]), precision=3,
                       suppress_small=True))
    print("  the small singular direction of the element leaves a gap of"
          " 1 - (1/2)^2 = 0.75")

    print("\n3. The 1x2 row space spanned by [1 0] and [0 1], element [1 0]")
    rows = make_space([np.array([[1.0, 0]]), np.array([[0, 1.0]])],
                      unit=[1.0, 0])
    show("certify_coisometry", certify_coisometry(rows, max_level=2))
    show("certify_isometry", certify_isometry(rows, max_level=1))
    print("  appending [1 0] as a row never changes the norm; stacking it"
          " as a column does, so only one direction certifies")


if __name__ == "__main__":
    main()
