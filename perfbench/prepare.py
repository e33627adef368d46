"""Benchmark set-up: import opcert, build catalog spaces, emit space files.

``setup(workdir, workload)`` is what one set-up costs a user: importing
opcert in a fresh interpreter, then building the catalog spaces the
workload uses with their envelope-exact closures, or writing the space
files its CLI requests read. Run as a script it does the same in its own
interpreter and prints its timings as one JSON line:

    python3 perfbench/prepare.py WORKDIR WORKLOAD
"""

from __future__ import annotations

import json
import os
import sys
import time

# span{I, S} with S = E12 + E21 is the hermitian part of m2-sym3; its
# positives a I + b S (a >= |b|) are generated by I + S and I - S, so this
# cone is exactly the positive cone and the norm-order unit check passes.
SYM3_CONE = [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0]]

# catalog entries whose spaces and closures, and whose space files, each
# workload reads
NEEDS = {
    "sampled-catalog": (("circle-1zzbar", "circle-1z", "two-circles"), ()),
    "dense-catalog": (("m2-full", "m2-upper", "m2-sym3"), ()),
    "recover-cli": ((), ("m2-full", "m2-sym3", "circle-1zzbar")),
}


def setup(workdir, workload):
    """(timings, context) for one set-up writing its files under workdir."""
    t0 = time.perf_counter()
    import opcert  # noqa: F401  (the import is part of what is timed)
    from opcert.funcspace import catalog_closure, catalog_entry
    from opcert.serialize import SpaceFile
    t1 = time.perf_counter()
    with_closures, with_files = NEEDS[workload]
    spaces, closures, files = {}, {}, {}
    for name in with_closures + with_files:
        spaces[name] = catalog_entry(name).min_space()
    for name in with_closures:
        closures[name] = catalog_closure(name)
    for name in with_files:
        text = SpaceFile.from_space(catalog_entry(name).build()).dumps()
        files[name] = _write(workdir, f"{name}.json", text)
    if with_files:
        cone = SpaceFile.from_space(catalog_entry("m2-sym3").build(),
                                    cone=[[complex(v) for v in row]
                                          for row in SYM3_CONE])
        files["m2-sym3+cone"] = _write(workdir, "m2-sym3-cone.json",
                                       cone.dumps())
    t2 = time.perf_counter()
    timings = {"import_s": t1 - t0, "build_s": t2 - t1, "setup_s": t2 - t0}
    return timings, {"spaces": spaces, "closures": closures, "files": files}


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


if __name__ == "__main__":
    timings, _ = setup(sys.argv[1], sys.argv[2])
    print(json.dumps(timings))
