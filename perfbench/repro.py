"""Check that two traced runs of a workload count exactly the same work.

Kernel calls, solver iterations and fallback counts are deterministic; only
timings may differ. Run from the root of a checkout:

    python3 perfbench/repro.py --workload dense-catalog --seed 1

Prints the counts that differ (none when reproducible) and exits 1 if any do.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_counts(workload, seed):
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", "1", "--trace", "1"],
                   check=True, stdout=subprocess.DEVNULL, timeout=600)
    path = os.path.join(HERE, "_out", f"trace-{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["counts"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    differ = {k: (first.get(k), second.get(k))
              for k in sorted(set(first) | set(second))
              if first.get(k) != second.get(k)}
    print(json.dumps({"workload": args.workload, "counts": len(first),
                      "differ": differ}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
