"""opcert benchmark: one workload, closed loop, one operation in flight.

Run from the root of a checkout (opcert is imported from ./src):

    python3 perfbench/run.py --workload dense-catalog --seed 1 \
        --seconds 35 --trace 0

Workloads are listed in workloads.py. The seed draws the recovery elements
of recover-cli; opcert keeps its own default root seed.

With --trace 0 the workload runs in passes over its operation list, as
many as end within --seconds (at least one). Each operation's output is
checked after the pass, outside the timing. The reference kernel of
reference.py is timed before the first operation and after each, and each
operation's wall time is divided by the mean of the two kernel times
around it. On a shared host the same code runs up to about 2x slower for
stretches longer than a run; the division takes that phase out, raw
seconds keep it. The end-to-end metrics are wall_ref, the sum over the
operations of their median relative time (one pass, in kernel runs, unit
"ref"), setup_s and peak_rss_mb. With --trace 1 it runs one untraced pass
and one traced pass, reports the per-layer metrics of the traced pass and
the tracing overhead (traced minus untraced pass wall time), and writes
the spans to perfbench/_out/trace-<workload>.json.

Set-up (import in a fresh interpreter, then the workload's catalog spaces
and closures or space files) is done three times: once in this process,
which keeps the result, and twice in child interpreters; setup_s is the
median.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted and failed count the operations of one pass (every pass
runs the same operations; failed is the largest count over passes). The
line before it is an ungated diagnostics object: run environment, verdict
and margin fingerprint, per-operation latencies of every pass, the median
raw wall and CPU seconds of a pass and of a kernel run, the median and the
largest relative operation time (op_p50_ref, op_max_ref), failures, and
for recover-cli the largest recovery error over 1/t + 1/t^2
(recover_err_ratio).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"
SETUP_CHILDREN = 2
WORKLOAD_NAMES = ("sampled-catalog", "dense-catalog", "recover-cli")


def _child_setups(workdir, workload, env):
    out = []
    for i in range(SETUP_CHILDREN):
        d = os.path.join(workdir, f"setup{i}")
        os.makedirs(d)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "prepare.py"), d, workload],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def run_pass(ops):
    """Run every operation once, timed, with the reference kernel timed
    before the first and after each; (record, [(result, error)])."""
    import reference
    results, walls, cpus, refs = [], [], [], [reference.timed()]
    for op in ops:
        c = time.process_time()
        s = time.perf_counter()
        try:
            results.append((op.call(), None))
        except Exception as exc:  # a failed operation, not a failed run
            results.append((None, f"{type(exc).__name__}: {exc}"))
        walls.append(time.perf_counter() - s)
        cpus.append(time.process_time() - c)
        refs.append(reference.timed())
    record = {"wall_s": sum(walls), "cpu_s": sum(cpus),
              "latencies": walls, "refs": refs,
              # each operation in runs of the kernel timed around it
              "relative": [w / (0.5 * (refs[i] + refs[i + 1]))
                           for i, w in enumerate(walls)]}
    return record, results


def check_pass(ops, results):
    """Check what each operation of a pass returned; [Outcome]."""
    from workloads import Outcome
    outcomes = []
    for op, (result, error) in zip(ops, results):
        out = Outcome()
        if error is not None:
            out.failure = error
        else:
            try:
                op.check(result, out)
            except Exception as exc:  # output no longer has a checked field
                out.problems.append(
                    f"{op.label}: unreadable output ({type(exc).__name__}: "
                    f"{exc})")
        outcomes.append(out)
    return outcomes


def measured_pass(ops):
    record, results = run_pass(ops)
    return record, check_pass(ops, results)


def environment():
    import numpy
    import scipy
    env = {"nproc": os.cpu_count(),
           "python": sys.version.split()[0],
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "blas_threads_requested": int(BLAS_THREADS)}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = None
    env["blas_threads"] = _openblas_threads(numpy)
    return env


def _openblas_threads(numpy):
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "opcert", "__init__.py")):
        print(f"error: no opcert sources under {SRC}", file=sys.stderr)
        return 2
    # fixed before numpy loads, here and in the set-up children
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC

    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        return _run(args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir, env):
    import prepare
    setups = []
    main_timings, ctx = prepare.setup(workdir, args.workload)
    setups.append(main_timings)
    import opcert
    if not os.path.abspath(opcert.__file__).startswith(SRC + os.sep):
        print(f"error: opcert imported from {opcert.__file__}",
              file=sys.stderr)
        return 2
    setups += _child_setups(workdir, args.workload, env)
    setup_s = statistics.median(t["setup_s"] for t in setups)

    import workloads
    ctx["workdir"] = workdir
    ops = workloads.WORKLOADS[args.workload](ctx, args.seed)

    passes = []
    trace_metrics = None
    if args.trace:
        import tracer
        passes.append(measured_pass(ops))
        tr = tracer.Tracer()
        tr.install()
        try:
            record, results = run_pass(ops)
        finally:
            tr.uninstall()
        passes.append((record, check_pass(ops, results)))
        trace_metrics = tr.layer_metrics()
        trace_metrics["trace.overhead_s"] = (
            passes[1][0]["wall_s"] - passes[0][0]["wall_s"], "s")
        os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
        with open(os.path.join(HERE, "_out", f"trace-{args.workload}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "counts": tr.counts(), **tr.dump()}, fh)
    else:
        start = time.perf_counter()
        while True:
            passes.append(measured_pass(ops))
            elapsed = time.perf_counter() - start
            # no pass that would end after --seconds
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = [p[0] for p in passes]
    # each operation's time in reference kernel runs, median over passes
    relative = [statistics.median(r["relative"][i] for r in records)
                for i in range(len(ops))]
    problems = sorted({p for _, outs in passes for o in outs
                       for p in o.problems})
    failed = max(sum(o.failure is not None for o in outs)
                 for _, outs in passes)
    first = passes[0][1]
    ratios = [o.err_ratio for o in first if o.err_ratio is not None]
    diagnostics = {
        "workload": args.workload, "seed": args.seed,
        "environment": environment(),
        "setup": setups,
        "passes": len(records),
        "pass_wall_s": [r["wall_s"] for r in records],
        "ops": {op.label: {"latency_s": [r["latencies"][i] for r in records],
                           "relative": [r["relative"][i] for r in records],
                           "fingerprint": out.fingerprint,
                           "failure": out.failure}
                for i, (op, out) in enumerate(zip(ops, first))},
        # raw seconds follow the host's phase; medians over the passes
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "cpu_s": statistics.median(r["cpu_s"] for r in records),
        "reference_s": statistics.median(x for r in records
                                         for x in r["refs"]),
        "op_p50_ref": statistics.median(relative),
        "op_max_ref": max(relative),
        "problems": problems,
        "failures": sorted({o.failure for _, outs in passes for o in outs
                            if o.failure is not None}),
        "recover_err_ratio": max(ratios) if ratios else None,
    }
    if trace_metrics is not None:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in sorted(trace_metrics.items())}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_ref": {"value": sum(relative), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps(diagnostics))
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
