"""Per-layer tracing of opcert from outside the package.

The tracer wraps public functions of opcert's modules and records a span
(name, start, end, parent) for every call. Functions are bound across the
package with ``from .x import y``, so a wrapper replaces the function object
under every name that refers to it in every loaded ``opcert`` module, not
only in the defining one. Class attributes (methods, classmethods) are
patched on the class.

The hot leaves (kernels, grid norms, gradients) are called hundreds of
thousands of times per search, so they keep one count and time total per
(parent span, name) instead of a span each.

Every target is optional: a function that no longer exists is skipped, and
a result that lost a field (``SolveResult.fd_calls``, the ``smooth`` flag of
``grid_value_and_grad``) leaves the metrics built from it absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import NamedTuple


def _resolve(owner, path):
    """(holder, attribute name, raw attribute) for a dotted path, or None."""
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    name = parts[-1]
    raw = owner.__dict__.get(name) if isinstance(owner, type) else \
        getattr(owner, name, None)
    if raw is None:
        return None
    return owner, name, raw


class Tracer:
    """Spans and counters for one traced pass; install() patches opcert,
    uninstall() restores every original binding."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.hot = {}            # (parent index, name) -> [calls, total_s, self_s]
        self.counters = {}       # "<name>.<quantity>" -> number
        self.self_s = {}         # name -> self seconds
        self.calls = {}          # name -> calls
        self.missing = []        # targets not found in this opcert
        self._stack = [[-1, 0.0]]  # [span index or -1 for hot, child seconds]
        self._patches = []       # (holder, attribute, original raw value)

    # -- patching ------------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "opcert" or n.startswith("opcert.")) and m]
        for span, mod_name, path, hot, _, observe in TARGETS:
            try:
                mod = importlib.import_module(f"opcert.{mod_name}")
            except ImportError:
                self.missing.append(span)
                continue
            found = _resolve(mod, path)
            if found is None:
                self.missing.append(span)
                continue
            holder, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(span, raw.__func__, hot, observe))
                self._patch(holder, attr, raw, wrapped)
                continue
            wrapped = self._wrap(span, raw, hot, observe)
            if isinstance(holder, type):
                self._patch(holder, attr, raw, wrapped)
                continue
            # every module that bound the same function object by import
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is raw:
                        self._patch(m, name, raw, wrapped)

    def _patch(self, holder, attr, raw, wrapped):
        self._patches.append((holder, attr, raw))
        setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, raw in reversed(self._patches):
            setattr(holder, attr, raw)
        self._patches.clear()

    def _wrap(self, span, fn, hot, observe):
        stack = self._stack
        spans = self.spans
        hot_table = self.hot
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            parent_span = parent[0] if parent[0] >= 0 else _nearest(stack)
            if hot:
                frame = [-1, 0.0]
            else:
                frame = [len(spans), 0.0]
                spans.append([span, 0.0, 0.0, parent_span])
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                parent[1] += duration
                own = duration - frame[1]
                if hot:
                    key = (parent_span, span)
                    row = hot_table.get(key)
                    if row is None:
                        hot_table[key] = [1, duration, own]
                    else:
                        row[0] += 1
                        row[1] += duration
                        row[2] += own
                else:
                    rec = spans[frame[0]]
                    rec[1], rec[2] = t0, t1
                    self.calls[span] = self.calls.get(span, 0) + 1
                    self.self_s[span] = self.self_s.get(span, 0.0) + own
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    # -- results -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics; names follow <module>.<function>.<quantity>."""
        calls = dict(self.calls)
        self_s = dict(self.self_s)
        for (_, name), (n, _, own) in self.hot.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
        out = {}
        for target in TARGETS:
            name = target.span
            if name in self.missing:
                continue
            for q in target.report:
                key, unit = f"{name}.{q}", QUANTITY_UNITS[q]
                if q == "calls":
                    out[key] = (calls.get(name, 0), unit)
                elif q == "self_s":
                    out[key] = (self_s.get(name, 0.0), unit)
                elif q.endswith("_ratio"):
                    # absent once the result stops carrying what is counted
                    counter = f"{name}.{q[:-len('_ratio')]}"
                    if counter in self.counters:
                        out[key] = (_ratio(self.counters[counter],
                                           calls.get(name, 0)), unit)
                else:
                    out[key] = (self.counters.get(key, 0), unit)
        solver_spans = [t.span for t in TARGETS if t.observe is _observe_solve]
        if all(s not in self.missing for s in solver_spans):
            out.update(self._solver_metrics(
                self_s, solver_spans,
                calls.get("blocks.grid_value_and_grad", 0)))
        return out

    def _solver_metrics(self, self_s, solver_spans, grads):
        c = self.counters
        solves = c.get("solver.solves", 0)
        iterations = c.get("solver.iterations", 0)
        out = {
            "solver.solves": (solves, "count"),
            "solver.iterations": (iterations, "count"),
            "solver.converged_ratio": (
                _ratio(c.get("solver.converged", 0), solves), "ratio"),
            "solver.target_hit_ratio": (
                _ratio(c.get("solver.target_hits", 0), solves), "ratio"),
            "solver.self_s": (sum(self_s.get(s, 0.0) for s in solver_spans),
                              "s"),
        }
        # absent once SolveResult stops carrying fd_calls
        if c.get("solver.fd_results", 0) == solves:
            fd = c.get("solver.fd_calls", 0)
            out["solver.fd_calls"] = (fd, "count")
            # fallbacks per gradient call
            out["solver.fd_share"] = (_ratio(fd, grads), "ratio")
        return out

    def counts(self):
        """Every deterministic count of the pass, keyed for comparison."""
        out = {k: v for k, v in self.counters.items()}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        for (parent, name), (n, _, _) in sorted(self.hot.items()):
            parent_name = self.spans[parent][0] if parent >= 0 else "-"
            key = f"{name}.calls@{parent_name}"
            out[key] = out.get(key, 0) + n
        return dict(sorted(out.items()))

    def dump(self):
        """Spans and aggregated hot leaves as plain JSON-ready data."""
        return {
            "spans": self.spans,
            "hot": [[parent, name, n, total, own]
                    for (parent, name), (n, total, own) in sorted(
                        self.hot.items())],
            "counters": self.counters,
            "missing": self.missing,
        }


def _nearest(stack):
    for frame in reversed(stack):
        if frame[0] >= 0:
            return frame[0]
    return -1


def _ratio(num, den):
    return num / den if den else 0.0


# -- observers: counters read from arguments and results ----------------------

def _observe_kernel(tracer, args, result):
    a = args[0]
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) < 2:
        return
    matrices = 1
    for n in shape[:-2]:
        matrices *= n
    tracer.count("matcore.batched_spectral_norm.matrices", matrices)
    # computed from array sizes: complex128 input plus float64 output
    tracer.count("matcore.batched_spectral_norm.bytes",
                 16 * matrices * shape[-2] * shape[-1] + 8 * matrices)


def _observe_grad(tracer, args, result):
    if isinstance(result, tuple) and len(result) >= 3:
        tracer.count("blocks.grid_value_and_grad.nonsmooth",
                     0 if result[2] else 1)


def _observe_solve(tracer, args, result):
    tracer.count("solver.solves")
    tracer.count("solver.iterations", getattr(result, "iterations", 0))
    tracer.count("solver.converged", int(bool(getattr(result, "converged",
                                                      False))))
    tracer.count("solver.target_hits",
                 int(bool(getattr(result, "reached_target", False))))
    fd = getattr(result, "fd_calls", None)
    if fd is not None:
        tracer.count("solver.fd_results")
        tracer.count("solver.fd_calls", fd)


def _observe_report(tracer, args, result):
    if isinstance(result, str):
        tracer.count("serialize.dumps_report.bytes",
                     len(result.encode("utf-8")))


class Target(NamedTuple):
    """One traced function and what is reported for it."""
    span: str             # span name, <module>.<function>
    module: str           # opcert submodule that defines it
    path: str             # attribute path in that module
    hot: bool = False     # aggregate per (parent span, name), no span each
    report: tuple = ()    # reported quantities, see QUANTITY_UNITS
    observe: object = None  # observer(tracer, args, result) or None


# units of the reported quantities: calls and self_s come from the spans,
# "<c>_ratio" is counter <c> per call, any other quantity is a counter
QUANTITY_UNITS = {"calls": "count", "self_s": "s", "matrices": "count",
                  "bytes": "bytes", "nonsmooth_ratio": "ratio"}

TARGETS = (
    Target("matcore.batched_spectral_norm", "matcore", "batched_spectral_norm",
           True, ("calls", "matrices", "bytes", "self_s"), _observe_kernel),
    Target("matcore.spectral_norm", "matcore", "spectral_norm", True,
           ("calls", "self_s")),
    Target("matcore.top_singular_triple", "matcore", "top_singular_triple",
           True, ("calls", "self_s")),
    Target("opspace.grid_norm", "opspace", "ConcreteOpSpace.grid_norm", True,
           ("calls", "self_s")),
    Target("blocks.grid_value_and_grad", "blocks", "grid_value_and_grad", True,
           ("calls", "nonsmooth_ratio", "self_s"), _observe_grad),
    # reported together as solver.*, see _solver_metrics
    Target("solver.minimize_over_ball", "solver", "minimize_over_ball",
           observe=_observe_solve),
    Target("solver.maximize_over_sphere", "solver", "maximize_over_sphere",
           observe=_observe_solve),
    Target("sysdetect.find_partner", "sysdetect", "find_partner",
           report=("calls", "self_s")),
    Target("sysdetect.detect_operator_system", "sysdetect",
           "detect_operator_system", report=("self_s",)),
    Target("sysdetect.recover_involution", "sysdetect", "recover_involution",
           report=("calls", "self_s")),
    Target("cstar.recover_product", "cstar", "recover_product",
           report=("calls", "self_s")),
    Target("cstar.detect_cstar", "cstar", "detect_cstar", report=("self_s",)),
    Target("cstar.unitary_span_check", "cstar", "unitary_span_check",
           report=("self_s",)),
    Target("hermit.delta_span", "hermit", "delta_span", report=("self_s",)),
    Target("certify.certify_unitary", "certify", "certify_unitary",
           report=("calls", "self_s")),
    Target("tro.generate_tro", "tro", "generate_tro",
           report=("calls", "self_s")),
    Target("funcspace.scalar_unitary_check", "funcspace",
           "scalar_unitary_check", report=("self_s",)),
    Target("funcspace.g_hermitian_solve", "funcspace", "g_hermitian_solve",
           report=("self_s",)),
    Target("serialize.SpaceFile.loads", "serialize", "SpaceFile.loads",
           report=("calls", "self_s")),
    Target("serialize.dumps_report", "serialize", "dumps_report",
           report=("calls", "bytes", "self_s"), observe=_observe_report),
    Target("cli.main", "cli", "main", report=("calls", "self_s")),
)
