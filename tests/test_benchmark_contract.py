"""The per-layer metrics of perfbench's tracer cover the benchmark contract.

perfbench/run.py prints its result with every per-layer metric that
BENCHMARK.json names; a metric whose source left the package (a traced
function, a result field) or that a workload no longer reaches (a traced
function none of its operations call) drops out of that line. These tests
trace a small run, and one pass of each catalog workload's operation list,
and check the names against the contract. They read perfbench's modules
and change none of them.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from opcert.blocks import SlotProblem
from opcert.certify import certify_unitary
from opcert.funcspace import catalog_space
from opcert.solver import SolverConfig
from opcert.sysdetect import find_partner

ROOT = Path(__file__).resolve().parents[1]


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_reports_every_contract_metric():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in contract["per_layer"]}
    space = catalog_space("m2-upper")
    config = SolverConfig(starts=2, max_iters=20)
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        certify_unitary(space, max_level=1, config=config)
        find_partner(space, x=np.array([0, 1.0]), config=config, starts=2)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert set(metrics) | {"trace.overhead_s"} == want
    assert metrics["solver.fd_calls"][0] == 0
    assert metrics["solver.fd_share"][0] == 0.0
    json.dumps({k: v for k, (v, _) in metrics.items()}, allow_nan=False)


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the failed operations a workload keeps on purpose: the CLI passes no
# envelope-exact closure to check cstar, which exits 3
KEPT_FAILURES = {"recover-cli": {"check cstar m2-full"}}


@pytest.mark.parametrize("workload",
                         ["sampled-catalog", "dense-catalog", "recover-cli"])
def test_a_traced_catalog_pass_reports_every_contract_metric(workload,
                                                             tmp_path,
                                                             monkeypatch):
    # the operation list perfbench/run.py times, built and traced the way
    # its --trace 1 pass does, in this process; no search of the catalog
    # workloads runs long enough to take an eps-descent step, so their
    # verdicts and margins are those of plain subgradient runs
    descents = []
    descent_step = SlotProblem.descent_step
    monkeypatch.setattr(SlotProblem, "descent_step", lambda self, c:
                        descents.append(1) or descent_step(self, c))
    _, ctx = _perfbench_module("prepare").setup(str(tmp_path), workload)
    ctx["workdir"] = str(tmp_path)
    workloads = _perfbench_module("workloads")
    ops = workloads.WORKLOADS[workload](ctx, 3)
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        results = [op.call() for op in ops]
    finally:
        tracer.uninstall()
    failed = set()
    for op, result in zip(ops, results):
        out = workloads.Outcome()
        op.check(result, out)
        assert not out.problems, op.label
        if out.failure is not None:
            failed.add(op.label)
    assert failed == KEPT_FAILURES.get(workload, set())
    assert bool(descents) == (workload == "recover-cli")
    metrics = tracer.layer_metrics()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) | {"trace.overhead_s"} == \
        {m["name"] for m in contract["per_layer"]}
    json.dumps({k: v for k, (v, _) in metrics.items()}, allow_nan=False)
