"""The benchmark harness's imports, wraps and correctness gates all hold on the package.

``perfbench/tracing.py`` wraps package functions at the module attributes their
callers look them up by (``solver.integrate``, ``analysis.solve_radial``,
``cli.solve_cartesian_factor``, ...), and ``perfbench/workloads.py`` imports
and calls package names directly, so a rename or removal breaks the benchmark.
Each workload's ``check`` is the gate the benchmark applies to every
operation; a first few operations of seed 11 must pass it here too.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import tracing
        import workloads

        yield tracing, workloads
    finally:
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)


def test_benchmark_imports_and_wraps_resolve(perfbench):
    tracing, _ = perfbench
    tracer = tracing.Tracer()
    try:
        tracer.__enter__()  # looks up every wrapped name
    finally:
        tracer.__exit__(None, None, None)  # and puts each back


def _statuses(workload, n_ops):
    """Each of the first n_ops pass-0 operations of seed 11, run and gated as the benchmark does."""
    statuses = []
    for op in workload.inputs(11, 0)[:n_ops]:
        try:
            outcome = workload.run(op)
        except Exception as exc:  # the gate classifies every error the program raises
            outcome = exc
        statuses.append(workload.check(op, outcome))
    return statuses


def test_benchmark_gates_pass(perfbench):
    _, workloads = perfbench
    sweep = workloads.Sweep()
    n_golden = len(sweep.golden_ops())  # pass 0 opens with the golden operations
    assert n_golden == 9
    assert _statuses(sweep, n_golden) == ["ok"] * n_golden
    assert _statuses(workloads.Invert(), 1) == ["ok"]
    assert _statuses(workloads.Fields(), 1) == ["ok"]
