"""The names the benchmark harness imports and wraps all resolve in the package.

``perfbench/tracing.py`` wraps package functions at the module attributes their
callers look them up by (``solver.integrate``, ``analysis.solve_radial``,
``cli.solve_cartesian_factor``, ...), and ``perfbench/workloads.py`` imports
and calls package names directly, so a rename or removal breaks the benchmark.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_and_wraps_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import tracing
        import workloads  # noqa: F401

        tracer = tracing.Tracer()
        try:
            tracer.__enter__()  # looks up every wrapped name
        finally:
            tracer.__exit__(None, None, None)  # and puts each back
    finally:
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)
