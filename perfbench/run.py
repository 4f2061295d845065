#!/usr/bin/env python3
"""Benchmark of madelung-maxent: four seeded closed-loop workloads, one client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  Workloads (see BENCHMARK.json): ``sweep``, ``invert``, ``fields``
and ``cli``.  A run first times ``SETUP_REPS`` fresh interpreters that import
the package and solve once (``setup_s``, see ``setup_seconds``), warms up, then
runs passes of seeded operations until ``--seconds`` is spent.  Every
operation goes through the workload's correctness gate, outside the timing,
and is timed in units of a reference computation run alongside it (see
``reference_seconds``).  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics of the traced ones plus the tracing overhead.  The last
stdout line is the JSON result; the lines before it list every metric with
its unit, the failure counts and the environment.  Results and the spans of
the first traced pass are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("sweep", "invert", "fields", "cli")
THREAD_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_REPS = 5
IMPORT_REPS = 3
REFERENCE_EVERY_S = 0.1  # operation time between two timings of the reference
SETUP_REFERENCE_REPS = 8  # reference timings summed around each set-up interpreter
# fixed scale from reference units to seconds: about the median
# reference_seconds(SUBPROCESS_REFERENCE) on the 2-CPU Xeon host the benchmark was built on
NOMINAL_REFERENCE_S = 3.6e-3
SETUP_SNIPPET = ("import madelung_maxent as mm; "
                 "mm.solve_radial(mm.SolveRequest(params=mm.make_params(1.0, 1.0, 1.0)))")


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def fresh_interpreter_seconds():
    """Fresh interpreter until the import plus one warm-up solve returns."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_seconds():
    """(set-up seconds at the nominal host speed, raw seconds), medians of SETUP_REPS.

    Each fresh interpreter's time is divided by the mean of the summed
    reference timings just before and after it, then multiplied by
    SETUP_REFERENCE_REPS * NOMINAL_REFERENCE_S.  The host's speed swings
    within seconds, and the reference follows it (correlation ~0.8 with the
    raw set-up time), so the scaled value varies less between runs.
    """
    def reference():
        return sum(reference_seconds(SUBPROCESS_REFERENCE) for _ in range(SETUP_REFERENCE_REPS))

    scaled, raw = [], []
    before = reference()
    for _ in range(SETUP_REPS):
        seconds = fresh_interpreter_seconds()
        after = reference()
        raw.append(seconds)
        scaled.append(seconds / (0.5 * (before + after))
                      * SETUP_REFERENCE_REPS * NOMINAL_REFERENCE_S)
        before = after
    return statistics.median(scaled), statistics.median(raw)


def import_seconds():
    """(package, scipy.interpolate + scipy.ndimage) cumulative import time, -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import madelung_maxent"],
                          env=child_env(), check=True, capture_output=True, text=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    scipy_s = sum(cumulative.get(m, 0.0) for m in ("scipy.interpolate", "scipy.ndimage"))
    return cumulative["madelung_maxent"], scipy_s


def environment():
    import numpy
    import scipy

    from madelung_maxent import kernels

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "NUMBA_ENABLED": kernels.NUMBA_ENABLED,
        "MADELUNG_MAXENT_NUMBA": os.environ.get("MADELUNG_MAXENT_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


@functools.cache
def _reference_grid():
    import numpy as np

    n = 160
    y, x = np.mgrid[0:n, 0:n] - 0.5 * n
    c, s = math.cos(0.3), math.sin(0.3)
    coords = np.array([c * x - s * y, s * x + c * y]) + 0.5 * n
    return np.random.default_rng(0).random((n, n)), coords


def _kernel_like():
    """A scalar adaptive-step loop that stores into an array, like the integration kernel."""
    import numpy as np

    out, x, v, h = np.empty(700), 0.1, 0.3, 1e-3
    for i in range(700):
        k1, k1v = v, 0.35 * v * v + 0.3 * x - 2.0 / (i + 1.0) * v
        tx, tv = x + 0.2 * h * k1, v + 0.2 * h * k1v
        k2, k2v = tv, 0.35 * tv * tv + 0.3 * tx - 2.0 / (i + 1.2) * tv
        tx, tv = x + h * (0.075 * k1 + 0.225 * k2), v + h * (0.075 * k1v + 0.225 * k2v)
        k3, k3v = tv, 0.35 * tv * tv + 0.3 * tx - 2.0 / (i + 1.3) * tv
        x5 = x + h * (0.3 * k1 + 0.4 * k2 + 0.3 * k3)
        v5 = v + h * (0.3 * k1v + 0.4 * k2v + 0.3 * k3v)
        err = h * (1e-3 * k1 - 2e-3 * k2 + 1e-3 * k3)
        if math.isfinite(x5) and math.isfinite(err) and err != 0.0:
            e = math.sqrt(0.5 * (err / (1e-9 + 1e-6 * max(abs(x), abs(x5)))) ** 2)
            h = min(max(h * min(5.0, max(0.2, 0.9 * e ** -0.2)), 1e-4), 1e-2)
        x, v = x5, 0.999 * v5
        out[i] = x


def _loops():
    """A plain Python loop and whole-array numpy work."""
    import numpy as np

    x, v = 0.1, 0.3
    for i in range(4000):
        x += 1e-3 * (0.5 * x * v + 0.25 * x - v / (i + 1.0))
        v = 0.999 * v + 1e-4
    a = np.linspace(0.0, 1.0, 1 << 16)
    for _ in range(2):
        a = np.sort(np.exp(-a) * np.sqrt(a + 1.0))


def _grid():
    """Spline interpolation and finite differences on a grid, like the 2D field work."""
    import numpy as np
    from scipy import ndimage

    grid, coords = _reference_grid()
    np.gradient(ndimage.map_coordinates(grid, coords, order=3, mode="constant"))


# In-process work follows all three parts best.  Fresh interpreters (set-up and
# the cli commands) spend their time starting up and importing, and follow the
# plain loops best: in ten-run sets the three-part reference doubled their spread.
IN_PROCESS_REFERENCE = (_kernel_like, _loops, _grid)
SUBPROCESS_REFERENCE = (_loops,)


def reference_seconds(parts=IN_PROCESS_REFERENCE):
    """Median time of three runs of a fixed computation that never touches the package.

    The same work on a shared host runs up to ~20% slower for minutes at a
    time.  The reference slows with it, so operation time divided by the
    reference time taken around it cancels most of that drift.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for part in parts:
            part()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(workload, ops, reference, tracer=None):
    """Time each operation and gate it afterwards, untimed and untraced.

    The reference is timed before the first operation and again after every
    REFERENCE_EVERY_S of operation time; each operation is paired with the
    mean of the two reference timings around it.  ``reference`` is the
    tuple of reference parts.  Returns (latencies,
    statuses, references), one entry per operation.
    """
    latencies, statuses, refs = [], [], []
    last_ref, pending = reference_seconds(reference), 0
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            outcome = workload.run(op)
        except Exception as exc:  # the gate classifies every error the program raises
            outcome = exc
        latencies.append(time.perf_counter() - t0)
        pending += 1
        if sum(latencies[-pending:]) >= REFERENCE_EVERY_S or i == len(ops) - 1:
            ref = reference_seconds(reference)
            refs += [0.5 * (last_ref + ref)] * pending
            last_ref, pending = ref, 0
        with tracer.suspended() if tracer else contextlib.nullcontext():
            try:
                statuses.append(workload.check(op, outcome))
            except (OSError, LookupError, ValueError, ArithmeticError) as exc:
                statuses.append(f"failed: unreadable output: {exc!r}")  # e.g. a missing CSV
    return latencies, statuses, refs


class Pass(NamedTuple):
    traced: bool
    ops: list
    latencies: list  # seconds, one per operation
    statuses: list  # gate verdicts
    refs: list  # reference seconds around each operation

    @property
    def seconds(self):
        return sum(self.latencies)


def make_workload(name, workdir, trace):
    import workloads

    if name == "cli":
        expected = json.loads((HERE / "baseline.json").read_text())["csv_sha256"]
        return workloads.Cli(workdir, SRC, expected, in_process=trace)
    return {"sweep": workloads.Sweep, "invert": workloads.Invert,
            "fields": workloads.Fields}[name]()


def measure(name, seed, seconds, trace, n_ops=None):
    """One benchmark run; returns (metrics, detail)."""
    import tracing
    import workloads
    from madelung_maxent import solver
    from madelung_maxent.model import make_params

    setup = None if trace else setup_seconds()
    imports = [import_seconds() for _ in range(IMPORT_REPS)] if trace else []
    workdir = STATE / "work" / f"{name}-{os.getpid()}"
    workload = make_workload(name, workdir, trace)
    reference = SUBPROCESS_REFERENCE if name == "cli" else IN_PROCESS_REFERENCE
    solver.solve_radial(solver.SolveRequest(params=make_params(1.0, 1.0, 1.0)))  # warm-up

    passes, layers, first_spans = [], [], None
    start = time.perf_counter()
    try:
        while True:
            traced = trace and len(passes) % 4 in (1, 2)  # U T T U: balanced order
            ops = workload.inputs(seed, len(passes), n_ops)
            if traced:
                with tracing.Tracer() as tracer:
                    latencies, statuses, refs = run_pass(workload, ops, reference, tracer)
                layers.append(tracing.layer_metrics(tracer.spans,
                                                    getattr(workload, "bytes_written", None)))
                first_spans = first_spans or tracer.spans
            else:
                latencies, statuses, refs = run_pass(workload, ops, reference)
            passes.append(Pass(traced, ops, latencies, statuses, refs))
            typical = statistics.median(p.seconds for p in passes)
            if len(passes) >= (2 if trace else 1) and \
                    time.perf_counter() - start + typical > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [t for p in passes for t in p.latencies]
    statuses = [s for p in passes for s in p.statuses]
    failures = [(op, s) for p in passes for op, s in zip(p.ops, p.statuses)
                if s not in ("ok", workloads.KNOWN_DEFECT)]
    known = statuses.count(workloads.KNOWN_DEFECT)
    failed_per_pass = [sum(s != "ok" for s in p.statuses) for p in passes]
    detail = {
        "workload": name, "seed": seed, "trace": int(trace),
        "passes": len(passes), "ops_per_pass": len(passes[0].ops),
        "attempted": len(statuses), "gate_failed": len(failures), "known_defect": known,
        "failed_frac": (len(failures) + known) / len(statuses),
        "failed_frac_base": f"(gate failures + known-defect errors) / {len(statuses)} "
                            f"ops in {len(passes)} passes",
        "failed_per_pass": failed_per_pass,
        "failures": [f"{json.dumps(op)}: {s}" for op, s in failures[:10]],
    }
    if trace:
        traced_s = [p.seconds for p in passes if p.traced]
        # pass 0 also warms caches and lazy imports; leave it out when it can be spared
        untraced_s = [p.seconds for p in passes[1:] if not p.traced] or [passes[0].seconds]
        metrics = {key: (statistics.median(m[key] for m in layers)
                         if key.endswith(("_s", "us_per_step")) or "_s." in key
                         else layers[0][key]) for key in layers[0]}
        metrics["setup.import_s"] = statistics.median(i[0] for i in imports)
        metrics["setup.scipy_import_s"] = statistics.median(i[1] for i in imports)
        metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
        STATE.joinpath("spans").mkdir(parents=True, exist_ok=True)
        STATE.joinpath("spans", f"{name}-seed{seed}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "count", "tag"],
             "spans": first_spans}))
        return metrics, detail

    if name == "cli":
        rss_kb = workload.child_rss_kb
        for cmd, metric in workload.CMD_METRICS.items():
            times = [t for p in passes for op, t in zip(p.ops, p.latencies)
                     if op["argv"][0] == cmd]
            if times:
                detail[metric] = statistics.median(times)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if name == "sweep":
        detail["op_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[-1]
    detail["run_s"] = statistics.median(p.seconds for p in passes)
    detail["op_p50_ms"] = 1e3 * statistics.median(latencies)
    detail["reference_ms"] = 1e3 * statistics.median(r for p in passes for r in p.refs)
    detail["setup_raw_s"] = setup[1]
    metrics = {
        "setup_s": setup[0],
        "run_ref": statistics.median(sum(t / r for t, r in zip(p.latencies, p.refs))
                                     for p in passes),
        "op_p50_ref": statistics.median(t / r for p in passes
                                        for t, r in zip(p.latencies, p.refs)),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="operations per pass (default: the workload's own)")
    args = parser.parse_args(argv)

    if not (SRC / "madelung_maxent" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # pin BLAS/OpenMP threads before numpy loads, here and in every child
    os.environ.update(THREAD_PINS)
    sys.path[:0] = [str(SRC), str(HERE)]
    import madelung_maxent

    if not Path(madelung_maxent.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {madelung_maxent.__file__}, not the checkout",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.ops)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": detail["gate_failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["gate_failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    env = environment()
    STATE.joinpath("results").mkdir(parents=True, exist_ok=True)
    STATE.joinpath("results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({"environment": env, "detail": detail, "result": result},
                               indent=1) + "\n")
    for k in sorted(metrics):
        print(f"{k:32s} {metrics[k]:>16.6g} {units[k]}")
    print("detail: " + json.dumps(detail))
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
