"""In-memory span tracer that wraps the package's public functions from outside.

Each traced function is replaced, for the duration of a ``with Tracer():``
block, at every name its callers look it up by (for example
``kernels.madelung_loop`` and ``analysis.solve_radial``).  A wrapper records
one span per call -- name, start, end, parent span, an optional work count and
an optional tag -- and nothing else, so the package itself is unchanged.
``layer_metrics`` folds the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from madelung_maxent import (analysis, cli, fields, integrator, kernels,
                             quadrature, solver, verify)

LAYERS = ("kernels", "integrator", "solver", "quadrature", "analysis",
          "fields", "verify", "cli")
CLI_COMMANDS = ("solve-radial", "solve-cartesian", "sweep", "limit", "verify")


def _kernel_steps(args, kwargs, result):
    return len(result[0]) - 1  # accepted steps: every node after the start


def _resample_points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["query"]))


def _rotate_points(args, kwargs, result):
    return int(result.u.size)


def _divergence_points(args, kwargs, result):
    profile = args[0]
    h = args[1] if len(args) > 1 else kwargs.get("h", 1e-3)
    r_frac = args[2] if len(args) > 2 else kwargs.get("r_frac", 0.8)
    n = int(r_frac * profile.r_m / h)
    return (2 * n + 1) ** 2


def _suite_checks(args, kwargs, result):
    return len(result)


def _cli_tag(args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    return argv[0]


# (span name, original function, the modules through which its callers --
# the package and this benchmark -- look it up, work count, tag)
_SITES = (
    ("kernels.madelung_loop", kernels.madelung_loop, (kernels,), _kernel_steps, None),
    ("integrator.integrate", integrator.integrate, (solver,), None, None),
    ("solver.solve_radial", solver.solve_radial, (solver, analysis, verify, cli), None, None),
    ("solver.solve_cartesian_factor", solver.solve_cartesian_factor, (solver, verify, cli),
     None, None),
    ("solver.resample", solver.resample, (fields, analysis), _resample_points, None),
    ("quadrature.radial_moments", quadrature.radial_moments, (quadrature,), None, None),
    ("quadrature.axis_normalization", quadrature.axis_normalization, (quadrature,), None, None),
    ("analysis.observables", analysis.observables, (analysis,), None, None),
    ("analysis.divergence_sup", analysis.divergence_sup, (analysis,), _divergence_points, None),
    ("analysis.entropy_stationarity_check", analysis.entropy_stationarity_check, (analysis,),
     None, None),
    ("analysis.invert_beta_for_energy", analysis.invert_beta_for_energy, (analysis,), None, None),
    ("analysis.beta_sweep", analysis.beta_sweep, (analysis,), None, None),
    ("analysis.limit_convergence", analysis.limit_convergence, (analysis,), None, None),
    ("fields.assemble_2d", fields.assemble_2d, (fields,), None, None),
    ("fields.rotate_grid", fields.rotate_grid, (fields,), _rotate_points, None),
    ("fields.maxent_residual", fields.maxent_residual, (fields,), None, None),
    ("verify.run_suite", verify.run_suite, (verify,), _suite_checks, None),
    ("cli.main", cli.main, (cli,), None, _cli_tag),
)


class Tracer:
    """Records spans while installed; ``suspended()`` passes calls straight through.

    A span is the list [name, start, end, parent, count, tag]; ``parent`` is
    the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = False
        self._saved = []

    def _wrap(self, name, fn, count, tag):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            if tag is not None:
                span[5] = tag(args, kwargs, result)
            return result
        return wrapper

    def __enter__(self):
        for name, fn, modules, count, tag in _SITES:
            wrapper = self._wrap(name, fn, count, tag)
            for module in modules:
                attr = name.rsplit(".", 1)[1]
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        self._active = True
        return self

    def __exit__(self, *exc):
        self._active = False
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    @contextlib.contextmanager
    def suspended(self):
        """Run untraced work (correctness gates) inside a traced pass."""
        active, self._active = self._active, False
        try:
            yield
        finally:
            self._active = active


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, cli_bytes=None):
    """Per-layer counts, busy time and self time from one pass's spans.

    Busy time of a layer sums the spans that have no ancestor in the same
    layer (so nested calls are not counted twice); self time sums every
    span's duration minus the durations of its direct children.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    m = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = 0.0
        m[f"{layer}.self_s"] = 0.0
    by_name = {}
    for i, s in enumerate(spans):
        layer = _layer(s[0])
        m[f"{layer}.self_s"] += dur[i] - child[i]
        if all(_layer(spans[a][0]) != layer for a in ancestors(i)):
            m[f"{layer}.busy_s"] += dur[i]
        total = by_name.setdefault(s[0], [0, 0.0, 0])
        total[0] += 1
        total[1] += dur[i]
        total[2] += s[4]

    def calls(name):
        return by_name.get(name, [0, 0.0, 0])[0]

    def seconds(name):
        return by_name.get(name, [0, 0.0, 0])[1]

    def work(name):
        return by_name.get(name, [0, 0.0, 0])[2]

    def nested_solves(outer):
        return sum(1 for i, s in enumerate(spans)
                   if s[0] in ("solver.solve_radial", "solver.solve_cartesian_factor")
                   and any(spans[a][0] == outer for a in ancestors(i)))

    steps = work("kernels.madelung_loop")
    m.update({
        "kernels.calls": calls("kernels.madelung_loop"),
        "kernels.steps": steps,
        "kernels.us_per_step": 1e6 * m["kernels.busy_s"] / steps if steps else 0.0,
        "solver.solves": calls("solver.solve_radial") + calls("solver.solve_cartesian_factor"),
        "solver.resample_calls": calls("solver.resample"),
        "solver.resample_points": work("solver.resample"),
        "solver.resample_s": seconds("solver.resample"),
        "quadrature.calls": (calls("quadrature.radial_moments")
                             + calls("quadrature.axis_normalization")),
        "analysis.observables_s": seconds("analysis.observables"),
        "analysis.divergence_s": seconds("analysis.divergence_sup"),
        "analysis.divergence_points": work("analysis.divergence_sup"),
        "analysis.entropy_check_s": seconds("analysis.entropy_stationarity_check"),
        "analysis.invert_s": seconds("analysis.invert_beta_for_energy"),
        "analysis.invert_solves": nested_solves("analysis.invert_beta_for_energy"),
        "analysis.sweep_s": seconds("analysis.beta_sweep"),
        "analysis.limit_s": seconds("analysis.limit_convergence"),
        "analysis.limit_solves": nested_solves("analysis.limit_convergence"),
        "fields.assemble_s": seconds("fields.assemble_2d"),
        "fields.rotate_s": seconds("fields.rotate_grid"),
        "fields.rotate_points": work("fields.rotate_grid"),
        "fields.residual_s": seconds("fields.maxent_residual"),
        "verify.run_suite_s": seconds("verify.run_suite"),
        "verify.checks": work("verify.run_suite"),
        "trace.spans": len(spans),
    })
    for cmd in CLI_COMMANDS:
        m[f"cli.main_s.{cmd}"] = 0.0
        m[f"cli.self_s.{cmd}"] = 0.0
        m[f"cli.bytes_written.{cmd}"] = (cli_bytes or {}).get(cmd, 0)
    for i, s in enumerate(spans):
        if s[0] == "cli.main":
            m[f"cli.main_s.{s[5]}"] += dur[i]
            m[f"cli.self_s.{s[5]}"] += dur[i] - child[i]
    return m
