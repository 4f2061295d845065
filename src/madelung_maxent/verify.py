"""Invariant verification suite behind the `verify` CLI command.

Every acceptance criterion is one entry of ``CHECKS``: a name, whether only
the full suite runs it, and a function ``case -> (passed, detail)`` that
recomputes one analytic identity, trend, or golden comparison against the
package's own ``data/golden.json``.  Each criterion's tolerance is written
once, in its function.  A check that raises one of the package's documented
errors fails with that error as its detail, so one failing solve does not
hide the rest of the table.  Quick mode skips the slow items (support
stability, sweep trends, limit convergence, inversion round trip) and
coarsens grids so the suite stays interactive.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import analysis, fields
from .model import NoSolutionError, PhysicalParams, SolverError, ValidationError
from .solver import (BLOWUP_LOG_MARGIN, Geometry, SolveRequest,
                     solve_cartesian_factor, solve_radial)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def load_golden() -> dict:
    """The golden reference values shipped in ``data/golden.json``, a fresh dict per call."""
    return json.loads(importlib.resources.files("madelung_maxent")
                      .joinpath("data/golden.json").read_text())


@dataclass(frozen=True)
class Case:
    """One suite run's inputs; the shared solves are built on first use, once."""

    beta: float
    quick: bool

    @cached_property
    def golden(self) -> dict:
        return load_golden()

    @cached_property
    def params(self) -> PhysicalParams:
        return PhysicalParams(beta=self.beta)

    @cached_property
    def profile(self):
        return solve_radial(SolveRequest(params=self.params))

    @cached_property
    def obs(self):
        return analysis.observables(self.profile)

    @cached_property
    def axis(self):
        return solve_cartesian_factor(SolveRequest(params=self.params,
                                                   geometry=Geometry.CARTESIAN_FACTOR))

    @property
    def residual_h(self) -> float:
        return 2e-3 if self.quick else 1e-3

    @cached_property
    def residual(self):
        return fields.maxent_residual(self.profile, self.params, h=self.residual_h)


@dataclass(frozen=True)
class Check:
    name: str
    full_only: bool
    run: Callable[[Case], tuple]


def _fd_bound(h: float) -> float:
    """Bound on a second-order finite-difference error at spacing h."""
    return 1e-4 * (h / 1e-3) ** 2


def _kinetic_identity(case):
    k_closed = case.params.mass / case.beta
    rel = abs(case.obs.k_bar_quad - k_closed) / k_closed
    return (case.obs.k_bar == k_closed and rel < 1e-6,
            f"|K_quad - m/beta|/(m/beta) = {rel:.3e} (< 1e-6)")


def _entropy_identity(case):
    obs = case.obs
    dev = abs(obs.entropy - (case.beta * obs.u_bar + math.log(obs.z)))
    return dev < 1e-8, f"|H - beta U_bar - ln Z| = {dev:.3e} (< 1e-8)"


def _convexity(case):
    p = case.profile
    convex = np.all(p.du >= 0) and np.all(np.diff(p.du) >= -1e-10 * np.max(p.du))
    peaked = np.all(np.diff(p.rho) <= 1e-15 * p.rho[0])
    return convex and peaked, "U' >= 0 and nondecreasing, rho nonincreasing on the nodes"


def _amplitude_concavity(case):
    # the amplitude factor e^{-beta(U-U0)/2} is concave: its slope
    # -(beta/2) U' amp must be nonincreasing
    axis = case.axis
    amp = np.exp(-0.5 * case.beta * (axis.u - axis.u0))
    slope = -0.5 * case.beta * axis.du * amp
    return (np.all(np.diff(slope) <= 1e-12 * np.max(np.abs(slope))),
            "sqrt(rho) factor slope nonincreasing on the axis nodes")


def _finite_support_tail(case):
    p = case.profile
    tail = p.rho[-1] / p.rho[0]
    return (math.isfinite(p.r_m) and tail < 1e-16,
            f"rho(r_stop)/rho(0) = {tail:.3e} (< 1e-16), r_m = {p.r_m:.9g}")


def _pde_residual(case):
    h = case.residual_h
    pde = case.residual.pde
    ratio = pde / fields.maxent_residual(case.profile, case.params, h=h / 2).pde
    return (pde < _fd_bound(h) and 3.0 < ratio < 5.0,
            f"residual {pde:.3e} (< {_fd_bound(h):.0e}) at h={h:g}, halving ratio {ratio:.2f}")


def _density_rebuild(case):
    h = case.residual_h
    rebuild = case.residual.rebuild
    return (rebuild < _fd_bound(h),
            f"|U_rebuilt - U| = {rebuild:.3e} (< {_fd_bound(h):.0e}) at h={h:g}")


def _stationarity(case):
    p = case.profile
    radii = np.linspace(0.0, 0.9 * p.r_m, 64)
    r = np.concatenate([p.nodes, radii])
    du = np.concatenate([p.du, analysis._du_values(p, radii)])
    omega = analysis.angular_velocity(p, r)
    stat = float(np.max(np.abs(p.params.mass * r * omega**2 - du) / (1.0 + du)))
    return (stat < 256 * np.finfo(float).eps,
            f"max relative |m r w^2 - U'| = {stat:.3e} at the nodes and 64 radii")


def _divergence_free(case):
    h = 4e-3 if case.quick else 1e-3
    div = analysis.divergence_sup(case.profile, h=h)
    return (div < _fd_bound(h),
            f"max |div v| = {div:.3e} (< {_fd_bound(h):.0e}) on h={h:g}, r <= 0.8 r_m")


def _sinc_limit(case):
    sinc = analysis.sinc_limit(case.params, energy=1.0)
    rr = np.linspace(sinc.r_inf / 20, sinc.r_inf, 1000)
    res = float(np.max(np.abs(sinc.equation_residual(rr))))
    krpi = abs(sinc.k * sinc.r_inf - math.pi)
    da = abs(sinc.a - 1.0 / math.sqrt(2.0 * math.pi * case.golden["I_sinc"]))
    return (res < 1e-12 and krpi <= 4 * np.finfo(float).eps * math.pi and da < 1e-10,
            f"eq residual {res:.2e}, |k r_inf - pi| = {krpi:.1e}, |a - a_golden| = {da:.2e}")


def _golden_scalars(case):
    ref = next((v for k, v in case.golden["radial"].items()
                if math.isclose(float(k), case.beta, rel_tol=1e-12)), None)
    if ref is None:
        return True, f"no golden entry for beta={case.beta:g}; skipped"
    dr = abs(case.profile.r_m - ref["r_m"]) / ref["r_m"]
    du = abs(case.obs.u_bar - ref["u_bar"]) / ref["u_bar"]
    dz = abs(case.obs.log_z - ref["log_z"])
    d2 = abs(case.obs.r2_bar - ref["r2_bar"]) / ref["r2_bar"]
    return (dr < 1e-6 and du < 1e-6 and dz < 1e-9 and d2 < 1e-9,
            f"r_m rel dev {dr:.2e}, u_bar rel dev {du:.2e}, log_z abs dev {dz:.2e}, "
            f"r2_bar rel dev {d2:.2e} vs golden")


def _rotation_invariance(case):
    # quick: about 201^2 points whatever beta, so the last grid node sits at
    # the same place relative to the wall
    h = case.axis.nodes[-1] / 100.5 if case.quick else 5e-3
    grid = fields.assemble_2d(case.axis, case.axis, h)
    base = fields.maxent_residual(grid, case.params)
    rotated = fields.maxent_residual(fields.rotate_grid(grid, math.pi / 6), case.params)
    ratio = rotated.pde / base.pde
    return ratio <= 2.0, f"rotated/unrotated residual = {ratio:.2f} (<= 2) at h={h:.4g}"


def _maxent_stationarity(case):
    n_dir = 20 if case.quick else 100
    gain = analysis.entropy_stationarity_check(case.profile, n_directions=n_dir)
    return gain < 1e-12, f"max constrained entropy gain = {gain:.3e} over {n_dir} directions"


def _support_stability(case):
    # the wall's dominant balance read at half the stop margin, on the same
    # nodes; its extrapolation error falls like e^{-beta (U - U0)}
    p = case.profile
    i = int(np.argmax(case.beta * (p.u - p.u0) >= BLOWUP_LOG_MARGIN / 2))
    early = p.nodes[i] + 2.0 / (case.beta * p.du[i])
    halved = solve_radial(SolveRequest(params=case.params, rel_tol=5e-11))
    d1 = abs(early - p.r_m) / p.r_m
    d2 = abs(halved.r_m - p.r_m) / p.r_m
    return (d1 < 1e-6 and d2 < 1e-6,
            f"r_m shifts: balance at margin/2 -> {d1:.2e}, tolerance /2 -> {d2:.2e} (< 1e-6)")


def _sweep_trends(case):
    sweep = analysis.beta_sweep(np.logspace(-4, 2, 13), 1.0, case.params)
    if any(row.status == "failed" for row in sweep.rows):
        return False, "a sweep solve failed"
    r_m = [row.observables.r_m for row in sweep.rows]
    r2 = [row.observables.r2_bar for row in sweep.rows]
    monotone = (sweep.r_m_nondecreasing and sweep.r2_nondecreasing
                and sweep.k_bar_decreasing and sweep.u_bar_nonincreasing)
    flattening = all(v[-1] - v[-2] < 0.5 * (v[-3] - v[-4]) for v in (r_m, r2))
    collapse = r2[0] < 0.01 * r2[-1]
    return (monotone and flattening and collapse,
            "r_m, r2 nondecreasing and flattening; K, U decreasing over 13-point log "
            f"sweep; r2(1e-4)/r2(100) = {r2[0] / r2[-1]:.1e} (< 0.01)")


def _limit_convergence(case):
    limit = analysis.limit_convergence([10.0, 50.0, 100.0], 1.0, case.params)
    r_inf = case.golden["r_inf_u0_1"]
    drm = abs(limit.rows[-1].r_m - r_inf) / r_inf
    return (limit.distances_decreasing and drm < 0.02,
            f"distances decreasing; r_m(100) within {drm:.3%} of pi/sqrt(2)")


def _beta_inversion(case):
    worst, above = 0.0, True
    for b_star in (0.01, 1.0, 5.0, 100.0):
        target = analysis.observables(solve_radial(SolveRequest(
            params=replace(case.params, beta=b_star)))).energy
        beta = analysis.invert_beta_for_energy(target, 1.0, case.params)
        worst = max(worst, abs(beta - b_star) / b_star)
        above = above and beta > case.params.mass / target  # kinetic lower bound
    return (worst < 1e-6 and above,
            f"round trip beta* in {{0.01, 1, 5, 100}} recovered to {worst:.2e}, above m/E")


CHECKS = (
    Check("kinetic-identity", False, _kinetic_identity),
    Check("entropy-identity", False, _entropy_identity),
    Check("convexity", False, _convexity),
    Check("amplitude-concavity", False, _amplitude_concavity),
    Check("finite-support-tail", False, _finite_support_tail),
    Check("pde-residual", False, _pde_residual),
    Check("density-rebuild", False, _density_rebuild),
    Check("stationarity", False, _stationarity),
    Check("divergence-free", False, _divergence_free),
    Check("sinc-limit", False, _sinc_limit),
    Check("golden-scalars", False, _golden_scalars),
    Check("rotation-invariance", False, _rotation_invariance),
    Check("maxent-stationarity", False, _maxent_stationarity),
    Check("support-stability", True, _support_stability),
    Check("sweep-trends", True, _sweep_trends),
    Check("limit-convergence", True, _limit_convergence),
    Check("beta-inversion", True, _beta_inversion),
)


def run_check(check: Check, case: Case) -> CheckResult:
    """Run one check; a documented solver or input error fails it, naming the error."""
    start = time.perf_counter()
    try:
        passed, detail = check.run(case)
    except (ValidationError, SolverError, NoSolutionError) as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(check.name, bool(passed), detail, time.perf_counter() - start)


def run_suite(beta: float = 1.0, quick: bool = False) -> list[CheckResult]:
    PhysicalParams(beta=beta)  # an invalid beta is a usage error, not a failed check
    case = Case(beta, quick)
    return [run_check(check, case) for check in CHECKS if not (quick and check.full_only)]


def format_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"  [{status}] {r.name:<{width}} {r.seconds:7.3f}s  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"  {len(results) - n_fail}/{len(results)} checks passed"
                 + (f", {n_fail} FAILED" if n_fail else ""))
    return "\n".join(lines)


__all__ = ["CHECKS", "Case", "Check", "CheckResult", "run_check", "run_suite",
           "format_table", "load_golden"]
