"""Invariant verification suite behind the `verify` CLI command.

Each check recomputes one analytic identity, trend, or golden comparison and
reports pass/fail with a one-line detail.  Quick mode trims the slow items
(sweep trends, limit convergence, inversion round trip) and shrinks grids so
the suite stays interactive.
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, fields
from .integrator import StepControl
from .model import PhysicalParams, to_json
from .solver import (BLOWUP_LOG_MARGIN, Geometry, SolveRequest,
                     solve_cartesian_factor, solve_radial)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def load_golden(path=None) -> dict:
    if path is not None:
        with open(path) as f:
            return json.load(f)
    ref = importlib.resources.files("madelung_maxent").joinpath("data/golden.json")
    return json.loads(ref.read_text())


def _check(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def run_suite(beta: float = 1.0, quick: bool = False, golden_path=None) -> list[CheckResult]:
    golden = load_golden(golden_path)
    params = PhysicalParams(beta=beta)
    results = []

    # shared canonical solves
    profile = solve_radial(SolveRequest(params=params))
    obs = analysis.observables(profile)
    axis = solve_cartesian_factor(SolveRequest(params=params,
                                               geometry=Geometry.CARTESIAN_FACTOR))

    rt = PhysicalParams.from_dict(json.loads(to_json(params)))
    results.append(_check("params-serialization",
                          rt == params and rt.lambda_sq == params.lambda_sq,
                          "JSON round trip preserves fields and lambda_sq"))

    rel_k = abs(obs.k_bar_quad - obs.k_bar) / obs.k_bar
    results.append(_check("kinetic-identity",
                          rel_k < 1e-6,
                          f"|K_quad - m/beta|/(m/beta) = {rel_k:.3e} (< 1e-6)"))

    ent = abs(obs.entropy - (beta * obs.u_bar + math.log(obs.z)))
    results.append(_check("entropy-identity",
                          ent < 1e-8,
                          f"|H - beta U_bar - ln Z| = {ent:.3e} (< 1e-8)"))

    dd = np.diff(profile.du)
    results.append(_check("convexity",
                          bool(np.all(profile.du >= 0) and np.all(dd >= -1e-10 * np.max(profile.du))),
                          "U' >= 0 and nondecreasing on the nodes"))

    # concavity of the amplitude factor e^{-beta(U-U0)/2}: its slope
    # -(beta/2) U' amp must be nonincreasing
    amp = np.exp(-0.5 * beta * (axis.u - axis.u0))
    amp_slope = -0.5 * beta * axis.du * amp
    slope_tol = 1e-12 * float(np.max(np.abs(amp_slope)))
    results.append(_check("amplitude-concavity",
                          bool(np.all(np.diff(amp_slope) <= slope_tol)),
                          "sqrt(rho) factor slope nonincreasing on the axis nodes"))

    tail = profile.rho[-1] / profile.rho[0]
    results.append(_check("finite-support-tail",
                          tail < 1e-16,
                          f"rho(r_stop)/rho(0) = {tail:.3e} (< 1e-16)"))

    res_h = 1e-3 if not quick else 2e-3
    norms = fields.maxent_residual(profile, params, h=res_h)
    norms_half = fields.maxent_residual(profile, params, h=res_h / 2)
    ratio = norms.pde / norms_half.pde
    results.append(_check("pde-residual",
                          norms.pde < 1e-4 * (res_h / 1e-3) ** 2 * 1.5 and 3.0 < ratio < 5.0,
                          f"residual {norms.pde:.3e} at h={res_h:g}, halving ratio {ratio:.2f}"))
    results.append(_check("density-rebuild",
                          norms.rebuild < 1e-4 * (res_h / 1e-3) ** 2 * 1.5,
                          f"|U_rebuilt - U| = {norms.rebuild:.3e} at h={res_h:g}"))

    radii = np.linspace(0.0, 0.9 * profile.r_m, 64)
    omega = analysis._omega_values(profile, radii)
    du = analysis._du_values(profile, radii)
    stat = np.max(np.abs(params.mass * radii * omega**2 - du) / (1.0 + du))
    results.append(_check("stationarity",
                          stat < 256 * np.finfo(float).eps,
                          f"max relative |m r w^2 - U'| = {stat:.3e}"))

    div_h = 1e-3 if not quick else 4e-3
    div = analysis.divergence_sup(profile, h=div_h)
    results.append(_check("divergence-free",
                          div < 1e-4 * (div_h / 1e-3) ** 2 * 1.5,
                          f"max |div v| = {div:.3e} on h={div_h:g}, r <= 0.8 r_m"))

    sinc = analysis.sinc_limit(params, energy=1.0)
    rr = np.linspace(sinc.r_inf / 20, sinc.r_inf, 1000)
    sres = float(np.max(np.abs(sinc.equation_residual(rr))))
    krpi = abs(sinc.k * sinc.r_inf - math.pi)
    a_ref = 1.0 / math.sqrt(2.0 * math.pi * golden["I_sinc"])
    results.append(_check("sinc-limit",
                          sres < 1e-12 and krpi < 1e-14 and abs(sinc.a - a_ref) < 1e-10,
                          f"eq residual {sres:.2e}, |k r_inf - pi| = {krpi:.1e}, "
                          f"|a - a_golden| = {abs(sinc.a - a_ref):.2e}"))

    key = None
    for cand in golden["radial"]:
        if math.isclose(float(cand), beta, rel_tol=1e-12):
            key = cand
            break
    if key is not None:
        ref = golden["radial"][key]
        dr = abs(profile.r_m - ref["r_m"]) / ref["r_m"]
        du_ = abs(obs.u_bar - ref["u_bar"]) / ref["u_bar"]
        results.append(_check("golden-scalars",
                              dr < 1e-6 and du_ < 1e-6,
                              f"r_m rel dev {dr:.2e}, u_bar rel dev {du_:.2e} vs golden"))
    else:
        results.append(_check("golden-scalars", True,
                              f"no golden entry for beta={beta:g}; skipped"))

    grid_h = 1e-2 if quick else 5e-3
    grid = fields.assemble_2d(axis, axis, grid_h)
    rotated = fields.rotate_grid(grid, math.pi / 6)
    g0 = fields.maxent_residual(grid, params)
    g1 = fields.maxent_residual(rotated, params)
    results.append(_check("rotation-invariance",
                          g1.pde <= 10.0 * g0.pde,
                          f"rotated/unrotated residual = {g1.pde / g0.pde:.2f} (<= 10)"))

    n_dir = 20 if quick else 100
    gain = analysis.entropy_stationarity_check(profile, epsilon=1e-4, n_directions=n_dir)
    results.append(_check("maxent-stationarity",
                          gain < 1e-12,
                          f"max constrained entropy gain = {gain:.3e} over {n_dir} directions"))

    if not quick:
        stable = _support_stability(params)
        results.append(_check("support-stability", stable[0], stable[1]))

        sweep = analysis.beta_sweep(np.logspace(-4, 2, 13), 1.0, params)
        trends = (sweep.r_m_nondecreasing and sweep.r2_nondecreasing
                  and sweep.k_bar_decreasing and sweep.u_bar_nonincreasing
                  and all(r.status == "ok" for r in sweep.rows))
        results.append(_check("sweep-trends", trends,
                              "r_m, r2 nondecreasing; K, U decreasing over 13-point log sweep"))

        limit = analysis.limit_convergence([10.0, 50.0, 100.0], 1.0, params)
        drm = abs(limit.rows[-1].r_m - golden["r_inf_u0_1"]) / golden["r_inf_u0_1"]
        results.append(_check("limit-convergence",
                              limit.distances_decreasing and drm < 0.02,
                              f"distances decreasing; r_m(100) within {drm:.3%} of pi/sqrt(2)"))

        b_star = 1.0
        target = analysis.observables(
            solve_radial(SolveRequest(params=replace(params, beta=b_star)))).energy
        inv = analysis.invert_beta_for_energy(target, 1.0, params)
        rel = abs(inv - b_star) / b_star
        results.append(_check("beta-inversion", rel < 1e-6,
                              f"round trip beta* = 1 recovered to {rel:.2e}"))

    return results


def _support_stability(params: PhysicalParams):
    base = solve_radial(SolveRequest(params=params))
    u0 = 1.0
    doubled = solve_radial(SolveRequest(
        params=params, u0=u0,
        control=StepControl(blowup_threshold=u0 + 2 * BLOWUP_LOG_MARGIN / params.beta)))
    halved = solve_radial(SolveRequest(
        params=params, u0=u0, control=StepControl(rel_tol=5e-11, abs_tol=5e-13)))
    d1 = abs(doubled.r_m - base.r_m) / base.r_m
    d2 = abs(halved.r_m - base.r_m) / base.r_m
    ok = d1 < 1e-6 and d2 < 1e-6
    return ok, f"r_m shifts: threshold x2 -> {d1:.2e}, tolerance /2 -> {d2:.2e} (< 1e-6)"


def format_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"  [{status}] {r.name:<{width}}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"  {len(results) - n_fail}/{len(results)} checks passed"
                 + (f", {n_fail} FAILED" if n_fail else ""))
    return "\n".join(lines)


__all__ = ["CheckResult", "run_suite", "format_table", "load_golden"]
