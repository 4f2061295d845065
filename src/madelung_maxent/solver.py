"""Solvers for the self-trapped quantum potential.

Both geometries integrate the same family

    U'' = (beta/2) U'^2 + lambda_sq U - (c/r) U',   U(0) = U0 > 0, U'(0) = 0,

with c = 0 for a separable Cartesian factor and c = 2 (default) or 1 for the
rotationally symmetric form.  Both start the same way: a Taylor step
U0 + a r^2 to r = 1e-4 ell (ell = hbar / sqrt(m U0)), then the adaptive
integrator; the returned nodes begin at the origin.  Every positive U0 gives
a convex, nondecreasing potential that blows up at a finite radius; the
integration stops when beta * (U - U0) reaches 40 (relative density e^-40,
below double rounding) and the support radius is recovered from the dominant
balance U ~ -(2/beta) ln(r_m - r), i.e.  r_m = r_stop + 2 / (beta U'(r_stop)).

Each solve normalizes its density in the same step, and every consumer reads
that Z from the returned profile.  For a radial solve one pass of
``quadrature.radial_moments`` gives Z together with every scalar observable,
and the profile carries that ``Observables`` record; a Cartesian factor
carries the full-line Z of ``quadrature.axis_normalization``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import quadrature
from .integrator import StepControl, StopReason, Trajectory, integrate
from .model import (AxisProfile, LogicError, PhysicalParams, RadialProfile,
                    SolverError, _require)

BLOWUP_LOG_MARGIN = 40.0  # stop once beta*(U - U0) exceeds this


class Geometry(enum.Enum):
    CARTESIAN_FACTOR = "cartesian-factor"
    RADIAL = "radial"


@dataclass(frozen=True)
class SolveRequest:
    """One solve: physical parameters, center value U0, stepping control."""

    params: PhysicalParams
    u0: float = 1.0
    control: StepControl = StepControl()
    geometry: Geometry = Geometry.RADIAL

    def __post_init__(self):
        _require(math.isfinite(self.u0) and self.u0 > 0.0, "u0",
                 "must be a positive finite real (self-trapping requires u0 > 0)")


def series_coefficient(params: PhysicalParams, u0: float, c_coef: float) -> float:
    """Leading Taylor coefficient a in U(r) = U0 + a r^2 + O(r^4)."""
    return params.lambda_sq * u0 / (2.0 * (1.0 + c_coef))


def profile_c_coef(profile) -> float:
    """First-derivative coefficient matching a profile's geometry."""
    if isinstance(profile, AxisProfile):
        return 0.0
    return profile.params.laplacian_variant.first_derivative_coefficient


def _solve_potential(params: PhysicalParams, u0: float, control: StepControl,
                     c_coef: float):
    """Taylor step to t_switch, then DP45 to the blow-up stop: (nodes from 0, U, U', r_m)."""
    ell = params.hbar / math.sqrt(params.mass * u0)  # natural length scale
    t_switch = 1e-4 * ell
    t_end = 200.0 * (ell + 1.0 / math.sqrt(params.lambda_sq))

    threshold = control.blowup_threshold
    if threshold == math.inf:
        threshold = u0 + BLOWUP_LOG_MARGIN / params.beta
    else:
        _require(threshold > u0, "blowup_threshold",
                 f"must exceed u0 = {u0!r}, where the potential starts")
    control = replace(control, blowup_threshold=threshold)

    a = series_coefficient(params, u0, c_coef)
    y_start = (u0 + a * t_switch * t_switch, 2.0 * a * t_switch)
    trajectory = integrate(params.beta, params.lambda_sq, c_coef, y_start,
                           (t_switch, t_end), t_switch, control)
    if trajectory.stop_reason is not StopReason.BLOWUP_DETECTED:
        raise SolverError(
            f"potential integration ended with '{trajectory.stop_reason.value}' "
            f"instead of blow-up (beta={params.beta}, u0={u0})", trajectory=trajectory)
    r_m = estimate_support(trajectory, params)
    nodes = np.concatenate([[0.0], trajectory.nodes])
    u = np.concatenate([[u0], trajectory.states[:, 0]])
    du = np.concatenate([[0.0], trajectory.states[:, 1]])
    return nodes, u, du, r_m


def estimate_support(trajectory: Trajectory, params: PhysicalParams) -> float:
    """Support radius from the blow-up dominant balance at the stop node."""
    if trajectory.stop_reason is not StopReason.BLOWUP_DETECTED:
        raise LogicError("support estimation requires a blow-up-terminated trajectory")
    r_stop = float(trajectory.nodes[-1])
    du_stop = float(trajectory.states[-1, 1])
    return r_stop + 2.0 / (params.beta * du_stop)


def solve_radial(request: SolveRequest) -> RadialProfile:
    """Solve the rotationally symmetric potential and normalize its density."""
    _require(request.geometry is Geometry.RADIAL, "geometry", "must be 'radial'")
    params, u0 = request.params, request.u0
    c_coef = params.laplacian_variant.first_derivative_coefficient
    nodes, u, du, r_m = _solve_potential(params, u0, request.control, c_coef)
    obs = quadrature.radial_moments(params.beta, params.mass, params.lambda_sq, c_coef,
                                    nodes, u, du, r_m)
    return RadialProfile(params=params, nodes=nodes, u=u, du=du, u0=u0, observables=obs)


def solve_cartesian_factor(request: SolveRequest) -> AxisProfile:
    """Solve one even Cartesian factor U_i on the half-axis and normalize it."""
    _require(request.geometry is Geometry.CARTESIAN_FACTOR,
             "geometry", "must be 'cartesian-factor'")
    p = request.params
    nodes, u, du, i_m = _solve_potential(p, request.u0, request.control, 0.0)
    z = quadrature.axis_normalization(p.beta, nodes, u, du, p.lambda_sq, i_m)
    return AxisProfile(params=p, nodes=nodes, u=u, du=du, u0=request.u0,
                       half_width=i_m, z=z)


def resample(profile, query):
    """Hermite-resampled (U, U') at arbitrary radii within the tabulated range.

    Solver outputs resample with the equation-informed quintic (the stored
    slopes determine U'' through the ODE, one extra order near the steep
    wall); profiles whose data is not consistent with the equation -- e.g.
    synthetic constant potentials -- fall back to a cubic Hermite on the
    stored (u, u') alone.
    """
    acc = _equation_acc(profile)
    if acc is None:
        return quadrature.hermite_cubic_evaluate(profile.nodes, profile.u, profile.du, query)
    return quadrature.hermite_evaluate(profile.nodes, profile.u, profile.du, acc, query)


def _resample_slope(profile, query):
    """U' of ``resample`` alone: the same bits, without evaluating U."""
    acc = _equation_acc(profile)
    if acc is None:
        return quadrature.hermite_cubic_evaluate(profile.nodes, profile.u, profile.du, query)[1]
    return quadrature._hermite_slope(*quadrature._quintic_intervals(
        profile.nodes, profile.u, profile.du, acc, query))


def _equation_acc(profile):
    """U'' at the nodes from the ODE, or None if the stored slopes do not follow it."""
    nodes, u, du = profile.nodes, profile.u, profile.du
    if nodes.size < 3:
        return None
    p = profile.params
    acc = quadrature.second_derivative(nodes, u, du, p.beta, p.lambda_sq,
                                       profile_c_coef(profile))
    slope = np.diff(du) / np.diff(nodes)
    mid = 0.5 * (acc[:-1] + acc[1:])
    dev = np.abs(slope - mid) / (np.abs(acc[:-1]) + np.abs(acc[1:]) + 1e-300)
    return acc if float(np.median(dev)) < 0.05 else None


__all__ = [
    "BLOWUP_LOG_MARGIN", "Geometry", "SolveRequest", "series_coefficient",
    "estimate_support", "solve_radial",
    "solve_cartesian_factor", "resample", "profile_c_coef",
]
