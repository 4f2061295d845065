"""Solvers for the self-trapped quantum potential.

Both geometries integrate the same family

    U'' = (beta/2) U'^2 + lambda_sq U - (c/r) U',   U(0) = U0 > 0, U'(0) = 0,

with c = 0 for a separable Cartesian factor and c = 2 (default) or 1 for the
rotationally symmetric form.  Both start the same way: a Taylor step
U0 + a r^2 to r = min(1e-4 ell, 0.025 / lambda) (ell = hbar / sqrt(m U0)),
then the adaptive integrator; the returned nodes begin at the origin.  Every
positive U0 gives a convex, nondecreasing potential that blows up at a finite
radius, below its beta -> oo limit (k r_m < pi, j_{0,1} or pi/2 for c = 2, 1
or 0, k = sqrt(2 m U0)/hbar).  So every solve ends at that wall: the
integration stops when beta * (U - U0) reaches ``BLOWUP_LOG_MARGIN`` = 40
(relative density e^-40, below double rounding) and the support radius is
recovered from the dominant balance U ~ -(2/beta) ln(r_m - r), i.e.
r_m = r_stop + 2 / (beta U'(r_stop)).

Each solve normalizes its density in the same step, and every consumer reads
that Z from the returned profile.  For a radial solve one pass of
``quadrature.radial_moments`` gives Z together with every scalar observable,
and the profile carries that ``Observables`` record; a Cartesian factor
carries the full-line Z of ``quadrature.axis_normalization``.  Both integrate
up to the last node and leave out the sliver to the support radius: past the
stop the relative density is below e^-40.
"""

from __future__ import annotations

import enum
import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .integrator import REL_TOL, StopReason, integrate
from .model import AxisProfile, PhysicalParams, RadialProfile, SolverError, _require

BLOWUP_LOG_MARGIN = 40.0  # stop once beta*(U - U0) exceeds this
_TABLES = weakref.WeakKeyDictionary()  # Hermite interval table per profile object; not a field


class Geometry(enum.Enum):
    CARTESIAN_FACTOR = "cartesian-factor"
    RADIAL = "radial"


@dataclass(frozen=True)
class SolveRequest:
    """One solve: physical parameters, center value U0, DP45 relative tolerance.

    Every solve of the CLI and of ``analysis`` keeps the default ``rel_tol``
    but one: ``verify``'s support-stability check re-solves at half of it.
    The absolute tolerance is always a hundredth of ``rel_tol``.
    """

    params: PhysicalParams
    u0: float = 1.0
    rel_tol: float = REL_TOL
    geometry: Geometry = Geometry.RADIAL

    def __post_init__(self):
        _require(math.isfinite(self.u0) and self.u0 > 0.0, "u0",
                 "must be a positive finite real (self-trapping requires u0 > 0)")
        _require(math.isfinite(self.rel_tol) and self.rel_tol > 0, "rel_tol",
                 "must be a positive finite real")


def series_coefficient(params: PhysicalParams, u0: float, c_coef: float) -> float:
    """Leading Taylor coefficient a in U(r) = U0 + a r^2 + O(r^4)."""
    return params.lambda_sq * u0 / (2.0 * (1.0 + c_coef))


def _solve_potential(params: PhysicalParams, u0: float, rel_tol: float, c_coef: float):
    """Taylor step to t_switch, then DP45 to the blow-up stop: (nodes from 0, U, U', r_m)."""
    ell = params.hbar / math.sqrt(params.mass * u0)  # natural length scale
    lam = math.sqrt(params.lambda_sq)  # the equation's other length is 1/lam
    # lam * t_switch <= 0.025 keeps the start's neglected r^4 term ~1e-9 relative
    t_switch = min(1e-4 * ell, 0.025 / lam)
    threshold = u0 + BLOWUP_LOG_MARGIN / params.beta

    a = series_coefficient(params, u0, c_coef)
    y_start = (u0 + a * t_switch * t_switch, 2.0 * a * t_switch)
    nodes, u, du, stop = integrate(params.beta, params.lambda_sq, c_coef, y_start,
                                   t_switch, t_switch, threshold, rel_tol)
    if stop is not StopReason.BLOWUP_DETECTED:
        raise SolverError(
            f"potential integration ended with '{stop.value}' "
            f"instead of blow-up (beta={params.beta}, u0={u0})", trajectory=(nodes, u, du, stop))
    # dominant balance at the wall, U ~ -(2/beta) ln(r_m - r)
    r_m = float(nodes[-1]) + 2.0 / (params.beta * float(du[-1]))
    return (np.concatenate([[0.0], nodes]), np.concatenate([[u0], u]),
            np.concatenate([[0.0], du]), r_m)


def solve_radial(request: SolveRequest) -> RadialProfile:
    """Solve the rotationally symmetric potential and normalize its density."""
    _require(request.geometry is Geometry.RADIAL, "geometry", "must be 'radial'")
    params, u0 = request.params, request.u0
    c_coef = params.laplacian_variant.first_derivative_coefficient
    nodes, u, du, r_m = _solve_potential(params, u0, request.rel_tol, c_coef)
    obs = quadrature.radial_moments(params.beta, params.mass, params.lambda_sq, c_coef,
                                    nodes, u, du, r_m)
    return RadialProfile(params=params, nodes=nodes, u=u, du=du, u0=u0, observables=obs)


def solve_cartesian_factor(request: SolveRequest) -> AxisProfile:
    """Solve one even Cartesian factor U_i on the half-axis and normalize it."""
    _require(request.geometry is Geometry.CARTESIAN_FACTOR,
             "geometry", "must be 'cartesian-factor'")
    p = request.params
    nodes, u, du, i_m = _solve_potential(p, request.u0, request.rel_tol, 0.0)
    z = quadrature.axis_normalization(p.beta, nodes, u, du, p.lambda_sq)
    return AxisProfile(params=p, nodes=nodes, u=u, du=du, u0=request.u0,
                       half_width=i_m, z=z)


def resample(profile, query):
    """Hermite-resampled U at arbitrary radii within the tabulated range.

    A profile holds a solution of its own equation, so the stored (U, U') at
    each node fix U'' there through the ODE, and the piecewise quintic Hermite
    on (U, U', U'') is the profile's interpolant, one order above a cubic on
    (U, U') alone, which matters near the steep wall.  Its interval table
    (``quadrature.hermite_table``: one row per node interval, and the bucket
    index that finds a query's row) is built on a profile's first resample and
    kept while the profile lives.  Only U is
    evaluated; ``_resample_slope`` gives the same interpolant's U'.
    """
    return quadrature._hermite_value(*_gather(profile, query))


def _resample_slope(profile, query):
    """U' of the interpolant ``resample`` evaluates, at the same query points."""
    return quadrature._hermite_slope(*_gather(profile, query))


def _gather(profile, query):
    """The queries' interval rows and fractions, from the table built on the first call."""
    table = _TABLES.get(profile)
    if table is None:
        table = _TABLES[profile] = quadrature.hermite_table(
            profile.nodes, profile.u, profile.du, _equation_acc(profile))
    return quadrature.hermite_gather(table, query)


def _equation_acc(profile):
    """U'' at the nodes from the profile's own equation."""
    p = profile.params
    return quadrature.second_derivative(profile.nodes, profile.u, profile.du, p.beta,
                                        p.lambda_sq, profile.c_coef)


__all__ = [
    "BLOWUP_LOG_MARGIN", "Geometry", "SolveRequest", "series_coefficient",
    "solve_radial", "solve_cartesian_factor", "resample",
]
