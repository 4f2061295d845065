"""Quadrature and resampling over the integrator's adaptive nodes.

The solvers store (r, U, U') at every accepted step, and U'' is available
exactly from the ODE, so each node interval supports a quintic Hermite
interpolant.  Integrals are computed with a derivative-corrected composite
trapezoid rule

    int_a^b f  ~=  h/2 (f_a + f_b) + h^2/12 (f'_a - f'_b)          (O(h^4))

after subdividing every interval 4x with the Hermite interpolant, which
pushes the kinetic-energy identity error to ~1e-9 even on sparse node sets.
The unreached sliver between the last node and the support radius (relative
density there is below e^-40) is closed with a one-sided cubic fit.

Both normalizations, ``radial_moments`` (which returns a radial solve's
``Observables``) and ``axis_normalization``, refuse a Z that is not a normal
positive float: a subnormal Z has lost digits, a zero one normalizes nothing.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .model import Observables, ValidationError

_REFINE = 4  # per-interval subdivision of the Hermite interpolant


def second_derivative(r, u, du, beta, lam_sq, c_coef):
    """U'' from the potential ODE; at r = 0 (U' = 0) the limit lam_sq U0 / (1 + c)."""
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    du = np.asarray(du, dtype=float)
    origin = r == 0.0
    return ((0.5 * beta * du * du + lam_sq * u - c_coef / np.where(origin, 1.0, r) * du)
            / np.where(origin, 1.0 + c_coef, 1.0))


def _hermite_value(h, u0, v0, a0, u1, v1, a1, s):
    """Two-point quintic Hermite value at fractions s of an interval."""
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    s5 = s4 * s
    return (u0 * (1 - 10 * s3 + 15 * s4 - 6 * s5)
            + h * v0 * (s - 6 * s3 + 8 * s4 - 3 * s5)
            + h * h * a0 * (0.5 * s2 - 1.5 * s3 + 1.5 * s4 - 0.5 * s5)
            + u1 * (10 * s3 - 15 * s4 + 6 * s5)
            + h * v1 * (-4 * s3 + 7 * s4 - 3 * s5)
            + h * h * a1 * (0.5 * s3 - s4 + 0.5 * s5))


def _hermite_slope(h, u0, v0, a0, u1, v1, a1, s):
    """Two-point quintic Hermite slope at fractions s of an interval."""
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    return (u0 * (-30 * s2 + 60 * s3 - 30 * s4)
            + h * v0 * (1 - 18 * s2 + 32 * s3 - 15 * s4)
            + h * h * a0 * (s - 4.5 * s2 + 6 * s3 - 2.5 * s4)
            + u1 * (30 * s2 - 60 * s3 + 30 * s4)
            + h * v1 * (-12 * s2 + 28 * s3 - 15 * s4)
            + h * h * a1 * (1.5 * s2 - 4 * s3 + 2.5 * s4)) / h


def hermite_refine(r, u, du, acc):
    """Subdivide every node interval _REFINE-fold; returns refined (r, u, du)."""
    r = np.asarray(r, dtype=float)
    if r.size < 2:
        return r.copy(), np.asarray(u, float).copy(), np.asarray(du, float).copy()
    h = np.diff(r)[:, None]
    s = (np.arange(_REFINE) / _REFINE)[None, :]
    args = (h, u[:-1, None], du[:-1, None], acc[:-1, None],
            u[1:, None], du[1:, None], acc[1:, None], s)
    uu, vv = _hermite_value(*args), _hermite_slope(*args)
    rr = (r[:-1, None] + h * s)
    return (np.append(rr.ravel(), r[-1]),
            np.append(uu.ravel(), u[-1]),
            np.append(vv.ravel(), du[-1]))


def hermite_evaluate(r, u, du, acc, query):
    """Evaluate the piecewise quintic Hermite (value, slope) at query points.

    Queries must lie within [r[0], r[-1]]; exact node hits return node data.
    acc must be the true second derivative at the nodes, which the ODE gives
    for every profile: a profile holds a solution of its own equation.
    """
    args = _quintic_intervals(r, u, du, acc, query)
    return _hermite_value(*args), _hermite_slope(*args)


def _quintic_intervals(r, u, du, acc, query):
    """Per query, the arguments (h, u0, v0, a0, u1, v1, a1, s) of its node interval."""
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    du = np.asarray(du, dtype=float)
    q = np.atleast_1d(np.asarray(query, dtype=float))
    if np.any(q < r[0]) or np.any(q > r[-1]):
        raise ValueError("query points outside the tabulated range")
    idx = np.clip(np.searchsorted(r, q, side="right") - 1, 0, r.size - 2)
    h = r[idx + 1] - r[idx]
    s = (q - r[idx]) / h
    return h, u[idx], du[idx], acc[idx], u[idx + 1], du[idx + 1], acc[idx + 1], s


class _Rule:
    """Derivative-corrected trapezoid on the grid x plus the cubic tail to x_end.

    Everything that depends only on the grid is set up once: the interval
    weights h/2 and h^2/12, and the tail's sample window and Vandermonde
    matrix.  The tail fits the interpolating cubic through four samples
    spanning a window of a few tail widths (so the bisection-shortened final
    intervals do not force a wild extrapolation) and integrates it over the
    unreached sliver [x[-1], x_end].  Each integrand still gets its own
    solve, which keeps its rounding independent of the others'.
    """

    _UPPER = np.array([1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0])

    def __init__(self, x, x_end: float):
        x = np.asarray(x, dtype=float)
        h = np.diff(x)
        self.half_h = 0.5 * h
        self.h2_12 = h * h / 12.0
        self.window = None
        gap = x_end - x[-1]
        if gap <= 0.0 or x.size < 4:
            return
        lo = min(np.searchsorted(x, x[-1] - 3.0 * gap), x.size - 4)
        # lo <= size - 4 spaces the four indices at least one apart, and their
        # fractions are thirds (never a rounding tie): rounded, still distinct
        self.window = np.round(np.linspace(lo, x.size - 1, 4)).astype(int)
        self.gap = gap
        # scaled coordinate keeps the Vandermonde system well conditioned
        self.vander = np.vander((x[self.window] - x[-1]) / gap, 4, increasing=True)

    def trapezoid(self, f, df) -> float:
        return float(np.sum(self.half_h * (f[:-1] + f[1:]) + self.h2_12 * (df[:-1] - df[1:])))

    def tail(self, g) -> float:
        if self.window is None:
            return 0.0
        coef = np.linalg.solve(self.vander, np.asarray(g, dtype=float)[self.window])
        return float(self.gap * np.dot(coef, self._UPPER))

    def __call__(self, f, df) -> float:
        """Integral over [x[0], x_end] of f with derivative df."""
        return self.trapezoid(f, df) + self.tail(f)


def corrected_trapezoid(x, f, df) -> float:
    """Composite trapezoid with exact endpoint-derivative correction, O(h^4)."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        return 0.0
    return _Rule(x, x[-1]).trapezoid(f, df)


def cubic_tail(x, g, x_end: float) -> float:
    """One-sided cubic closure of the integral of g over [x[-1], x_end]."""
    return _Rule(x, x_end).tail(g)


def _refined_weights(beta: float, lam_sq: float, c_coef: float, nodes, u, du):
    """Refined grid (r, U, U') and Boltzmann weights exp(-beta (U - U0))."""
    acc = second_derivative(nodes, u, du, beta, lam_sq, c_coef)
    rr, uu, vv = hermite_refine(nodes, u, du, acc)
    return rr, uu, vv, np.exp(-beta * (uu - float(u[0])))


def _require_normal(z: float, log_z: float) -> float:
    """Z itself, if it is a normal positive float (it is not past beta * U0 ~ 708)."""
    if not z >= sys.float_info.min:
        raise ValidationError(f"z: normalization underflowed (log z = {log_z:.3g}); "
                              "beta * u0 is too large to represent rho")
    return z


def _require_positive(q: float):
    if not (math.isfinite(q) and q > 0.0):
        raise ValidationError("z: normalization quadrature is not positive")


def radial_moments(beta: float, mass: float, lam_sq: float, c_coef: float,
                   nodes, u, du, r_m: float) -> Observables:
    """Normalization and every scalar observable in one refined-grid pass.

    Normalization, average potential, kinetic quadrature, second moment and
    entropy share one rule and one node set, so identities that are linear in
    the common Boltzmann weight (entropy = beta*u_bar + ln z) hold to rounding
    by construction.  k_bar is the closed form mass/beta.
    """
    rr, uu, vv, w = _refined_weights(beta, lam_sq, c_coef, nodes, u, du)
    aa = second_derivative(rr, uu, vv, beta, lam_sq, c_coef)
    u0 = float(u[0])

    fz = w * rr
    dfz = w * (1.0 - beta * vv * rr)
    fu = uu * w * rr
    dfu = w * (vv * rr + uu - beta * uu * vv * rr)
    fk = rr * rr * vv * w
    dfk = w * (2.0 * rr * vv + rr * rr * aa - beta * rr * rr * vv * vv)
    f2 = rr**3 * w
    df2 = w * (3.0 * rr * rr - beta * vv * rr**3)

    rule = _Rule(rr, r_m)
    zq = rule(fz, dfz)
    uq = rule(fu, dfu)
    kq = rule(fk, dfk)
    r2q = rule(f2, df2)

    _require_positive(zq)
    log_z = float(np.log(2.0 * np.pi * zq) - beta * u0)
    z = _require_normal(float(np.exp(log_z)), log_z)

    # entropy from the actual density values; shares nodes and rule with zq
    rho = w * (np.exp(-beta * u0) / z)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_rho = np.where(rho > 0.0, np.log(np.where(rho > 0.0, rho, 1.0)), 0.0)
    fh = -rho * log_rho * rr
    dfh = beta * vv * rho * rr * (log_rho + 1.0) - rho * log_rho
    hq = rule(fh, dfh)

    return Observables(beta=beta, z=z, log_z=log_z,
                       u_bar=float(uq / zq),
                       k_bar=mass / beta,
                       k_bar_quad=float(mass * kq / (2.0 * zq)),
                       entropy=float(2.0 * np.pi * hq),
                       r2_bar=float(r2q / zq),
                       r_m=r_m)


def axis_normalization(beta: float, nodes, u, du, lam_sq: float, i_m: float) -> float:
    """Full-line normalization integral of exp(-beta U_i) for one even factor.

    Returns Z_i = 2 * int_0^{i_m} exp(-beta U_i) di (even extension), under
    the same normal-float rule as the radial Z.
    """
    rr, _, vv, w = _refined_weights(beta, lam_sq, 0.0, nodes, u, du)
    q = _Rule(rr, i_m)(w, -beta * vv * w)
    _require_positive(q)
    u0 = float(u[0])
    return _require_normal(float(2.0 * q * np.exp(-beta * u0)), math.log(2.0 * q) - beta * u0)


__all__ = [
    "second_derivative", "hermite_refine", "hermite_evaluate",
    "corrected_trapezoid", "cubic_tail", "radial_moments",
    "axis_normalization",
]
