"""Quadrature and resampling over the integrator's adaptive nodes.

The solvers store (r, U, U') at every accepted step, and U'' is available
exactly from the ODE, so each node interval supports a quintic Hermite
interpolant.  Its table (``hermite_table``) holds the s-free products once per
node interval; each query's value and slope read its row (``hermite_gather``),
with the bits of products formed per query.  Integrals are computed with a
derivative-corrected composite trapezoid rule

    int_a^b f  ~=  h/2 (f_a + f_b) + h^2/12 (f'_a - f'_b)          (O(h^4))

after subdividing every interval 4x with the Hermite interpolant, which
pushes the kinetic-energy identity error to ~1e-9 even on sparse node sets.
The unreached sliver between the last node and the support radius is left
out: the solve stops where the relative density falls below e^-40, so the
sliver adds less than half an ulp to every sum
(``tests/test_quadrature.py::test_unreached_sliver_is_below_rounding``).

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


def hermite_table(r, u, du, acc):
    """Read-only (8, n - 1) rows (r0, h, U0, h U'0, h h U''0, U1, h U'1, h h U''1).

    Each product keeps the operand order of the per-query formula (h * v0 is
    (h*v0), h * h * a0 is ((h*h)*a0)), so a gathered row gives the same bits.
    """
    h = r[1:] - r[:-1]
    table = np.array([r[:-1], h, u[:-1], h * du[:-1], h * h * acc[:-1],
                      u[1:], h * du[1:], h * h * acc[1:]])
    table.setflags(write=False)
    return table


def _value_basis(s):
    """Quintic Hermite value weights of (U0, h U'0, h h U''0, U1, h U'1, h h U''1) at s."""
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    s5 = s4 * s
    yield 1 - 10 * s3 + 15 * s4 - 6 * s5
    yield s - 6 * s3 + 8 * s4 - 3 * s5
    yield 0.5 * s2 - 1.5 * s3 + 1.5 * s4 - 0.5 * s5
    yield 10 * s3 - 15 * s4 + 6 * s5
    yield -4 * s3 + 7 * s4 - 3 * s5
    yield 0.5 * s3 - s4 + 0.5 * s5


def _slope_basis(s):
    """The matching slope weights (times h) at s."""
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    yield -30 * s2 + 60 * s3 - 30 * s4
    yield 1 - 18 * s2 + 32 * s3 - 15 * s4
    yield s - 4.5 * s2 + 6 * s3 - 2.5 * s4
    yield 30 * s2 - 60 * s3 + 30 * s4
    yield -12 * s2 + 28 * s3 - 15 * s4
    yield 1.5 * s2 - 4 * s3 + 2.5 * s4


def _combine(t, basis):
    """Sum of the table rows (U0, ..., h h U''1) times their weights, in row order.

    Python evaluates the terms left to right, so each draws its own weight and a
    query block holds one weight at a time.
    """
    _, _, u0, hv0, hha0, u1, hv1, hha1 = t
    w = iter(basis)
    return (u0 * next(w) + hv0 * next(w) + hha0 * next(w)
            + u1 * next(w) + hv1 * next(w) + hha1 * next(w))


def _hermite_value(t, s):
    """Two-point quintic Hermite value at fractions s of the interval rows t."""
    return _combine(t, _value_basis(s))


def _hermite_slope(t, s):
    """Two-point quintic Hermite slope at fractions s of the interval rows t."""
    return _combine(t, _slope_basis(s)) / t[1]


# the refinement fractions s = 0, 1/4, 1/2, 3/4 and their weights, one row per s
_S = np.arange(_REFINE) / _REFINE
_VALUE_W = np.array(list(_value_basis(_S)))[:, :, None]
_SLOPE_W = np.array(list(_slope_basis(_S)))[:, :, None]


def hermite_refine(r, u, du, acc):
    """Subdivide every node interval _REFINE-fold; returns refined (r, u, du).

    The weights at the fixed fractions are computed once, so each row op runs
    over the intervals; the values are those of ``_hermite_value``/``_hermite_slope``.
    """
    t = hermite_table(r, u, du, acc)[:, None, :]
    rr = t[0] + t[1] * _S[:, None]
    uu = _combine(t, _VALUE_W)
    vv = _combine(t, _SLOPE_W) / t[1]
    return (np.append(rr.T.ravel(), r[-1]),
            np.append(uu.T.ravel(), u[-1]),
            np.append(vv.T.ravel(), du[-1]))


def hermite_gather(r, table, query):
    """The rows of each query's node interval in ``table``, and its fraction s there.

    Queries must lie within [r[0], r[-1]]; exact node hits return node data.
    The table's U'' must be the true second derivative at the nodes, which the
    ODE gives for every profile: a profile holds a solution of its own equation.
    """
    q = np.atleast_1d(np.asarray(query, dtype=float))
    if not np.all((q >= r[0]) & (q <= r[-1])):  # NaN fails both comparisons
        raise ValidationError("query: points outside the tabulated range or NaN")
    t = np.take(table, np.clip(np.searchsorted(r, q, side="right") - 1, 0, r.size - 2), axis=1)
    return t, (q - t[0]) / t[1]


def _trapezoid(x, *integrands):
    """Derivative-corrected trapezoid sums over the grid x, one per (f, f') pair."""
    h = np.diff(x)
    half_h, h2_12 = 0.5 * h, h * h / 12.0
    return [float(np.sum(half_h * (f[:-1] + f[1:]) + h2_12 * (df[:-1] - df[1:])))
            for f, df in integrands]


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
    by construction.  k_bar is the closed form mass/beta.  Z is formed and
    refused first, so a solve whose Z underflows stops before the other sums.
    """
    rr, uu, vv, w = _refined_weights(beta, lam_sq, c_coef, nodes, u, du)
    u0 = float(u[0])
    bv = beta * vv

    zq, = _trapezoid(rr, (w * rr, w * (1.0 - bv * rr)))
    _require_positive(zq)
    log_z = float(np.log(2.0 * np.pi * zq) - beta * u0)
    z = _require_normal(float(np.exp(log_z)), log_z)

    aa = second_derivative(rr, uu, vv, beta, lam_sq, c_coef)
    r2, r3 = rr * rr, rr**3
    # entropy from the actual density values; shares nodes and rule with zq.
    # rho is 0 only where exp(-beta u0) underflowed while Z did not (hbar
    # ~ 1e10 at beta ~ 750): the entropy is then NaN and Observables refuses it
    rho = w * (np.exp(-beta * u0) / z)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_rho = np.log(rho)
        rho_log_rho = rho * log_rho
        fh = -rho_log_rho * rr
        dfh = bv * rho * rr * (log_rho + 1.0) - rho_log_rho

    uq, kq, r2q, hq = _trapezoid(
        rr,
        (uu * w * rr, w * (vv * rr + uu - beta * uu * vv * rr)),
        (r2 * vv * w, w * (2.0 * rr * vv + r2 * aa - beta * rr * rr * vv * vv)),
        (r3 * w, w * (3.0 * rr * rr - bv * r3)),
        (fh, dfh))

    return Observables(beta=beta, z=z, log_z=log_z,
                       u_bar=float(uq / zq),
                       k_bar=mass / beta,
                       k_bar_quad=float(mass * kq / (2.0 * zq)),
                       entropy=float(2.0 * np.pi * hq),
                       r2_bar=float(r2q / zq),
                       r_m=r_m)


def axis_normalization(beta: float, nodes, u, du, lam_sq: float) -> float:
    """Full-line normalization integral of exp(-beta U_i) for one even factor.

    Returns Z_i = 2 * int_0^{i_m} exp(-beta U_i) di (even extension), summed
    to the last node like the radial pass, under the same normal-float rule
    as the radial Z.
    """
    rr, _, vv, w = _refined_weights(beta, lam_sq, 0.0, nodes, u, du)
    q, = _trapezoid(rr, (w, -beta * vv * w))
    _require_positive(q)
    u0 = float(u[0])
    return _require_normal(float(2.0 * q * np.exp(-beta * u0)), math.log(2.0 * q) - beta * u0)


__all__ = [
    "second_derivative", "hermite_table", "hermite_gather", "hermite_refine", "radial_moments",
    "axis_normalization",
]
