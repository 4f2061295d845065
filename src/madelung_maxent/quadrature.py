"""Quadrature and resampling over the integrator's adaptive nodes.

The solvers store (r, U, U') at every accepted step, and U'' is available
exactly from the ODE, so each node interval supports a quintic Hermite
interpolant.  Its table (``hermite_table``) holds the s-free products once per
node interval, and a bucket index that finds a query's interval in O(1) unless
its bucket holds a node; each query's value and slope read its row
(``hermite_gather``), with the bits of products formed per query, and sum the
weights' (power, coefficient) terms in a fixed order.  Integrals are computed with a
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
from typing import NamedTuple

import numpy as np

from .model import Observables, ValidationError

_REFINE = 4  # per-interval subdivision of the Hermite interpolant
_BUCKETS = 8  # interval-lookup buckets per node

# (power, coefficient) terms of the quintic Hermite value weights of (U0, h U'0,
# h h U''0, U1, h U'1, h h U''1), in the order they are summed; the slope weights
# (times h) are their derivatives
_VALUE_TERMS = (
    ((0, 1.0), (3, -10.0), (4, 15.0), (5, -6.0)),
    ((1, 1.0), (3, -6.0), (4, 8.0), (5, -3.0)),
    ((2, 0.5), (3, -1.5), (4, 1.5), (5, -0.5)),
    ((3, 10.0), (4, -15.0), (5, 6.0)),
    ((3, -4.0), (4, 7.0), (5, -3.0)),
    ((3, 0.5), (4, -1.0), (5, 0.5)),
)
_SLOPE_TERMS = tuple(tuple((p - 1, p * c) for p, c in weight if p) for weight in _VALUE_TERMS)


def second_derivative(r, u, du, beta, lam_sq, c_coef):
    """U'' from the potential ODE; at r = 0 (U' = 0) the limit lam_sq U0 / (1 + c)."""
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    du = np.asarray(du, dtype=float)
    origin = r == 0.0
    return ((0.5 * beta * du * du + lam_sq * u - c_coef / np.where(origin, 1.0, r) * du)
            / np.where(origin, 1.0 + c_coef, 1.0))


class HermiteTable(NamedTuple):
    """A profile's quintic Hermite interval rows and the bucket index that finds them.

    ``rows`` holds (r0, h, U0, h U'0, h h U''0, U1, h U'1, h h U''1) per node
    interval.  The index cuts [0, nodes[-1]] into ``_BUCKETS`` buckets per node;
    ``interval`` gives, for a bucket that holds no node, the interval of every
    query in it, and -1 for a bucket that holds a node (``searchsorted`` decides).
    """

    nodes: np.ndarray
    rows: np.ndarray
    scale: float  # buckets per unit radius
    interval: np.ndarray


def _bucket(x, scale: float, n_buckets: int):
    """The bucket of each x >= 0: floor(x scale), the last bucket past the end."""
    return np.minimum((x * scale).astype(np.intp), n_buckets - 1)


def _interval_rows(r, u, du, acc):
    """(8, n - 1) rows (r0, h, U0, h U'0, h h U''0, U1, h U'1, h h U''1).

    Each product keeps the operand order of the per-query formula (h * v0 is
    (h*v0), h * h * a0 is ((h*h)*a0)), so a gathered row gives the same bits.
    """
    h = r[1:] - r[:-1]
    return np.array([r[:-1], h, u[:-1], h * du[:-1], h * h * acc[:-1],
                     u[1:], h * du[1:], h * h * acc[1:]])


def hermite_table(r, u, du, acc) -> HermiteTable:
    """The read-only interval rows of nodes r (ascending from r[0] >= 0) and their index.

    Buckets are floor(x scale), monotone in x: a node in a lower bucket lies
    below every query of a higher one, so in a bucket without a node the
    nodes at or below a query are exactly those of the lower buckets, and
    only a query that shares its bucket with a node needs ``searchsorted``.
    """
    rows = _interval_rows(r, u, du, acc)
    n_buckets = _BUCKETS * r.size
    # a support below n_buckets / DBL_MAX overflows the quotient; any finite
    # positive scale keeps the index exact, and this one keeps x * scale finite
    scale = min(n_buckets / float(r[-1]), sys.float_info.max)
    held = _bucket(r, scale, n_buckets)
    interval = np.searchsorted(held, np.arange(n_buckets)) - 1  # nodes in lower buckets, less one
    interval[held] = -1
    for a in (rows, interval):
        a.setflags(write=False)
    return HermiteTable(r, rows, scale, interval)


def _weights(s, terms):
    """Each weight of ``terms`` at s in turn, summed term by term into one reused buffer.

    A term (p, c) adds c s**p; a negative c adds the negated product, which
    is the bits of subtracting it.
    """
    powers = [None, s]  # s, s s, (s s) s, ... up to the highest power of the terms
    while len(powers) <= max(p for weight in terms for p, _ in weight):
        powers.append(powers[-1] * s)
    w, term = np.empty_like(s), np.empty_like(s)
    for (p, c), *rest in terms:
        if p:
            np.multiply(powers[p], c, out=w)
        else:
            w.fill(c)
        for p, c in rest:
            w += np.multiply(powers[p], c, out=term)
        yield w


def _hermite_sum(t, weights):
    """Sum of the data rows (U0, h U'0, ..., h h U''1) of t times their weights, in row order."""
    rows, weights = iter(t[2:]), iter(weights)
    acc = next(rows) * next(weights)
    term = np.empty_like(acc)
    for row, w in zip(rows, weights):
        acc += np.multiply(row, w, out=term)
    return acc


def _hermite_value(t, s):
    """Two-point quintic Hermite value at fractions s of the interval rows t."""
    return _hermite_sum(t, _weights(s, _VALUE_TERMS))


def _hermite_slope(t, s):
    """Two-point quintic Hermite slope at fractions s of the interval rows t.

    The fourth weight is the first negated bit for bit ((-a + b) - c =
    -((a - b) + c) in round-to-nearest), so its term subtracts the first's.
    """
    weights = _weights(s, _SLOPE_TERMS[:3] + _SLOPE_TERMS[4:])
    w = next(weights)
    slope, fourth = t[2] * w, t[5] * w
    for row, w in zip(t[3:5], weights):
        slope += np.multiply(row, w, out=w)
    slope -= fourth
    for row, w in zip(t[6:], weights):
        slope += np.multiply(row, w, out=w)
    slope /= t[1]
    return slope


# the refinement fractions s = 0, 1/4, 1/2, 3/4 and their weights, one row per s
_S = np.arange(_REFINE) / _REFINE
_VALUE_W = np.array([w.copy() for w in _weights(_S, _VALUE_TERMS)])[:, :, None]
_SLOPE_W = np.array([w.copy() for w in _weights(_S, _SLOPE_TERMS)])[:, :, None]


def hermite_refine(r, u, du, acc):
    """Subdivide every node interval _REFINE-fold; returns refined (r, u, du).

    The weights at the fixed fractions are computed once, so each row op runs
    over the intervals; the values are those of ``_hermite_value``/``_hermite_slope``.
    """
    t = _interval_rows(r, u, du, acc)[:, None, :]
    rr = t[0] + t[1] * _S[:, None]
    uu = _hermite_sum(t, _VALUE_W)
    vv = _hermite_sum(t, _SLOPE_W) / t[1]
    return (np.append(rr.T.ravel(), r[-1]),
            np.append(uu.T.ravel(), u[-1]),
            np.append(vv.T.ravel(), du[-1]))


def hermite_gather(table: HermiteTable, query):
    """The rows of each query's node interval in ``table``, and its fraction s there.

    Queries must lie within [r[0], r[-1]].  A query at a node takes the
    interval that starts there (the last node, the last interval, at s = 1),
    so its value is the node's U bit for bit (the node's weight is 1, the
    others 0), but its slope is the node's (h U') / h, which can differ from
    the stored U' in the last bit.  The table's U'' must be the true second
    derivative at the nodes, which the ODE gives for every profile: a profile
    holds a solution of its own equation.
    """
    r = table.nodes
    q = np.atleast_1d(np.asarray(query, dtype=float))
    if not np.all((q >= r[0]) & (q <= r[-1])):  # NaN fails both comparisons
        raise ValidationError("query: points outside the tabulated range or NaN")
    j = table.interval[_bucket(q, table.scale, table.interval.size)]
    shared = j < 0  # the query's bucket holds a node
    j[shared] = np.minimum(np.searchsorted(r, q[shared], side="right") - 1, r.size - 2)
    t = np.take(table.rows, j, axis=1)
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

    return Observables(beta=beta, log_z=log_z,
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
    "second_derivative", "HermiteTable", "hermite_table", "hermite_gather", "hermite_refine",
    "radial_moments", "axis_normalization",
]
