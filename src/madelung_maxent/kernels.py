"""Hot integration kernel: adaptive Dormand-Prince 5(4) loop for the
self-trapping quantum-potential ODE family

    u'' = (beta/2) u'^2 + lambda_sq * u - (c/t) u',

with c = 0 (Cartesian factor), 1 (planar-radial) or 2 (paper-radial), and a
monitored blow-up stop on u.  Every run starts past the origin (t0 > 0), so
each stage evaluates the (c/t) u' term the same way for every c; at c = 0 it
is an exact zero.  This scalar loop dominates the runtime of every solve,
sweep, and inversion, so it is compiled with numba when available.

``madelung_loop`` is the jitted loop when numba is importable and the plain
Python function ``_madelung_loop`` otherwise; both run the same source, so
they share one definition of the arithmetic.

Stop codes: 0 reached end, 1 blow-up detected, 2 step underflow, 3 max steps.
"""

from __future__ import annotations

import math

import numpy as np

# Dormand-Prince 5(4): 5th-order propagation, embedded 4th-order error estimate.
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# embedded error weights (5th-order minus 4th-order coefficients)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0
_EPS = float(np.finfo(np.float64).eps)

STOP_REACHED_END = 0
STOP_BLOWUP = 1
STOP_UNDERFLOW = 2
STOP_MAX_STEPS = 3


def _madelung_loop(t0, t1, u0, v0, beta, lam_sq, c_coef,
                   rtol, atol, h0, threshold, max_steps):
    """Integrate the Madelung potential system from (t0, u0, v0) toward t1.

    Records every accepted step.  A proposed step whose u-component would
    exceed ``threshold`` is rejected and the step is bisected; once the step
    underflows while bisecting, the run stops at the last accepted node with
    the blow-up stop code, so no recorded u ever exceeds the threshold.

    Returns (ts, us, vs, stop_code).
    """
    cap = 4096
    ts = np.empty(cap)
    us = np.empty(cap)
    vs = np.empty(cap)
    ts[0] = t0
    us[0] = u0
    vs[0] = v0
    n = 1

    t = t0
    u = u0
    v = v0
    span = t1 - t0
    end_slack = 4.0 * _EPS * abs(t1)
    h = h0
    if h > span:
        h = span
    stop = STOP_MAX_STEPS
    just_rejected = False

    attempts = 0
    while attempts < max_steps:
        attempts += 1
        if t1 - t <= end_slack:
            stop = STOP_REACHED_END
            break
        if h > t1 - t:
            h = t1 - t

        # --- one DP45 attempt (state is the scalar pair (u, v)) ---
        k1u = v
        k1v = 0.5 * beta * v * v + lam_sq * u - c_coef / t * v

        tu = u + h * (_A21 * k1u)
        tv = v + h * (_A21 * k1v)
        tt = t + _C2 * h
        k2u = tv
        k2v = 0.5 * beta * tv * tv + lam_sq * tu - c_coef / tt * tv

        tu = u + h * (_A31 * k1u + _A32 * k2u)
        tv = v + h * (_A31 * k1v + _A32 * k2v)
        tt = t + _C3 * h
        k3u = tv
        k3v = 0.5 * beta * tv * tv + lam_sq * tu - c_coef / tt * tv

        tu = u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
        tv = v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
        tt = t + _C4 * h
        k4u = tv
        k4v = 0.5 * beta * tv * tv + lam_sq * tu - c_coef / tt * tv

        tu = u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
        tv = v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
        tt = t + _C5 * h
        k5u = tv
        k5v = 0.5 * beta * tv * tv + lam_sq * tu - c_coef / tt * tv

        tu = u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
        tv = v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
        tt = t + h
        k6u = tv
        k6v = 0.5 * beta * tv * tv + lam_sq * tu - c_coef / tt * tv

        u5 = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
        v5 = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)

        k7u = v5
        k7v = 0.5 * beta * v5 * v5 + lam_sq * u5 - c_coef / tt * v5

        erru = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
        errv = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)

        finite = math.isfinite(u5) and math.isfinite(v5) and math.isfinite(erru) and math.isfinite(errv)
        if finite:
            su = atol + rtol * max(abs(u), abs(u5))
            sv = atol + rtol * max(abs(v), abs(v5))
            err_norm = math.sqrt(0.5 * ((erru / su) ** 2 + (errv / sv) ** 2))
        else:
            err_norm = 2.0

        if (not finite) or err_norm > 1.0:
            if not finite:
                factor = 0.5
            else:
                factor = SAFETY * err_norm ** -0.2
                if factor < MIN_FACTOR:
                    factor = MIN_FACTOR
            h *= factor
            if t + h == t:
                stop = STOP_UNDERFLOW
                break
            just_rejected = True
            continue

        if u5 > threshold:
            # monitored component would overshoot: bisect toward the crossing
            h *= 0.5
            if t + h == t:
                stop = STOP_BLOWUP
                break
            just_rejected = True
            continue

        # accept
        t_new = t + h
        if t_new == t:
            # sub-ulp step: only threshold bisection shrinks h this far with
            # the error in control, so the blow-up wall is at the next float
            stop = STOP_BLOWUP
            break
        t = t_new
        u = u5
        v = v5
        if n == cap:
            cap *= 2
            nts = np.empty(cap)
            nus = np.empty(cap)
            nvs = np.empty(cap)
            nts[:n] = ts[:n]
            nus[:n] = us[:n]
            nvs[:n] = vs[:n]
            ts, us, vs = nts, nus, nvs
        ts[n] = t
        us[n] = u
        vs[n] = v
        n += 1

        if err_norm == 0.0:
            factor = MAX_FACTOR
        else:
            factor = SAFETY * err_norm ** -0.2
            if factor < MIN_FACTOR:
                factor = MIN_FACTOR
            elif factor > MAX_FACTOR:
                factor = MAX_FACTOR
        if just_rejected and factor > 1.0:
            factor = 1.0
        just_rejected = False
        h *= factor

    return ts[:n].copy(), us[:n].copy(), vs[:n].copy(), stop


madelung_loop = _madelung_loop
NUMBA_ENABLED = False
try:
    import numba
except ImportError:
    pass
else:
    madelung_loop = numba.njit(cache=True)(_madelung_loop)
    NUMBA_ENABLED = True

__all__ = [
    "madelung_loop", "NUMBA_ENABLED",
    "STOP_REACHED_END", "STOP_BLOWUP", "STOP_UNDERFLOW", "STOP_MAX_STEPS",
    "SAFETY", "MIN_FACTOR", "MAX_FACTOR",
]
