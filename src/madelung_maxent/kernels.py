"""Hot integration kernel: adaptive Dormand-Prince 5(4) loop for the
self-trapping quantum-potential ODE family

    u'' = (beta/2) u'^2 + lambda_sq * u - (c/t) u',

with c = 0 (Cartesian factor), 1 (planar-radial) or 2 (paper-radial), and a
monitored blow-up stop on u.  Every run starts past the origin (t0 > 0), so
each stage evaluates the (c/t) u' term the same way for every c; at c = 0 it
is an exact zero.  There is no span end: a run ends at the wall
(``BLOWUP_DETECTED``), when the step dies (``STEP_UNDERFLOW``), or after
``max_steps`` attempts (``MAX_STEPS``).  This scalar loop dominates the
runtime of every solve, sweep, and inversion.

The tableau is first-same-as-last (FSAL): stage 7 is the slope at the
accepted point, so it becomes the next step's stage 1, and a rejected step
keeps its stage 1.  The loop is written for CPython, where every bytecode
costs: the tableau lives in locals, ``max`` is inlined, and nodes go into
lists.  None of this moves a bit: each stage is the textbook DP45 formula
with its operations in textbook order (``x ** 2`` stays, since ``x * x`` can
round differently), and ``tests/test_kernels.py`` pins the returned nodes.
"""

from __future__ import annotations

import enum
import math

import numpy as np

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0

NUMBA_ENABLED = False  # no numba loop exists; perfbench/run.py still records this flag


class StopReason(enum.Enum):
    BLOWUP_DETECTED = "blowup-detected"
    STEP_UNDERFLOW = "step-underflow"
    MAX_STEPS = "max-steps"


def madelung_loop(t0, u0, v0, beta, lam_sq, c_coef,
                  rtol, atol, h0, threshold, max_steps):
    """Integrate the Madelung potential system from (t0, u0, v0) toward its wall.

    Records every accepted step.  A proposed step whose u-component would
    exceed ``threshold`` is rejected and the step is bisected; once the step
    underflows while bisecting, the run stops at the last accepted node with
    ``BLOWUP_DETECTED``, so no recorded u ever exceeds the threshold.  With
    ``threshold = inf`` nothing is monitored; the run ends where the step dies
    at the wall.

    Returns (ts, us, vs, stop) with ``stop`` a ``StopReason``.
    """
    # Dormand-Prince 5(4): 5th-order propagation, embedded 4th-order error
    # estimate (the error weights are 5th- minus 4th-order coefficients)
    c2, c3, c4, c5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
    a21 = 1.0 / 5.0
    a31, a32 = 3.0 / 40.0, 9.0 / 40.0
    a41, a42, a43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
    a51, a52, a53, a54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
    a61, a62, a63, a64, a65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                               49.0 / 176.0, -5103.0 / 18656.0)
    b1, b3, b4, b5, b6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
    e1, e3, e4, e5, e6, e7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                              -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

    ts = [t0]
    us = [u0]
    vs = [v0]
    t = t0
    u = u0
    v = v0
    hb = 0.5 * beta
    h = h0
    stop = StopReason.MAX_STEPS
    just_rejected = False
    au = abs(u)
    av = abs(v)
    k1u = v
    k1v = hb * v * v + lam_sq * u - c_coef / t * v

    for _ in range(max_steps):
        # --- one DP45 attempt (state is the scalar pair (u, v)) ---
        tu = u + h * (a21 * k1u)
        tv = v + h * (a21 * k1v)
        k2u = tv
        k2v = hb * tv * tv + lam_sq * tu - c_coef / (t + c2 * h) * tv

        tu = u + h * (a31 * k1u + a32 * k2u)
        tv = v + h * (a31 * k1v + a32 * k2v)
        k3u = tv
        k3v = hb * tv * tv + lam_sq * tu - c_coef / (t + c3 * h) * tv

        tu = u + h * (a41 * k1u + a42 * k2u + a43 * k3u)
        tv = v + h * (a41 * k1v + a42 * k2v + a43 * k3v)
        k4u = tv
        k4v = hb * tv * tv + lam_sq * tu - c_coef / (t + c4 * h) * tv

        tu = u + h * (a51 * k1u + a52 * k2u + a53 * k3u + a54 * k4u)
        tv = v + h * (a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v)
        k5u = tv
        k5v = hb * tv * tv + lam_sq * tu - c_coef / (t + c5 * h) * tv

        tu = u + h * (a61 * k1u + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u)
        tv = v + h * (a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v)
        t_new = t + h
        c_t = c_coef / t_new
        k6u = tv
        k6v = hb * tv * tv + lam_sq * tu - c_t * tv

        u5 = u + h * (b1 * k1u + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
        v5 = v + h * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
        k7u = v5
        k7v = hb * v5 * v5 + lam_sq * u5 - c_t * v5

        erru = h * (e1 * k1u + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u + e7 * k7u)
        errv = h * (e1 * k1v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)

        if not (math.isfinite(u5) and math.isfinite(v5)
                and math.isfinite(erru) and math.isfinite(errv)):
            h *= 0.5
            if t + h == t:
                stop = StopReason.STEP_UNDERFLOW
                break
            just_rejected = True
            continue
        au5 = abs(u5)
        av5 = abs(v5)
        su = atol + rtol * (au5 if au5 > au else au)
        sv = atol + rtol * (av5 if av5 > av else av)
        try:
            err_norm = math.sqrt(0.5 * ((erru / su) ** 2 + (errv / sv) ** 2))
        except OverflowError:
            err_norm = math.inf  # reject: a float ** raises where * gives inf
        if err_norm > 1.0:
            factor = SAFETY * err_norm ** -0.2
            h *= factor if factor > MIN_FACTOR else MIN_FACTOR
            if t + h == t:
                stop = StopReason.STEP_UNDERFLOW
                break
            just_rejected = True
            continue

        if u5 > threshold:
            # monitored component would overshoot: bisect toward the crossing
            h *= 0.5
            if t + h == t:
                stop = StopReason.BLOWUP_DETECTED
                break
            just_rejected = True
            continue

        # accept
        if t_new == t:
            # sub-ulp step: only threshold bisection shrinks h this far with
            # the error in control, so the blow-up wall is at the next float
            stop = StopReason.BLOWUP_DETECTED
            break
        t = t_new
        u = u5
        v = v5
        au = au5
        av = av5
        k1u = k7u
        k1v = k7v
        ts.append(t)
        us.append(u)
        vs.append(v)

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

    return np.array(ts), np.array(us), np.array(vs), stop


__all__ = ["madelung_loop", "StopReason", "SAFETY", "MIN_FACTOR", "MAX_FACTOR"]
