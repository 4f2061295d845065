"""Adaptive integration of the potential equation up to its finite-distance blow-up.

Every state in the package solves one ODE family,

    u'' = (beta/2) u'^2 + lam_sq * u - (c/t) u',

whose solutions blow up at a finite t.  ``integrate`` validates a run and
hands it to the Dormand-Prince 5(4) loop in :mod:`madelung_maxent.kernels`,
which also defines the ``StopReason`` a run ends with.
Every run starts past the origin, t0 > 0, where the (c/t) u' term is finite
for every c; the solver reaches that start with a Taylor step.  A run has no
span end: a step that would push u past ``threshold`` is rejected and
bisected, and the run ends at the last accepted node with ``BLOWUP_DETECTED``,
so recorded values of u never exceed the threshold.  ``MAX_STEPS`` step
attempts bound a run that never reaches the wall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .kernels import StopReason
from .model import _require

MAX_STEPS = 2_000_000  # step attempts before a run that never reaches the wall stops


@dataclass(frozen=True)
class StepControl:
    """Error tolerances of the DP45 loop.

    Defaults reproduce reference curves to plotting accuracy and the recorded
    scalars to at least six digits.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            _require(math.isfinite(value) and value > 0, name, "must be a positive finite real")


def integrate(beta: float, lam_sq: float, c_coef: float, y0: Sequence[float],
              t0: float, h0: float, threshold: float,
              control: StepControl = StepControl()):
    """Integrate the potential equation from y0 = (u, u') at ``t0`` toward its wall.

    Returns the kernel's (nodes, u, du, stop_reason): every accepted step,
    starting with trial step ``h0``.  Stops with BLOWUP_DETECTED when u would
    cross ``threshold`` (the run then ends at or below it), with STEP_UNDERFLOW
    if the step dies first, or with MAX_STEPS once ``MAX_STEPS`` attempts are
    spent; the caller decides whether anything but blow-up is fatal.
    """
    y0 = np.asarray(y0, dtype=float)
    _require(y0.shape == (2,), "y0", "must be the pair (u, u')")
    t0 = float(t0)
    _require(math.isfinite(t0) and t0 > 0.0, "t0",
             "must be a finite start past the origin, t0 > 0")
    _require(math.isfinite(h0) and h0 > 0.0, "h0", "must be a positive finite step")

    return kernels.madelung_loop(
        t0, float(y0[0]), float(y0[1]), beta, lam_sq, c_coef,
        control.rel_tol, control.abs_tol, h0, threshold, MAX_STEPS)


__all__ = ["MAX_STEPS", "StopReason", "StepControl", "integrate"]
