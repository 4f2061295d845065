"""Adaptive integration of the potential equation with a finite-distance blow-up stop.

Every state in the package solves one ODE family,

    u'' = (beta/2) u'^2 + lam_sq * u - (c/t) u',

whose solutions blow up at a finite t.  ``integrate`` validates a run and
hands it to the Dormand-Prince 5(4) loop in :mod:`madelung_maxent.kernels`,
which also defines the ``StopReason`` a run ends with.
Every run starts past the origin, t0 > 0, where the (c/t) u' term is finite
for every c; the solver reaches that start with a Taylor step.
A step that would push u past ``blowup_threshold`` is rejected and bisected,
and the run ends at the last accepted node with ``BLOWUP_DETECTED``, so
recorded values of u never exceed the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .kernels import StopReason
from .model import _require


@dataclass(frozen=True)
class StepControl:
    """Tolerances, the blow-up threshold on u, and the step-attempt budget.

    ``integrate`` takes blowup_threshold = inf as no monitor; the solver
    replaces inf with U0 + 40/beta (``solver.BLOWUP_LOG_MARGIN``), so a solve
    always stops at a finite threshold.  Defaults reproduce reference curves to
    plotting accuracy and the recorded scalars to at least six digits.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    blowup_threshold: float = math.inf
    max_steps: int = 2_000_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            _require(math.isfinite(value) and value > 0, name, "must be a positive finite real")
        _require(not math.isnan(self.blowup_threshold), "blowup_threshold", "must not be NaN")
        _require(isinstance(self.max_steps, (int, np.integer))
                 and not isinstance(self.max_steps, bool) and self.max_steps > 0,
                 "max_steps", "must be a positive integer")


def integrate(beta: float, lam_sq: float, c_coef: float, y0: Sequence[float],
              t_span: tuple[float, float], h0: float,
              control: StepControl = StepControl()):
    """Integrate the potential equation from y0 = (u, u') over ``t_span``.

    Returns the kernel's (nodes, u, du, stop_reason): every accepted step,
    starting with trial step ``h0``.  Stops early with BLOWUP_DETECTED when u
    would cross ``control.blowup_threshold`` (the run then ends at or below
    the threshold), or with STEP_UNDERFLOW if the step dies first; the caller
    decides whether underflow is fatal.
    """
    y0 = np.asarray(y0, dtype=float)
    _require(y0.shape == (2,), "y0", "must be the pair (u, u')")
    t0, t1 = float(t_span[0]), float(t_span[1])
    _require(t1 > t0 > 0.0, "t_span",
             "must be a nonempty forward interval starting past the origin, t0 > 0")
    _require(math.isfinite(h0) and h0 > 0.0, "h0", "must be a positive finite step")

    return kernels.madelung_loop(
        t0, t1, float(y0[0]), float(y0[1]), beta, lam_sq, c_coef,
        control.rel_tol, control.abs_tol, h0, control.blowup_threshold, control.max_steps)


__all__ = ["StopReason", "StepControl", "integrate"]
