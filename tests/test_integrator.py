import math

import numpy as np
import pytest

import madelung_maxent as mm
from madelung_maxent.integrator import StepControl, StopReason, integrate

# u'' = -u (beta = 0, lam_sq = -1, c = 0) from its exact state at t0 = 0.5: u = sin t
SINE = dict(beta=0.0, lam_sq=-1.0, c_coef=0.0, y0=(math.sin(0.5), math.cos(0.5)),
            t_span=(0.5, math.pi), h0=math.pi * 1e-4)
# u'' = u'^2 (beta = 2, lam_sq = 0, c = 0) from (ln 2, 2) at t0 = 0.5: u = -ln(1 - t),
# wall at t = 1
RICCATI = dict(beta=2.0, lam_sq=0.0, c_coef=0.0, y0=(math.log(2.0), 2.0), t_span=(0.5, 2.0),
               h0=2e-4)


def test_sine_endpoint():
    traj = integrate(**SINE)
    assert traj.stop_reason is StopReason.REACHED_END
    assert abs(traj.nodes[-1] - math.pi) < 1e-12
    assert abs(traj.states[-1, 0]) < 1e-8


def test_tolerance_halving_monotone_error():
    errors = []
    for k in range(6):
        rtol = 1e-6 * 0.5**k
        traj = integrate(**SINE, control=StepControl(rel_tol=rtol, abs_tol=rtol * 1e-2))
        errors.append(abs(traj.states[-1, 0]))
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:])), errors


def test_blowup_riccati():
    # u = -ln(1 - t) crosses -ln(1e-6) at t = 1 - 1e-6
    threshold = -math.log(1e-6)
    traj = integrate(**RICCATI, control=StepControl(blowup_threshold=threshold))
    assert traj.stop_reason is StopReason.BLOWUP_DETECTED
    assert abs(traj.nodes[-1] - (1.0 - 1e-6)) < 1e-4
    assert np.all(traj.states[:, 0] <= threshold)


def test_blowup_never_overshoots(params1):
    threshold = 1.0 + 40.0
    a = 4.0 / 6.0
    traj = integrate(1.0, 4.0, 2.0, (1.0 + a * 1e-8, 2 * a * 1e-4), (1e-4, 50.0), 1e-4,
                     StepControl(blowup_threshold=threshold))
    assert traj.stop_reason is StopReason.BLOWUP_DETECTED
    assert math.isfinite(traj.nodes[-1])
    assert np.all(traj.states[:, 0] <= threshold)


def test_determinism_bitwise():
    t1 = integrate(**SINE)
    t2 = integrate(**SINE)
    assert np.array_equal(t1.nodes, t2.nodes)
    assert np.array_equal(t1.states, t2.states)


def test_step_underflow_reported():
    # infinite-slope wall with no threshold: the step dies, caller decides
    traj = integrate(**RICCATI, control=StepControl())
    assert traj.stop_reason in (StopReason.STEP_UNDERFLOW, StopReason.BLOWUP_DETECTED)
    assert traj.nodes[-1] < 1.0 + 1e-9


def test_max_steps_stop():
    traj = integrate(**SINE, control=StepControl(max_steps=10))
    assert traj.stop_reason is StopReason.MAX_STEPS


def test_validation():
    with pytest.raises(mm.ValidationError, match="y0"):
        integrate(**dict(SINE, y0=(0.0,)))
    with pytest.raises(mm.ValidationError, match="t_span"):
        integrate(**dict(SINE, t_span=(1.0, 1.0)))
    with pytest.raises(mm.ValidationError, match="t_span"):
        integrate(**dict(SINE, t_span=(0.0, math.pi)))  # every run starts past the origin
    with pytest.raises(mm.ValidationError, match="h0"):
        integrate(**dict(SINE, h0=0.0))
    with pytest.raises(mm.ValidationError, match="rel_tol"):
        StepControl(rel_tol=0.0)


@pytest.mark.parametrize("kwargs, field", [
    (dict(rel_tol=math.inf), "rel_tol"),
    (dict(rel_tol=math.nan), "rel_tol"),
    (dict(abs_tol=math.inf), "abs_tol"),
    (dict(abs_tol=math.nan), "abs_tol"),
    (dict(blowup_threshold=math.nan), "blowup_threshold"),
    (dict(max_steps=math.inf), "max_steps"),
    (dict(max_steps=10.5), "max_steps"),
    (dict(max_steps=0), "max_steps"),
    (dict(max_steps=True), "max_steps"),
])
def test_step_control_rejects_nonfinite_and_nonint(kwargs, field):
    with pytest.raises(mm.ValidationError, match=field):
        StepControl(**kwargs)


def test_series_start_planar():
    # leading Taylor coefficient a = lambda^2 U0 / (2 (1 + c)) of the solver's start
    a = mm.series_coefficient(mm.make_params(1, 1, 1, "planar-radial"), 1.0, 1.0)
    assert a == pytest.approx(1.0, rel=1e-15)  # lambda^2 U0 / 4 = 1
    a = mm.series_coefficient(mm.make_params(1, 1, 1), 1.0, 2.0)
    assert a == pytest.approx(2.0 / 3.0, rel=1e-15)  # lambda^2 U0 / 6
