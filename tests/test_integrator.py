import math

import numpy as np
import pytest

import madelung_maxent as mm
from madelung_maxent.integrator import StepControl, StopReason, integrate

# u'' = u'^2 (beta = 2, lam_sq = 0, c = 0) from (ln 2, 2) at t0 = 0.5: u = -ln(1 - t),
# wall at t = 1; u crosses -ln(1e-6) at t = 1 - 1e-6
RICCATI = dict(beta=2.0, lam_sq=0.0, c_coef=0.0, y0=(math.log(2.0), 2.0), t0=0.5, h0=2e-4,
               threshold=-math.log(1e-6))


def _interior_error(nodes, u):
    """max |u + ln(1 - t)| over the nodes with t <= 0.9, away from the wall."""
    inner = nodes <= 0.9
    return float(np.max(np.abs(u[inner] + np.log1p(-nodes[inner]))))


def test_riccati_endpoint():
    nodes, u, _, stop = integrate(**RICCATI)
    assert stop is StopReason.BLOWUP_DETECTED
    assert abs(nodes[-1] - (1.0 - 1e-6)) < 1e-10  # the crossing, to bisection accuracy
    assert 0.0 <= RICCATI["threshold"] - u[-1] < 1e-9
    assert _interior_error(nodes, u) < 1e-9


def test_tolerance_halving_monotone_error():
    errors = []
    for k in range(6):
        rtol = 1e-6 * 0.5**k
        nodes, u, _, _ = integrate(**RICCATI,
                                   control=StepControl(rel_tol=rtol, abs_tol=rtol * 1e-2))
        errors.append(_interior_error(nodes, u))
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:])), errors


def test_blowup_riccati():
    nodes, u, _, stop = integrate(**RICCATI)
    assert stop is StopReason.BLOWUP_DETECTED
    assert abs(nodes[-1] - (1.0 - 1e-6)) < 1e-4
    assert np.all(u <= RICCATI["threshold"])


def test_blowup_never_overshoots(params1):
    threshold = 1.0 + 40.0
    a = 4.0 / 6.0
    nodes, u, _, stop = integrate(1.0, 4.0, 2.0, (1.0 + a * 1e-8, 2 * a * 1e-4), 1e-4, 1e-4,
                                  threshold)
    assert stop is StopReason.BLOWUP_DETECTED
    assert math.isfinite(nodes[-1])
    assert np.all(u <= threshold)


def test_determinism_bitwise():
    t1 = integrate(**RICCATI)
    t2 = integrate(**RICCATI)
    for a, b in zip(t1[:3], t2[:3]):
        assert np.array_equal(a, b)


def test_step_underflow_reported():
    # infinite-slope wall with no threshold: the step dies, caller decides
    nodes, _, _, stop = integrate(**dict(RICCATI, threshold=math.inf))
    assert stop in (StopReason.STEP_UNDERFLOW, StopReason.BLOWUP_DETECTED)
    assert nodes[-1] < 1.0 + 1e-9


def test_validation():
    with pytest.raises(mm.ValidationError, match="y0"):
        integrate(**dict(RICCATI, y0=(0.0,)))
    for t0 in (0.0, -0.5, math.inf, math.nan):  # every run starts past the origin
        with pytest.raises(mm.ValidationError, match="t0"):
            integrate(**dict(RICCATI, t0=t0))
    with pytest.raises(mm.ValidationError, match="h0"):
        integrate(**dict(RICCATI, h0=0.0))
    with pytest.raises(mm.ValidationError, match="rel_tol"):
        StepControl(rel_tol=0.0)


@pytest.mark.parametrize("kwargs, field", [
    (dict(rel_tol=math.inf), "rel_tol"),
    (dict(rel_tol=math.nan), "rel_tol"),
    (dict(abs_tol=math.inf), "abs_tol"),
    (dict(abs_tol=math.nan), "abs_tol"),
    (dict(abs_tol=-math.inf), "abs_tol"),
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
