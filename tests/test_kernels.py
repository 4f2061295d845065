import hashlib
import math

import numpy as np
import pytest

from madelung_maxent import kernels
from madelung_maxent.kernels import StopReason

ARGS = dict(t0=1e-4, u0=1.0 + (2.0 / 3.0) * 1e-8, v0=(4.0 / 3.0) * 1e-4,
            beta=1.0, lam_sq=4.0, c_coef=2.0, rtol=1e-10, atol=1e-12,
            h0=1e-4, threshold=41.0, max_steps=2_000_000)


def test_python_kernel_blowup():
    ts, us, vs, stop = kernels.madelung_loop(**ARGS)
    assert stop == StopReason.BLOWUP_DETECTED
    assert np.all(np.diff(ts) > 0)
    assert np.all(us <= 41.0)


def test_kernel_deterministic():
    a = kernels.madelung_loop(**ARGS)
    b = kernels.madelung_loop(**ARGS)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def _solver_args(c_coef, beta, **override):
    """Kernel arguments as the solver builds them at U0 = m = hbar = 1."""
    lam_sq = 4.0 / beta
    t0 = 1e-4
    a = lam_sq / (2.0 * (1.0 + c_coef))
    args = dict(t0=t0, u0=1.0 + a * t0 * t0, v0=2.0 * a * t0, beta=beta, lam_sq=lam_sq,
                c_coef=float(c_coef), rtol=1e-10, atol=1e-12, h0=t0,
                threshold=1.0 + 40.0 / beta, max_steps=2_000_000)
    args.update(override)
    return args


def _digest(args):
    ts, us, vs, stop = kernels.madelung_loop(**args)
    return hashlib.sha256(ts.tobytes() + us.tobytes() + vs.tobytes()).hexdigest(), stop


# sha256 of the returned ts|us|vs bytes and the stop reason: any change of the
# loop's arithmetic or of its step sequence moves them
SOLVE_PINS = {
    (0, 1e-4): "a37a9e814177e0d662c8ed199b6a4bd5d3df96a6397aac6bb09ba3065e86902f",
    (0, 1.0): "9c5c437b9ef02c202b730f444f21b1b0ba41cb51740d7e18658e74181ea12ccd",
    (0, 100.0): "a3744a90a3f8710a67c4d87c6f0b2f7eeb0976d5df5f2f71dc0ff70e1aff14dc",
    (1, 1e-4): "e4a19bc21b490941915104acb2fa7e84b1a0b16e8fbd80026660c5a773ad6773",
    (1, 1.0): "c98148ccf2dcc8e52924f667eb83d44a64b388941d24ebb6a1f6d95f7a827d45",
    (1, 100.0): "bf905759d3eb1aa2093eeb2c36ef076d8dd0d4558c353510db9562ef16785c06",
    (2, 1e-4): "211cd47c90fa5e46cd076a072de2e6facd50dacfa2f0b166c3f9da2be71b3fd7",
    (2, 1.0): "8f3f2da275334e8b3163b930d93e078f8f8acd5c7ad5b93a2083e5781f852538",
    (2, 100.0): "36b8df1985de05aaf1993abad0b7cdcf661af94f78a40fdbc8c73f45e7de9d08",
}


@pytest.mark.parametrize("c_coef,beta", sorted(SOLVE_PINS))
def test_kernel_bits_pinned_per_geometry(c_coef, beta):
    assert _digest(_solver_args(c_coef, beta)) == (SOLVE_PINS[c_coef, beta],
                                                   StopReason.BLOWUP_DETECTED)


STOP_PINS = {
    # every attempt fails the error test until t + h == t
    "underflow-tolerance": (dict(rtol=1e-100, atol=1e-100), StopReason.STEP_UNDERFLOW,
                            "a90a253f1fad923562a145c0596d035f45482bb235d8e50c54df53cab11fdd77"),
    # every attempt overflows and is halved until t + h == t
    "underflow-non-finite": (dict(v0=1e100), StopReason.STEP_UNDERFLOW,
                             "1a120a20862243fd118d7aa35b1154d6f5de64ea2458f56da33e9ebabf40262c"),
    "max-steps": (dict(max_steps=50), StopReason.MAX_STEPS,
                  "24f5eca761c7229a71bc5d25dd61dbf389ccd6fa437292f67622af257fb1afc6"),
    # the first attempts fail the error test, so the first stage is reused
    # after rejections before any step is accepted
    "rejected-start": (dict(h0=1.0), StopReason.BLOWUP_DETECTED,
                       "5c9d79a54dd4174297a48328458639363b178ec3e01cefbdae67663ac09e00bc"),
    # no monitor: the run ends on a sub-ulp step at the wall
    "no-threshold": (dict(threshold=math.inf), StopReason.BLOWUP_DETECTED,
                     "1d02d56eae6f4d2d71f4105de3d8b445476977fb1db73e03aaa964a0f1c6244b"),
}


@pytest.mark.parametrize("case", sorted(STOP_PINS))
def test_kernel_bits_pinned_per_stop_path(case):
    override, stop, pin = STOP_PINS[case]
    assert _digest(_solver_args(2, 1.0, **override)) == (pin, stop)
