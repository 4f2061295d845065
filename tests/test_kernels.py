import numpy as np
import pytest

from madelung_maxent import kernels

ARGS = dict(t0=1e-4, t1=50.0, u0=1.0 + (2.0 / 3.0) * 1e-8, v0=(4.0 / 3.0) * 1e-4,
            beta=1.0, lam_sq=4.0, c_coef=2.0, rtol=1e-10, atol=1e-12,
            h0=1e-4, threshold=41.0, max_steps=2_000_000)


def test_python_kernel_blowup():
    ts, us, vs, stop = kernels._madelung_loop(**ARGS)
    assert stop == kernels.STOP_BLOWUP
    assert np.all(np.diff(ts) > 0)
    assert np.all(us <= 41.0)


@pytest.mark.skipif(not kernels.NUMBA_ENABLED, reason="numba unavailable")
def test_numba_matches_python_fallback():
    jt, ju, jv, jstop = kernels.madelung_loop(**ARGS)
    pt, pu, pv, pstop = kernels._madelung_loop(**ARGS)
    assert jstop == pstop
    assert jt.size == pt.size
    np.testing.assert_allclose(jt, pt, rtol=1e-12, atol=0)
    np.testing.assert_allclose(ju, pu, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(jv, pv, rtol=1e-11, atol=1e-12)


def test_kernel_deterministic():
    a = kernels._madelung_loop(**ARGS)
    b = kernels._madelung_loop(**ARGS)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
