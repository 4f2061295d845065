import hashlib

import numpy as np
import pytest
from scipy.integrate import quad

import madelung_maxent as mm
from madelung_maxent import quadrature as q
from madelung_maxent.solver import _resample_slope


def test_corrected_trapezoid_exact_on_cubics():
    rng = np.random.default_rng(7)
    x = np.sort(np.concatenate([[0.0, 2.0], rng.uniform(0, 2, 17)]))
    f = x**3 - 2 * x**2 + 0.5 * x - 3
    df = 3 * x**2 - 4 * x + 0.5
    exact = (2.0**4 / 4 - 2 * 2.0**3 / 3 + 0.25 * 2.0**2 - 3 * 2.0)
    assert q._trapezoid(x, (f, df))[0] == pytest.approx(exact, rel=1e-14)


def test_corrected_trapezoid_fourth_order():
    errs = []
    for n in (20, 40, 80):
        x = np.linspace(0.0, np.pi, n + 1)
        val = q._trapezoid(x, (np.sin(x), np.cos(x)))[0]
        errs.append(abs(val - 2.0))
    assert errs[0] / errs[1] == pytest.approx(16, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(16, rel=0.2)


def _hermite(x, f, df, ddf, query):
    """Value and slope of the piecewise quintic Hermite on (f, df, ddf) at the queries."""
    args = q.hermite_gather(q.hermite_table(x, f, df, ddf), query)
    return q._hermite_value(*args), q._hermite_slope(*args)


def test_hermite_evaluate_reproduces_nodes():
    x = np.linspace(0.0, 1.0, 11)
    f, df, ddf = np.sin(x), np.cos(x), -np.sin(x)
    u, v = _hermite(x, f, df, ddf, x)
    np.testing.assert_allclose(u, f, rtol=0, atol=1e-15)
    np.testing.assert_allclose(v, df, rtol=1e-13, atol=1e-15)


def test_hermite_evaluate_accuracy():
    x = np.linspace(0.0, np.pi, 30)
    query = np.linspace(0.0, np.pi, 997)
    u, v = _hermite(x, np.sin(x), np.cos(x), -np.sin(x), query)
    assert np.max(np.abs(u - np.sin(query))) < 1e-10
    assert np.max(np.abs(v - np.cos(query))) < 1e-8


def test_hermite_evaluate_range_checked():
    x = np.linspace(0.0, 1.0, 5)
    z = np.zeros_like(x)
    with pytest.raises(ValueError):
        _hermite(x, z, z, z, np.array([1.5]))


@pytest.mark.parametrize("query", [np.nan, [0.5, np.nan]])
def test_resample_refuses_nan_query(radial1, query):
    """NaN fails both range comparisons, so it must be refused, not interpolated."""
    with pytest.raises(mm.ValidationError, match="^query: "):
        mm.resample(radial1, query)


def test_refine_plus_trapezoid_beats_raw_rule():
    x = np.linspace(0.0, np.pi, 25)
    f, df, ddf = np.sin(x), np.cos(x), -np.sin(x)
    raw = abs(q._trapezoid(x, (f, df))[0] - 2.0)
    rr, ff, dff = q.hermite_refine(x, f, df, ddf)
    fine = abs(q._trapezoid(rr, (ff, dff))[0] - 2.0)
    assert fine < raw / 100


def test_radial_moments_against_quadpack(radial1):
    """Independent oracle: QUADPACK over the resampled potential."""
    p = radial1.params
    nodes, u, du = radial1.nodes, radial1.u, radial1.du

    def integrand(kind):
        def f(r):
            uu = mm.resample(radial1, np.array([r]))
            vv = _resample_slope(radial1, np.array([r]))
            w = np.exp(-p.beta * uu[0])
            if kind == "z":
                return w * r
            if kind == "u":
                return uu[0] * w * r
            return r * r * vv[0] * w
        return f

    r_stop = nodes[-1]
    pieces = np.concatenate([np.linspace(0, r_stop * 0.9, 8),
                             r_stop - np.geomspace(r_stop * 0.1, r_stop * 1e-9, 8),
                             [r_stop]])
    def integrate_oracle(kind):
        total = 0.0
        for lo, hi in zip(pieces[:-1], pieces[1:]):
            total += quad(integrand(kind), lo, hi, limit=200)[0]
        return total

    mom = q.radial_moments(p.beta, p.mass, p.lambda_sq, 2.0, nodes, u, du, radial1.r_m)
    zq = integrate_oracle("z")
    assert mom.z == pytest.approx(2 * np.pi * zq, rel=1e-9)
    assert mom.u_bar == pytest.approx(integrate_oracle("u") / zq, rel=1e-8)
    assert mom.k_bar_quad == pytest.approx(p.mass * integrate_oracle("k") / (2 * zq), rel=1e-8)


def test_second_derivative_origin_limit():
    acc = q.second_derivative(np.array([0.0]), np.array([1.0]), np.array([0.0]),
                              1.0, 4.0, 2.0)
    assert acc[0] == pytest.approx(4.0 / 3.0, rel=1e-15)  # 2a = lambda^2 u0/3


_PIN_BETAS = np.geomspace(1e-12, 700.0, 20)
_PIN_FIELDS = ("z", "log_z", "u_bar", "k_bar_quad", "entropy", "r2_bar", "r_m")


def _solves():
    """Paper- and planar-radial solves, then the Cartesian factor, at each pinned beta."""
    for beta in _PIN_BETAS:
        for variant in mm.LaplacianVariant:
            yield mm.solve_radial(mm.SolveRequest(params=mm.make_params(1.0, 1.0, beta, variant)))
        yield mm.solve_cartesian_factor(mm.SolveRequest(
            params=mm.make_params(1.0, 1.0, beta), geometry=mm.Geometry.CARTESIAN_FACTOR))


def test_quadrature_floats_pinned():
    """Every quadrature float of both radial variants and the Cartesian Z, g in [1e-12, 700]."""
    values = []
    for p in _solves():
        values += ([p.z] if isinstance(p, mm.AxisProfile)
                   else [getattr(p.observables, name) for name in _PIN_FIELDS])
    digest = hashlib.sha256(np.array(values, dtype="<f8").tobytes()).hexdigest()
    assert digest == "03f5ad5853c729ba2469d9f0f6c570fb7ea04eb3684f1c7512558a4e2fa01dea"


def test_unreached_sliver_is_below_rounding(monkeypatch):
    """The sums end at the last node, where the density is e^-40 of its peak.

    B = (support - last node) * |integrand at the last node| bounds the sliver
    left out, and for every sum S of every solve S + B == S.
    """
    calls = []
    trapezoid = q._trapezoid

    def recording(x, *integrands):
        sums = trapezoid(x, *integrands)
        calls.extend((x[-1], f[-1], total) for (f, _), total in zip(integrands, sums))
        return sums

    monkeypatch.setattr(q, "_trapezoid", recording)
    checked = 0
    for p in _solves():
        support = p.half_width if isinstance(p, mm.AxisProfile) else p.r_m
        for last, f_last, total in calls:
            assert support > last
            assert total + (support - last) * abs(f_last) == total
        checked += len(calls)
        calls.clear()
    assert checked == _PIN_BETAS.size * (5 + 5 + 1)
