import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import madelung_maxent as mm
from madelung_maxent.integrator import StopReason
from madelung_maxent.solver import _equation_acc, _resample_slope


def test_radial_golden_r_m(radial1, golden):
    ref = golden["radial"]["1.0"]["r_m"]
    assert radial1.r_m == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("beta", [0.5, 2.0, 10.0, 100.0])
def test_radial_golden_family(beta, golden):
    prof = mm.solve_radial(mm.SolveRequest(params=mm.make_params(1, 1, beta)))
    assert prof.r_m == pytest.approx(golden["radial"][str(beta)]["r_m"], rel=1e-8)


def test_planar_variant_golden(golden):
    prof = mm.solve_radial(mm.SolveRequest(
        params=mm.make_params(1, 1, 1, "planar-radial")))
    assert prof.r_m == pytest.approx(golden["planar_r_m_beta1"], rel=1e-8)


def test_cartesian_golden(axis1, golden):
    assert axis1.half_width == pytest.approx(golden["cartesian"]["1.0"]["i_m"], rel=1e-8)
    assert axis1.half_width > axis1.nodes[-1]


def test_cartesian_half_width_grows_with_beta(axis1, golden):
    ax2 = mm.solve_cartesian_factor(mm.SolveRequest(
        params=mm.make_params(1, 1, 2), geometry=mm.Geometry.CARTESIAN_FACTOR))
    assert ax2.half_width == pytest.approx(golden["cartesian"]["2.0"]["i_m"], rel=1e-8)
    assert ax2.half_width > axis1.half_width


def _amplitude_support(beta, c):
    """Independent support radius: the first root of the amplitude R = exp(-beta (U - U0)/2).

    With s = lambda r and U0 = m = hbar = 1, R'' + (c/s) R' = -(beta/2) R + R ln R, which
    is regular at the wall; DOP853 carries d = R - 1 so that ln R = log1p(d) keeps
    its digits while R is near 1, from a two-term Taylor start at s = 1e-3.
    """
    eps = beta / 2.0

    def rhs(s, y):
        d, dp = y
        ln_r = math.log1p(d) if d > -1.0 else math.log(abs(1.0 + d))
        return [dp, (1.0 + d) * (ln_r - eps) - c / s * dp]

    def root(s, y):
        return 1.0 + y[0]
    root.terminal = True
    a2 = -eps / (2.0 * (1.0 + c))
    a4 = (1.0 - eps) * a2 / (12.0 + 4.0 * c)
    s0 = 1e-3
    sol = solve_ivp(rhs, (s0, 1e3), [a2 * s0**2 + a4 * s0**4, 2 * a2 * s0 + 4 * a4 * s0**3],
                    method="DOP853", rtol=1e-12, atol=1e-300, events=root)
    return sol.t_events[0][0] * math.sqrt(beta) / 2.0  # r = s / lambda, lambda = 2/sqrt(beta)


@pytest.mark.parametrize("beta", [1e-6, 1e-8, 1e-12])
def test_small_g_support_matches_amplitude_reference(beta):
    """The Taylor start stays where lambda * t is small, so small g solves do not drift."""
    params = mm.make_params(1, 1, beta)
    radial = mm.solve_radial(mm.SolveRequest(params=params))
    axis = mm.solve_cartesian_factor(mm.SolveRequest(params=params,
                                                     geometry=mm.Geometry.CARTESIAN_FACTOR))
    assert radial.r_m == pytest.approx(_amplitude_support(beta, 2.0), rel=1e-8)
    assert axis.half_width == pytest.approx(_amplitude_support(beta, 0.0), rel=1e-6)


def test_both_geometries_share_the_taylor_start(axis1, radial1, params1):
    # origin node, then the Taylor step U0 + a t^2 with a = lambda^2 U0 / 2 at c = 0
    assert axis1.nodes[0] == radial1.nodes[0] == 0.0
    assert axis1.nodes[1] == radial1.nodes[1]
    t = axis1.nodes[1]
    a = mm.series_coefficient(params1, 1.0, 0.0)
    assert a == params1.lambda_sq / 2.0
    assert axis1.u[1] == 1.0 + a * t * t
    assert axis1.du[1] == 2.0 * a * t


def test_zero_center_value_rejected(params1):
    """U0 = 0 gives the trivial potential, which traps nothing, in either geometry."""
    for geometry in mm.Geometry:
        with pytest.raises(mm.ValidationError, match="^u0: "):
            mm.SolveRequest(params=params1, u0=0.0, geometry=geometry)


def test_negative_u0_rejected():
    with pytest.raises(mm.ValidationError, match="u0"):
        mm.SolveRequest(params=mm.make_params(1, 1, 1), u0=-1.0)


def test_geometry_enforced(params1):
    with pytest.raises(mm.ValidationError, match="geometry"):
        mm.solve_radial(mm.SolveRequest(params=params1,
                                        geometry=mm.Geometry.CARTESIAN_FACTOR))


def test_support_tolerance_independence(params1, radial1):
    halved = mm.solve_radial(mm.SolveRequest(params=params1, rel_tol=5e-11))
    assert abs(halved.r_m - radial1.r_m) / radial1.r_m < 1e-6
    assert abs(halved.z - radial1.z) / radial1.z < 1e-6


def test_density_uniform_disk(uniform_disk):
    assert uniform_disk.z == pytest.approx(math.pi, rel=1e-12)
    np.testing.assert_allclose(uniform_disk.rho, 1.0 / math.pi, rtol=1e-12)


def test_density_center_value(radial1):
    assert radial1.rho[0] == pytest.approx(math.exp(-1.0) / radial1.z, rel=1e-14)


def test_density_normalization(radial1):
    p = radial1.params
    from madelung_maxent.quadrature import radial_moments

    mom = radial_moments(p.beta, p.mass, p.lambda_sq, 2.0, radial1.nodes,
                         radial1.u, radial1.du, radial1.r_m)
    assert mom.z == pytest.approx(radial1.z, rel=1e-14)
    # raw-node trapezoid of the stored density as an independent sanity check
    raw = 2 * math.pi * np.trapezoid(radial1.rho * radial1.nodes, radial1.nodes)
    assert raw == pytest.approx(1.0, abs=5e-4)


def test_profile_requires_finite_support(radial1, axis1):
    with pytest.raises(mm.ValidationError, match="^r_m: "):
        replace(radial1, observables=replace(radial1.observables, r_m=math.inf))
    with pytest.raises(mm.ValidationError, match="^half_width: "):
        replace(axis1, half_width=math.inf)


# (beta, U0, m, hbar), all at g = beta * U0 = 2
SCALING_INPUTS = [(2.0, 1.0, 1.0, 1.0), (1.0, 2.0, 1.0, 1.0), (0.5, 4.0, 3.0, 0.7),
                  (20.0, 0.1, 0.25, 2.0), (2e-3, 1e3, 1.0, 1.0)]


def _scaled_observables(variant, beta, u0, mass, hbar):
    """The observables in the units U0 and 1/k, k = sqrt(2 m U0)/hbar: functions of g alone."""
    k, g = math.sqrt(2.0 * mass * u0) / hbar, beta * u0
    if variant == "cartesian":
        factor = mm.solve_cartesian_factor(mm.SolveRequest(
            params=mm.make_params(mass, hbar, beta), u0=u0, geometry=mm.Geometry.CARTESIAN_FACTOR))
        return [factor.half_width * k, math.log(factor.z) + g + math.log(k)]
    obs = mm.solve_radial(mm.SolveRequest(
        params=mm.make_params(mass, hbar, beta, variant), u0=u0)).observables
    return [obs.r_m * k, obs.u_bar / u0, obs.log_z + g + math.log(k * k),
            obs.entropy + math.log(k * k), obs.r2_bar * k * k, obs.k_bar_quad * beta / mass]


def test_scaling_symmetry(radial1):
    """U -> lam U, r -> r/sqrt(lam), beta -> beta/lam maps solutions to solutions.

    The map and m, hbar leave g = beta U0 alone, so every observable, made
    dimensionless by U0 and k, agrees across inputs sharing g, in each geometry.
    """
    lam = 2.0
    scaled = mm.solve_radial(mm.SolveRequest(
        params=mm.make_params(1, 1, 1.0 / lam), u0=lam))
    assert scaled.r_m == pytest.approx(radial1.r_m / math.sqrt(lam), rel=1e-8)
    r_test = np.linspace(0.0, 0.9 * scaled.r_m, 50)
    u_scaled, _ = mm.resample(scaled, r_test)
    u_base, _ = mm.resample(radial1, r_test * math.sqrt(lam))
    np.testing.assert_allclose(u_scaled, lam * u_base, rtol=1e-8)
    for variant in ("paper-radial", "planar-radial", "cartesian"):
        first, *rest = (_scaled_observables(variant, *inputs) for inputs in SCALING_INPUTS)
        for inputs, values in zip(SCALING_INPUTS[1:], rest):
            assert values == pytest.approx(first, rel=1e-9), (variant, inputs)


def test_solver_error_carries_trajectory(params1):
    # at tolerances this small the scaled error of a rejected step squares
    # past the float range; the step is rejected and the run stops on underflow
    with pytest.raises(mm.SolverError, match="ended with 'step-underflow'") as excinfo:
        mm.solve_radial(mm.SolveRequest(params=params1, rel_tol=1e-300))
    nodes, _, _, stop = excinfo.value.trajectory
    assert stop is StopReason.STEP_UNDERFLOW
    assert nodes.size == 1  # the start node: no step was accepted


def test_convexity_property_uniform_grid(radial1):
    """Second differences of U on a uniform grid stay >= -1e-10."""
    h = 0.01
    r = np.arange(0, int(0.95 * radial1.r_m / h)) * h
    u, _ = mm.resample(radial1, r)
    dd = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
    assert dd.min() > -1e-10


def test_amplitude_concavity_property(axis1):
    """sqrt(rho) factor has nonpositive second differences in the interior."""
    h = 0.01
    x = np.arange(0, int(0.97 * axis1.nodes[-1] / h)) * h
    u, _ = mm.resample(axis1, x)
    amp = np.exp(-0.5 * axis1.params.beta * u)
    dd = (amp[2:] - 2 * amp[1:-1] + amp[:-2]) / h**2
    assert dd.max() < 1e-10


def test_boundary_density_slope_decays(radial1):
    """rho and its one-sided slope vanish toward the support boundary."""
    rho, r = radial1.rho, radial1.nodes
    slopes = np.abs(np.diff(rho[-8:]) / np.diff(r[-8:]))
    assert slopes[-1] < slopes[0]
    assert rho[-1] < 1e-16 * rho[0]


@pytest.mark.parametrize("which", ["radial1", "axis1", "uniform_disk"])
def test_resample_slope_matches_resample_bitwise(which, request):
    """The slope-only path gives resample's U' bits."""
    profile = request.getfixturevalue(which)
    query = np.linspace(0.0, float(profile.nodes[-1]), 5001)
    _, du = mm.resample(profile, query)
    assert np.array_equal(_resample_slope(profile, query).view(np.int64), du.view(np.int64))


def _slopes_follow_equation(profile) -> bool:
    """The stored slopes' divided differences track the ODE's U'' (median within 5%)."""
    acc = _equation_acc(profile)
    slope = np.diff(profile.du) / np.diff(profile.nodes)
    dev = np.abs(slope - 0.5 * (acc[:-1] + acc[1:])) / (np.abs(acc[:-1]) + np.abs(acc[1:]))
    return float(np.median(dev)) < 0.05


# k * support of the beta -> oo state: first roots of sin(s)/s, J0(s) and cos(s)
SUPPORT_LIMIT = {"paper": math.pi, "planar": 2.404825557695773, "cartesian": math.pi / 2}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(log_g=st.floats(-4.0, 4.0), log_u0=st.floats(-3.0, 3.0),
       shape=st.sampled_from(["paper", "planar", "cartesian"]))
def test_every_solve_is_solved_or_refused(log_g, log_u0, shape):
    """Over g = beta * u0 in [1e-4, 1e4] and u0 in [1e-3, 1e3], in every geometry,
    a solve holds its kinetic identity and slopes that follow its equation, and
    its support k * r_m stays below the beta -> oo limit (pi, j_{0,1}, pi/2 for
    paper, planar, Cartesian), so the wall always comes within a few lengths
    ell; or it refuses the one thing past g ~ 708 that floating point cannot
    hold: Z."""
    g, u0 = 10.0 ** log_g, 10.0 ** log_u0
    variant = "planar-radial" if shape == "planar" else "paper-radial"
    request = mm.SolveRequest(params=mm.make_params(1.0, 1.0, g / u0, variant), u0=u0,
                              geometry=(mm.Geometry.CARTESIAN_FACTOR if shape == "cartesian"
                                        else mm.Geometry.RADIAL))
    solve = mm.solve_cartesian_factor if shape == "cartesian" else mm.solve_radial
    try:
        profile = solve(request)
    except mm.ValidationError as exc:
        assert str(exc).startswith("z: normalization underflowed") and g > 700.0, str(exc)
        return
    if shape != "cartesian":
        obs = profile.observables
        assert abs(obs.k_bar_quad - obs.k_bar) <= 1e-6 * obs.k_bar
    assert _slopes_follow_equation(profile)
    support = profile.half_width if shape == "cartesian" else profile.r_m
    assert 0.0 < math.sqrt(2.0 * u0) * support < SUPPORT_LIMIT[shape]  # k = sqrt(2 m u0)/hbar
