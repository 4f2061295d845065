import math
from dataclasses import replace

import numpy as np
import pytest

import madelung_maxent as mm
from madelung_maxent.integrator import StepControl, StopReason, Trajectory
from madelung_maxent.solver import _resample_slope


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


@pytest.mark.parametrize("threshold", [1.0, 0.5, -math.inf])
@pytest.mark.parametrize("geometry", list(mm.Geometry))
def test_threshold_at_or_below_u0_rejected(params1, threshold, geometry):
    request = mm.SolveRequest(params=params1, u0=1.0, geometry=geometry,
                              control=StepControl(blowup_threshold=threshold))
    solve = mm.solve_radial if geometry is mm.Geometry.RADIAL else mm.solve_cartesian_factor
    with pytest.raises(mm.ValidationError, match="^blowup_threshold: "):
        solve(request)


def test_geometry_enforced(params1):
    with pytest.raises(mm.ValidationError, match="geometry"):
        mm.solve_radial(mm.SolveRequest(params=params1,
                                        geometry=mm.Geometry.CARTESIAN_FACTOR))


def test_estimate_support_synthetic():
    # exact dominant-balance trajectory U = -(2/beta) ln(1 - r), stopped at 0.99
    beta = 1.0
    r = np.linspace(0.9, 0.99, 10)
    u = -(2.0 / beta) * np.log(1.0 - r)
    du = (2.0 / beta) / (1.0 - r)
    traj = Trajectory(nodes=r, states=np.column_stack([u, du]),
                      stop_reason=StopReason.BLOWUP_DETECTED)
    r_m = mm.estimate_support(traj, mm.make_params(1, 1, beta))
    assert r_m == pytest.approx(1.0, abs=1e-3)


def test_estimate_support_requires_blowup():
    traj = Trajectory(nodes=np.array([0.0, 1.0]), states=np.zeros((2, 2)),
                      stop_reason=StopReason.REACHED_END)
    with pytest.raises(mm.LogicError):
        mm.estimate_support(traj, mm.make_params(1, 1, 1))


def test_support_tolerance_independence(params1, radial1):
    halved = mm.solve_radial(mm.SolveRequest(
        params=params1, control=StepControl(rel_tol=5e-11, abs_tol=5e-13)))
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


def test_scaling_symmetry(radial1):
    """U -> lam U, r -> r/sqrt(lam), beta -> beta/lam maps solutions to solutions."""
    lam = 2.0
    scaled = mm.solve_radial(mm.SolveRequest(
        params=mm.make_params(1, 1, 1.0 / lam), u0=lam))
    assert scaled.r_m == pytest.approx(radial1.r_m / math.sqrt(lam), rel=1e-8)
    r_test = np.linspace(0.0, 0.9 * scaled.r_m, 50)
    u_scaled, _ = mm.resample(scaled, r_test)
    u_base, _ = mm.resample(radial1, r_test * math.sqrt(lam))
    np.testing.assert_allclose(u_scaled, lam * u_base, rtol=1e-8)


def test_solver_error_carries_trajectory(params1):
    with pytest.raises(mm.SolverError) as excinfo:
        mm.solve_radial(mm.SolveRequest(params=params1,
                                        control=StepControl(max_steps=50)))
    assert excinfo.value.trajectory is not None
    assert excinfo.value.trajectory.nodes.size > 1


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
    """The slope-only path (quintic, or the cubic fallback) gives resample's U' bits."""
    profile = request.getfixturevalue(which)
    query = np.linspace(0.0, float(profile.nodes[-1]), 5001)
    _, du = mm.resample(profile, query)
    assert np.array_equal(_resample_slope(profile, query).view(np.int64), du.view(np.int64))
