import dataclasses
import math

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

import madelung_maxent as mm
from madelung_maxent import fields, quadrature, verify


@pytest.fixture(scope="module")
def grid1(axis1):
    return mm.assemble_2d(axis1, axis1, 5e-3)


def test_center_value(grid1):
    i0 = grid1.shape[0] // 2
    assert grid1.u[i0, i0] == 2.0
    assert grid1.x[i0] == 0.0


def test_grid_density_normalized(grid1):
    mass = grid1.rho.sum() * grid1.spacing**2
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_factor_normalized_once(params1, monkeypatch):
    """The factor's solve takes its Z; assembling and quad_axis_norm read it, never re-integrate."""
    calls = []
    norm = quadrature.axis_normalization
    monkeypatch.setattr(quadrature, "axis_normalization",
                        lambda *args: calls.append(args) or norm(*args))
    factor = mm.solve_cartesian_factor(
        mm.SolveRequest(params=params1, geometry=mm.Geometry.CARTESIAN_FACTOR))
    mm.assemble_2d(factor, factor, 0.05)
    z = fields.quad_axis_norm(factor)
    assert len(calls) == 1
    assert z == factor.z > 0


@pytest.mark.parametrize("beta", [0.5, 1.0, 10.0, 500.0])
def test_assembled_grid_passes_separability_check(beta):
    params = mm.make_params(1.0, 1.0, beta)
    factor = mm.solve_cartesian_factor(
        mm.SolveRequest(params=params, geometry=mm.Geometry.CARTESIAN_FACTOR))
    for h in (5e-3, 0.05):
        # rotate_grid refuses a grid whose planes its factors do not rebuild
        assert np.isfinite(mm.rotate_grid(mm.assemble_2d(factor, factor, h), 0.3).u).any()


def test_density_separable_peak(grid1):
    assert np.unravel_index(np.argmax(grid1.rho), grid1.shape) == \
        (grid1.shape[0] // 2, grid1.shape[1] // 2)


def test_mismatched_params_rejected(axis1):
    other = mm.solve_cartesian_factor(mm.SolveRequest(
        params=mm.make_params(1, 1, 2), geometry=mm.Geometry.CARTESIAN_FACTOR))
    with pytest.raises(mm.ValidationError, match="params"):
        mm.assemble_2d(axis1, other, 5e-3)


def test_rotation_identity(grid1):
    assert mm.rotate_grid(grid1, 0.0) is grid1


def test_rotation_quarter_turn(grid1):
    rot = mm.rotate_grid(grid1, math.pi / 2)
    both = np.isfinite(rot.u) & np.isfinite(grid1.u)
    assert both.mean() > 0.95
    np.testing.assert_allclose(rot.u[both], grid1.u[both], rtol=0, atol=1e-9)
    np.testing.assert_allclose(rot.rho[both], grid1.rho[both], rtol=0, atol=1e-11)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_rotation_rejects_nonfinite_angle(grid1, theta):
    with pytest.raises(mm.ValidationError, match="^theta: "):
        mm.rotate_grid(grid1, theta)


def test_rotation_sentinels(grid1):
    rot = mm.rotate_grid(grid1, math.pi / 6)
    outside = ~np.isfinite(rot.u)
    assert outside.any()  # corners leave the source rectangle
    assert np.all(rot.rho[outside] == 0.0)
    assert np.all(np.isposinf(rot.u[outside]))


def _spline_rotation(grid, theta):
    """The rotation as a bicubic RectBivariateSpline of each whole plane."""
    x, y = grid.x, grid.y
    ct, st = math.cos(theta), math.sin(theta)
    xs = ct * x[:, None] + st * y[None, :]
    ys = -st * x[:, None] + ct * y[None, :]
    inside = (xs >= x[0]) & (xs <= x[-1]) & (ys >= y[0]) & (ys <= y[-1])
    xq = np.clip(xs, x[0], x[-1]).ravel()
    yq = np.clip(ys, y[0], y[-1]).ravel()
    u = RectBivariateSpline(x, y, grid.u, kx=3, ky=3, s=0).ev(xq, yq).reshape(grid.shape)
    rho = RectBivariateSpline(x, y, grid.rho, kx=3, ky=3, s=0).ev(xq, yq).reshape(grid.shape)
    return mm.Grid2D(spacing=grid.spacing, x0=grid.x0, y0=grid.y0,
                     u=np.where(inside, u, math.inf),
                     rho=np.where(inside, np.clip(rho, 0.0, None), 0.0))


@pytest.mark.parametrize("h", [5e-3, 0.05])
@pytest.mark.parametrize("theta", [0.2, math.pi / 6, 1.4])
def test_rotation_matches_bicubic_spline(axis1, params1, h, theta):
    grid = mm.assemble_2d(axis1, axis1, h)
    rot = mm.rotate_grid(grid, theta)
    ref = _spline_rotation(grid, theta)
    inside = np.isfinite(ref.u)
    np.testing.assert_array_equal(np.isfinite(rot.u), inside)
    np.testing.assert_array_equal(rot.rho[~inside], 0.0)
    np.testing.assert_allclose(rot.u[inside], ref.u[inside], rtol=0,
                               atol=1e-13 * np.max(grid.u))
    np.testing.assert_allclose(rot.rho, ref.rho, rtol=0, atol=1e-13 * np.max(grid.rho))
    pde = mm.maxent_residual(rot, params1).pde
    assert pde == pytest.approx(mm.maxent_residual(ref, params1).pde, rel=1e-9)


@pytest.mark.parametrize("plane", ["u", "rho"])
@pytest.mark.parametrize("offset", [(7, -11), (0, 5)])  # off and on the centre row
def test_rotation_refuses_non_separable_grid(grid1, plane, offset):
    ic, jc = grid1.shape[0] // 2, grid1.shape[1] // 2
    values = getattr(grid1, plane).copy()
    values[ic + offset[0], jc + offset[1]] += 1e-6
    bumped = dataclasses.replace(grid1, **{plane: values})
    with pytest.raises(mm.ValidationError, match=f"^{plane}: .*separable"):
        mm.rotate_grid(bumped, math.pi / 6)


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
def test_rotation_refuses_density_it_cannot_factor(grid1, value):
    # an infinite plane would also set its own tolerance to inf; a zero centre
    # cannot normalise the row factor
    rho = grid1.rho.copy()
    rho[grid1.shape[0] // 2, grid1.shape[1] // 2 + (3 if value else 0)] = value
    with pytest.raises(mm.ValidationError, match="^rho: .*separable"):
        mm.rotate_grid(dataclasses.replace(grid1, rho=rho), math.pi / 6)


def test_rotation_refuses_rotated_grid(grid1):
    with pytest.raises(mm.ValidationError, match="^u: .*sentinel-free"):
        mm.rotate_grid(mm.rotate_grid(grid1, math.pi / 6), 0.1)


@pytest.mark.parametrize("beta", sorted({*np.geomspace(0.5, 100.0, 12).round(2), 10.0, 20.0}))
def test_quick_rotation_invariance_across_beta(beta, golden):
    """The quick grid follows the factor's half-width, so the bound holds at every beta."""
    check = next(c for c in verify.CHECKS if c.name == "rotation-invariance")
    result = verify.run_check(check, verify.Case(float(beta), True, golden))
    assert result.passed, result.detail


def test_radial_residual_small_and_second_order(radial1, params1):
    n1 = mm.maxent_residual(radial1, params1, h=1e-3)
    n2 = mm.maxent_residual(radial1, params1, h=5e-4)
    assert n1.pde < 1e-4
    assert n1.rebuild < 1e-4
    assert 2.8 < n1.pde / n2.pde < 5.5
    assert 2.8 < n1.rebuild / n2.rebuild < 5.5


def test_residual_zero_for_trivial_field(uniform_disk, params1):
    norms = mm.maxent_residual(uniform_disk, params1, h=1e-2)
    assert norms.pde == 0.0
    assert norms.rebuild == 0.0


def test_residual_flags_corrupted_profile(radial1, params1, make_profile):
    bump = 1e-3
    r = radial1.nodes
    u2 = radial1.u + bump * np.sin(np.pi * r / radial1.r_m) ** 2
    du2 = radial1.du + bump * np.pi / radial1.r_m * np.sin(2 * np.pi * r / radial1.r_m)
    corrupted = make_profile(radial1.params, r, u2, du2, radial1.r_m)
    clean = mm.maxent_residual(radial1, params1, h=1e-3)
    bad = mm.maxent_residual(corrupted, params1, h=1e-3)
    assert bad.pde > 50 * clean.pde


@pytest.mark.parametrize("h", [0.0, -1e-3, math.inf, math.nan])
def test_radial_residual_rejects_bad_step(radial1, params1, h):
    with pytest.raises(mm.ValidationError, match="^h: "):
        mm.maxent_residual(radial1, params1, h=h)


def test_residual_type_check(params1):
    with pytest.raises(mm.ValidationError):
        mm.maxent_residual(object(), params1)


def test_grid_residual_margin_ignores_last_bits_of_spacing(axis1, params1):
    # the quick rotation-invariance grid: 201 points a side, so the margin is
    # exactly 5 cells and a spacing-based count would round either side of 5
    grid = mm.assemble_2d(axis1, axis1, axis1.nodes[-1] / 100.5)
    spacing = grid.spacing
    norms = []
    for _ in range(8):
        norms.append(mm.maxent_residual(dataclasses.replace(grid, spacing=spacing), params1))
        spacing = float(np.nextafter(spacing, math.inf))
    for n in norms[1:]:
        assert n.pde == pytest.approx(norms[0].pde, rel=1e-9)
        assert n.rebuild == pytest.approx(norms[0].rebuild, rel=1e-9)
