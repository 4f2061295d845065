import math

import numpy as np
import pytest

import madelung_maxent as mm
from madelung_maxent import fields, quadrature, verify


@pytest.fixture(scope="module")
def grid1(axis1):
    return mm.assemble_2d(axis1, axis1, 5e-3)


@pytest.fixture(scope="module")
def other(axis1):
    """A second factor of the same physics with a narrower support (U0 = 1.5)."""
    return mm.solve_cartesian_factor(mm.SolveRequest(
        params=axis1.params, u0=1.5, geometry=mm.Geometry.CARTESIAN_FACTOR))


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
        # the rotated state evaluates from the factors at every beta and spacing
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


def _inverse_rotation(grid, theta):
    """Source coordinates (x', y') of every node and whether they lie in the source rectangle."""
    x, y = grid.x, grid.y
    ct, st = math.cos(theta), math.sin(theta)
    xs = ct * x[:, None] + st * y[None, :]
    ys = -st * x[:, None] + ct * y[None, :]
    return xs, ys, (np.abs(xs) <= x[-1]) & (np.abs(ys) <= y[-1])


@pytest.mark.parametrize("h", [5e-3, 0.05])
@pytest.mark.parametrize("theta", [0.2, math.pi / 6, 1.4])
def test_rotation_matches_factor_resample(axis1, other, h, theta):
    """Rotated planes are U_x(|x'|) + U_y(|y'|) and rho_x(|x'|) rho_y(|y'|) at the source points."""
    grid = mm.assemble_2d(axis1, other, h)
    rot = mm.rotate_grid(grid, theta)
    xs, ys, inside = _inverse_rotation(grid, theta)
    assert 0 < inside.sum() < inside.size
    ax, _ = mm.resample(axis1, np.abs(xs[inside]))
    ay, _ = mm.resample(other, np.abs(ys[inside]))
    beta = axis1.params.beta
    rho = np.exp(-beta * ax) / axis1.z * (np.exp(-beta * ay) / other.z)
    np.testing.assert_array_equal(np.isfinite(rot.u), inside)
    np.testing.assert_array_equal(rot.rho[~inside], 0.0)
    np.testing.assert_allclose(rot.u[inside], ax + ay, rtol=1e-13, atol=0)
    np.testing.assert_allclose(rot.rho[inside], rho, rtol=1e-13, atol=0)


def test_assembled_planes_are_factor_values_at_the_coordinates(axis1, other):
    """x and y name the exact points the planes were evaluated at."""
    grid = mm.assemble_2d(axis1, other, 5e-3)
    ax = np.array([mm.resample(axis1, abs(v))[0][0] for v in grid.x])
    ay = np.array([mm.resample(other, abs(v))[0][0] for v in grid.y])
    assert grid.u.tobytes() == (ax[:, None] + ay[None, :]).tobytes()


def test_rotation_composes(grid1):
    """Angles add; a whole turn in total gives back the unrotated grid."""
    for a, b in [(0.3, 0.9), (math.pi, math.pi), (-0.4, 0.4)]:
        twice = mm.rotate_grid(mm.rotate_grid(grid1, a), b)
        once = mm.rotate_grid(grid1, a + b)
        assert twice.theta == once.theta
        assert twice.u.tobytes() == once.u.tobytes()
        assert twice.rho.tobytes() == once.rho.tobytes()
    assert once.theta == 0.0 and once.u.tobytes() == grid1.u.tobytes()


def test_spacing_refusals_name_the_key(axis1):
    """Grid2D names its field, assemble_2d its own argument."""
    for h, why in [(-1.0, "must be positive"), (1e-300, "too fine"), (10.0, "too coarse")]:
        with pytest.raises(mm.ValidationError, match=f"^spacing: {why}"):
            mm.Grid2D(axis1, axis1, h)
        with pytest.raises(mm.ValidationError, match=f"^grid_spacing: {why}"):
            mm.assemble_2d(axis1, axis1, h)


def test_grid_residual_refuses_other_params(grid1, params1):
    """A grid is measured against its factors' equation, not another one, at its own spacing."""
    with pytest.raises(mm.ValidationError, match="^params: "):
        mm.maxent_residual(grid1, mm.make_params(1.0, 1.0, 2.0))
    with pytest.raises(mm.ValidationError, match="^h: "):
        mm.maxent_residual(grid1, params1, h=1e-3)


@pytest.mark.parametrize("beta", sorted({*np.geomspace(0.5, 100.0, 12).round(2), 10.0, 20.0}))
def test_quick_rotation_invariance_across_beta(beta):
    """The quick grid follows the factor's half-width, so the bound holds at every beta."""
    check = next(c for c in verify.CHECKS if c.name == "rotation-invariance")
    result = verify.run_check(check, verify.Case(float(beta), True))
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


@pytest.mark.parametrize("other", [mm.make_params(1.0, 1.0, 2.0),
                                   mm.make_params(1.0, 1.0, 1.0, "planar-radial")])
def test_radial_residual_refuses_other_params(radial1, other):
    """A profile is measured against its own equation, not another one."""
    with pytest.raises(mm.ValidationError, match="^params: "):
        mm.maxent_residual(radial1, other)


def test_residual_type_check(params1):
    with pytest.raises(mm.ValidationError):
        mm.maxent_residual(object(), params1)


def test_grid_residual_margin_ignores_last_bits_of_spacing(axis1, params1, monkeypatch):
    # the quick rotation-invariance grid: 201 points a side, so the margin is
    # exactly 5 cells and a spacing-based count would round either side of 5;
    # each spacing re-evaluates the planes at its own nodes, so each is compared
    # with itself under a margin half a cell lower, which surely keeps the ring
    spacing = axis1.nodes[-1] / 100.5
    for _ in range(8):
        grid = mm.assemble_2d(axis1, axis1, spacing)
        norms = mm.maxent_residual(grid, params1)
        with monkeypatch.context() as m:
            m.setattr(fields, "DEFAULT_MARGIN", 4.5 / 100)
            assert mm.maxent_residual(grid, params1) == norms
        spacing = float(np.nextafter(spacing, math.inf))
