import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

import madelung_maxent as mm
from madelung_maxent import analysis, quadrature, verify


def test_observables_golden(obs1, golden):
    ref = golden["radial"]["1.0"]
    assert obs1.u_bar == pytest.approx(ref["u_bar"], rel=1e-8)
    assert math.log(obs1.z) == pytest.approx(ref["log_z"], abs=1e-8)
    assert obs1.r2_bar == pytest.approx(ref["r2_bar"], rel=1e-8)


def test_observables_one_quadrature_pass(params1, monkeypatch):
    """A solve plus its observables runs the moments quadrature once; the profile carries the record."""
    calls = []
    moments = quadrature.radial_moments
    monkeypatch.setattr(quadrature, "radial_moments",
                        lambda *args: calls.append(args) or moments(*args))
    profile = mm.solve_radial(mm.SolveRequest(params=params1))
    obs = mm.observables(profile)
    assert len(calls) == 1
    assert obs is profile.observables and obs.z == profile.z and obs.r_m == profile.r_m


def test_omega_origin_limit(radial1):
    # U'/r -> 2a with a = lambda^2 u0 / 6 = 2/3 at beta = 1
    assert mm.angular_velocity(radial1, 0.0) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-6)


def test_omega_constant_potential_is_zero(uniform_disk):
    assert mm.angular_velocity(uniform_disk, 0.0) == 0.0
    assert mm.angular_velocity(uniform_disk, 0.7) == 0.0


def test_omega_out_of_support(radial1):
    for r in (radial1.r_m, -0.1, math.nan, np.array([0.1, math.nan])):
        with pytest.raises(mm.OutOfSupportError):
            mm.angular_velocity(radial1, r)


def test_velocity_samples_tangential(radial1):
    samples = mm.velocity_field(radial1, [(0.5, 0.0), (0.0, 0.5), (5.0, 5.0)])
    s0 = samples[0]
    assert s0.in_support and s0.vx == 0.0
    assert s0.vy == pytest.approx(0.5 * s0.omega, rel=1e-15)
    s1 = samples[1]
    assert s1.vy == 0.0 and s1.vx == pytest.approx(-0.5 * s1.omega, rel=1e-15)
    assert not samples[2].in_support and math.isnan(samples[2].omega)


def test_circulation_nonzero(radial1):
    """Rotational flow: the loop integral of v around a centered circle is
    2 pi r^2 omega, nonzero -- the phase has a defect at the origin."""
    r = 0.5
    theta = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    pos = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    samples = mm.velocity_field(radial1, pos)
    tangent = np.column_stack([-np.sin(theta), np.cos(theta)])
    v = np.array([[s.vx, s.vy] for s in samples])
    circulation = np.sum(np.sum(v * tangent, axis=1)) * (2 * np.pi * r / theta.size)
    omega = mm.angular_velocity(radial1, r)
    assert circulation == pytest.approx(2 * np.pi * r**2 * omega, rel=1e-12)
    assert circulation > 0.1


def test_divergence_second_order(radial1):
    d1 = mm.divergence_sup(radial1, h=2e-3)
    d2 = mm.divergence_sup(radial1, h=1e-3)
    assert d2 < 1e-4
    assert 2.5 < d1 / d2 < 5.5


def _full_grid_divergence_sup(profile, h):
    """The pre-octant divergence_sup: every center of the (2n+1)^2 grid."""
    from madelung_maxent.analysis import _du_values, _omega_from_du

    r_lim = 0.8 * profile.r_m
    n = int(r_lim / h)
    axis = h * np.arange(-n, n + 1)
    clamp = r_lim + 4 * h
    table_r = np.linspace(0.0, clamp, 1 << 18)
    table_du = _du_values(profile, table_r)

    def omega_at(rr):
        rq = np.minimum(rr, clamp)
        return _omega_from_du(profile, rq, np.interp(rq, table_r, table_du))

    sup = 0.0
    for lo in range(0, axis.size, 256):
        x = axis[lo:lo + 256, None]
        y = axis[None, :]
        keep = np.hypot(x, y) <= r_lim - 2 * h
        if not keep.any():
            continue
        wxp = omega_at(np.hypot(x + h, y))
        wxm = omega_at(np.hypot(x - h, y))
        wyp = omega_at(np.hypot(x, y + h))
        wym = omega_at(np.hypot(x, y - h))
        div = (wxm - wxp) * y / (2 * h) + (wyp - wym) * x / (2 * h)
        sup = max(sup, float(np.max(np.abs(div[keep]))))
    return sup


@pytest.mark.parametrize("variant, beta, h, n", [
    ("paper-radial", 0.5, 8e-3, 142),     # the octant's n + 1 rows are one 256-row block
    ("planar-radial", 1.0, 8e-3, 134),
    ("paper-radial", 4.0, 4e-3, 397),     # a full block and a partial one
    ("planar-radial", 100.0, 4e-3, 338),
    ("paper-radial", 0.01, 2e-3, 168),    # r_m = 0.42: the table's lookup at small r_m
    ("planar-radial", 0.01, 2e-3, 149),
])
def test_divergence_octant_equals_full_grid(variant, beta, h, n):
    """The octant sup is the full grid's float, whatever the block layout."""
    prof = mm.solve_radial(mm.SolveRequest(params=mm.make_params(1.0, 1.0, beta, variant)))
    assert int(0.8 * prof.r_m / h) == n
    assert mm.divergence_sup(prof, h=h) == _full_grid_divergence_sup(prof, h)


@pytest.mark.parametrize("h, field", [
    (1.0, "h"), (0.5, "h"), (math.inf, "h"), (-1e-3, "h"), (0.0, "h"), (math.nan, "h"),
])
def test_divergence_sup_rejects_vacuous_check(radial1, h, field):
    """At beta = 1 (r_m = 1.647) h >= 0.44 leaves only the origin, where div reads 0."""
    with pytest.raises(mm.ValidationError, match=f"^{field}: "):
        mm.divergence_sup(radial1, h=h)


def test_divergence_sup_refuses_a_grid_past_max_points(radial1):
    """h = 1e-300 would ask for ~1e600 centers: refused before anything is allocated."""
    with pytest.raises(mm.ValidationError, match="^h: too fine"):
        mm.divergence_sup(radial1, h=1e-300)


def test_uniform_lookup_is_np_interp_bitwise():
    """The O(1) bracket of the divergence table returns np.interp's floats."""
    rng = np.random.default_rng(7)
    table_r = np.linspace(0.0, 1.3, 1 << 18)
    table_y = np.cumsum(rng.uniform(0.0, 1e-5, table_r.size))
    queries = np.concatenate([
        rng.uniform(0.0, table_r[-1], 200_000), table_r,
        np.nextafter(table_r[1:], -np.inf), np.nextafter(table_r[:-1], np.inf), [table_r[-1]]])
    got = analysis._interp_uniform(queries, table_r, table_y)
    assert np.array_equal(got.view(np.int64), np.interp(queries, table_r, table_y).view(np.int64))


def _quick_check(name):
    case = verify.Case(1.0, True, verify.load_golden())
    return verify.run_check(next(c for c in verify.CHECKS if c.name == name), case)


def test_divergence_sup_reports_a_nan_block(radial1, monkeypatch):
    """A block holding a NaN omega is not dropped from the sup; divergence-free fails."""
    du_values = analysis._du_values
    monkeypatch.setattr(analysis, "_du_values",
                        lambda profile, r: np.where(r < 0.3, math.nan, du_values(profile, r)))
    assert math.isnan(mm.divergence_sup(radial1, h=4e-3))
    assert not _quick_check("divergence-free").passed


def test_entropy_check_reports_a_nan_entropy(radial1, monkeypatch):
    """A NaN density makes the entropy gain NaN, not -inf; maxent-stationarity fails."""
    resample = analysis.resample

    def poisoned(profile, query):
        u, du = resample(profile, query)
        return np.where(query < 0.3, math.nan, u), du
    monkeypatch.setattr(analysis, "resample", poisoned)
    assert math.isnan(mm.entropy_stationarity_check(radial1, n_directions=5))
    assert not _quick_check("maxent-stationarity").passed


def test_sweep_closed_form_column():
    sweep = mm.beta_sweep([1.0, 5.0, 10.0, 100.0], 1.0, mm.make_params(1, 1, 1))
    assert [row.observables.k_bar for row in sweep.rows] == [1.0, 0.2, 0.1, 0.01]
    assert sweep.k_bar_decreasing and sweep.u_bar_nonincreasing


def test_sweep_small_beta_collapse():
    sweep = mm.beta_sweep([1e-6, 1e-5, 1e-4], 1.0, mm.make_params(1, 1, 1))
    r2 = [row.observables.r2_bar for row in sweep.rows]
    assert r2[0] < r2[1] < r2[2] < 2e-3  # second moment collapses as beta -> 0


def test_sweep_r_m_flattens():
    sweep = mm.beta_sweep([10.0, 50.0, 100.0], 1.0, mm.make_params(1, 1, 1))
    r_m = [row.observables.r_m for row in sweep.rows]
    assert r_m[1] - r_m[0] > r_m[2] - r_m[1] > 0


def test_sweep_flags_failures():
    from madelung_maxent.integrator import StepControl

    sweep = mm.beta_sweep([1.0, 2.0], 1.0, mm.make_params(1, 1, 1),
                          control=StepControl(max_steps=50))
    assert all(row.status == "failed" for row in sweep.rows)
    assert all(row.observables is None for row in sweep.rows)
    assert all(row.error for row in sweep.rows)


def test_sweep_validation():
    with pytest.raises(mm.ValidationError, match="betas"):
        mm.beta_sweep([2.0, 1.0], 1.0, mm.make_params(1, 1, 1))
    for u0 in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(mm.ValidationError, match="^u0: "):
            mm.beta_sweep([1.0, 2.0], u0, mm.make_params(1, 1, 1))


def test_sinc_limit_k1(params1):
    s = mm.sinc_limit(params1, energy=0.5)
    assert s.k == 1.0
    assert s.r_inf == math.pi


def test_sinc_limit_energy1(params1):
    s = mm.sinc_limit(params1, energy=1.0)
    assert s.k == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert s.r_inf == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-15)


def test_sinc_normalization_against_quad_oracle(params1):
    oracle, err = quad(lambda u: np.sin(u) ** 2 / u, 0.0, np.pi, limit=200)
    assert abs(mm.analysis.SINC_NORM_INTEGRAL - oracle) < 1e-10
    s = mm.sinc_limit(params1, energy=1.0)
    assert s.a**2 == pytest.approx(1.0 / (2 * math.pi * oracle), rel=1e-10)
    # and the squared amplitude really integrates to one over the disk
    total = quad(lambda r: 2 * math.pi * s.rho(r) * r, 0, s.r_inf, limit=200)[0]
    assert total == pytest.approx(1.0, abs=1e-10)


def test_sinc_limit_validation(params1):
    for energy in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(mm.ValidationError, match="^energy: "):
            mm.sinc_limit(params1, energy=energy)


def test_limit_convergence_golden(golden, params1):
    report = mm.limit_convergence([10.0, 50.0, 100.0], 1.0, params1)
    assert report.distances_decreasing
    for row in report.rows:
        assert row.distance == pytest.approx(golden["limit_distance"][str(row.beta)],
                                             abs=1e-6)
    assert report.rows[-1].r_m == pytest.approx(math.pi / math.sqrt(2.0), rel=0.02)


def test_limit_convergence_validation(params1):
    with pytest.raises(mm.ValidationError, match="betas"):
        mm.limit_convergence([5.0, 50.0], 1.0, params1)
    with pytest.raises(mm.ValidationError, match="^u0: "):
        mm.limit_convergence([10.0], math.inf, params1)
    # the sinc state is the 2/r limit; the planar 1/r equation tends to Bessel J0
    with pytest.raises(mm.ValidationError, match="^laplacian_variant: "):
        mm.limit_convergence([10.0, 50.0, 100.0], 1.0, mm.make_params(1, 1, 1, "planar-radial"))


def test_invert_beta_round_trip(params1):
    target = mm.observables(
        mm.solve_radial(mm.SolveRequest(params=mm.make_params(1, 1, 2)))).energy
    beta = mm.invert_beta_for_energy(target, 1.0, params1)
    assert beta == pytest.approx(2.0, rel=1e-6)
    assert beta > 1.0 / target


def test_invert_beta_large_energy_bound(params1):
    """For huge target energies beta approaches the kinetic bound m/E from above."""
    target = 1000.0
    beta = mm.invert_beta_for_energy(target, 1.0, params1)
    assert 1.0 / target < beta < 1.3 / target


def test_invert_beta_no_solution(params1):
    with pytest.raises(mm.NoSolutionError) as excinfo:
        mm.invert_beta_for_energy(0.5, 1.0, params1)
    assert excinfo.value.feasible_min is not None
    assert excinfo.value.feasible_min > 0.5


def _energy(beta, variant="paper-radial"):
    return mm.observables(mm.solve_radial(mm.SolveRequest(
        params=mm.make_params(1.0, 1.0, beta, variant)))).energy


@pytest.mark.parametrize("variant", ["paper-radial", "planar-radial"])
@pytest.mark.parametrize("b_star", [0.01, 1.0, 100.0, 499.0])
def test_invert_beta_round_trip_few_solves(variant, b_star, monkeypatch):
    """Brent's method in 1/beta recovers beta* in at most 12 solves (bisection took ~25)."""
    target = _energy(b_star, variant)
    solves = []
    solve = analysis.solve_radial
    monkeypatch.setattr(analysis, "solve_radial",
                        lambda request: solves.append(request) or solve(request))
    beta = mm.invert_beta_for_energy(target, 1.0, mm.make_params(1.0, 1.0, 1.0, variant))
    assert len(solves) <= 12
    assert abs(beta - b_star) / b_star < 1e-6
    assert abs(_energy(beta, variant) - target) / target < 1e-6


def test_invert_beta_refuses_exactly_below_beta_cap(params1):
    """Every target down to E(beta_cap = 500) inverts; a lower one reports E(beta_cap)."""
    assert mm.invert_beta_for_energy(_energy(400.0), 1.0, params1) == \
        pytest.approx(400.0, rel=1e-6)
    e_cap = _energy(500.0)
    with pytest.raises(mm.NoSolutionError) as excinfo:
        mm.invert_beta_for_energy(e_cap * (1.0 - 1e-6), 1.0, params1)
    assert excinfo.value.feasible_min == pytest.approx(e_cap, rel=1e-12)


def test_invert_beta_bracket_guard(params1, monkeypatch):
    """Bracket ends of one sign raise SolverError naming the bracket, not scipy's ValueError."""
    monkeypatch.setattr(analysis, "solve_radial", lambda request: None)
    monkeypatch.setattr(analysis, "observables", lambda profile: SimpleNamespace(energy=0.5))
    with pytest.raises(mm.SolverError, match="bracket"):
        mm.invert_beta_for_energy(2.0, 1.0, params1)


@pytest.mark.parametrize("target, u0, field", [
    (math.inf, 1.0, "target_energy"), (math.nan, 1.0, "target_energy"),
    (-1.0, 1.0, "target_energy"), (2.0, math.inf, "u0"), (2.0, 0.0, "u0"),
])
def test_invert_beta_validation(params1, target, u0, field):
    with pytest.raises(mm.ValidationError, match=f"^{field}: "):
        mm.invert_beta_for_energy(target, u0, params1)


@pytest.mark.parametrize("n_directions", [0, -3, 2.5])
def test_entropy_check_needs_a_direction(radial1, n_directions):
    """With no direction tried the maximum gain reads -inf, which would pass the check."""
    with pytest.raises(mm.ValidationError, match="^n_directions: "):
        mm.entropy_stationarity_check(radial1, n_directions=n_directions)


def test_density_on_grid_matches_nodes(radial1):
    rho = mm.density_on_grid(radial1, radial1.nodes[:50])
    np.testing.assert_allclose(rho, radial1.rho[:50], rtol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_density_on_grid_rejects_bad_radii(radial1, bad):
    with pytest.raises(mm.ValidationError, match="^radii: "):
        mm.density_on_grid(radial1, np.array([0.0, bad, 0.1]))
