import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

import madelung_maxent as mm
from madelung_maxent import analysis, quadrature, verify
from madelung_maxent.integrator import REL_TOL


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
    """The field arrays: v = (-omega y, omega x) exactly, omega is angular_velocity inside
    the support and NaN (with v and the residual) at or past r_m."""
    pos = np.array([(0.5, 0.0), (0.0, 0.5), (0.3, -0.4), (0.0, 0.0), (5.0, 5.0),
                    (radial1.r_m, 0.0)])
    omega, v, residual = mm.velocity_field(radial1, pos)
    assert omega.shape == residual.shape == (6,) and v.shape == (6, 2)
    r = np.hypot(pos[:, 0], pos[:, 1])
    inside = r < radial1.r_m
    assert inside.tolist() == [True, True, True, True, False, False]
    assert np.array_equal(omega[inside], mm.angular_velocity(radial1, r[inside]))
    assert np.isnan(omega[~inside]).all() and np.isnan(v[~inside]).all()
    assert np.isnan(residual[~inside]).all()
    assert np.array_equal(v, np.column_stack([-omega * pos[:, 1], omega * pos[:, 0]]),
                          equal_nan=True)
    assert v[0, 0] == 0.0 and v[0, 1] == 0.5 * omega[0]
    assert v[1, 1] == 0.0 and v[1, 0] == -0.5 * omega[1]
    # m r omega^2 - U'(r): omega was built from the same U', so only rounding survives
    assert np.all(np.abs(residual[inside]) <= 1e-14)


def test_circulation_nonzero(radial1):
    """Rotational flow: the loop integral of v around a centered circle is
    2 pi r^2 omega, nonzero -- the phase has a defect at the origin."""
    r = 0.5
    theta = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    pos = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    v = mm.velocity_field(radial1, pos)[1]
    tangent = np.column_stack([-np.sin(theta), np.cos(theta)])
    circulation = np.sum(np.sum(v * tangent, axis=1)) * (2 * np.pi * r / theta.size)
    omega = mm.angular_velocity(radial1, r)
    assert circulation == pytest.approx(2 * np.pi * r**2 * omega, rel=1e-12)
    assert circulation > 0.1


@pytest.mark.parametrize("variant", ["paper-radial", "planar-radial"])
@pytest.mark.parametrize("beta, ceiling", [
    (0.01, 4e-3),  # r_m = 0.42 (0.38 planar): the sup grows as the support shrinks
    (1.0, 1e-4),
    (100.0, 1e-6),
])
def test_divergence_second_order(variant, beta, ceiling):
    """Halving h divides the sup by 4 to within 12%, at small, unit and large beta."""
    prof = mm.solve_radial(mm.SolveRequest(params=mm.make_params(1.0, 1.0, beta, variant)))
    d1 = mm.divergence_sup(prof, h=2e-3)
    d2 = mm.divergence_sup(prof, h=1e-3)
    assert d2 < ceiling
    assert 3.5 < d1 / d2 < 4.5


def _full_grid_divergence_sup(profile, h):
    """Every center of the (2n + 3)^2 lattice h k, omega evaluated once per node."""
    from madelung_maxent.analysis import _du_values, _omega_from_du

    r_lim = 0.8 * profile.r_m
    n = int(r_lim / h)
    axis = h * np.arange(-n - 1, n + 2)
    omega = np.empty((axis.size, axis.size))
    for lo in range(0, axis.size, 64):  # every node; past r_lim no kept center reads it
        r = np.minimum(np.hypot(axis[lo:lo + 64, None], axis[None, :]), r_lim)
        omega[lo:lo + 64] = _omega_from_du(profile, r, _du_values(profile, r))
    x = axis[1:-1, None]
    y = axis[None, 1:-1]
    keep = np.hypot(x, y) <= r_lim - 2 * h
    div = ((omega[:-2, 1:-1] - omega[2:, 1:-1]) * y / (2 * h)
           + (omega[1:-1, 2:] - omega[1:-1, :-2]) * x / (2 * h))
    return float(np.max(np.abs(div[keep])))


@pytest.mark.parametrize("variant, beta, h, n", [
    # a block holds BLOCK_CELLS // (n + 2) = 2^15 // (n + 2) of the octant's n + 1 rows
    ("paper-radial", 0.5, 8e-3, 142),     # the octant's n + 1 rows are one block
    ("planar-radial", 1.0, 8e-3, 134),
    ("paper-radial", 4.0, 4e-3, 397),     # four full blocks and a partial one
    ("planar-radial", 100.0, 4e-3, 338),  # three full blocks and a partial one
    ("paper-radial", 0.01, 2e-3, 168),    # r_m = 0.42
    ("planar-radial", 0.01, 2e-3, 149),
])
def test_divergence_octant_equals_full_grid(variant, beta, h, n):
    """The octant sup is the full grid's float, whatever the block layout."""
    prof = mm.solve_radial(mm.SolveRequest(params=mm.make_params(1.0, 1.0, beta, variant)))
    assert int(0.8 * prof.r_m / h) == n
    assert mm.divergence_sup(prof, h=h) == _full_grid_divergence_sup(prof, h)


def test_divergence_evaluates_omega_once_per_node(radial1, monkeypatch):
    """U' is asked at about the octant's pi (n + 2)^2 / 8 nodes, plus one ring row per block.

    Each block of center rows reads one node row on either side, which its
    neighbour reads too; at this n (4 blocks) the re-read rows, cut to the
    octant and the disk, hold fewer than n + 2 nodes per block.
    """
    asked = []
    slope = analysis._resample_slope

    def counting(profile, r):
        asked.append(r.size)
        return slope(profile, r)
    monkeypatch.setattr(analysis, "_resample_slope", counting)
    n = int(0.8 * radial1.r_m / 4e-3)
    assert n == 329
    mm.divergence_sup(radial1, h=4e-3)
    blocks = len(range(0, n + 1, max(1, analysis.BLOCK_CELLS // (n + 2))))
    assert 0 < sum(asked) <= math.pi * (n + 2) ** 2 / 8 + blocks * (n + 2)


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


def _quick_check(name):
    case = verify.Case(1.0, True)
    return verify.run_check(next(c for c in verify.CHECKS if c.name == name), case)


def test_divergence_sup_reports_a_nan_block(radial1, monkeypatch):
    """A block holding a NaN omega is not dropped from the sup; divergence-free fails."""
    slope = analysis._resample_slope
    monkeypatch.setattr(analysis, "_resample_slope",
                        lambda profile, r: np.where(r < 0.3, math.nan, slope(profile, r)))
    assert math.isnan(mm.divergence_sup(radial1, h=4e-3))
    assert not _quick_check("divergence-free").passed


def test_entropy_check_reports_a_nan_entropy(radial1, monkeypatch):
    """A NaN density makes the entropy gain NaN, not -inf; maxent-stationarity fails."""
    resample = analysis.resample

    def poisoned(profile, query):
        return np.where(query < 0.3, math.nan, resample(profile, query))
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


def test_sweep_flags_failures(empty_cap_memo, monkeypatch):
    """A solve that raises SolverError becomes a failed row; the other rows still solve."""
    solve = analysis.solve_radial

    def fail_at_beta_2(request):
        if request.params.beta == 2.0:
            raise mm.SolverError("potential integration ended with 'max-steps'")
        return solve(request)

    monkeypatch.setattr(analysis, "solve_radial", fail_at_beta_2)
    sweep = mm.beta_sweep([1.0, 2.0, 4.0], 1.0, mm.make_params(1, 1, 1))
    assert [row.status for row in sweep.rows] == ["ok", "failed", "ok"]
    assert sweep.rows[1].observables is None
    assert sweep.rows[1].error == "potential integration ended with 'max-steps'"
    assert sweep.k_bar_decreasing  # the trends read the rows that solved


def test_sweep_and_limit_flags_are_derived_from_their_rows(params1):
    """SweepResult's trend flags are read from its rows and LimitReport's
    distances_decreasing from its distances; dataclasses.replace carries them."""
    sweep = mm.beta_sweep([1.0, 2.0, 4.0], 1.0, params1)
    obs = [row.observables for row in sweep.rows]

    def flags(result):
        return [result.r_m_nondecreasing, result.r2_nondecreasing, result.k_bar_decreasing,
                result.u_bar_nonincreasing]

    assert flags(sweep) == [True, True, True, True]
    assert all(b.r_m >= a.r_m * (1 - 1e-12) and b.k_bar < a.k_bar
               for a, b in zip(obs, obs[1:]))
    assert flags(replace(sweep, rows=sweep.rows[::-1])) == [False, False, False, False]
    assert flags(replace(sweep, rows=sweep.rows[:1])) == [True, True, True, True]
    report = mm.LimitReport(distances=(3.0, 2.0, 1.0), sinc=mm.sinc_limit(params1, 1.0),
                            profiles=())
    assert report.distances_decreasing
    assert not replace(report, distances=(3.0, 2.0, 2.0)).distances_decreasing
    assert replace(report, distances=(1.0,)).distances_decreasing
    for record, name in ((sweep, "k_bar_decreasing"), (report, "distances_decreasing")):
        with pytest.raises(ValueError, match=name):
            replace(record, **{name: True})


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


def test_sinc_norm_integral_is_the_gauss_legendre_float():
    """The literal is int_0^pi sin^2(u)/u du by 128-point Gauss-Legendre, to the bit."""
    nodes, weights = np.polynomial.legendre.leggauss(128)
    u = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    assert float(np.sum(w * np.sin(u) ** 2 / u)) == mm.analysis.SINC_NORM_INTEGRAL


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
    for profile, distance in zip(report.profiles, report.distances, strict=True):
        assert distance == pytest.approx(
            golden["limit_distance"][str(profile.params.beta)], abs=1e-6)
    assert report.profiles[-1].r_m == pytest.approx(math.pi / math.sqrt(2.0), rel=0.02)


def test_limit_convergence_validation(params1):
    with pytest.raises(mm.ValidationError, match="betas"):
        mm.limit_convergence([5.0, 50.0], 1.0, params1)
    with pytest.raises(mm.ValidationError, match="^u0: "):
        mm.limit_convergence([10.0, 50.0], math.inf, params1)
    with pytest.raises(mm.ValidationError, match="^betas: "):
        mm.limit_convergence([10.0], 1.0, params1)
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


def _energy(beta, variant="paper-radial", u0=1.0, mass=1.0):
    return mm.observables(mm.solve_radial(mm.SolveRequest(
        params=mm.make_params(1.0, mass, beta, variant), u0=u0))).energy


# beta* in units of 1/U0, so that it stays below beta_cap = 500/U0
_FEW_SOLVES_CASES = [pytest.param(b, 1.0, 1.0, id=repr(b))
                     for b in (1e-06, 0.01, 1.0, 100.0, 499.0)] + [
    pytest.param(b / u0, u0, mass, id=f"{b!r}-u0={u0!r}-m={mass!r}")
    for u0, mass in ((0.3, 1.0), (3.0, 1.0), (1.0, 0.5), (1.0, 2.0))
    for b in (1e-06, 0.01, 1.0, 100.0, 499.0)]


@pytest.mark.parametrize("variant", ["paper-radial", "planar-radial"])
@pytest.mark.parametrize("b_star, u0, mass", _FEW_SOLVES_CASES)
def test_invert_beta_round_trip_few_solves(variant, b_star, u0, mass, empty_cap_memo,
                                            monkeypatch):
    """Started on the energy curve, the search recovers beta* in 1 solve.

    That solve runs at the package tolerance, and its beta is the one returned.
    """
    target = _energy(b_star, variant, u0, mass)
    solves = []
    solve = analysis.solve_radial
    monkeypatch.setattr(analysis, "solve_radial",
                        lambda request: solves.append(request) or solve(request))
    beta = mm.invert_beta_for_energy(target, u0, mm.make_params(1.0, mass, 1.0, variant))
    assert len(solves) == 1
    assert solves[0].rel_tol == REL_TOL
    assert beta == solves[0].params.beta
    assert abs(beta - b_star) / b_star < 1e-6
    assert abs(_energy(beta, variant, u0, mass) - target) / target < 1e-6


@pytest.mark.parametrize("variant", ["paper-radial", "planar-radial"])
def test_invert_beta_agrees_with_scipy_brentq(variant):
    """scipy's brentq on the same E(1/x) over [1/beta_cap, E/m] finds the same beta to 2.5e-7."""
    from scipy.optimize import brentq

    params = mm.make_params(1.0, 1.0, 1.0, variant)
    x_cap = 1.0 / 500.0
    lowest = _energy(500.0, variant) * (1.0 + 1e-6)
    for target in map(float, 1.0 + np.geomspace(lowest - 1.0, 999.0, 12)):
        beta = mm.invert_beta_for_energy(target, 1.0, params)
        x_ref = brentq(lambda x: _energy(1.0 / x, variant) - target, x_cap,
                       target / (1.0 + 1e-9), xtol=1e-300, rtol=1.25e-7)
        assert abs(beta * x_ref - 1.0) < 2.5e-7, target


@pytest.mark.parametrize("variant", ["paper-radial", "planar-radial"])
def test_invert_beta_keeps_its_accuracy_on_a_skewed_curve(variant, empty_cap_memo, monkeypatch):
    """An energy curve with a 1% too large costs solves, not accuracy: beta within 2.5e-7.

    The reference is scipy's brentq on E(1/x), as above; every solve runs at
    the package tolerance.
    """
    from scipy.optimize import brentq

    params = mm.make_params(1.0, 1.0, 1.0, variant)
    lowest = _energy(500.0, variant) * (1.0 + 1e-6)
    targets = list(map(float, 1.0 + np.geomspace(lowest - 1.0, 999.0, 6)))
    references = [brentq(lambda x: _energy(1.0 / x, variant) - target, 1.0 / 500.0,
                         target / (1.0 + 1e-9), xtol=1e-300, rtol=1.25e-7) for target in targets]
    curve = analysis._energy_curve(params.laplacian_variant)
    monkeypatch.setitem(analysis._CURVES, params.laplacian_variant, analysis._EnergyCurve.through(
        curve.ln_g0, curve.step, [1.01 * a for a in curve.a]))
    solves = []
    solve = analysis.solve_radial
    monkeypatch.setattr(analysis, "solve_radial",
                        lambda request: solves.append(request) or solve(request))
    for target, x_ref in zip(targets, references):
        beta = mm.invert_beta_for_energy(target, 1.0, params)
        assert abs(beta * x_ref - 1.0) < 2.5e-7, target
    assert all(request.rel_tol == REL_TOL for request in solves)
    assert len(solves) > 2 * len(targets)  # the skew is seen


@pytest.mark.parametrize("variant", ["paper-radial", "planar-radial"])
def test_invert_beta_agrees_with_scipy_brentq_below_the_curve(variant, empty_cap_memo,
                                                              monkeypatch):
    """Below the curve's g >= 1e-8 the search starts off its end value and still
    lands within 1.25e-7 of scipy's brentq on E(1/x), in at most 3 solves."""
    from scipy.optimize import brentq

    params = mm.make_params(1.0, 1.0, 1.0, variant)
    solves = []
    solve = analysis.solve_radial
    monkeypatch.setattr(analysis, "solve_radial",
                        lambda request: solves.append(request) or solve(request))
    for target in (1e9, 1e12, 1e16):
        solves.clear()
        beta = mm.invert_beta_for_energy(target, 1.0, params)
        assert len(solves) <= 3, target
        x_ref = brentq(lambda x: _energy(1.0 / x, variant) - target, 0.99 / beta, 1.01 / beta,
                       xtol=1e-300, rtol=1e-10)
        assert abs(beta * x_ref - 1.0) <= 1.25e-7, target


@pytest.mark.parametrize("variant", ["paper-radial", "planar-radial"])
def test_invert_beta_slope_floor_holds_on_the_curve(variant):
    """The stop |phi| <= _SLOPE_FLOOR * 1.25e-7 needs dphi/dxi = 1 - (da/d ln g)/(a + m)
    >= _SLOPE_FLOOR for every m > 0, so 1 - (da/d ln g)/a: read on the shipped curve
    at 16 points per knot interval, and below its first knot from solves at
    g = 1e-10, 1e-12 and 1e-16 (central differences in ln g)."""
    curve = analysis._energy_curve(mm.LaplacianVariant(variant))
    ln_gs = curve.ln_g0 + curve.step * np.linspace(0.0, len(curve.a) - 1, 16 * len(curve.a))
    floor = min(1.0 - slope / a for a, slope in map(curve, ln_gs))
    assert analysis._SLOPE_FLOOR <= floor

    def a_at(ln_g):
        g = math.exp(ln_g)  # beta at U0 = 1
        u_bar = mm.solve_radial(mm.SolveRequest(
            params=mm.make_params(1.0, 1.0, g, variant))).observables.u_bar
        return g * (u_bar - 1.0)

    for g in (1e-10, 1e-12, 1e-16):
        ln_g, d = math.log(g), 0.05
        slope = (a_at(ln_g + d) - a_at(ln_g - d)) / (2.0 * d)
        assert 0.0 < slope and analysis._SLOPE_FLOOR <= 1.0 - slope / a_at(ln_g), g


@pytest.mark.parametrize("variant", ["paper-radial", "planar-radial"])
def test_energy_curve_holds_off_the_unit_parameters(variant):
    """a = beta (u_bar - U0) depends on g = beta U0 alone: the curve, built at
    U0 = m = hbar = 1, gives a + m to 5e-8 relative at other (U0, m, hbar),
    between its knots and at both ends of g in [1e-8, 500]."""
    curve = analysis._energy_curve(mm.LaplacianVariant(variant))
    ln_gs = [curve.ln_g0 + (k + 0.5) * curve.step for k in range(0, len(curve.a) - 2, 7)]
    for u0, mass, hbar in ((3.0, 2.0, 0.5), (0.3, 0.5, 2.0)):
        for ln_g in [math.log(1e-8), *ln_gs, math.log(500.0)]:
            beta = math.exp(ln_g) / u0
            obs = mm.solve_radial(mm.SolveRequest(
                params=mm.make_params(mass, hbar, beta, variant), u0=u0)).observables
            a = beta * (obs.u_bar - u0)
            a_curve, _ = curve(math.log(beta * u0))
            assert abs(a_curve - a) / (a + mass) <= 5e-8, (u0, mass, hbar, beta)


@pytest.mark.parametrize("variant", ["paper-radial", "planar-radial"])
def test_energy_curve_is_fresh(variant):
    """Every 10th stored point re-solves to 1e-12: a kernel change must rewrite the
    curve (``python scripts/energy_curve.py``)."""
    curve = analysis._energy_curve(mm.LaplacianVariant(variant))
    for k in range(0, len(curve.a), 10):
        g = math.exp(curve.ln_g0 + k * curve.step)
        u_bar = mm.solve_radial(mm.SolveRequest(
            params=mm.make_params(1.0, 1.0, g, variant))).observables.u_bar
        assert abs(g * (u_bar - 1.0) - curve.a[k]) <= 1e-12 * curve.a[k], g


@pytest.mark.parametrize("variant", ["paper-radial", "planar-radial"])
def test_energy_curve_approaches_the_limit_mode_at_large_g(variant):
    """The curve's large-g end, where the refusal boundary g = 500 lies.

    As g grows the state tends to the limit mode R(s): sinc on [0, pi] for the
    paper's 2/r equation, J0 on [0, j_01] for the planar 1/r one.  There
    a_inf = -2 int R^2 ln R s ds / int R^2 s ds (0.79234487 paper, 0.76057618
    planar).  The shipped a rises at every knot and stays below a_inf, and for
    g >= 100 g (a_inf - a) holds within 1% of its value at the last knot
    (0.2924 paper, 0.2001 planar): a closes on a_inf like 1/g.
    """
    from scipy.special import j0, jn_zeros

    if variant == "paper-radial":
        mode, end = lambda s: np.sinc(s / math.pi), math.pi
    else:
        mode, end = j0, float(jn_zeros(0, 1)[0])
    top = quad(lambda s: mode(s) ** 2 * math.log(mode(s)) * s, 0.0, end)[0]
    a_inf = -2.0 * top / quad(lambda s: mode(s) ** 2 * s, 0.0, end)[0]
    curve = analysis._energy_curve(mm.LaplacianVariant(variant))
    a = np.array(curve.a)
    g = np.exp(curve.ln_g0 + curve.step * np.arange(a.size))
    assert np.all(np.diff(a) > 0.0)
    assert np.all(a < a_inf)
    gap = (g * (a_inf - a))[g >= 100.0]
    assert gap.size >= 10
    assert np.all(np.abs(gap / gap[-1] - 1.0) <= 0.01), gap


def test_invert_beta_refuses_exactly_below_beta_cap(params1):
    """Every target down to E(beta_cap = 500) inverts; a lower one reports E(beta_cap)."""
    assert mm.invert_beta_for_energy(_energy(400.0), 1.0, params1) == \
        pytest.approx(400.0, rel=1e-6)
    e_cap = _energy(500.0)
    # just above E(beta_cap) = 1.0035835...: beta lies just below the cap
    just_above = e_cap * (1.0 + 1e-6)
    beta = mm.invert_beta_for_energy(just_above, 1.0, params1)
    assert 400.0 < beta <= 500.0
    assert _energy(beta) == pytest.approx(just_above, rel=1e-6)
    with pytest.raises(mm.NoSolutionError) as excinfo:
        mm.invert_beta_for_energy(e_cap * (1.0 - 1e-6), 1.0, params1)
    assert excinfo.value.feasible_min == pytest.approx(e_cap, rel=1e-12)


def test_invert_beta_bracket_guard(params1, empty_cap_memo, monkeypatch):
    """An energy that never reaches the target raises SolverError naming the bracket."""
    monkeypatch.setattr(analysis, "solve_radial", lambda request: None)
    monkeypatch.setattr(analysis, "observables", lambda profile: SimpleNamespace(energy=0.5))
    with pytest.raises(mm.SolverError, match="bracket"):
        mm.invert_beta_for_energy(2.0, 1.0, params1)


@pytest.mark.parametrize("target", [0.5, 1.0, 1.003])
def test_invert_beta_refusal_solves_once_at_beta_cap(params1, target, empty_cap_memo,
                                                     monkeypatch):
    """A target below E(beta_cap), U0 included, is refused after its one solve, at beta_cap.

    That solve runs at the package tolerance, so the refusal is exact.  A repeat
    at the same parameters reads it: no solve, the same feasible_min bits and
    message.  Another U0, m, hbar or variant solves once again, and replaces it.
    """
    betas = []
    solve = analysis.solve_radial
    monkeypatch.setattr(analysis, "solve_radial",
                        lambda request: betas.append((request.params.beta, request.rel_tol))
                        or solve(request))

    def refusal(u0=1.0, params=params1):
        betas.clear()
        with pytest.raises(mm.NoSolutionError) as excinfo:
            mm.invert_beta_for_energy(target, u0, params)
        return excinfo.value.feasible_min, str(excinfo.value)

    feasible_min, message = refusal()
    assert betas == [(500.0, REL_TOL)]
    assert feasible_min == _energy(500.0)
    again = refusal()
    assert betas == []
    assert again[0].hex() == feasible_min.hex() and again[1] == message
    for u0, params in ((2.0, params1), (1.0, mm.make_params(2.0, 1.0, 1.0)),
                       (1.0, mm.make_params(1.0, 2.0, 1.0)),
                       (1.0, mm.make_params(1.0, 1.0, 1.0, "planar-radial")), (1.0, params1)):
        refusal(u0, params)
        assert betas == [(500.0 / u0, REL_TOL)], (u0, params)


def test_invert_beta_keeps_no_energy_from_a_failed_cap_solve(params1, empty_cap_memo,
                                                             monkeypatch):
    """A failed beta_cap solve leaves the memo empty: the next call solves, and raises, again."""
    betas = []

    def fail(request):
        betas.append(request.params.beta)
        raise mm.SolverError("potential integration ended with 'max-steps'")

    monkeypatch.setattr(analysis, "solve_radial", fail)
    for _ in range(2):
        with pytest.raises(mm.SolverError, match="max-steps"):
            mm.invert_beta_for_energy(0.5, 1.0, params1)
        assert analysis._CAP_PROFILE == {}
    assert betas == [500.0, 500.0]


def test_invert_beta_results_do_not_depend_on_the_cap_memo(params1, empty_cap_memo):
    """Each target on an empty memo and then in a row on a warm one: every beta and
    refusal (feasible_min and message) has the same bits."""
    e_cap = _energy(500.0)
    targets = [e_cap * (1.0 + 1e-6), e_cap * (1.0 - 1e-6), 1.0036, 1.003, 0.5]

    def outcome(target):
        try:
            return mm.invert_beta_for_energy(target, 1.0, params1).hex()
        except mm.NoSolutionError as exc:
            return exc.feasible_min.hex(), str(exc)

    cold = []
    for target in targets:
        analysis._CAP_PROFILE.clear()
        cold.append(outcome(target))
    assert [outcome(target) for target in targets] == cold
    assert list(analysis._CAP_PROFILE) == [(mm.make_params(1.0, 1.0, 500.0), 1.0)]
    assert [isinstance(o, tuple) for o in cold] == [False, True, False, True, True]


def test_invert_beta_solve_cap_names_the_bracket(params1, monkeypatch):
    """A search still open when the solves run out raises SolverError naming its bracket.

    E = 1e9 lies below the energy curve's range and takes 3 solves.
    """
    monkeypatch.setattr(analysis, "_INVERT_MAX_SOLVES", 2)
    with pytest.raises(mm.SolverError, match=r"did not close on the bracket beta in \["):
        mm.invert_beta_for_energy(1e9, 1.0, params1)


@pytest.mark.parametrize("target, u0, field", [
    (math.inf, 1.0, "target_energy"), (math.nan, 1.0, "target_energy"),
    (-1.0, 1.0, "target_energy"), (2.0, math.inf, "u0"), (2.0, 0.0, "u0"),
])
def test_invert_beta_validation(params1, target, u0, field):
    with pytest.raises(mm.ValidationError, match=f"^{field}: "):
        mm.invert_beta_for_energy(target, u0, params1)


def _entropy_gains_per_direction(profile, n_directions):
    """Each direction's entropy gain, one at a time with its own integrals and solve (-inf: skipped)."""
    radii = np.linspace(0.0, float(profile.nodes[-1]), analysis._ENTROPY_GRID)
    u = mm.resample(profile, radii)
    rho = np.exp(-profile.params.beta * u) / profile.z
    weights = np.ones(radii.size)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    measure = 2.0 * math.pi * (weights * ((radii[1] - radii[0]) / 3.0)) * radii

    def entropy_of(dens):
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(dens == 0.0, 0.0, dens * np.log(np.where(dens == 0.0, 1.0, dens)))
        return -float(np.sum(measure * term))

    h0, gains = entropy_of(rho), []
    basis = np.cos(np.arange(8)[:, None] * math.pi / radii[-1] * radii[None, :])
    gram = np.array([[np.sum(measure * (rho * a * b)) for b in (1.0, u)] for a in (1.0, u)])
    rng = np.random.default_rng(analysis._ENTROPY_SEED)
    for _ in range(n_directions):
        g = rng.standard_normal(8) @ basis
        rhs = np.array([np.sum(measure * (rho * g)), np.sum(measure * (rho * u * g))])
        alpha, gamma = np.linalg.solve(gram, rhs)
        g = g - alpha - gamma * u
        peak = float(np.max(np.abs(g)))
        perturbed = rho * (1.0 + analysis._ENTROPY_EPSILON * (g / peak))
        gains.append(entropy_of(perturbed) - h0 if peak >= 1e-12 else -math.inf)
    return np.array(gains)


@pytest.mark.parametrize("beta", [1e-3, 1.0, 100.0])
def test_entropy_check_blocks_are_the_per_direction_float(beta):
    """Blocks of directions give the float of one direction at a time, partial blocks too.

    Besides n = 1, 15, 16 and 100, every n whose direction sets a new maximum
    is checked, so a block that drops or alters a deciding direction fails.
    """
    profile = mm.solve_radial(mm.SolveRequest(params=mm.make_params(1.0, 1.0, beta)))
    worst = np.maximum.accumulate(_entropy_gains_per_direction(profile, 100))
    records = 1 + np.flatnonzero(np.diff(worst, prepend=-math.inf) > 0.0)
    for n_directions in sorted({1, 15, 16, 100, *records.tolist()}):
        assert mm.entropy_stationarity_check(profile, n_directions) == worst[n_directions - 1]


def test_entropy_check_blocks_below_one_grid_row(radial1, monkeypatch):
    """A block budget smaller than one direction's grid takes one direction at a time."""
    expected = mm.entropy_stationarity_check(radial1)
    monkeypatch.setattr(analysis, "BLOCK_CELLS", 1024)
    assert mm.entropy_stationarity_check(radial1) == expected


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
