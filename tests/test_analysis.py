import math
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
    """U' is asked at no more radii than the octant's (n + 2)^2 node square holds."""
    asked = []
    slope = analysis._resample_slope

    def counting(profile, r):
        asked.append(r.size)
        return slope(profile, r)
    monkeypatch.setattr(analysis, "_resample_slope", counting)
    n = int(0.8 * radial1.r_m / 4e-3)
    assert n == 329
    mm.divergence_sup(radial1, h=4e-3)
    assert 0 < sum(asked) <= (n + 2) ** 2


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


def test_sweep_flags_failures(monkeypatch):
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
    for row in report.rows:
        assert row.distance == pytest.approx(golden["limit_distance"][str(row.beta)],
                                             abs=1e-6)
    assert report.rows[-1].r_m == pytest.approx(math.pi / math.sqrt(2.0), rel=0.02)


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
_FEW_SOLVES_CASES = [pytest.param(b, 1.0, 1.0, id=repr(b)) for b in (0.01, 1.0, 100.0, 499.0)] + [
    pytest.param(b / u0, u0, mass, id=f"{b!r}-u0={u0!r}-m={mass!r}")
    for u0, mass in ((0.3, 1.0), (3.0, 1.0), (1.0, 0.5), (1.0, 2.0))
    for b in (0.01, 1.0, 100.0, 499.0)]


@pytest.mark.parametrize("variant", ["paper-radial", "planar-radial"])
@pytest.mark.parametrize("b_star, u0, mass", _FEW_SOLVES_CASES)
def test_invert_beta_round_trip_few_solves(variant, b_star, u0, mass, monkeypatch):
    """The log-log secant recovers beta* in at most 5 solves (Brent's method took 6-7).

    Past any beta_cap check at most 2 of them run at the package tolerance, and
    the returned beta is one of those.
    """
    target = _energy(b_star, variant, u0, mass)
    solves = []
    solve = analysis.solve_radial
    monkeypatch.setattr(analysis, "solve_radial",
                        lambda request: solves.append(request) or solve(request))
    beta = mm.invert_beta_for_energy(target, u0, mm.make_params(1.0, mass, 1.0, variant))
    assert len(solves) <= 5
    checks = [k for k, request in enumerate(solves)
              if math.isclose(request.params.beta, 500.0 / u0, rel_tol=1e-12)]
    full = [request.params.beta for request in solves[max(checks, default=-1) + 1:]
            if request.rel_tol == REL_TOL]
    assert len(full) <= 2 and beta in full
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
def test_invert_beta_certifies_on_full_tolerance_solves(variant, monkeypatch):
    """Steering solves that read E (1 + 3e-7), more than the bracket, leave beta within 2.5e-7.

    The reference is scipy's brentq on the full-tolerance E(1/x), as above.
    """
    from scipy.optimize import brentq

    params = mm.make_params(1.0, 1.0, 1.0, variant)
    lowest = _energy(500.0, variant) * (1.0 + 1e-6)
    targets = list(map(float, 1.0 + np.geomspace(lowest - 1.0, 999.0, 6)))
    references = [brentq(lambda x: _energy(1.0 / x, variant) - target, 1.0 / 500.0,
                         target / (1.0 + 1e-9), xtol=1e-300, rtol=1.25e-7) for target in targets]
    steered = []
    solve = analysis.solve_radial

    def skewed(request):
        profile = solve(request)
        if request.rel_tol == REL_TOL:
            return profile
        steered.append(request)
        return SimpleNamespace(observables=SimpleNamespace(
            energy=profile.observables.energy * (1.0 + 3e-7)))

    monkeypatch.setattr(analysis, "solve_radial", skewed)
    for target, x_ref in zip(targets, references):
        beta = mm.invert_beta_for_energy(target, 1.0, params)
        assert abs(beta * x_ref - 1.0) < 2.5e-7, target
    assert steered


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


def test_invert_beta_bracket_guard(params1, monkeypatch):
    """An energy that never reaches the target raises SolverError naming the bracket."""
    monkeypatch.setattr(analysis, "solve_radial", lambda request: None)
    monkeypatch.setattr(analysis, "observables", lambda profile: SimpleNamespace(energy=0.5))
    with pytest.raises(mm.SolverError, match="bracket"):
        mm.invert_beta_for_energy(2.0, 1.0, params1)


@pytest.mark.parametrize("target", [0.5, 1.0, 1.003])
def test_invert_beta_refusal_solves_once_at_beta_cap(params1, target, monkeypatch):
    """A target below E(beta_cap), U0 included, is refused after its one solve, at beta_cap.

    That solve runs at the package tolerance, so the refusal is exact.
    """
    betas = []
    solve = analysis.solve_radial
    monkeypatch.setattr(analysis, "solve_radial",
                        lambda request: betas.append((request.params.beta, request.rel_tol))
                        or solve(request))
    with pytest.raises(mm.NoSolutionError) as excinfo:
        mm.invert_beta_for_energy(target, 1.0, params1)
    assert betas == [(500.0, REL_TOL)]
    assert excinfo.value.feasible_min == _energy(500.0)


def test_invert_beta_solve_cap_names_the_bracket(params1, monkeypatch):
    """A bracket still open when the solves run out raises SolverError naming it."""
    monkeypatch.setattr(analysis, "_INVERT_MAX_SOLVES", 3)
    with pytest.raises(mm.SolverError, match=r"did not close on the bracket beta in \["):
        mm.invert_beta_for_energy(2.0, 1.0, params1)


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
