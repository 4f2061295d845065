import math

import numpy as np
import pytest
from scipy.integrate import quad

import madelung_maxent as mm


def test_kinetic_identity_beta1(obs1):
    assert obs1.k_bar == 1.0
    assert abs(obs1.k_bar_quad - 1.0) < 1e-6


def test_kinetic_identity_beta2():
    obs = mm.observables(mm.solve_radial(mm.SolveRequest(params=mm.make_params(1, 1, 2))))
    assert obs.k_bar == 0.5
    assert abs(obs.k_bar_quad - 0.5) / 0.5 < 1e-6


def test_entropy_identity(obs1):
    assert abs(obs1.entropy - (obs1.beta * obs1.u_bar + math.log(obs1.z))) < 1e-8


def test_observables_golden(obs1, golden):
    ref = golden["radial"]["1.0"]
    assert obs1.u_bar == pytest.approx(ref["u_bar"], rel=1e-8)
    assert math.log(obs1.z) == pytest.approx(ref["log_z"], abs=1e-8)
    assert obs1.r2_bar == pytest.approx(ref["r2_bar"], rel=1e-8)


def test_observables_require_normalized(radial1):
    from dataclasses import replace

    bare = replace(radial1, rho=None, z=None)
    with pytest.raises(mm.ValidationError, match="normalized"):
        mm.observables(bare)


def test_omega_origin_limit(radial1):
    # U'/r -> 2a with a = lambda^2 u0 / 6 = 2/3 at beta = 1
    assert mm.angular_velocity(radial1, 0.0) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-6)


def test_omega_constant_potential_is_zero(params1):
    nodes = np.linspace(0.0, 1.0, 11)
    const = mm.RadialProfile(params=params1, nodes=nodes, u=np.full(11, 2.0),
                             du=np.zeros(11), u0=2.0, r_m=1.0)
    const = mm.density_from_potential(const)
    assert mm.angular_velocity(const, 0.0) == 0.0
    assert mm.angular_velocity(const, 0.7) == 0.0


def test_omega_out_of_support(radial1):
    with pytest.raises(mm.OutOfSupportError):
        mm.angular_velocity(radial1, radial1.r_m)
    with pytest.raises(mm.OutOfSupportError):
        mm.angular_velocity(radial1, -0.1)


def test_stationarity_balance_at_nodes(radial1):
    r = radial1.nodes
    omega = mm.angular_velocity(radial1, r)
    m = radial1.params.mass
    residual = np.abs(m * r * omega**2 - radial1.du)
    assert np.all(residual <= 256 * np.finfo(float).eps * (1.0 + radial1.du))


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


def test_sweep_closed_form_column():
    sweep = mm.beta_sweep([1.0, 5.0, 10.0, 100.0], 1.0, mm.make_params(1, 1, 1))
    assert [row.k_bar_closed_form for row in sweep.rows] == [1.0, 0.2, 0.1, 0.01]
    assert sweep.k_bar_decreasing and sweep.u_bar_nonincreasing


def test_sweep_small_beta_collapse():
    sweep = mm.beta_sweep([1e-6, 1e-5, 1e-4], 1.0, mm.make_params(1, 1, 1))
    r2 = [row.r2_bar for row in sweep.rows]
    assert r2[0] < r2[1] < r2[2] < 2e-3  # second moment collapses as beta -> 0


def test_sweep_r_m_flattens():
    sweep = mm.beta_sweep([10.0, 50.0, 100.0], 1.0, mm.make_params(1, 1, 1))
    r_m = [row.r_m for row in sweep.rows]
    assert r_m[1] - r_m[0] > r_m[2] - r_m[1] > 0


def test_sweep_flags_failures():
    from madelung_maxent.integrator import StepControl

    sweep = mm.beta_sweep([1.0, 2.0], 1.0, mm.make_params(1, 1, 1),
                          control=StepControl(max_steps=50))
    assert all(row.status == "failed" for row in sweep.rows)
    assert all(math.isnan(row.r_m) for row in sweep.rows)
    assert all(row.error for row in sweep.rows)


def test_sweep_validation():
    with pytest.raises(mm.ValidationError, match="betas"):
        mm.beta_sweep([2.0, 1.0], 1.0, mm.make_params(1, 1, 1))


def test_sinc_limit_k1(params1):
    s = mm.sinc_limit(params1, k=1.0)
    assert s.r_inf == math.pi
    assert s.energy == pytest.approx(0.5, rel=1e-15)


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
    with pytest.raises(mm.ValidationError):
        mm.sinc_limit(params1)
    with pytest.raises(mm.ValidationError):
        mm.sinc_limit(params1, energy=1.0, k=1.0)
    with pytest.raises(mm.ValidationError, match="energy"):
        mm.sinc_limit(params1, energy=-1.0)


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


def test_entropy_stationarity(radial1):
    gain = mm.entropy_stationarity_check(radial1, epsilon=1e-4, n_directions=100)
    assert gain < 1e-12


def test_density_on_grid_matches_nodes(radial1):
    rho = mm.density_on_grid(radial1, radial1.nodes[:50])
    np.testing.assert_allclose(rho, radial1.rho[:50], rtol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_density_on_grid_rejects_bad_radii(radial1, bad):
    with pytest.raises(mm.ValidationError, match="^radii: "):
        mm.density_on_grid(radial1, np.array([0.0, bad, 0.1]))
