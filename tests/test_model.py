import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

import madelung_maxent as mm
from madelung_maxent.model import Record, to_json


def test_lambda_sq_values():
    assert mm.make_params(1, 1, 1).lambda_sq == 4.0
    assert mm.make_params(1, 1, 2).lambda_sq == 2.0


@pytest.mark.parametrize("field,args", [
    ("beta", (1, 1, 0)),
    ("beta", (1, 1, -1)),
    ("mass", (0, 1, 1)),
    ("hbar", (1, -2, 1)),
    ("laplacian_variant", (1, 1, 1, "bogus")),
])
def test_make_params_rejects_nonpositive(field, args):
    with pytest.raises(mm.ValidationError, match=field):
        mm.make_params(*args)


def test_lambda_sq_recompute(params1):
    assert params1.lambda_sq == 4.0 * params1.mass / (params1.hbar**2 * params1.beta)


def test_params_immutable(params1):
    with pytest.raises(Exception):
        params1.beta = 2.0


# one instance of every Record subclass, built from the session fixtures
# (``get`` is request.getfixturevalue); the edge cases carry inf and NaN
RECORDS = {
    "params-planar": lambda get: mm.make_params(2.0, 0.5, 3.0, "planar-radial"),
    "radial": lambda get: get("radial1"),
    "axis": lambda get: get("axis1"),
    "observables": lambda get: get("obs1"),
    "sinc": lambda get: mm.sinc_limit(get("params1"), energy=1.0),
    "grid-rotated": lambda get: mm.rotate_grid(
        mm.assemble_2d(get("axis1"), get("axis1"), 0.1), 0.5),
    "sweep-row-failed": lambda get: mm.SweepRow(
        beta=1e3, u0=1.0, error="z: normalization underflowed"),
    "sweep-result": lambda get: mm.beta_sweep([1.0, 2.0], 1.0, get("params1")),
    "field-sample-outside": lambda get: mm.velocity_field(get("radial1"), [[5.0, 0.0]])[0],
    "residual-norms": lambda get: mm.maxent_residual(get("radial1"), get("params1"), h=1e-2),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_record_roundtrip(make, request):
    """to_json writes valid JSON holding every field, derived ones included, by name."""
    record = make(request.getfixturevalue)
    parsed = json.loads(to_json(record))
    assert list(parsed) == sorted(f.name for f in fields(record))


def test_record_roundtrip_covers_every_record(request):
    made = {type(make(request.getfixturevalue)) for make in RECORDS.values()}
    assert made == set(Record.__subclasses__())


def _axis(params):
    return mm.solve_cartesian_factor(
        mm.SolveRequest(params=params, geometry=mm.Geometry.CARTESIAN_FACTOR))


# each call solves afresh, so two calls give equal arrays in separate records
ARRAY_RECORDS = {
    "radial": lambda p: mm.solve_radial(mm.SolveRequest(params=p)),
    "axis": _axis,
    "grid": lambda p: mm.assemble_2d(_axis(p), _axis(p), 0.1),
}


@pytest.mark.parametrize("solve", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_array_records_compare_and_hash_by_identity(params1, solve):
    """== on array fields would be ambiguous, so records holding arrays compare by identity."""
    a, b = solve(params1), solve(params1)
    assert a == a
    assert a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def test_scalar_records_compare_by_value(params1):
    a, b = (mm.solve_radial(mm.SolveRequest(params=params1)) for _ in range(2))
    assert a.params == b.params == mm.make_params(1.0, 1.0, 1.0)
    assert a.observables == b.observables
    assert hash(a.observables) == hash(b.observables)


def test_profile_arrays_readonly(radial1):
    with pytest.raises(ValueError):
        radial1.u[0] = 99.0


def test_profile_invariants_rejected(params1, radial1):
    nodes = np.array([0.0, 0.5, 1.0])
    good_u = np.array([1.0, 1.2, 1.5])
    good_du = np.array([0.0, 0.5, 1.0])
    obs = radial1.observables
    with pytest.raises(mm.ValidationError, match="nodes"):
        mm.RadialProfile(params=params1, nodes=[0.5, 1.0, 1.5], u=good_u,
                         du=good_du, u0=1.0, observables=obs)
    with pytest.raises(mm.ValidationError, match="du"):
        mm.RadialProfile(params=params1, nodes=nodes, u=good_u,
                         du=[0.1, 0.5, 1.0], u0=1.0, observables=obs)
    with pytest.raises(mm.ValidationError, match="du"):
        # decreasing slope = concave u
        mm.RadialProfile(params=params1, nodes=nodes, u=good_u,
                         du=[0.0, 1.0, 0.5], u0=1.0, observables=obs)
    with pytest.raises(mm.ValidationError, match="r_m"):
        mm.RadialProfile(params=params1, nodes=nodes, u=good_u,
                         du=good_du, u0=1.0, observables=replace(obs, r_m=0.9))
    with pytest.raises(mm.ValidationError, match="^u_bar: "):  # U rises from u0 > u_bar
        mm.RadialProfile(params=params1, nodes=nodes, u=good_u + 5.0,
                         du=good_du, u0=6.0, observables=obs)
    with pytest.raises(mm.ValidationError, match="^z: "):
        replace(obs, z=0.0)


def test_one_node_profile_rejected(params1, obs1):
    """A profile interpolates over node intervals, so it needs at least one."""
    one = dict(params=params1, nodes=[0.0], u=[1.0], du=[0.0], u0=1.0)
    with pytest.raises(mm.ValidationError, match="^nodes: "):
        mm.RadialProfile(**one, observables=obs1)
    with pytest.raises(mm.ValidationError, match="^nodes: "):
        mm.AxisProfile(**one, half_width=1.0, z=1.0)


def test_rho_definition_enforced(radial1):
    rho = np.exp(-radial1.params.beta * radial1.u) / radial1.observables.z
    assert np.array_equal(radial1.rho, rho)


def test_observables_invariants(obs1):
    assert obs1.energy == obs1.u_bar + obs1.k_bar
    assert obs1.u_bar > 0 and obs1.k_bar > 0
    assert abs(obs1.entropy - (obs1.beta * obs1.u_bar + math.log(obs1.z))) < 1e-8


def test_sinclimit_invariants(params1):
    s = mm.sinc_limit(params1, energy=1.0)
    assert abs(s.k * s.r_inf - math.pi) <= 4 * np.finfo(float).eps * math.pi


def test_sweeprow_identity_enforced(obs1):
    with pytest.raises(mm.ValidationError, match="k_bar_quad"):
        mm.SweepRow(beta=1.0, u0=1.0, observables=replace(obs1, k_bar_quad=1.001 * obs1.k_bar))


@pytest.mark.parametrize("with_obs, error", [(False, ""), (True, "solve failed")],
                         ids=("neither", "both"))
def test_sweeprow_holds_observables_or_error(obs1, with_obs, error):
    with pytest.raises(mm.ValidationError, match="^observables: "):
        mm.SweepRow(beta=1.0, u0=1.0, observables=obs1 if with_obs else None, error=error)
