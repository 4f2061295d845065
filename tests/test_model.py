import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import madelung_maxent as mm
from madelung_maxent.model import Record, to_json

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


def test_lambda_sq_values():
    assert mm.make_params(1, 1, 1).lambda_sq == 4.0
    assert mm.make_params(1, 1, 2).lambda_sq == 2.0


@pytest.mark.parametrize("field,args", [
    ("beta", (1, 1, 0)),
    ("beta", (1, 1, -1)),
    ("mass", (0, 1, 1)),
    ("hbar", (1, -2, 1)),
])
def test_make_params_rejects_nonpositive(field, args):
    with pytest.raises(mm.ValidationError, match=field):
        mm.make_params(*args)


@given(mass=positive, hbar=positive, beta=positive)
@settings(max_examples=50, deadline=None)
def test_params_roundtrip(mass, hbar, beta):
    p = mm.make_params(mass, hbar, beta, "planar-radial")
    q = mm.PhysicalParams.from_dict(json.loads(to_json(p)))
    assert q == p
    assert q.lambda_sq == 4.0 * mass / (hbar**2 * beta)


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
    record = make(request.getfixturevalue)
    text = to_json(record)
    back = type(record).from_dict(json.loads(text))
    assert type(back) is type(record)
    assert to_json(back) == text


def test_record_roundtrip_covers_every_record(request):
    made = {type(make(request.getfixturevalue)) for make in RECORDS.values()}
    assert made == set(Record.__subclasses__())


@pytest.mark.parametrize("key, edit", [
    ("beta", lambda d: d.pop("beta")),
    ("spin", lambda d: d.update(spin=1.0)),
    ("laplacian_variant", lambda d: d.update(laplacian_variant="cubic")),
], ids=("missing", "unknown", "bad-enum"))
def test_from_dict_names_bad_key(params1, key, edit):
    d = json.loads(to_json(params1))
    edit(d)
    with pytest.raises(mm.ValidationError, match=key):
        mm.PhysicalParams.from_dict(d)


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


def test_axis_profile_rejects_extrapolated_key(axis1):
    d = axis1.to_dict()
    d["extrapolated"] = True
    with pytest.raises(mm.ValidationError, match="^extrapolated: "):
        mm.AxisProfile.from_dict(d)


def test_sweeprow_identity_enforced(obs1):
    with pytest.raises(mm.ValidationError, match="k_bar_quad"):
        mm.SweepRow(beta=1.0, u0=1.0, observables=replace(obs1, k_bar_quad=1.001 * obs1.k_bar))


@pytest.mark.parametrize("with_obs, error", [(False, ""), (True, "solve failed")],
                         ids=("neither", "both"))
def test_sweeprow_holds_observables_or_error(obs1, with_obs, error):
    with pytest.raises(mm.ValidationError, match="^observables: "):
        mm.SweepRow(beta=1.0, u0=1.0, observables=obs1 if with_obs else None, error=error)
