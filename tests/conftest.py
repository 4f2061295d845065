import numpy as np
import pytest

import madelung_maxent as mm
from madelung_maxent import analysis, verify
from madelung_maxent.quadrature import radial_moments


@pytest.fixture(scope="session")
def params1():
    return mm.make_params(1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def radial1(params1):
    """Canonical radial solve at beta = 1 (also warms the compiled kernel)."""
    return mm.solve_radial(mm.SolveRequest(params=params1))


@pytest.fixture(scope="session")
def obs1(radial1):
    return mm.observables(radial1)


@pytest.fixture(scope="session")
def axis1(params1):
    return mm.solve_cartesian_factor(
        mm.SolveRequest(params=params1, geometry=mm.Geometry.CARTESIAN_FACTOR))


@pytest.fixture
def empty_cap_memo(monkeypatch):
    """An empty beta_cap solve memo for one test: a patched solve neither reads nor leaves one."""
    monkeypatch.setattr(analysis, "_CAP_PROFILE", {})


@pytest.fixture(scope="session")
def golden():
    return verify.load_golden()


@pytest.fixture(scope="session")
def make_profile():
    """RadialProfile from tabulated (nodes, u, du), normalized by its own quadrature pass."""
    def make(params, nodes, u, du, r_m):
        c_coef = params.laplacian_variant.first_derivative_coefficient
        obs = radial_moments(params.beta, params.mass, params.lambda_sq, c_coef,
                             nodes, u, du, r_m)
        return mm.RadialProfile(params=params, nodes=nodes, u=u, du=du, observables=obs)
    return make


@pytest.fixture(scope="session")
def uniform_disk(make_profile):
    """U == 0 on the unit disk: solves its equation, but is no self-trapped state."""
    nodes = np.linspace(0.0, 1.0, 101)
    zeros = np.zeros_like(nodes)
    return make_profile(mm.make_params(1.0, 1.0, 1.0), nodes, zeros, zeros, 1.0)
