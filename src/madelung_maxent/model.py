"""Domain types for the 2D Madelung-fluid maximum-entropy solver.

The solution family lives on the quantum potential U: a positive, convex,
self-trapping potential generated by the probability density rho = e^(-beta U)/Z
that it itself confines.  Everything downstream (solvers, observables, CLI)
exchanges the frozen types defined here.

All types are immutable after construction; arrays are marked read-only.
Every record derives from ``Record``, whose one rule serializes it to a
JSON-compatible dict with snake_case keys.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np


class ValidationError(ValueError):
    """Bad input to a constructor or operation; message names the field."""


class SolverError(RuntimeError):
    """Integration did not end in blow-up; carries the run's (nodes, u, du, stop_reason)."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class OutOfSupportError(ValueError):
    """Requested radius lies at or beyond the support boundary."""


class NoSolutionError(RuntimeError):
    """No beta attains the requested energy; carries the feasible range."""

    def __init__(self, message, feasible_min=None):
        super().__init__(message)
        self.feasible_min = feasible_min


class LaplacianVariant(enum.Enum):
    """First-derivative coefficient used by the rotationally symmetric equation.

    The symmetric reduction used throughout carries a 2/r term (``paper-radial``,
    the default and the verification target); the planar axisymmetric Laplacian
    would give 1/r (``planar-radial``), kept available as a variant.
    """

    PAPER_RADIAL = "paper-radial"
    PLANAR_RADIAL = "planar-radial"

    @property
    def first_derivative_coefficient(self) -> float:
        return 2.0 if self is LaplacianVariant.PAPER_RADIAL else 1.0


# most samples, grid points or sweep betas one call may ask for, refused before
# any allocation (2^25 float64 values are 256 MiB per array)
MAX_POINTS = 2**25
# float64 cells per block of the 2D diagnostics (rotation, grid residual,
# divergence): a block's temporaries are a few MiB, whatever the grid size
BLOCK_CELLS = 2**15


def _require(condition: bool, name: str, message: str):
    if not condition:
        raise ValidationError(f"{name}: {message}")


def _readonly(a) -> np.ndarray:
    # copy so that freezing never mutates a caller-held array
    arr = np.array(a, dtype=np.float64, copy=True)
    arr.setflags(write=False)
    return arr


def _plain(value):
    """The serialization rule: records -> dicts, enums -> values, arrays/tuples -> lists."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True, eq=False)
class Record:
    """Base of every serialized type: one rule, ``to_dict``, for every field.

    ``to_dict`` maps every field, derived ones included.  Records holding
    arrays are declared ``eq=False`` and compare and hash by identity, since
    ``==`` on an array field has no truth value; the others compare by value.
    """

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class PhysicalParams(Record):
    """Mass, hbar, entropy multiplier beta, and the derived stiffness Lambda^2.

    lambda_sq = 4*mass/(hbar^2 * beta) is the coefficient multiplying U in the
    nonlinear equation for the quantum potential; it is recomputed at
    construction and always consistent with the other fields.
    """

    beta: float
    mass: float = 1.0
    hbar: float = 1.0
    laplacian_variant: LaplacianVariant = LaplacianVariant.PAPER_RADIAL
    lambda_sq: float = field(init=False)

    def __post_init__(self):
        _require(isinstance(self.laplacian_variant, LaplacianVariant),
                 "laplacian_variant", "must be a LaplacianVariant")
        for name in ("mass", "hbar", "beta"):
            value = float(getattr(self, name))
            _require(math.isfinite(value) and value > 0, name, "must be a positive finite real")
            object.__setattr__(self, name, value)
        try:
            lambda_sq = 4.0 * self.mass / (self.hbar**2 * self.beta)
        except (OverflowError, ZeroDivisionError):  # hbar**2 overflowed or underflowed to 0
            lambda_sq = math.nan
        _require(0 < lambda_sq < math.inf, "lambda_sq",
                 "4*mass/(hbar^2*beta) must be a positive finite float")
        object.__setattr__(self, "lambda_sq", lambda_sq)


def make_params(mass: float, hbar: float, beta: float,
                variant: LaplacianVariant | str = LaplacianVariant.PAPER_RADIAL) -> PhysicalParams:
    """Validated constructor for PhysicalParams (units default to m = hbar = 1)."""
    try:
        variant = LaplacianVariant(variant)
    except ValueError:
        raise ValidationError(
            f"laplacian_variant: {variant!r} is not a LaplacianVariant value") from None
    return PhysicalParams(beta=beta, mass=mass, hbar=hbar, laplacian_variant=variant)


def _freeze_profile(profile, support_name: str):
    """Freeze a profile's nodes/u/du and check its grid and its support."""
    for name in ("nodes", "u", "du"):
        object.__setattr__(profile, name, _readonly(getattr(profile, name)))
    nodes, u, du = profile.nodes, profile.u, profile.du
    _require(nodes.ndim == 1 and nodes.size >= 2, "nodes",
             "must be a 1D sequence of at least two nodes (one interval to interpolate)")
    _require(u.shape == nodes.shape and du.shape == nodes.shape,
             "u/du", "must match nodes in length")
    _require(nodes[0] == 0.0, "nodes", "must start at the origin")
    _require(bool(np.all(np.diff(nodes) > 0)), "nodes", "must be strictly ascending")
    _require(du[0] == 0.0, "du", "boundary condition du(0) = 0 violated")
    # convexity of the C1 data: the stored slope must not decrease (second
    # divided differences of u are hopeless on the bisection-shortened
    # intervals next to the wall, eps*|u|/h^2 noise)
    tol_du = 1e-10 * (1.0 + float(np.max(np.abs(du))))
    _require(bool(np.all(np.diff(du) >= -tol_du)), "du", "must be nondecreasing (convexity of u)")
    tol_u = 1e-12 * (1.0 + float(np.max(np.abs(u))))
    _require(bool(np.all(np.diff(u) >= -tol_u)), "u", "must be nondecreasing")
    support = getattr(profile, support_name)
    _require(math.isfinite(support) and support >= nodes[-1],
             support_name, "must be finite and not precede the last node")


@dataclass(frozen=True, eq=False)
class AxisProfile(Record):
    """One separable Cartesian factor U_i on the half-axis [0, i_stop].

    The factor is even (U(-i) = U(i)); only the half-line is stored.  The
    potential is convex and nondecreasing, and blows up at finite half-width
    i_m; ``half_width`` is the blow-up estimate, at or past the last node, and
    ``z`` the full-line normalization of exp(-beta U_i) over (-i_m, i_m).
    The stored (u, du) hold a solution of the factor's own equation (c = 0)
    on at least two nodes: ``solver.resample`` takes U'' at the nodes from it.
    """

    params: PhysicalParams
    nodes: np.ndarray
    u: np.ndarray
    du: np.ndarray
    half_width: float
    z: float

    c_coef = 0.0  # the factor's equation has no first-derivative term; not a field

    def __post_init__(self):
        _freeze_profile(self, "half_width")
        _require(self.z > 0, "z", "must be positive")


@dataclass(frozen=True)
class Observables(Record):
    """Normalization and scalar observables of one solved radial state.

    One quadrature pass (``quadrature.radial_moments``) gives them all: the
    logarithm log_z of the normalization of rho = exp(-beta U)/z, the averages
    u_bar and r2_bar, the kinetic quadrature k_bar_quad and the entropy.
    k_bar is the closed form mass/beta (exact for every stationary-spinning
    state) and k_bar_quad must agree with it to the quadrature tolerance;
    z is derived as exp(log_z) and energy as u_bar + k_bar.
    """

    beta: float
    z: float = field(init=False)
    log_z: float
    u_bar: float
    k_bar: float
    k_bar_quad: float
    entropy: float
    r2_bar: float
    r_m: float
    energy: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "z", float(np.exp(self.log_z)))
        _require(self.z > 0, "z", "must be positive")
        _require(self.k_bar > 0, "k_bar", "must be positive")
        object.__setattr__(self, "energy", self.u_bar + self.k_bar)
        ident = abs(self.entropy - (self.beta * self.u_bar + math.log(self.z)))
        _require(ident <= 1e-8 * max(1.0, abs(self.entropy)), "entropy",
                 "violates entropy = beta*u_bar + ln(z)")


@dataclass(frozen=True, eq=False)
class RadialProfile(Record):
    """Rotationally symmetric quantum potential and density on [0, r_m).

    The profile carries the ``Observables`` of its own quadrature pass, which
    hold z and r_m; rho is derived as exp(-beta u)/z at every node and is
    nonincreasing in r.  The stored (u, du) hold a solution of the profile's
    own equation (its params' variant) on at least two nodes:
    ``solver.resample`` takes U'' at the nodes from it.
    """

    params: PhysicalParams
    nodes: np.ndarray
    u: np.ndarray
    du: np.ndarray
    observables: Observables
    rho: np.ndarray = field(init=False)

    def __post_init__(self):
        _freeze_profile(self, "r_m")
        _require(bool(np.all(self.du >= 0)), "du", "must be nonnegative")
        # U rises from U0 = u[0], so its Boltzmann average cannot fall below it
        _require(self.observables.u_bar >= self.u[0], "u_bar", "must not be below u[0]")
        rho = _readonly(np.exp(-self.params.beta * self.u) / self.z)
        object.__setattr__(self, "rho", rho)
        _require(bool(np.all(np.diff(rho) <= 1e-15 * rho[0])), "rho", "must be nonincreasing")

    @property
    def r_m(self) -> float:
        return self.observables.r_m

    @property
    def z(self) -> float:
        return self.observables.z

    @property
    def c_coef(self) -> float:
        return self.params.laplacian_variant.first_derivative_coefficient


# int_0^pi sin^2(u)/u du by 128-point Gauss-Legendre (machine accurate); the test suite
# recomputes it and requires this float
SINC_NORM_INTEGRAL = 1.2188266965286045


@dataclass(frozen=True)
class SincLimit(Record):
    """Closed-form infinite-beta state: amplitude a*sin(k r)/r on [0, r_inf].

    The support radius is the amplitude's first zero, r_inf = pi/k, and the
    amplitude a = 1/sqrt(2 pi SINC_NORM_INTEGRAL) makes the squared profile
    integrate to one over the disk; both are derived from k.
    """

    k: float
    r_inf: float = field(init=False)
    a: float = field(init=False)
    energy: float

    def __post_init__(self):
        _require(self.k > 0, "k", "must be positive")
        _require(self.energy > 0, "energy", "must be positive")
        object.__setattr__(self, "r_inf", math.pi / self.k)
        object.__setattr__(self, "a", 1.0 / math.sqrt(2.0 * math.pi * SINC_NORM_INTEGRAL))

    def psi(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(r == 0.0, self.a * self.k, self.a * np.sin(self.k * r) / np.where(r == 0.0, 1.0, r))
        return out

    def psi_prime(self, r):
        r = np.asarray(r, dtype=float)
        kr = self.k * r
        return self.a * (self.k * np.cos(kr) / r - np.sin(kr) / r**2)

    def psi_second(self, r):
        r = np.asarray(r, dtype=float)
        kr = self.k * r
        return self.a * (-self.k**2 * np.sin(kr) / r
                         - 2 * self.k * np.cos(kr) / r**2
                         + 2 * np.sin(kr) / r**3)

    def rho(self, r):
        r = np.asarray(r, dtype=float)
        out = self.psi(r) ** 2
        return np.where(r < self.r_inf, out, 0.0)

    def equation_residual(self, r):
        """psi'' + (2/r) psi' + k^2 psi, identically zero for the closed form."""
        return self.psi_second(r) + 2.0 / np.asarray(r, dtype=float) * self.psi_prime(r) \
            + self.k**2 * self.psi(r)


@dataclass(frozen=True)
class SweepRow(Record):
    """One beta point of a sweep: the observables of its solve, or why it failed."""

    beta: float
    observables: Observables | None = None
    error: str = ""

    def __post_init__(self):
        obs = self.observables
        _require((obs is None) == bool(self.error), "observables",
                 "a row holds exactly one of observables and error")
        if obs is not None:
            rel = abs(obs.k_bar_quad - obs.k_bar) / obs.k_bar
            _require(rel < 1e-6, "k_bar_quad",
                     f"disagrees with closed form by {rel:.2e} (limit 1e-6)")

    @property
    def status(self) -> str:
        return "failed" if self.observables is None else "ok"


def to_json(obj) -> str:
    """The one JSON text writer: a Record, or a dict that may hold Records, sorted and indented."""
    return json.dumps(obj, default=_plain, indent=2, sort_keys=True)


__all__ = [
    "ValidationError", "SolverError", "OutOfSupportError", "NoSolutionError",
    "LaplacianVariant", "Record", "PhysicalParams", "make_params",
    "AxisProfile", "RadialProfile", "Observables", "SincLimit",
    "SweepRow", "SINC_NORM_INTEGRAL", "to_json", "replace",
]
