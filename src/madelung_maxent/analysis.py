"""Observables and diagnostics of the solved states.

Scalar observables are the ``Observables`` record each radial solve carries:
Boltzmann-weighted radial moments over the solver's nodes, taken once in the
solve's own normalization pass.  The kinetic energy is there both as the
quadrature of m pi int r^2 U' rho dr and as the closed form m/beta that the
stationarity balance implies, and the two must agree to 1e-6 relative.  The velocity field
of a stationary-spinning state is v = (-omega y, omega x) with
omega = sqrt(U'/(r m)), which balances the quantum force by construction.

The beta sweep, the infinite-beta (sinc) limit, and the inversion of the
monotone map beta -> average energy live here as well.
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .model import (BLOCK_CELLS, MAX_POINTS, FieldSample, LaplacianVariant, NoSolutionError,
                    Observables, OutOfSupportError, PhysicalParams, RadialProfile, Record,
                    SincLimit, SolverError, SweepRow, ValidationError, _require)
from .solver import SolveRequest, _resample_slope, resample, solve_radial

_DIV_R_FRAC = 0.8  # divergence check region r <= 0.8 r_m, away from the wall
_LIMIT_SAMPLES = 2001  # uniform radii of the sinc-limit sup-norm (golden limit_grid_samples)
_INVERT_REL_TOL = 1e-6  # guaranteed relative beta accuracy; the search stops at 1/8 of it
_SLOPE_FLOOR = 0.75  # below dphi/dxi >= 0.807 of the shipped energy curve; the tests derive it
_INVERT_MAX_SOLVES = 100  # no stop after this many solves raises SolverError
_ENTROPY_EPSILON = 1e-4  # size of the constrained density perturbations
_ENTROPY_SEED = 0
_ENTROPY_GRID = 2049  # odd, for composite Simpson


def observables(profile: RadialProfile) -> Observables:
    """All scalar observables of a solved radial state: the record its solve made."""
    return profile.observables


def _du_values(profile: RadialProfile, r: np.ndarray) -> np.ndarray:
    """U'(r); radii past the last node use the blow-up asymptotic 2/(beta (r_m - r))."""
    out = np.zeros_like(r)
    tabulated = (r > 0.0) & (r <= profile.nodes[-1])
    asymptotic = r > profile.nodes[-1]
    out[tabulated] = _resample_slope(profile, r[tabulated])
    out[asymptotic] = 2.0 / (profile.params.beta * (profile.r_m - r[asymptotic]))
    return out


def _omega_limit_origin(profile: RadialProfile) -> float:
    """Removable limit sqrt(U'/r -> 2a) at the origin, from the stored slope."""
    two_a = profile.du[1] / profile.nodes[1]
    return math.sqrt(two_a / profile.params.mass)


def _omega_from_du(profile: RadialProfile, r: np.ndarray, du: np.ndarray) -> np.ndarray:
    """omega = sqrt(U'/(r m)) from U' at r, with the removable limit at r = 0."""
    origin = r == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.sqrt(du / (np.where(origin, 1.0, r) * profile.params.mass))
    if origin.any():
        out = np.where(origin, _omega_limit_origin(profile), out)
    return out


def angular_velocity(profile: RadialProfile, r):
    """Stationary-spinning angular velocity at radius r (0 <= r < r_m)."""
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all((rr >= 0.0) & (rr < profile.r_m)):  # NaN fails both
        raise OutOfSupportError(f"radius outside the support [0, {profile.r_m})")
    out = _omega_from_du(profile, rr, _du_values(profile, rr))
    return float(out[0]) if np.isscalar(r) or np.asarray(r).ndim == 0 else out


def velocity_field(profile: RadialProfile, positions) -> list[FieldSample]:
    """Rotating velocity samples v = (-omega y, omega x); outside -> flagged."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    _require(pos.ndim == 2 and pos.shape[1] == 2, "positions", "must be (n, 2)")
    p = profile.params
    r = np.hypot(pos[:, 0], pos[:, 1])
    inside = r < profile.r_m
    omega = np.full(r.shape, math.nan)
    residual = np.full(r.shape, math.nan)
    du = _du_values(profile, r[inside])
    omega[inside] = _omega_from_du(profile, r[inside], du)
    # m r omega^2 - U'(r): omega was built from the same U', so only rounding survives
    residual[inside] = p.mass * r[inside] * omega[inside] ** 2 - du
    samples = []
    for (x, y), om, res, ok in zip(pos, omega, residual, inside):
        samples.append(FieldSample(
            x=float(x), y=float(y), omega=float(om),
            vx=float(-om * y), vy=float(om * x),
            stationarity_residual=float(res), in_support=bool(ok)))
    return samples


def divergence_sup(profile: RadialProfile, h: float = 1e-3) -> float:
    """Max |div v| by centered differences on an h-grid inside r <= 0.8 r_m.

    Analytically div v = 0; the discrete value is O(h^2) with a constant that
    grows like (r_m - r)^(-7/2), so the check region stays away from the wall.
    The origin alone always reads 0, so h must leave the points (+-h, 0) in,
    and the (2n + 1)^2 grid of centers may not exceed MAX_POINTS.  A NaN
    omega makes the sup NaN.

    The stencil of the center (h i, h j) reads omega at the grid nodes
    h (i +- 1) and h (j +- 1), so omega is evaluated once per node, from the
    interpolant's exact slope (``_resample_slope``: the profile's interval
    table, one row per node interval, not a table of radii).  A kept center
    lies within r_lim - 2h, so the nodes it reads lie within r_lim - h up to
    rounding; omega is evaluated at the nodes within r_lim (inside the nodes'
    range; at r = 0 the slope is 0 and omega the limit) that a center of the
    octant can read, and nowhere else.

    Only the centers of the octant 0 <= y <= x are evaluated, and the sup is
    the same float as over the whole grid.  The nodes are h k for integer k,
    so h (-k) == -(h k) exactly, and hypot is even in each argument and
    symmetric in their order.  Hence x -> -x, y -> -y and x <-> y permute the
    four nodes a center reads (its x pair, or the x pair with the y pair), and
    each flips the sign of the discrete divergence exactly.  The same
    symmetry gives the row and column k = -1 that the octant's edge reads:
    they are row and column 1.

    The centers are taken in blocks of BLOCK_CELLS // (n + 2) rows (at least
    one), each with omega on its rows and one ring, so the temporaries stay a
    few MiB at any h.  The sup is a max over the blocks, so every block
    layout gives the same float.
    """
    _require(math.isfinite(h) and h > 0.0, "h", "must be a positive finite step")
    r_lim = _DIV_R_FRAC * profile.r_m
    _require(h <= r_lim - 2 * h, "h", "too coarse: no point off the origin inside 0.8 r_m")
    side = 2 * r_lim / h + 1
    _require(side * side <= MAX_POINTS, "h",
             f"too fine: the grid would exceed MAX_POINTS = {MAX_POINTS} points")
    n = int(r_lim / h)
    axis = h * np.arange(n + 2)

    sup = 0.0
    rows = max(1, BLOCK_CELLS // axis.size)
    for lo in range(0, n + 1, rows):
        hi = min(lo + rows, n + 1)
        # node rows lo - 1..hi (row -1 is row 1) and columns 0..hi; centers are rows lo..hi - 1
        k = np.abs(np.arange(lo - 1, hi + 1))[:, None]
        c = np.arange(hi + 1)[None, :]
        r = np.hypot(axis[k], axis[c])
        keep = (r[1:-1, :-1] <= r_lim - 2 * h) & (c[:, :-1] <= k[1:-1])
        if not keep.any():
            continue
        read = (r <= r_lim) & (c <= k + 1)  # a center (i, j <= i) reads columns <= i + 1
        w = np.zeros((hi - lo + 2, hi + 2))  # omega; column 0 is node column -1
        rr = r[read]
        w[:, 1:][read] = _omega_from_du(profile, rr, _resample_slope(profile, rr))
        w[:, 0] = w[:, 2]
        x = axis[lo:hi, None]
        y = axis[None, :hi]
        # v = (-omega y, omega x), centered differences of each component
        div = ((w[:-2, 1:-1] - w[2:, 1:-1]) * y / (2 * h)
               + (w[1:-1, 2:] - w[1:-1, :-2]) * x / (2 * h))
        sup = float(np.maximum(sup, np.max(np.abs(div[keep]))))  # NaN propagates, unlike max()
    return sup


@dataclass(frozen=True)
class SweepResult(Record):
    """Rows plus the monotonicity summary of the resolved trends."""

    rows: tuple[SweepRow, ...]
    r_m_nondecreasing: bool
    r2_nondecreasing: bool
    k_bar_decreasing: bool
    u_bar_nonincreasing: bool


def beta_sweep(betas: Sequence[float], u0: float,
               params_template: PhysicalParams) -> SweepResult:
    """Solve and measure one state per beta; a failed solve becomes a row holding its error."""
    betas = [float(b) for b in betas]
    _require(len(betas) >= 1 and all(b > 0 for b in betas), "betas", "must be positive")
    _require(all(b2 > b1 for b1, b2 in zip(betas, betas[1:])), "betas", "must be ascending")
    _require(math.isfinite(u0) and u0 > 0, "u0", "must be a positive finite real")
    rows = []
    for b in betas:
        params = replace(params_template, beta=b)
        try:
            profile = solve_radial(SolveRequest(params=params, u0=u0))
            rows.append(SweepRow(beta=b, u0=u0, observables=observables(profile)))
        except (SolverError, ValidationError, FloatingPointError) as exc:
            rows.append(SweepRow(beta=b, u0=u0, error=str(exc)))
    ok = [row.observables for row in rows if row.observables is not None]

    def trend(key, cmp):
        vals = [getattr(obs, key) for obs in ok]
        return all(cmp(a, b) for a, b in zip(vals, vals[1:]))

    slack = 1e-12
    return SweepResult(
        rows=tuple(rows),
        r_m_nondecreasing=trend("r_m", lambda a, b: b >= a * (1 - slack)),
        r2_nondecreasing=trend("r2_bar", lambda a, b: b >= a * (1 - slack)),
        k_bar_decreasing=trend("k_bar", lambda a, b: b < a),
        u_bar_nonincreasing=trend("u_bar", lambda a, b: b <= a * (1 + slack)),
    )


# int_0^pi sin^2(u)/u du by 128-point Gauss-Legendre (machine accurate); the test suite
# recomputes it and requires this float
SINC_NORM_INTEGRAL = 1.2188266965286045


def sinc_limit(params: PhysicalParams, energy: float) -> SincLimit:
    """Closed-form infinite-beta state at the given energy.

    k = sqrt(2 m E)/hbar, support radius pi/k, amplitude normalized so the
    squared profile integrates to one over the disk.
    """
    _require(math.isfinite(energy) and energy > 0, "energy", "must be a positive finite real")
    k = math.sqrt(2.0 * params.mass * energy) / params.hbar
    a = 1.0 / math.sqrt(2.0 * math.pi * SINC_NORM_INTEGRAL)
    return SincLimit(k=k, r_inf=math.pi / k, a=a, energy=energy)


def density_on_grid(profile: RadialProfile, radii: np.ndarray) -> np.ndarray:
    """rho(r) resampled on arbitrary radii; zero beyond the resolved support."""
    radii = np.asarray(radii, dtype=float)
    _require(bool(np.all(radii >= 0.0)), "radii", "must be nonnegative and not NaN")
    out = np.zeros_like(radii)
    inside = radii <= profile.nodes[-1]
    u = resample(profile, radii[inside])
    out[inside] = np.exp(-profile.params.beta * u) / profile.z
    return out


@dataclass(frozen=True)
class LimitRow:
    beta: float
    distance: float
    r_m: float


@dataclass(frozen=True)
class LimitReport:
    """Sup-norm distances of rho(.; beta) from the infinite-beta density.

    ``profiles`` holds the solved state behind each row, in row order.
    """

    rows: tuple
    sinc: SincLimit
    distances_decreasing: bool
    profiles: tuple


def limit_convergence(betas: Sequence[float], u0: float,
                      params_template: PhysicalParams) -> LimitReport:
    """Compare large-beta densities against the sinc state with energy U0.

    The interior potential flattens to its center value U(0) = U0 as beta
    grows, so the limiting state is the sinc profile at that energy.
    Distances are sup-norms over 2001 uniform radii covering both supports,
    for at least two ascending betas >= 10.  The sinc profile is the limit of
    the paper's 2/r equation only; the planar 1/r equation tends to a Bessel
    J0 state, so it is refused.
    """
    _require(params_template.laplacian_variant is LaplacianVariant.PAPER_RADIAL,
             "laplacian_variant", "the sinc limit holds for 'paper-radial' only")
    betas = [float(b) for b in betas]
    _require(len(betas) >= 2, "betas", "need at least two to compare distances")
    _require(all(b >= 10.0 for b in betas), "betas", "limit comparison needs beta >= 10")
    _require(all(b2 > b1 for b1, b2 in zip(betas, betas[1:])), "betas", "must be ascending")
    _require(math.isfinite(u0) and u0 > 0, "u0", "must be a positive finite real")
    sinc = sinc_limit(params_template, energy=u0)
    profiles = []
    for b in betas:
        params = replace(params_template, beta=b)
        profiles.append(solve_radial(SolveRequest(params=params, u0=u0)))
    r_max = max([sinc.r_inf] + [p.r_m for p in profiles])
    radii = np.linspace(0.0, r_max, _LIMIT_SAMPLES)
    rho_inf = sinc.rho(radii)
    rows = []
    for b, profile in zip(betas, profiles):
        d = float(np.max(np.abs(density_on_grid(profile, radii) - rho_inf)))
        rows.append(LimitRow(beta=b, distance=d, r_m=profile.r_m))
    decreasing = all(r2.distance < r1.distance for r1, r2 in zip(rows, rows[1:]))
    return LimitReport(rows=tuple(rows), sinc=sinc, distances_decreasing=decreasing,
                       profiles=tuple(profiles))


_CURVES = {}  # LaplacianVariant -> _EnergyCurve, read on the first inversion


@dataclass(frozen=True)
class _EnergyCurve:
    """a(g) = beta (u_bar - U0) against g = beta U0, a cubic spline in ln g.

    The state's equation in the units U0 and 1/lambda depends on g and the
    variant alone, so every state has E - U0 = (a(g) + m) / beta.  The knots
    a lie at ln g = ln_g0 + k step; m2 holds the spline's second derivatives
    in ln g there.  Outside the knots a holds its end value.
    """

    ln_g0: float
    step: float
    a: tuple
    m2: tuple

    @classmethod
    def through(cls, ln_g0: float, step: float, a) -> _EnergyCurve:
        n = len(a)
        system = 4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
        # not-a-knot: one cubic across each end's first two intervals
        system[0, :3] = system[-1, -3:] = (1.0, -2.0, 1.0)
        curvature = np.diff(np.asarray(a, dtype=float), 2) * 6.0 / step**2
        m2 = np.linalg.solve(system, np.concatenate([[0.0], curvature, [0.0]]))
        return cls(ln_g0, step, tuple(map(float, a)), tuple(m2.tolist()))

    def __call__(self, ln_g: float) -> tuple[float, float]:
        """(a, da/d ln g) at ln g; the end value with zero slope outside the knots."""
        t = (ln_g - self.ln_g0) / self.step
        last = len(self.a) - 1
        if not 0.0 <= t <= last:
            return self.a[0 if t < 0.0 else last], 0.0
        k = min(int(t), last - 1)
        u, w = t - k, k + 1 - t
        a0, a1, m0, m1 = self.a[k], self.a[k + 1], self.m2[k], self.m2[k + 1]
        value = w * a0 + u * a1 + self.step**2 / 6.0 * ((w * w - 1.0) * w * m0
                                                        + (u * u - 1.0) * u * m1)
        slope = (a1 - a0) / self.step + self.step / 6.0 * ((3.0 * u * u - 1.0) * m1
                                                          - (3.0 * w * w - 1.0) * m0)
        return value, slope


def _energy_curve(variant: LaplacianVariant) -> _EnergyCurve:
    """The variant's curve from ``data/energy_curve.json`` (``scripts/energy_curve.py``)."""
    if variant not in _CURVES:
        data = json.loads(importlib.resources.files("madelung_maxent")
                          .joinpath("data/energy_curve.json").read_text())
        ln_g0 = math.log(data["g_min"])
        step = (math.log(data["g_max"]) - ln_g0) / (data["points"] - 1)
        _CURVES[variant] = _EnergyCurve.through(ln_g0, step, data[variant.value])
    return _CURVES[variant]


def invert_beta_for_energy(target_energy: float, u0: float,
                           params_template: PhysicalParams) -> float:
    """Find beta with average energy u_bar(beta) + m/beta = target_energy.

    The map is monotone decreasing, bounded below by the infinite-beta
    average potential U0, and the kinetic term enforces beta > m/E.  In
    xi = ln x (x = 1/beta), phi = ln(E - U0) - ln(target - U0) is nearly a
    line, and the scale-free energy curve (``_EnergyCurve``, no solves) gives
    both its model, ln(E - U0) = ln x + ln(a(U0/x) + m), and its slope
    1 - (da/d ln g)/(a + m).  The search starts at the model's root, clamped
    to [1/beta_cap, E/m] (a target at or below U0 starts at 1/beta_cap), and
    takes Newton steps on solves at the package tolerance with the model's
    slope, each clamped to the same range.  A broken solve's E <= U0 reads
    as phi = -inf.

    The 1.25e-7 rests on one solve plus the curve's slope bound: on the
    shipped curve (held to 5e-8 off the unit parameters, re-solved to 1e-12)
    0 < da/d ln g <= 0.193 a (0.185 a planar), so dphi/dxi lies in
    [0.807, 1] for every m > 0; the tests derive that floor from the curve
    and from solves below it.  A solve with |phi| <= _SLOPE_FLOOR * 1.25e-7
    thus puts xi within 1.25e-7 of the root (mean value theorem), and its
    beta is returned.  Both slopes lie in [0.807, 1], so each step shrinks
    the error at least fourfold.  A found target inside the curve's
    g = beta U0 >= 1e-8 starts (as measured) within |phi| <= 7.4e-9 and
    takes 1 solve; one below it (E above ~1e8 U0), started from the curve's
    end value, takes 3.

    A target is refused (NoSolutionError with E(beta_cap)) exactly when the
    solve at beta_cap reads E > target; E < target at the kinetic bound, or
    no solve within 1.25e-7 after 100 solves, raises SolverError.
    """
    _require(math.isfinite(target_energy) and target_energy > 0, "target_energy",
             "must be a positive finite real")
    _require(math.isfinite(u0) and u0 > 0, "u0", "must be a positive finite real")
    log_gap = math.log(target_energy - u0) if target_energy > u0 else -math.inf
    curve = _energy_curve(params_template.laplacian_variant)
    mass, ln_u0 = params_template.mass, math.log(u0)

    def model(xi: float) -> tuple[float, float]:
        """The curve's phi at xi = ln x, and its slope in xi."""
        a, slope = curve(ln_u0 - xi)
        return xi + math.log(a + mass) - log_gap, 1.0 - slope / (a + mass)

    # z = e^{-beta u0} O(1) underflows for beta u0 beyond ~700; targets closer
    # to the infinite-beta energy than E(beta_cap) are reported infeasible
    beta_cap = 500.0 / u0
    x_cap, x_max = 1.0 / beta_cap, target_energy / (mass * (1.0 + 1e-9))
    x = x_cap
    if target_energy > u0:
        xi = log_gap - math.log(mass)
        for _ in range(50):  # Newton on the smooth model: a few steps reach its root
            value, slope = model(xi)
            xi -= value / slope
            if abs(value) < 1e-13:
                break
        x = max(x_cap, min(math.exp(xi), x_max))
    for _ in range(_INVERT_MAX_SOLVES):
        params = replace(params_template, beta=1.0 / x)
        energy = observables(solve_radial(SolveRequest(params=params, u0=u0))).energy
        if x == x_cap and energy > target_energy:
            raise NoSolutionError(
                f"target energy {target_energy} is below the attainable range: energies "
                f"reachable for beta <= {beta_cap:.3g} are at least E(beta_cap) = "
                f"{energy:.9g}", feasible_min=energy)
        phi = math.log(energy - u0) - log_gap if energy > u0 else -math.inf
        if abs(phi) <= _SLOPE_FLOOR * 0.125 * _INVERT_REL_TOL:
            return 1.0 / x
        if x == x_max and phi < 0.0:
            raise SolverError(
                f"E(beta) - {target_energy} keeps one sign on the bracket beta in "
                f"[{1.0 / x_max:.9g}, {beta_cap:.9g}]")
        xi = math.log(x)
        # exp stays finite; phi = -inf steps to the kinetic bound
        x = max(x_cap, min(math.exp(min(xi - phi / model(xi)[1], 700.0)), x_max))
    raise SolverError(
        f"E(beta) - {target_energy} did not close on the bracket beta in "
        f"[{1.0 / x_max:.9g}, {beta_cap:.9g}] after {_INVERT_MAX_SOLVES} solves")


def entropy_stationarity_check(profile: RadialProfile, n_directions: int = 100) -> float:
    """Max entropy gain over random constrained density perturbations.

    Perturbations rho -> rho (1 + eps g) with eps = 1e-4 keep the
    normalization and the average potential fixed to first order (g is
    projected against {1, U} under the rho-weighted measure), so the entropy
    change of the maximizer must be second order and nonpositive.  Returns the
    largest observed change (expected ~ -eps^2/2 * <g^2>), or NaN if a
    density value is NaN.
    """
    _require(isinstance(n_directions, (int, np.integer)) and n_directions >= 1,
             "n_directions", "must be a positive integer")
    r_hi = float(profile.nodes[-1])
    radii = np.linspace(0.0, r_hi, _ENTROPY_GRID)
    u = resample(profile, radii)
    rho = np.exp(-profile.params.beta * u) / profile.z

    weights = np.ones(_ENTROPY_GRID)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (radii[1] - radii[0]) / 3.0  # composite Simpson
    measure = 2.0 * math.pi * weights * radii  # integral f -> sum(measure * f)

    def integral(f):
        return np.sum(measure * f, axis=-1)  # one integral per row

    def entropy_of(dens):
        # 0 log 0 = 0, and a NaN density stays NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(dens == 0.0, 0.0, dens * np.log(np.where(dens == 0.0, 1.0, dens)))
        return -integral(term)

    h0 = entropy_of(rho)
    worst = -math.inf
    basis = np.cos(np.arange(8)[:, None] * math.pi / r_hi * radii[None, :])  # 8 modes
    # Gram matrix of the constraint functionals {1, U} under rho r dr
    gram = np.array([[integral(rho * a * b) for b in (1.0, u)] for a in (1.0, u)])
    coeffs = np.random.default_rng(_ENTROPY_SEED).standard_normal((n_directions, 8))
    block = max(1, BLOCK_CELLS // _ENTROPY_GRID)  # 15 directions at a time, each float a lone one's
    for lo in range(0, n_directions, block):
        # one product per direction: a stacked (k, 8) @ basis product rounds differently
        g = np.array([c @ basis for c in coeffs[lo:lo + block]])
        alpha, gamma = np.linalg.solve(gram, np.array([integral(rho * g), integral(rho * u * g)]))
        g = g - alpha[:, None] - gamma[:, None] * u
        peak = np.max(np.abs(g), axis=-1)
        skip = peak < 1e-12
        g /= np.where(skip, 1.0, peak)[:, None]
        gain = entropy_of(rho * (1.0 + _ENTROPY_EPSILON * g)) - h0
        worst = np.maximum(worst, np.max(np.where(skip, -math.inf, gain)))  # NaN propagates
    return float(worst)


__all__ = [
    "observables", "angular_velocity", "velocity_field", "divergence_sup",
    "SweepResult", "beta_sweep", "sinc_limit", "SINC_NORM_INTEGRAL",
    "density_on_grid", "LimitRow", "LimitReport", "limit_convergence",
    "invert_beta_for_energy", "entropy_stationarity_check",
]
