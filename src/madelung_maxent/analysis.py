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

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .integrator import StepControl
from .model import (MAX_POINTS, FieldSample, LaplacianVariant, NoSolutionError,
                    Observables, OutOfSupportError, PhysicalParams, RadialProfile, Record,
                    SincLimit, SolverError, SweepRow, ValidationError, _require)
from .solver import SolveRequest, _resample_slope, resample, solve_radial

_DIV_R_FRAC = 0.8  # divergence check region r <= 0.8 r_m, away from the wall
_DIV_BLOCK_ROWS = 256  # grid rows per vectorized block of the divergence check
_DIV_TABLE_CHUNK = 1 << 14  # radii per slice of its U' table: temporaries stay in cache
_LIMIT_SAMPLES = 2001  # uniform radii of the sinc-limit sup-norm (golden limit_grid_samples)
_INVERT_REL_TOL = 1e-6  # guaranteed relative beta accuracy; brentq stops at 1/8 of it
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
    if tabulated.any():
        out[tabulated] = _resample_slope(profile, r[tabulated])
    if asymptotic.any():
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


def _interp_uniform(q: np.ndarray, table_r: np.ndarray, table_y: np.ndarray) -> np.ndarray:
    """np.interp(q, table_r, table_y) for table_r = np.linspace(0, r_end, n), 0 <= q <= r_end.

    The bracket table_r[j] <= q < table_r[j + 1] is computed, not searched
    for: linspace's nodes lie within a few ulps of j r_end / (n - 1), so
    q (n - 1) / r_end truncates to j except for q within rounding of a node,
    where one step corrects it.  The value is np.interp's own formula,
    slope (q - table_r[j]) + table_y[j] with
    slope = (table_y[j + 1] - table_y[j]) / (table_r[j + 1] - table_r[j]),
    and q == r_end gives table_y[-1].  So the float is np.interp's wherever
    both values of the bracket are finite (and not -0.0): there np.interp's
    NaN fallback never applies.
    """
    last = table_r.size - 2
    j = (q * ((last + 1) / table_r[-1])).astype(np.intp)
    np.minimum(j, last, out=j)
    r0 = table_r[j]
    r1 = table_r[j + 1]
    off = np.flatnonzero((r0 > q) | (r1 <= q))  # near a node, or q == r_end
    if off.size:
        j[off] = np.minimum(j[off] - (r0[off] > q[off]) + (r1[off] <= q[off]), last)
        r0[off] = table_r[j[off]]
        r1[off] = table_r[j[off] + 1]
    y0 = table_y[j]
    out = (table_y[j + 1] - y0) / (r1 - r0) * (q - r0) + y0
    out[off[q[off] == table_r[-1]]] = table_y[-1]
    return out


def divergence_sup(profile: RadialProfile, h: float = 1e-3) -> float:
    """Max |div v| by centered differences on an h-grid inside r <= 0.8 r_m.

    Analytically div v = 0; the discrete value is O(h^2) with a constant that
    grows like (r_m - r)^(-7/2), so the check region stays away from the wall.
    The origin alone always reads 0, so h must leave the points (+-h, 0) in,
    and the (2n + 1)^2 grid of centers may not exceed MAX_POINTS.  A NaN
    omega makes the sup NaN.

    Only the centers of the octant 0 <= y <= x are evaluated, and the sup is
    the same float as over the whole disk.  The grid is h * k for integer k,
    so h * (-k) == -(h * k) exactly; IEEE rounding is odd under negation and
    hypot is even in each argument and symmetric in their order.  Hence
    x -> -x, y -> -y and x <-> y permute the four stencil radii of a center
    exactly (x + h <-> x - h, or the x pair with the y pair), and each flips
    the sign of the discrete divergence exactly.

    omega depends on the radius only, so U' is tabulated once on 2^18 uniform
    radii up to clamp and interpolated linearly (table error ~ dr^2 U''' / 8,
    orders below the h^2 signal).  The table takes the slope half of
    ``resample``'s Hermite alone, the same bits as its U'.  Each stencil
    radius finds its bracket in O(1) (``_interp_uniform``) and gets np.interp's
    float: it is at most r_lim - h, so both ends of its bracket lie below r_m,
    where the table holds finite U' (the Hermite slope on the nodes, the
    blow-up asymptote past them).
    """
    _require(math.isfinite(h) and h > 0.0, "h", "must be a positive finite step")
    r_lim = _DIV_R_FRAC * profile.r_m
    _require(h <= r_lim - 2 * h, "h", "too coarse: no point off the origin inside 0.8 r_m")
    side = 2 * r_lim / h + 1
    _require(side * side <= MAX_POINTS, "h",
             f"too fine: the grid would exceed MAX_POINTS = {MAX_POINTS} points")
    n = int(r_lim / h)
    axis = h * np.arange(n + 1)
    clamp = r_lim + 4 * h  # stencil radii of kept centers stay below this

    table_r = np.linspace(0.0, clamp, 1 << 18)
    table_du = np.empty_like(table_r)
    for lo in range(0, table_r.size, _DIV_TABLE_CHUNK):
        table_du[lo:lo + _DIV_TABLE_CHUNK] = _du_values(profile, table_r[lo:lo + _DIV_TABLE_CHUNK])

    def omega_at(rr):
        rq = np.minimum(rr, clamp)
        return _omega_from_du(profile, rq, _interp_uniform(rq, table_r, table_du))

    sup = 0.0
    for lo in range(0, axis.size, _DIV_BLOCK_ROWS):
        xb = axis[lo:lo + _DIV_BLOCK_ROWS, None]
        yb = axis[None, :lo + _DIV_BLOCK_ROWS]
        i, j = np.nonzero((np.hypot(xb, yb) <= r_lim - 2 * h) & (yb <= xb))
        if i.size == 0:
            continue
        x = axis[lo + i]  # the kept centers only
        y = axis[j]
        wxp = omega_at(np.hypot(x + h, y))
        wxm = omega_at(np.hypot(x - h, y))
        wyp = omega_at(np.hypot(x, y + h))
        wym = omega_at(np.hypot(x, y - h))
        # v = (-omega y, omega x), centered differences of each component
        div = (wxm - wxp) * y / (2 * h) + (wyp - wym) * x / (2 * h)
        sup = float(np.maximum(sup, np.max(np.abs(div))))  # NaN propagates, unlike max()
    return sup


@dataclass(frozen=True)
class SweepResult(Record):
    """Rows plus the monotonicity summary of the resolved trends."""

    rows: tuple[SweepRow, ...]
    r_m_nondecreasing: bool
    r2_nondecreasing: bool
    k_bar_decreasing: bool
    u_bar_nonincreasing: bool


def beta_sweep(betas: Sequence[float], u0: float, params_template: PhysicalParams,
               control: StepControl = StepControl()) -> SweepResult:
    """Solve and measure one state per beta; a failed solve becomes a row holding its error."""
    betas = [float(b) for b in betas]
    _require(len(betas) >= 1 and all(b > 0 for b in betas), "betas", "must be positive")
    _require(all(b2 > b1 for b1, b2 in zip(betas, betas[1:])), "betas", "must be ascending")
    _require(math.isfinite(u0) and u0 > 0, "u0", "must be a positive finite real")
    rows = []
    for b in betas:
        params = replace(params_template, beta=b)
        try:
            profile = solve_radial(SolveRequest(params=params, u0=u0, control=control))
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


def _sinc_norm_integral() -> float:
    """int_0^pi sin^2(u)/u du by 128-point Gauss-Legendre (machine accurate)."""
    nodes, weights = np.polynomial.legendre.leggauss(128)
    u = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    return float(np.sum(w * np.sin(u) ** 2 / u))


SINC_NORM_INTEGRAL = _sinc_norm_integral()


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
    u, _ = resample(profile, radii[inside])
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
                      params_template: PhysicalParams,
                      control: StepControl = StepControl()) -> LimitReport:
    """Compare large-beta densities against the sinc state with energy U0.

    The interior potential flattens to its center value U(0) = U0 as beta
    grows, so the limiting state is the sinc profile at that energy.
    Distances are sup-norms over 2001 uniform radii covering both supports.
    The sinc profile is the limit of the paper's 2/r equation only; the
    planar 1/r equation tends to a Bessel J0 state, so it is refused.
    """
    _require(params_template.laplacian_variant is LaplacianVariant.PAPER_RADIAL,
             "laplacian_variant", "the sinc limit holds for 'paper-radial' only")
    betas = [float(b) for b in betas]
    _require(all(b >= 10.0 for b in betas), "betas", "limit comparison needs beta >= 10")
    _require(all(b2 > b1 for b1, b2 in zip(betas, betas[1:])), "betas", "must be ascending")
    _require(math.isfinite(u0) and u0 > 0, "u0", "must be a positive finite real")
    sinc = sinc_limit(params_template, energy=u0)
    profiles = []
    for b in betas:
        params = replace(params_template, beta=b)
        profiles.append(solve_radial(SolveRequest(params=params, u0=u0, control=control)))
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


def invert_beta_for_energy(target_energy: float, u0: float, params_template: PhysicalParams,
                           control: StepControl = StepControl()) -> float:
    """Find beta with average energy u_bar(beta) + m/beta = target_energy.

    The map is monotone decreasing, bounded below by the infinite-beta
    average potential, and the kinetic term enforces beta > m/E.  In
    x = 1/beta the energy m x + u_bar(1/x) is nearly linear, so Brent's
    method on x in [1/beta_cap, E/m] pins beta to a relative 1.25e-7 in a
    handful of solves.  Targets below E(beta_cap) raise NoSolutionError.
    """
    _require(math.isfinite(target_energy) and target_energy > 0, "target_energy",
             "must be a positive finite real")
    _require(math.isfinite(u0) and u0 > 0, "u0", "must be a positive finite real")
    energies = {}

    def excess_at(x: float) -> float:
        """E(1/x) - target; each x is solved once."""
        if x not in energies:
            params = replace(params_template, beta=1.0 / x)
            energies[x] = observables(solve_radial(
                SolveRequest(params=params, u0=u0, control=control))).energy
        return energies[x] - target_energy

    # z = e^{-beta u0} O(1) underflows for beta u0 beyond ~700; targets closer
    # to the infinite-beta energy than E(beta_cap) are reported infeasible
    beta_cap = 500.0 / u0
    x_cap, x_min_beta = 1.0 / beta_cap, target_energy / (params_template.mass * (1.0 + 1e-9))
    if excess_at(x_cap) > 0.0:
        raise NoSolutionError(
            f"target energy {target_energy} is below the attainable range: energies "
            f"reachable for beta <= {beta_cap:.3g} are at least E(beta_cap) = "
            f"{energies[x_cap]:.9g}", feasible_min=energies[x_cap])
    if excess_at(x_min_beta) < 0.0:
        raise SolverError(
            f"E(beta) - {target_energy} keeps one sign on the bracket beta in "
            f"[{1.0 / x_min_beta:.9g}, {beta_cap:.9g}]")
    return 1.0 / brentq(excess_at, x_cap, x_min_beta, xtol=1e-300,
                        rtol=0.125 * _INVERT_REL_TOL)


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
    u, _ = resample(profile, radii)
    rho = np.exp(-profile.params.beta * u) / profile.z

    h = radii[1] - radii[0]
    weights = np.ones(_ENTROPY_GRID)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= h / 3.0  # composite Simpson
    measure = 2.0 * math.pi * weights * radii  # integral f -> sum(measure * f)

    def integral(f):
        return float(np.sum(measure * f))

    def entropy_of(dens):
        # 0 log 0 = 0, and a NaN density stays NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(dens == 0.0, 0.0, dens * np.log(np.where(dens == 0.0, 1.0, dens)))
        return -integral(term)

    h0 = entropy_of(rho)
    rng = np.random.default_rng(_ENTROPY_SEED)
    worst = -math.inf
    modes = np.arange(8)[:, None] * math.pi / r_hi
    basis = np.cos(modes * radii[None, :])
    # Gram matrix of the constraint functionals {1, U} under rho r dr
    g11 = integral(rho)
    g1u = integral(rho * u)
    guu = integral(rho * u * u)
    gram = np.array([[g11, g1u], [g1u, guu]])
    for _ in range(n_directions):
        g = rng.standard_normal(8) @ basis
        rhs = np.array([integral(rho * g), integral(rho * u * g)])
        alpha, gamma = np.linalg.solve(gram, rhs)
        g = g - alpha - gamma * u
        peak = float(np.max(np.abs(g)))
        if peak < 1e-12:
            continue
        g /= peak
        perturbed = rho * (1.0 + _ENTROPY_EPSILON * g)
        worst = float(np.maximum(worst, entropy_of(perturbed) - h0))  # NaN propagates
    return worst


__all__ = [
    "observables", "angular_velocity", "velocity_field", "divergence_sup",
    "SweepResult", "beta_sweep", "sinc_limit", "SINC_NORM_INTEGRAL",
    "density_on_grid", "LimitRow", "LimitReport", "limit_convergence",
    "invert_beta_for_energy", "entropy_stationarity_check",
]
