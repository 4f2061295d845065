"""Observables and diagnostics of the solved states.

Scalar observables come from Boltzmann-weighted radial moments over the
solver's nodes; the kinetic energy is evaluated both by quadrature of
m pi int r^2 U' rho dr and by the closed form m/beta that the stationarity
balance implies, and the two must agree to 1e-6 relative.  The velocity field
of a stationary-spinning state is v = (-omega y, omega x) with
omega = sqrt(U'/(r m)), which balances the quantum force by construction.

The beta sweep, the infinite-beta (sinc) limit, and the inversion of the
monotone map beta -> average energy live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import quadrature
from .integrator import StepControl
from .model import (FieldSample, NoSolutionError, Observables, OutOfSupportError,
                    PhysicalParams, RadialProfile, SincLimit, SolverError,
                    SweepRow, ValidationError, _require)
from .solver import SolveRequest, profile_c_coef, resample, solve_radial


def observables(profile: RadialProfile) -> Observables:
    """All scalar observables of a solved, normalized radial state."""
    _require(profile.normalized, "profile", "must be normalized (rho/z attached)")
    p = profile.params
    m = quadrature.radial_moments(p.beta, p.mass, p.lambda_sq, profile_c_coef(profile),
                                  profile.nodes, profile.u, profile.du, profile.r_m)
    k_closed = p.mass / p.beta
    return Observables(beta=p.beta, z=m.z, u_bar=m.u_bar, k_bar=k_closed,
                       k_bar_quad=m.k_bar_quad, entropy=m.entropy, r2_bar=m.r2_bar,
                       energy=m.u_bar + k_closed, r_m=profile.r_m)


def _du_values(profile: RadialProfile, r: np.ndarray) -> np.ndarray:
    """U'(r); radii past the last node use the blow-up asymptotic 2/(beta (r_m - r))."""
    out = np.zeros_like(r)
    tabulated = (r > 0.0) & (r <= profile.nodes[-1])
    asymptotic = r > profile.nodes[-1]
    if tabulated.any():
        _, du = resample(profile, r[tabulated])
        out[tabulated] = du
    if asymptotic.any():
        out[asymptotic] = 2.0 / (profile.params.beta * (profile.r_m - r[asymptotic]))
    return out


def _omega_limit_origin(profile: RadialProfile) -> float:
    """Removable limit sqrt(U'/r -> 2a) at the origin, from the stored slope."""
    if profile.nodes.size < 2:
        return 0.0
    two_a = profile.du[1] / profile.nodes[1]
    return math.sqrt(two_a / profile.params.mass)


def _omega_values(profile: RadialProfile, r: np.ndarray) -> np.ndarray:
    """omega = sqrt(U'/(r m)) with the removable limit at r = 0."""
    p = profile.params
    du = _du_values(profile, r)
    origin = r == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.sqrt(du / (np.where(origin, 1.0, r) * p.mass))
    if origin.any():
        out = np.where(origin, _omega_limit_origin(profile), out)
    return out


def angular_velocity(profile: RadialProfile, r):
    """Stationary-spinning angular velocity at radius r (0 <= r < r_m)."""
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(rr < 0.0) or np.any(rr >= profile.r_m):
        raise OutOfSupportError(f"radius outside the support [0, {profile.r_m})")
    out = _omega_values(profile, rr)
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
    omega[inside] = _omega_values(profile, r[inside])
    # m r omega^2 - U'(r): omega was built from the same U', so only rounding survives
    residual[inside] = (p.mass * r[inside] * omega[inside] ** 2
                        - _du_values(profile, r[inside]))
    samples = []
    for (x, y), om, res, ok in zip(pos, omega, residual, inside):
        samples.append(FieldSample(
            x=float(x), y=float(y), omega=float(om),
            vx=float(-om * y), vy=float(om * x),
            stationarity_residual=float(res), in_support=bool(ok)))
    return samples


def divergence_sup(profile: RadialProfile, h: float = 1e-3,
                   r_frac: float = 0.8, block_rows: int = 256) -> float:
    """Max |div v| by centered differences on an h-grid inside r <= r_frac r_m.

    Analytically div v = 0; the discrete value is O(h^2) with a constant that
    grows like (r_m - r)^(-7/2), so the check region stays away from the wall.
    """
    r_lim = r_frac * profile.r_m
    n = int(r_lim / h)
    axis = h * np.arange(-n, n + 1)
    clamp = r_lim + 4 * h  # stencil radii of kept centers stay below this

    # omega depends on radius only: tabulate U' densely once and interpolate
    # linearly (table error ~ (dr)^2 U''' / 8, orders below the h^2 signal)
    table_r = np.linspace(0.0, clamp, 1 << 18)
    table_du = _du_values(profile, table_r)
    p = profile.params
    omega0 = _omega_limit_origin(profile)

    def omega_at(rr):
        rq = np.minimum(rr, clamp)
        du = np.interp(rq, table_r, table_du)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(rq == 0.0, omega0, np.sqrt(du / (np.where(rq == 0.0, 1.0, rq) * p.mass)))

    sup = 0.0
    for lo in range(0, axis.size, block_rows):
        x = axis[lo:lo + block_rows, None]
        y = axis[None, :]
        keep = np.hypot(x, y) <= r_lim - 2 * h
        if not keep.any():
            continue
        wxp = omega_at(np.hypot(x + h, y))
        wxm = omega_at(np.hypot(x - h, y))
        wyp = omega_at(np.hypot(x, y + h))
        wym = omega_at(np.hypot(x, y - h))
        # v = (-omega y, omega x), centered differences of each component
        div = (wxm - wxp) * y / (2 * h) + (wyp - wym) * x / (2 * h)
        sup = max(sup, float(np.max(np.abs(div[keep]))))
    return sup


@dataclass(frozen=True)
class SweepResult:
    """Rows plus the monotonicity summary of the resolved trends."""

    rows: tuple
    r_m_nondecreasing: bool
    r2_nondecreasing: bool
    k_bar_decreasing: bool
    u_bar_nonincreasing: bool

    @property
    def ok_rows(self):
        return [row for row in self.rows if row.status == "ok"]

    def to_dict(self) -> dict:
        return {
            "rows": [row.to_dict() for row in self.rows],
            "r_m_nondecreasing": self.r_m_nondecreasing,
            "r2_nondecreasing": self.r2_nondecreasing,
            "k_bar_decreasing": self.k_bar_decreasing,
            "u_bar_nonincreasing": self.u_bar_nonincreasing,
        }


def beta_sweep(betas: Sequence[float], u0: float, params_template: PhysicalParams,
               control: StepControl | None = None) -> SweepResult:
    """Solve and measure one state per beta; failures become flagged rows."""
    betas = [float(b) for b in betas]
    _require(len(betas) >= 1 and all(b > 0 for b in betas), "betas", "must be positive")
    _require(all(b2 > b1 for b1, b2 in zip(betas, betas[1:])), "betas", "must be ascending")
    control = control or StepControl()
    rows = []
    for b in betas:
        params = replace(params_template, beta=b)
        try:
            profile = solve_radial(SolveRequest(params=params, u0=u0, control=control))
            obs = observables(profile)
            rows.append(SweepRow(beta=b, u0=u0, r_m=obs.r_m, r2_bar=obs.r2_bar, z=obs.z,
                                 u_bar=obs.u_bar, k_bar_quadrature=obs.k_bar_quad,
                                 k_bar_closed_form=obs.k_bar, energy=obs.energy,
                                 entropy=obs.entropy))
        except (SolverError, ValidationError, FloatingPointError) as exc:
            rows.append(SweepRow(beta=b, u0=u0, r_m=math.nan, r2_bar=math.nan, z=math.nan,
                                 u_bar=math.nan, k_bar_quadrature=math.nan,
                                 k_bar_closed_form=math.nan, energy=math.nan,
                                 entropy=math.nan, status="failed", error=str(exc)))
    ok = [row for row in rows if row.status == "ok"]

    def trend(key, cmp):
        vals = [getattr(row, key) for row in ok]
        return all(cmp(a, b) for a, b in zip(vals, vals[1:]))

    slack = 1e-12
    return SweepResult(
        rows=tuple(rows),
        r_m_nondecreasing=trend("r_m", lambda a, b: b >= a * (1 - slack)),
        r2_nondecreasing=trend("r2_bar", lambda a, b: b >= a * (1 - slack)),
        k_bar_decreasing=trend("k_bar_closed_form", lambda a, b: b < a),
        u_bar_nonincreasing=trend("u_bar", lambda a, b: b <= a * (1 + slack)),
    )


def _sinc_norm_integral() -> float:
    """int_0^pi sin^2(u)/u du by 128-point Gauss-Legendre (machine accurate)."""
    nodes, weights = np.polynomial.legendre.leggauss(128)
    u = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    return float(np.sum(w * np.sin(u) ** 2 / u))


SINC_NORM_INTEGRAL = _sinc_norm_integral()


def sinc_limit(params: PhysicalParams, energy: Optional[float] = None,
               k: Optional[float] = None, s0: float = 0.0) -> SincLimit:
    """Closed-form infinite-beta state from the energy or the wavenumber.

    k = sqrt(2 m E)/hbar, support radius pi/k, amplitude normalized so the
    squared profile integrates to one over the disk.
    """
    if (energy is None) == (k is None):
        raise ValidationError("energy/k: exactly one must be given")
    if energy is not None:
        _require(energy > 0, "energy", "must be positive")
        k = math.sqrt(2.0 * params.mass * energy) / params.hbar
    else:
        _require(k > 0, "k", "must be positive")
        energy = (params.hbar * k) ** 2 / (2.0 * params.mass)
    a = 1.0 / math.sqrt(2.0 * math.pi * SINC_NORM_INTEGRAL)
    return SincLimit(k=k, r_inf=math.pi / k, a=a, s0=s0, energy=energy)


def density_on_grid(profile: RadialProfile, radii: np.ndarray) -> np.ndarray:
    """rho(r) resampled on arbitrary radii; zero beyond the resolved support."""
    _require(profile.normalized, "profile", "must be normalized")
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

    def to_dict(self) -> dict:
        return {"beta": self.beta, "distance": self.distance, "r_m": self.r_m}


@dataclass(frozen=True)
class LimitReport:
    """Sup-norm distances of rho(.; beta) from the infinite-beta density.

    ``profiles`` holds the solved state behind each row, in row order.
    """

    rows: tuple
    sinc: SincLimit
    distances_decreasing: bool
    profiles: tuple

    def to_dict(self) -> dict:
        return {
            "rows": [row.to_dict() for row in self.rows],
            "sinc": self.sinc.to_dict(),
            "distances_decreasing": self.distances_decreasing,
        }


def limit_convergence(betas: Sequence[float], u0: float,
                      params_template: PhysicalParams,
                      control: StepControl | None = None,
                      n_samples: int = 2001) -> LimitReport:
    """Compare large-beta densities against the sinc state with energy U0.

    The interior potential flattens to its center value U(0) = U0 as beta
    grows, so the limiting state is the sinc profile at that energy.
    Distances are sup-norms over n_samples uniform radii covering both
    supports.
    """
    betas = [float(b) for b in betas]
    _require(all(b >= 10.0 for b in betas), "betas", "limit comparison needs beta >= 10")
    _require(all(b2 > b1 for b1, b2 in zip(betas, betas[1:])), "betas", "must be ascending")
    _require(u0 > 0, "u0", "must be positive")
    control = control or StepControl()
    sinc = sinc_limit(params_template, energy=u0)
    profiles = []
    for b in betas:
        params = replace(params_template, beta=b)
        profiles.append(solve_radial(SolveRequest(params=params, u0=u0, control=control)))
    r_max = max([sinc.r_inf] + [p.r_m for p in profiles])
    radii = np.linspace(0.0, r_max, n_samples)
    rho_inf = sinc.rho(radii)
    rows = []
    for b, profile in zip(betas, profiles):
        d = float(np.max(np.abs(density_on_grid(profile, radii) - rho_inf)))
        rows.append(LimitRow(beta=b, distance=d, r_m=profile.r_m))
    decreasing = all(r2.distance < r1.distance for r1, r2 in zip(rows, rows[1:]))
    return LimitReport(rows=tuple(rows), sinc=sinc, distances_decreasing=decreasing,
                       profiles=tuple(profiles))


def invert_beta_for_energy(target_energy: float, u0: float,
                           params_template: PhysicalParams,
                           control: StepControl | None = None,
                           rel_tol: float = 1e-6) -> float:
    """Find beta with average energy u_bar(beta) + m/beta = target_energy.

    The map is monotone decreasing, bounded below by the infinite-beta
    average potential, and the kinetic term enforces beta > m/E; bracketing
    starts just above that bound and doubles until the target is enclosed,
    then plain bisection finishes.
    """
    _require(target_energy > 0, "target_energy", "must be positive")
    _require(u0 > 0, "u0", "must be positive")
    control = control or StepControl()
    mass = params_template.mass

    def energy_at(beta: float) -> float:
        params = replace(params_template, beta=beta)
        profile = solve_radial(SolveRequest(params=params, u0=u0, control=control))
        return observables(profile).energy

    lo = mass / target_energy * (1.0 + 1e-9)
    # z = e^{-beta u0} O(1) underflows for beta u0 beyond ~700; targets closer
    # to the infinite-beta energy than E(beta_cap) are reported infeasible
    beta_cap = 500.0 / u0
    if lo >= beta_cap:
        raise NoSolutionError(
            f"target energy {target_energy} needs beta > {lo:.3g}, beyond the "
            f"resolvable range (beta <= {beta_cap:.3g})",
            feasible_min=energy_at(beta_cap))
    hi = 2.0 * lo
    e_hi = energy_at(min(hi, beta_cap))
    while e_hi > target_energy:
        hi *= 2.0
        if hi > beta_cap:
            raise NoSolutionError(
                f"target energy {target_energy} is below the attainable range "
                f"(energies reachable for beta <= {beta_cap:.3g} exceed "
                f"{e_hi:.9g}); the infinite-beta average potential bounds the "
                f"energy from below", feasible_min=e_hi)
        e_hi = energy_at(hi)
    # energy(lo) > target >= energy(hi): bisect until beta is pinned
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if energy_at(mid) > target_energy:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 0.25 * rel_tol * mid:
            return mid
    return 0.5 * (lo + hi)


def entropy_stationarity_check(profile: RadialProfile, epsilon: float = 1e-4,
                               n_directions: int = 100, seed: int = 0,
                               n_grid: int = 2049) -> float:
    """Max entropy gain over random constrained density perturbations.

    Perturbations rho -> rho (1 + eps g) keep the normalization and the
    average potential fixed to first order (g is projected against {1, U}
    under the rho-weighted measure), so the entropy change of the maximizer
    must be second order and nonpositive.  Returns the largest observed
    change (expected ~ -eps^2/2 * <g^2>).
    """
    _require(profile.normalized, "profile", "must be normalized")
    r_hi = float(profile.nodes[-1])
    radii = np.linspace(0.0, r_hi, n_grid)
    u, _ = resample(profile, radii)
    rho = np.exp(-profile.params.beta * u) / profile.z

    h = radii[1] - radii[0]
    weights = np.ones(n_grid)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= h / 3.0  # composite Simpson (n_grid must be odd)
    measure = 2.0 * math.pi * weights * radii  # integral f -> sum(measure * f)

    def integral(f):
        return float(np.sum(measure * f))

    def entropy_of(dens):
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(dens > 0.0, dens * np.log(np.where(dens > 0.0, dens, 1.0)), 0.0)
        return -integral(term)

    h0 = entropy_of(rho)
    rng = np.random.default_rng(seed)
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
        perturbed = rho * (1.0 + epsilon * g)
        worst = max(worst, entropy_of(perturbed) - h0)
    return worst


__all__ = [
    "observables", "angular_velocity", "velocity_field", "divergence_sup",
    "SweepResult", "beta_sweep", "sinc_limit", "SINC_NORM_INTEGRAL",
    "density_on_grid", "LimitRow", "LimitReport", "limit_convergence",
    "invert_beta_for_energy", "entropy_stationarity_check",
]
