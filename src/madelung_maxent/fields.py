"""Two-dimensional assembly, rotation, and residual diagnostics.

The separable solution U(x, y) = U_x(|x|) + U_y(|y|) lives on the rectangle
spanned by the factor half-widths; its density is the product of the
normalized factor densities.  Rotated copies are themselves solutions, which
is checked by comparing finite-difference residuals of the defining equation

    lap U = (beta/2) |grad U|^2 + lambda_sq U

on the original and rotated grids.  Rotation resamples with a C2 bicubic
spline: a rougher interpolant (e.g. bilinear) leaves an error field that the
discrete Laplacian amplifies to O(U''), drowning the residual.  On a separable
grid that spline is a sum (U) or a product (rho) of two 1D cubic splines, as
tensor-product interpolation is linear and exact on constants (de Boor 1978).

Residual norms are sup-norms over the support with a 5% margin to the
boundary, where the potential's quartic derivative grows like
12/(beta (r_m - r)^4) and any fixed-step FD residual is dominated by
truncation.  The PDE residual is normalized by the sum of the magnitudes of
the equation's terms ("digits of the equation satisfied"); the
self-consistency rebuild of U from rho is reported as an absolute deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import make_interp_spline
from scipy.ndimage import distance_transform_edt

from .model import (MAX_POINTS, AxisProfile, Grid2D, PhysicalParams, RadialProfile,
                    Record, ValidationError, _require)
from .solver import resample

DEFAULT_MARGIN = 0.05
# an assembled plane rebuilds from its factors to within ~1 ulp of its max
_SEPARABLE_TOL = 8.0 * float(np.finfo(np.float64).eps)
_NOT_SEPARABLE = "rotation requires a separable source grid"


def _same_physics(a: PhysicalParams, b: PhysicalParams) -> bool:
    return a.beta == b.beta and a.mass == b.mass and a.hbar == b.hbar


def assemble_2d(ux: AxisProfile, uy: AxisProfile, grid_spacing: float) -> Grid2D:
    """Tensor the two factor profiles onto a centered uniform grid.

    U adds, rho multiplies (each factor density normalized on its own axis,
    so the product is normalized on the rectangle).  The grid covers the
    resolved region; the unresolved sliver next to the support boundary is
    ~1e-9 half-widths wide and carries relative density below e^-40.
    """
    _require(_same_physics(ux.params, uy.params), "params", "factor profiles disagree")
    _require(grid_spacing > 0, "grid_spacing", "must be positive")
    cells = math.prod(2 * float(p.nodes[-1]) / grid_spacing + 1 for p in (ux, uy))
    _require(cells <= MAX_POINTS, "grid_spacing",
             f"too fine: the grid would exceed MAX_POINTS = {MAX_POINTS} cells")
    beta = ux.params.beta

    def axis_values(profile):
        n = int(math.floor(profile.nodes[-1] / grid_spacing))
        _require(n >= 2, "grid_spacing", "too coarse for the factor support")
        coords = grid_spacing * np.arange(-n, n + 1)
        u, _ = resample(profile, np.abs(coords))
        return coords, u, np.exp(-beta * u) / profile.z

    x, ux_vals, rho_x = axis_values(ux)
    y, uy_vals, rho_y = axis_values(uy)
    return Grid2D(spacing=grid_spacing, x0=float(x[0]), y0=float(y[0]),
                  u=np.add.outer(ux_vals, uy_vals), rho=np.multiply.outer(rho_x, rho_y))


def quad_axis_norm(profile: AxisProfile) -> float:
    """Full-line normalization of exp(-beta U_i) for one even factor, as its solve took it."""
    return profile.z


def rotate_grid(grid: Grid2D, theta: float) -> Grid2D:
    """Resample a separable grid rotated by theta about the origin.

    The bicubic spline of each plane is evaluated through 1D cubic splines of
    the factors on the centre row and column; a plane they do not rebuild to a
    few ulps (anything but ``assemble_2d`` output) is refused.  Points whose
    source lies outside the grid get rho = 0, U = +inf; theta = 0 returns the
    grid unchanged.
    """
    _require(math.isfinite(theta), "theta", "must be a finite angle")
    if theta == 0.0 or theta % (2.0 * math.pi) == 0.0:
        return grid
    u, rho = grid.u, grid.rho
    _require(bool(np.all(np.isfinite(u))), "u", "rotation requires a sentinel-free source grid")
    ic, jc = u.shape[0] // 2, u.shape[1] // 2
    _require(rho[ic, jc] > 0.0 and bool(np.all(np.isfinite(rho))), "rho", _NOT_SEPARABLE)
    a, b = u[:, jc], u[ic, :] - u[ic, jc]
    p, q = rho[:, jc], rho[ic, :] / rho[ic, jc]
    for name, plane, outer, f, g in (("u", u, np.add.outer, a, b),
                                     ("rho", rho, np.multiply.outer, p, q)):
        off = np.max(np.abs(plane - outer(f, g)))
        _require(bool(off <= _SEPARABLE_TOL * np.max(np.abs(plane))), name, _NOT_SEPARABLE)
    x, y = grid.x, grid.y
    ct, st = math.cos(theta), math.sin(theta)
    # source coordinates of each target node (inverse rotation)
    xs = ct * x[:, None] + st * y[None, :]
    ys = -st * x[:, None] + ct * y[None, :]
    inside = (xs >= x[0]) & (xs <= x[-1]) & (ys >= y[0]) & (ys <= y[-1])
    # a and p share the x knots, b and q the y knots: one two-column spline per axis
    fx = make_interp_spline(x, np.column_stack([a, p]), k=3)(np.clip(xs, x[0], x[-1]))
    fy = make_interp_spline(y, np.column_stack([b, q]), k=3)(np.clip(ys, y[0], y[-1]))
    u_rot = np.where(inside, fx[..., 0] + fy[..., 0], math.inf)
    rho_rot = np.where(inside, np.clip(fx[..., 1] * fy[..., 1], 0.0, None), 0.0)
    return Grid2D(spacing=grid.spacing, x0=grid.x0, y0=grid.y0, u=u_rot, rho=rho_rot)


@dataclass(frozen=True)
class ResidualNorms(Record):
    """Sup-norms of the FD equation residual and the density-rebuild check."""

    pde: float
    rebuild: float
    spacing: float


def _radial_residual(profile: RadialProfile, params: PhysicalParams, h: float) -> ResidualNorms:
    c = params.laplacian_variant.first_derivative_coefficient
    beta, lam_sq = params.beta, params.lambda_sq
    r_hi = min((1.0 - DEFAULT_MARGIN) * profile.r_m, profile.nodes[-1] - h)
    _require(r_hi > 2 * h, "h", "grid step too coarse for the support")
    _require(r_hi / h <= MAX_POINTS, "h", f"too fine: more than MAX_POINTS = {MAX_POINTS} samples")
    rg = np.arange(1, int(r_hi / h) + 1) * h
    um, _ = resample(profile, rg - h)
    u, _ = resample(profile, rg)
    up, _ = resample(profile, rg + h)

    d2 = (up - 2.0 * u + um) / (h * h)
    d1 = (up - um) / (2.0 * h)
    term_c = c / rg * d1
    term_q = 0.5 * beta * d1 * d1
    term_l = lam_sq * u
    num = np.abs(d2 + term_c - term_q - term_l)
    den = np.abs(d2) + np.abs(term_c) + np.abs(term_q) + np.abs(term_l)
    pde = float(np.max(np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)))

    # rebuild U from the (unnormalized) amplitude e^{-beta U / 2}; the
    # normalization cancels in lap(R)/R
    half = 0.5 * beta
    rm_, r0_, rp_ = np.exp(-half * um), np.exp(-half * u), np.exp(-half * up)
    lap = (rp_ - 2.0 * r0_ + rm_) / (h * h) + c / rg * (rp_ - rm_) / (2.0 * h)
    u_rebuilt = -(params.hbar**2 / (2.0 * params.mass)) * lap / r0_
    rebuild = float(np.max(np.abs(u_rebuilt - u)))
    return ResidualNorms(pde=pde, rebuild=rebuild, spacing=h)


def _grid_residual(grid: Grid2D, params: PhysicalParams) -> ResidualNorms:
    beta, lam_sq = params.beta, params.lambda_sq
    h = grid.spacing
    u = np.where(np.isfinite(grid.u), grid.u, 0.0)

    # margin mask: stay DEFAULT_MARGIN * min-half-extent away from the support edge
    # (non-finite sentinels and the grid border both count as outside), counted
    # in cells from the grid's shape alone, so the last bit of h cannot decide
    # whether a whole ring of cells is kept
    finite = np.isfinite(grid.u)
    padded = np.zeros((finite.shape[0] + 2, finite.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = finite
    dist = distance_transform_edt(padded)[1:-1, 1:-1]
    margin_cells = DEFAULT_MARGIN * 0.5 * (min(grid.shape) - 1)
    mask = dist[1:-1, 1:-1] >= max(margin_cells, 2.0)

    lap = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
           - 4.0 * u[1:-1, 1:-1]) / (h * h)
    gx = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * h)
    gy = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * h)
    term_q = 0.5 * beta * (gx * gx + gy * gy)
    term_l = lam_sq * u[1:-1, 1:-1]
    num = np.abs(lap - term_q - term_l)
    den = np.abs(lap) + np.abs(term_q) + np.abs(term_l)
    rel = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    pde = float(np.max(rel[mask]))

    amp = np.sqrt(grid.rho)
    lap_amp = (amp[2:, 1:-1] + amp[:-2, 1:-1] + amp[1:-1, 2:] + amp[1:-1, :-2]
               - 4.0 * amp[1:-1, 1:-1]) / (h * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_rebuilt = -(params.hbar**2 / (2.0 * params.mass)) * lap_amp / amp[1:-1, 1:-1]
    rebuild = float(np.max(np.abs((u_rebuilt - u[1:-1, 1:-1])[mask])))
    return ResidualNorms(pde=pde, rebuild=rebuild, spacing=h)


def maxent_residual(solution, params: PhysicalParams, h: float = 1e-3) -> ResidualNorms:
    """FD residual of the defining equation plus the rho->U rebuild check.

    ``solution`` is a RadialProfile (uniform resample at step h) or a Grid2D
    (its own spacing).  Both norms exclude a margin (5% of the support
    radius / half-extent) next to the boundary.  A profile is measured
    against its own equation, so params must equal ``solution.params``; a
    grid carries no params and takes them from the caller.
    """
    _require(math.isfinite(h) and h > 0.0, "h", "must be a positive finite step")
    if isinstance(solution, RadialProfile):
        _require(params == solution.params, "params", "must equal the profile's own params")
        return _radial_residual(solution, params, h)
    if isinstance(solution, Grid2D):
        return _grid_residual(solution, params)
    raise ValidationError("solution: expected a RadialProfile or Grid2D")


__all__ = [
    "assemble_2d", "rotate_grid",
    "ResidualNorms", "maxent_residual", "quad_axis_norm", "DEFAULT_MARGIN", "MAX_POINTS",
]
