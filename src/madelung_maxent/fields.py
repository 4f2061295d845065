"""Two-dimensional separable states, their rotations, and residual diagnostics.

The separable solution U(x, y) = U_x(|x|) + U_y(|y|) lives on the rectangle
spanned by the factor half-widths; its density is the product of the
normalized factor densities.  Rotated copies are themselves solutions: a
``Grid2D`` evaluates U_x(|x'|) + U_y(|y'|) at the inversely rotated nodes
(x', y') through each factor's own interpolant (``solver.resample``).  The
rotation check compares finite-difference residuals of the defining equation

    lap U = (beta/2) |grad U|^2 + lambda_sq U

on the original and rotated grids.  Residual norms are sup-norms over the
support with a 5% margin to the boundary, where the potential's quartic
derivative grows like 12/(beta (r_m - r)^4) and any fixed-step FD residual is
dominated by truncation.  On a grid the margin is counted in cells: a node
whose source index is (i', j') lies min(n_x + 1 - |i'|, n_y + 1 - |j'|) cells
from the first cell past the source rectangle, and the grid border counts the
same way.  The PDE residual is normalized by the sum of the magnitudes of the
equation's terms ("digits of the equation satisfied"); the self-consistency
rebuild of U from rho is reported as an absolute deviation.

A rotated plane is evaluated on half the grid, or on a quadrant when one
factor serves both axes; the rest is its exact mirror and quarter turn, as
in every unrotated plane.  The grid residual reads one symmetry cell: half
or a quadrant rotated, a quadrant or an octant unrotated (the outer sum and
product of even axis values mirror in x and in y, and transpose when one
factor serves both axes).  Each five-point sum is grouped (N + S) + (E + W),
and a mirror, transpose or quarter turn only swaps the two terms of a pair
or the two pairs, which a float sum of two does not see; so every cell's
residual equals its images' bit for bit and the sup over the cell is the
grid's.  A
grid's two planes (16 B per cell) are its only whole-grid arrays.  The
rotated evaluation and the grid residual work in row blocks of about
``model.BLOCK_CELLS`` cells, so each adds the temporaries of one block,
whatever the grid size; every float is the one a whole-grid pass gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
# unused here: loaded so that perfbench's `_grid` reference does not import it inside its
# first timed pass, until perfbench/run.py imports it before that pass (ROADMAP item 1)
import scipy.ndimage  # noqa: F401

from .model import (BLOCK_CELLS, MAX_POINTS, AxisProfile, PhysicalParams, RadialProfile,
                    Record, ValidationError, _require)
from .solver import resample

DEFAULT_MARGIN = 0.05


def _same_physics(a: PhysicalParams, b: PhysicalParams) -> bool:
    return a.beta == b.beta and a.mass == b.mass and a.hbar == b.hbar


@dataclass(frozen=True, eq=False)
class Grid2D(Record):
    """The separable state of two factor profiles, rotated by theta, on a centred grid.

    The factors, the spacing h and theta define the grid; the nodes and planes
    are derived from them.  The nodes are x = h k, k in [-n_x, n_x] with n_x =
    floor(i_stop / h) for the factor's last node i_stop (likewise y): the
    unresolved sliver next to the wall is ~1e-9 half-widths wide and carries
    relative density below e^-40.  U adds and rho multiplies the factor values
    (each density normalized on its own axis); nodes whose source leaves the
    rectangle carry rho = 0 and U = +inf.
    """

    ux: AxisProfile
    uy: AxisProfile
    spacing: float
    theta: float = 0.0
    x: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False)
    u: np.ndarray = field(init=False)
    rho: np.ndarray = field(init=False)

    def __post_init__(self):
        ux, uy, h = self.ux, self.uy, self.spacing
        _require(_same_physics(ux.params, uy.params), "params", "factor profiles disagree")
        nx, ny = _half_counts(ux, uy, h, "spacing")
        _require(math.isfinite(self.theta), "theta", "must be a finite angle")
        x, y = h * np.arange(-nx, nx + 1), h * np.arange(-ny, ny + 1)
        for name, value in zip(("x", "y", "u", "rho"), (x, y, *_planes(ux, uy, x, y, self.theta))):
            value.setflags(write=False)  # built here, so frozen without a copy
            object.__setattr__(self, name, value)

    @property
    def shape(self):
        return self.u.shape


def _half_counts(ux: AxisProfile, uy: AxisProfile, h: float, name: str):
    """(n_x, n_y) at spacing h; refuses, naming ``name``, an h not positive, too fine or coarse."""
    _require(h > 0, name, "must be positive")
    _require(math.prod(2 * float(p.nodes[-1]) / h + 1 for p in (ux, uy)) <= MAX_POINTS, name,
             f"too fine: the grid would exceed MAX_POINTS = {MAX_POINTS} cells")
    counts = [int(math.floor(p.nodes[-1] / h)) for p in (ux, uy)]
    _require(min(counts) >= 2, name, "too coarse for the factor support")
    return counts


def _factor_values(profile: AxisProfile, s):
    """(U_i, rho_i) of one factor at |coordinate| values s."""
    u = resample(profile, s)
    return u, np.exp(-profile.params.beta * u) / profile.z


def _planes(ux: AxisProfile, uy: AxisProfile, x, y, theta: float):
    """(U, rho) at the nodes x, y; at theta = 0 the outer sum and product of the axis values.

    Rotated, the rows up to the centre are evaluated, and of them only the columns
    up to the centre when ux is uy: then x equals y, so (x, y) -> (-y, x) swaps the
    source coordinates exactly, and the quarter turn fills the other columns.
    """
    if theta == 0.0:
        (fx, px), (fy, py) = _factor_values(ux, np.abs(x)), _factor_values(uy, np.abs(y))
        return np.add.outer(fx, fy), np.multiply.outer(px, py)
    ct, st = math.cos(theta), math.sin(theta)
    u, rho = np.full((x.size, y.size), math.inf), np.zeros((x.size, y.size))
    half = x.size // 2 + 1  # rows up to the centre row
    cols = slice(0, half if ux is uy else y.size)  # one factor: columns up to the centre too
    step = max(1, BLOCK_CELLS // y[cols].size)
    for lo in range(0, half, step):
        rows = slice(lo, min(lo + step, half))
        # source coordinates of each target node (inverse rotation)
        xs = np.abs(ct * x[rows, None] + st * y[cols])
        ys = np.abs(-st * x[rows, None] + ct * y[cols])
        inside = (xs <= x[-1]) & (ys <= y[-1])
        (fx, px), (fy, py) = _factor_values(ux, xs[inside]), _factor_values(uy, ys[inside])
        u[rows, cols][inside] = fx + fy
        rho[rows, cols][inside] = px * py
    if ux is uy:  # the columns past the centre are the quarter turn of the rows before it
        u[:half, half:] = u[half - 2::-1, :half].T
        rho[:half, half:] = rho[half - 2::-1, :half].T
    # the nodes are h k, so (x, y) -> (-x, -y) negates both source coordinates
    # exactly: the rows past the centre mirror the ones before it, bit for bit
    u[half:] = u[half - 2::-1, ::-1]
    rho[half:] = rho[half - 2::-1, ::-1]
    return u, rho


def assemble_2d(ux: AxisProfile, uy: AxisProfile, grid_spacing: float) -> Grid2D:
    """Tensor the two factor profiles onto a centered uniform grid (``Grid2D`` at theta = 0)."""
    _half_counts(ux, uy, grid_spacing, "grid_spacing")
    return Grid2D(ux, uy, grid_spacing)


def quad_axis_norm(profile: AxisProfile) -> float:
    """Full-line normalization of exp(-beta U_i) for one even factor, as its solve took it."""
    return profile.z


def rotate_grid(grid: Grid2D, theta: float) -> Grid2D:
    """The grid's state rotated by a further theta about the origin, on the same nodes.

    The planes are evaluated from the factor profiles at the inversely rotated
    nodes.  The angles add, so rotations compose; a total angle that is a
    multiple of 2 pi (0 included) gives the unrotated grid.
    """
    _require(math.isfinite(theta), "theta", "must be a finite angle")
    total = grid.theta + theta
    total = 0.0 if total % (2.0 * math.pi) == 0.0 else total
    return grid if total == grid.theta else replace(grid, theta=total)


@dataclass(frozen=True)
class ResidualNorms(Record):
    """Sup-norms of the FD equation residual and the density-rebuild check."""

    pde: float
    rebuild: float
    spacing: float


def _radial_residual(profile: RadialProfile, params: PhysicalParams, h: float) -> ResidualNorms:
    c = profile.c_coef
    beta, lam_sq = params.beta, params.lambda_sq
    r_hi = min((1.0 - DEFAULT_MARGIN) * profile.r_m, profile.nodes[-1] - h)
    _require(r_hi > 2 * h, "h", "grid step too coarse for the support")
    _require(r_hi / h <= MAX_POINTS, "h", f"too fine: more than MAX_POINTS = {MAX_POINTS} samples")
    rg = np.arange(1, int(r_hi / h) + 1) * h
    um = resample(profile, rg - h)
    u = resample(profile, rg)
    up = resample(profile, rg + h)

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
    beta, lam_sq, h = params.beta, params.lambda_sq, grid.spacing
    # cells to the first cell past the rotated source rectangle or the grid
    # border, from the shape and angle alone, so the last bit of h cannot
    # decide whether a whole ring of cells is kept
    nx, ny = grid.shape[0] // 2, grid.shape[1] // 2
    # the cell's columns, [1, cols): up to the centre when a quarter turn (one factor)
    # or the y mirror (unrotated) gives the rest; unrotated with one factor the planes
    # are also symmetric, so a block of rows [lo, hi) reads the columns [lo, cols)
    cols = ny + 1 if grid.ux is grid.uy or grid.theta == 0.0 else grid.shape[1] - 1
    octant = grid.theta == 0.0 and grid.ux is grid.uy
    ct, st = math.cos(grid.theta), math.sin(grid.theta)
    margin = max(DEFAULT_MARGIN * 0.5 * (min(grid.shape) - 1), 2.0)
    pde, rebuild = [], []
    step = max(1, BLOCK_CELLS // (cols + 1))
    for lo in range(1, nx + 1, step):  # interior rows [lo, hi) and one more each side
        hi = min(lo + step, nx + 1)
        first = lo if octant else 1  # interior columns [first, cols)
        i = np.arange(lo - nx, hi - nx, dtype=float)[:, None]
        j = np.arange(first - ny, cols - ny, dtype=float)
        source = np.minimum(nx + 1 - np.abs(ct * i + st * j), ny + 1 - np.abs(ct * j - st * i))
        dist = np.minimum(source, np.minimum(nx + 1 - np.abs(i), ny + 1 - np.abs(j)))
        mask = dist >= margin
        if not mask.any():
            continue
        u = grid.u[lo - 1:hi + 1, first - 1:cols + 1]
        u = np.where(np.isfinite(u), u, 0.0)
        lap = ((u[2:, 1:-1] + u[:-2, 1:-1]) + (u[1:-1, 2:] + u[1:-1, :-2])
               - 4.0 * u[1:-1, 1:-1]) / (h * h)
        gx = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * h)
        gy = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * h)
        term_q = 0.5 * beta * (gx * gx + gy * gy)
        term_l = lam_sq * u[1:-1, 1:-1]
        num = np.abs(lap - term_q - term_l)
        den = np.abs(lap) + np.abs(term_q) + np.abs(term_l)
        rel = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
        pde.append(np.max(rel[mask]))

        amp = np.sqrt(grid.rho[lo - 1:hi + 1, first - 1:cols + 1])
        lap_amp = ((amp[2:, 1:-1] + amp[:-2, 1:-1]) + (amp[1:-1, 2:] + amp[1:-1, :-2])
                   - 4.0 * amp[1:-1, 1:-1]) / (h * h)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_rebuilt = -(params.hbar**2 / (2.0 * params.mass)) * lap_amp / amp[1:-1, 1:-1]
        rebuild.append(np.max(np.abs((u_rebuilt - u[1:-1, 1:-1])[mask])))
    # np.max, unlike max(), propagates a NaN from any block
    return ResidualNorms(pde=float(np.max(pde)), rebuild=float(np.max(rebuild)), spacing=h)


def maxent_residual(solution, params: PhysicalParams, h: float | None = None) -> ResidualNorms:
    """FD residual of the defining equation plus the rho->U rebuild check.

    ``solution`` is a RadialProfile (uniform resample at step h, by default
    max(min(1e-3, r_m/128), r_m/65536), so every support gets 121 to 62259
    samples) or a Grid2D
    (its own spacing, so a grid refuses any h).  Both norms exclude a margin
    (5% of the support radius / half-extent) next to the boundary.  A solution is measured against its own equation, so
    params must equal a profile's own params, and match a grid's factors in
    beta, mass and hbar.
    """
    if isinstance(solution, RadialProfile):
        h = max(min(1e-3, solution.r_m / 128), solution.r_m / 65536) if h is None else h
        _require(math.isfinite(h) and h > 0.0, "h", "must be a positive finite step")
        _require(params == solution.params, "params", "must equal the profile's own params")
        return _radial_residual(solution, params, h)
    if isinstance(solution, Grid2D):
        _require(h is None, "h", "a grid is measured at its own spacing; pass no step")
        _require(_same_physics(params, solution.ux.params), "params",
                 "must match the grid's factor params in beta, mass and hbar")
        return _grid_residual(solution, params)
    raise ValidationError("solution: expected a RadialProfile or Grid2D")


__all__ = [
    "Grid2D", "assemble_2d", "rotate_grid",
    "ResidualNorms", "maxent_residual", "quad_axis_norm", "DEFAULT_MARGIN", "MAX_POINTS",
]
