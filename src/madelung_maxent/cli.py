"""Command-line front end.

Subcommands: solve-radial, solve-cartesian, sweep, limit, verify.  Every run
writes deterministic CSV artifacts (17 significant digits, atomic
write-then-rename) plus a manifest.json describing parameters, outputs,
observables and residuals.  Exit codes: 0 success, 1 computational failure,
2 usage error.  Every solve runs at the solver's fixed tolerances, relative
1e-10 and absolute 1e-12.

The default output directory is MADELUNG_MAXENT_OUTDIR (falling back to the
current directory); a path that is a file, or lies under one, is a usage error.
The directory is made by the first write, so a run that fails leaves none.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, analysis, fields, verify
from .model import (MAX_POINTS, NoSolutionError, SolverError, ValidationError, make_params,
                    to_json)
from .solver import Geometry, SolveRequest, solve_cartesian_factor, solve_radial

FORMAT_VERSION = "4"


def _write_lines(path: Path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as f:
        f.writelines(lines)
    os.replace(tmp, path)


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in columns))
    _write_lines(path, itertools.chain([",".join(header) + "\n"], map(line.__mod__, rows)))


def _write_plane(path: Path, grid: fields.Grid2D, plane: np.ndarray):
    """x,y,value rows, x-major: _write_csv's bytes, with each axis value formatted once.

    A whole x-row is one template, "x,y0,%.17g\nx,y1,%.17g\n...", filled by one
    % call (a formatted float never contains a '%').  The plane is converted to
    Python floats one row at a time, so the writer holds one row of them.
    """
    xs = ["%.17g," % v for v in grid.x.tolist()]
    ys = ["%.17g,%%.17g\n" % v for v in grid.y.tolist()]
    rows = ((xi + xi.join(ys)) % tuple(row.tolist())
            for xi, row in zip(xs, np.asarray(plane, dtype=float)))
    _write_lines(path, itertools.chain(["x,y,value\n"], rows))


def _write_radial_profile(path: Path, profile):
    omega = analysis.angular_velocity(profile, profile.nodes)
    _write_csv(path, ["r", "u", "du", "rho", "omega"],
               [profile.nodes, profile.u, profile.du, profile.rho, omega])


def _outdir(args) -> Path:
    """The output directory, checked but not made: ``_write_lines`` makes it."""
    out = args.out or os.environ.get("MADELUNG_MAXENT_OUTDIR") or "."
    path = Path(out)
    nearest = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not nearest.is_dir():  # a file at the path or above it
        raise ValidationError(f"out: {out!r} is a file or lies under one, "
                              "not an output directory")
    return path


def _params_from(args, beta, variant="paper"):
    """The parameters at ``beta``; solve-radial and sweep pass their ``--variant``."""
    return make_params(args.mass, args.hbar, beta,
                       "paper-radial" if variant == "paper" else "planar-radial")


def _manifest(args, command: str, outdir: Path, outputs: list[str], started: float,
              **extra) -> dict:
    manifest = {
        "format_version": FORMAT_VERSION,
        "package_version": __version__,
        "command": command,
        "parameters": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "out", "command")},
        "outputs": outputs,
        "duration_seconds": time.monotonic() - started,
    }
    manifest.update(extra)
    path = outdir / "manifest.json"
    _write_lines(path, [to_json(manifest) + "\n"])
    for name in outputs:
        assert (outdir / name).exists()
    return manifest


def _add_common(parser: argparse.ArgumentParser, beta_flag: bool = True,
                variant: bool = False):
    if beta_flag:
        parser.add_argument("--beta", type=float, required=True,
                            help="entropy multiplier (positive)")
    parser.add_argument("--u0", type=float, default=1.0, help="potential at the origin")
    parser.add_argument("--mass", type=float, default=1.0)
    parser.add_argument("--hbar", type=float, default=1.0)
    if variant:
        parser.add_argument("--variant", choices=("paper", "planar"), default="paper",
                            help="radial first-derivative coefficient: paper=2/r, planar=1/r")
    parser.add_argument("--out", default=None, help="output directory")


def _cmd_solve_radial(args) -> int:
    params = _params_from(args, 1.0 if args.beta is None else args.beta, args.variant)
    outdir = _outdir(args)
    started = time.monotonic()
    inversion = {}
    if args.energy is None:
        profile = solve_radial(SolveRequest(params=params, u0=args.u0))
    else:  # the inversion's certifying solve is the run's profile
        profile = analysis._solve_at_energy(args.energy, args.u0, params)
        params = profile.params
        inversion = {"target_energy": args.energy, "beta": params.beta}
    obs = analysis.observables(profile)
    norms = fields.maxent_residual(profile, params, h=args.residual_h)
    outputs = ["radial_profile.csv"]
    _write_radial_profile(outdir / outputs[0], profile)
    _manifest(args, "solve-radial", outdir, outputs, started,
              observables=obs, residuals=norms, **inversion)
    outputs.append("manifest.json")
    found = f"beta = {params.beta:.9g} for E = {args.energy:.9g}, " if inversion else ""
    print(f"solve-radial: {found}r_m = {profile.r_m:.9g}, K_bar = {obs.k_bar:.9g}, "
          f"wrote {', '.join(outputs)} in {outdir}")
    return 0


def _cmd_solve_cartesian(args) -> int:
    params = _params_from(args, args.beta)
    outdir = _outdir(args)
    started = time.monotonic()
    factor = solve_cartesian_factor(SolveRequest(
        params=params, u0=args.u0, geometry=Geometry.CARTESIAN_FACTOR))
    grid = fields.assemble_2d(factor, factor, args.grid_h)
    planes = [("grid2d_u.csv", grid, grid.u), ("grid2d_rho.csv", grid, grid.rho)]
    norms = fields.maxent_residual(grid, params)
    extra = {
        "half_width": factor.half_width,
        "grid_mass": float(grid.rho.sum()) * grid.spacing**2,
        "residuals": norms,
    }
    if args.rotate is not None:
        rotated = fields.rotate_grid(grid, args.rotate)
        planes += [("grid2d_u_rotated.csv", rotated, rotated.u),
                   ("grid2d_rho_rotated.csv", rotated, rotated.rho)]
        rot_norms = fields.maxent_residual(rotated, params)
        extra["rotation"] = {"theta": args.rotate,
                             "residuals": rot_norms,
                             "residual_ratio": rot_norms.pde / norms.pde}
    outputs = ["axis_profile.csv"]
    _write_csv(outdir / outputs[0], ["i", "u", "du"], [factor.nodes, factor.u, factor.du])
    for name, g, plane in planes:
        _write_plane(outdir / name, g, plane)
        outputs.append(name)
    _manifest(args, "solve-cartesian", outdir, outputs, started, **extra)
    print(f"solve-cartesian: i_m = {factor.half_width:.9g}, grid mass = "
          f"{extra['grid_mass']:.9f}, wrote {len(outputs) + 1} files in {outdir}")
    return 0


def _parse_beta_list(text: str) -> list[float]:
    try:
        betas = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"beta list: {exc}") from exc
    if not betas:
        raise ValidationError("beta list: empty")
    return betas


def _cmd_sweep(args) -> int:
    if (args.beta_list is None) == (args.beta_log_range is None):
        raise ValidationError("betas: give exactly one of --beta-list / --beta-log-range")
    if args.beta_list is not None:
        betas = _parse_beta_list(args.beta_list)
    else:
        lo, hi, n = args.beta_log_range
        if not (0 < lo < hi < math.inf and 2 <= n <= MAX_POINTS and n.is_integer()):
            raise ValidationError("beta-log-range: need 0 < lo < hi < inf and an integer n "
                                  f"in [2, MAX_POINTS = {MAX_POINTS}]")
        betas = list(np.logspace(math.log10(lo), math.log10(hi), int(n)))
    params = _params_from(args, betas[0], args.variant)
    outdir = _outdir(args)
    started = time.monotonic()
    sweep = analysis.beta_sweep(betas, args.u0, params)
    cols = ["beta", "r_m", "r2_bar", "z", "u_bar", "k_bar_quad", "k_bar_closed",
            "energy", "entropy"]
    attr = ["r_m", "r2_bar", "z", "u_bar", "k_bar_quad", "k_bar", "energy", "entropy"]
    data = [[row.beta for row in sweep.rows]] + [
        [math.nan if row.observables is None else getattr(row.observables, a)
         for row in sweep.rows] for a in attr]
    _write_csv(outdir / "sweep.csv", cols, data)
    failed = [row for row in sweep.rows if row.status == "failed"]
    for row in failed:
        print(f"warning: beta = {row.beta:g} failed: {row.error}", file=sys.stderr)
    monotonicity = {k: v for k, v in sweep.to_dict().items() if k != "rows"}
    _manifest(args, "sweep", outdir, ["sweep.csv"], started,
              monotonicity=monotonicity, failed_betas=[row.beta for row in failed])
    print(f"sweep: {len(sweep.rows)} rows ({len(failed)} flagged), monotonicity "
          + ", ".join(f"{k}={v}" for k, v in monotonicity.items()))
    return 0


def _cmd_limit(args) -> int:
    betas = _parse_beta_list(args.betas)
    names = {}
    for beta in betas:
        name = f"radial_profile_beta_{beta:g}.csv"
        if name in names:
            raise ValidationError(f"betas: {names[name]!r} and {beta!r} would both write {name}")
        names[name] = beta
    params = _params_from(args, betas[0])
    outdir = _outdir(args)
    started = time.monotonic()
    report = analysis.limit_convergence(betas, args.u0, params)
    outputs = []
    for name, profile in zip(names, report.profiles):
        _write_radial_profile(outdir / name, profile)
        outputs.append(name)
    rr = np.linspace(0.0, report.sinc.r_inf, 2001)
    _write_csv(outdir / "sinc_profile.csv", ["r", "psi", "rho"],
               [rr, report.sinc.psi(rr), report.sinc.rho(rr)])
    outputs.append("sinc_profile.csv")
    _write_csv(outdir / "convergence.csv", ["beta", "sup_norm_distance"],
               [[p.params.beta for p in report.profiles], report.distances])
    outputs.append("convergence.csv")
    _manifest(args, "limit", outdir, outputs, started,
              sinc=report.sinc,
              distances_decreasing=report.distances_decreasing)
    print(f"limit: distances {'decreasing' if report.distances_decreasing else 'NOT decreasing'}, "
          f"r_inf = {report.sinc.r_inf:.9g}, wrote {len(outputs) + 1} files")
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suite(beta=args.beta, quick=args.quick)
    print(verify.format_table(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="madelung-maxent",
        description="Maximum-entropy self-trapped states of the 2D Madelung fluid")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-radial", help="solve the rotationally symmetric state")
    _add_common(p, beta_flag=False, variant=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--beta", type=float, help="entropy multiplier (positive)")
    target.add_argument("--energy", type=float,
                        help="average energy U_bar + m/beta; beta is found by inversion")
    p.add_argument("--residual-h", type=float, default=None,
                   help="residual sample step (default max(min(1e-3, r_m/128), r_m/65536))")
    p.set_defaults(func=_cmd_solve_radial)

    p = sub.add_parser("solve-cartesian", help="solve separable factors and assemble the 2D grid")
    _add_common(p)
    p.add_argument("--grid-h", type=float, default=0.01, help="2D grid spacing")
    p.add_argument("--rotate", type=float, default=None,
                   help="also emit the grid rotated by this angle (radians)")
    p.set_defaults(func=_cmd_solve_cartesian)

    p = sub.add_parser("sweep", help="solve a family of beta values")
    _add_common(p, beta_flag=False, variant=True)
    p.add_argument("--beta-list", default=None, help="comma-separated beta values")
    p.add_argument("--beta-log-range", nargs=3, type=float, default=None,
                   metavar=("LO", "HI", "N"), help="log-spaced beta grid")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("limit", help="compare large-beta paper-variant states with sinc")
    _add_common(p, beta_flag=False)
    p.add_argument("--betas", default="10,50,100", help="comma-separated beta values (>= 10)")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("verify", help="run the invariant verification suite")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--quick", action="store_true", help="trimmed fast subset")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, NoSolutionError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
