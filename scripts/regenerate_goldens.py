#!/usr/bin/env python3
"""Regenerate the golden reference values shipped with the package.

Everything here is computed by an independent route: scipy's DOP853 at
rtol 1e-12 (support radii cross-checked at 1e-13), QUADPACK for the moment
integrals, and the closed-form sinc normalization integral.  The package's
own integrator and quadrature never enter, so tests comparing against these
values exercise two genuinely different code paths.

    python scripts/regenerate_goldens.py [--check]

--check recomputes every number (all but the "_note" text) and compares it
with the shipped file instead of writing.
"""

import argparse
import json
from pathlib import Path

import numpy as np
from scipy.integrate import quad, solve_ivp

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "src" / "madelung_maxent" / "data" / "golden.json"
MASS = HBAR = 1.0


def rhs(r, y, beta, lam_sq, c):
    u, v = y
    dv = 0.5 * beta * v * v + lam_sq * u
    if c:
        dv -= (c / r) * v
    return [v, dv]


def solve_profile(beta, u0=1.0, c=2, rtol=1e-12, atol=1e-14, log_margin=40.0):
    lam_sq = 4.0 * MASS / (HBAR**2 * beta)
    a = lam_sq * u0 / (2.0 * (1.0 + c))
    r0 = 1e-4 * HBAR / np.sqrt(MASS * u0)
    u_stop = u0 + log_margin / beta

    def event(r, y, *args):
        return y[0] - u_stop

    event.terminal = True
    event.direction = 1
    sol = solve_ivp(rhs, (r0, 100.0 / np.sqrt(lam_sq) + 10.0), [u0 + a * r0**2, 2 * a * r0],
                    args=(beta, lam_sq, c), method="DOP853", rtol=rtol, atol=atol,
                    events=event, dense_output=True)
    assert sol.t_events[0].size == 1, (beta, sol.message)
    r_stop = float(sol.t_events[0][0])
    v_stop = float(sol.sol(r_stop)[1])
    r_m = r_stop + 2.0 / (beta * v_stop)
    return sol, r_stop, r_m, a, r0


def moments(sol, r_stop, beta, a, r0, u0=1.0):
    def u_of(r):
        r = np.asarray(r)
        return np.where(r < r0, u0 + a * r**2, sol.sol(np.clip(r, r0, r_stop))[0])

    def piecewise(f):
        pieces = np.concatenate([[0.0, r0],
                                 np.geomspace(max(r0 * 8, r_stop * 1e-6), r_stop, 24)])
        return sum(quad(f, lo, hi, limit=200)[0]
                   for lo, hi in zip(pieces[:-1], pieces[1:]))

    w = lambda r: np.exp(-beta * (u_of(r) - u0))
    zq = piecewise(lambda r: w(r) * r)
    uq = piecewise(lambda r: u_of(r) * w(r) * r)
    r2q = piecewise(lambda r: r**3 * w(r))
    return {
        "r_m": None,  # filled by caller
        "u_bar": uq / zq,
        "log_z": float(np.log(2 * np.pi * zq) - beta * u0),
        "r2_bar": r2q / zq,
    }


def build():
    golden = {
        "_note": ("Reference values from an independent tight-tolerance integration "
                  "(DOP853 rtol 1e-12, cross-checked at 1e-13) with QUADPACK moments; "
                  "regenerate with scripts/regenerate_goldens.py"),
        "radial": {}, "cartesian": {},
    }
    for beta in (0.5, 1.0, 2.0, 5.0, 10.0, 100.0):
        sol, r_stop, r_m, a, r0 = solve_profile(beta)
        _, _, r_m13, _, _ = solve_profile(beta, rtol=1e-13, atol=1e-15)
        assert abs(r_m - r_m13) / r_m < 1e-10
        entry = moments(sol, r_stop, beta, a, r0)
        entry["r_m"] = r_m13
        golden["radial"][str(beta)] = entry
        print(f"radial beta={beta}: r_m={r_m13:.12f} u_bar={entry['u_bar']:.12f}")

    for beta in (1.0, 2.0):
        _, _, i_m, _, _ = solve_profile(beta, c=0, rtol=1e-13, atol=1e-15)
        golden["cartesian"][str(beta)] = {"i_m": i_m}
        print(f"cartesian beta={beta}: i_m={i_m:.12f}")

    _, _, r_m_planar, _, _ = solve_profile(1.0, c=1, rtol=1e-13, atol=1e-15)
    golden["planar_r_m_beta1"] = r_m_planar

    i_sinc = quad(lambda u: np.sin(u) ** 2 / u, 0, np.pi, limit=400)[0]
    golden["I_sinc"] = i_sinc
    k = np.sqrt(2.0 * MASS * 1.0) / HBAR
    golden["k_u0_1"] = float(k)
    golden["r_inf_u0_1"] = float(np.pi / k)

    n_samples = 2001
    golden["limit_grid_samples"] = n_samples
    amp_sq = 1.0 / (2 * np.pi * i_sinc)
    golden["limit_distance"] = {}
    for beta in (10.0, 50.0, 100.0):
        sol, r_stop, r_m, a, r0 = solve_profile(beta, rtol=1e-13, atol=1e-15)
        zq = quad(lambda r: np.exp(-beta * (sol.sol(r)[0] - 1.0)) * r, r0, r_stop, limit=400)[0]
        zq += quad(lambda r: np.exp(-beta * a * r**2) * r, 0, r0)[0]
        grid = np.linspace(0.0, max(r_m, np.pi / k), n_samples)
        u_grid = np.where(grid < r0, 1.0 + a * grid**2,
                          sol.sol(np.clip(grid, r0, r_stop))[0])
        rho = np.where(grid <= r_stop, np.exp(-beta * (u_grid - 1.0)) / (2 * np.pi * zq), 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            rho_inf = np.where(grid < np.pi / k, amp_sq * np.sin(k * grid) ** 2 / grid**2, 0.0)
        rho_inf[0] = amp_sq * k**2
        golden["limit_distance"][str(beta)] = float(np.abs(rho - rho_inf).max())
        print(f"limit beta={beta}: distance={golden['limit_distance'][str(beta)]:.8e}")
    return golden


def numbers(golden, prefix=""):
    """The golden's numbers by dotted path: the radial moments, i_m, the sinc and limit values."""
    out = {}
    for key, val in golden.items():
        if isinstance(val, dict):
            out.update(numbers(val, f"{prefix}{key}."))
        elif key != "_note":
            out[prefix + key] = val
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the shipped golden file")
    args = parser.parse_args()
    golden = build()
    if args.check:
        fresh, shipped = numbers(golden), numbers(json.loads(GOLDEN_PATH.read_text()))
        assert fresh.keys() == shipped.keys(), sorted(fresh.keys() ^ shipped.keys())
        worst = max(abs(fresh[k] - ref) / max(abs(ref), 1e-30) for k, ref in shipped.items())
        print(f"max relative deviation vs the {len(shipped)} shipped golden numbers: {worst:.2e}")
        assert worst < 1e-9, "shipped goldens disagree with a fresh oracle run"
    else:
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
