#!/usr/bin/env python3
"""Write the scale-free energy curve the beta inversion starts from.

With g = beta * U0, the state's equation in the units U0 and 1/lambda
depends on g and the Laplacian variant alone, so a(g) = beta (u_bar - U0) is
a function of g, and every state's energy reads E - U0 = (a(g) + m) / beta.
This script solves a(g) = g (u_bar - 1) at U0 = m = hbar = 1 with the
package's own ``solve_radial`` at its default tolerance, for both variants on
a uniform ln g grid over [G_MIN, G_MAX], and writes
``src/madelung_maxent/data/energy_curve.json``.

    python scripts/energy_curve.py [--check]

--check re-solves every point and compares against the shipped file instead
of writing; it fails on any relative deviation above 1e-12, so a kernel
change that moves the energies needs the curve written again.
"""

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from madelung_maxent import LaplacianVariant, SolveRequest, make_params, solve_radial  # noqa: E402

CURVE_PATH = ROOT / "src" / "madelung_maxent" / "data" / "energy_curve.json"
G_MIN, G_MAX = 1e-8, 512.0  # beta_cap = 500/U0 bounds g = beta U0 of every inversion solve
POINTS_PER_DECADE = 16  # the natural spline through them holds a + m to ~1e-8 relative


def grid():
    """The curve's g values: uniform in ln g from G_MIN to G_MAX, ends included."""
    points = math.ceil(POINTS_PER_DECADE * math.log10(G_MAX / G_MIN)) + 1
    ln_g0 = math.log(G_MIN)
    step = (math.log(G_MAX) - ln_g0) / (points - 1)
    return [math.exp(ln_g0 + k * step) for k in range(points)]


def a_of(g, variant):
    """a(g) = g (u_bar - 1) from one solve at U0 = m = hbar = 1, beta = g."""
    profile = solve_radial(SolveRequest(params=make_params(1.0, 1.0, g, variant)))
    return g * (profile.observables.u_bar - 1.0)


def build():
    gs = grid()
    curve = {"g_min": G_MIN, "g_max": G_MAX, "points": len(gs)}
    for variant in LaplacianVariant:
        curve[variant.value] = [a_of(g, variant) for g in gs]
    return curve


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the shipped curve instead of writing it")
    args = parser.parse_args()
    curve = build()
    if args.check:
        shipped = json.loads(CURVE_PATH.read_text())
        assert {k: shipped[k] for k in ("g_min", "g_max", "points")} == \
            {k: curve[k] for k in ("g_min", "g_max", "points")}, "the shipped grid differs"
        worst = max(abs(new - old) / abs(old) for variant in LaplacianVariant
                    for new, old in zip(curve[variant.value], shipped[variant.value]))
        print(f"max relative deviation vs shipped energy curve: {worst:.2e}")
        assert worst <= 1e-12, "the shipped energy curve is stale: run scripts/energy_curve.py"
    else:
        CURVE_PATH.write_text(json.dumps(curve, indent=1) + "\n")
        print(f"wrote {CURVE_PATH} ({curve['points']} points per variant)")


if __name__ == "__main__":
    main()
