#!/usr/bin/env python3
"""Benchmark the compiled Dormand-Prince kernel against the pure-Python fallback.

The adaptive stepping loop is the package's hot path: every solve walks a few
hundred to a few thousand scalar RK steps, and sweeps/inversions run dozens of
solves.  This script times the same loop both ways on representative workloads.

    python benchmarks/benchmark_kernels.py [--repeat 5]
"""

import argparse
import math
import time

import numpy as np

from madelung_maxent import kernels

CASES = {
    "radial beta=1": dict(t0=1e-4, t1=50.0, u0=1.0 + (2 / 3) * 1e-8, v0=(4 / 3) * 1e-4,
                          beta=1.0, lam_sq=4.0, c_coef=2.0, threshold=41.0),
    "radial beta=100": dict(t0=1e-4, t1=1300.0, u0=1.0 + (1 / 150) * 1e-8, v0=(2 / 150) * 1e-4,
                            beta=100.0, lam_sq=0.04, c_coef=2.0, threshold=1.4),
    "radial beta=1e-4": dict(t0=1e-4, t1=210.0, u0=1.0 + (4e4 / 6) * 1e-8, v0=(4e4 / 3) * 1e-4,
                             beta=1e-4, lam_sq=4e4, c_coef=2.0, threshold=1.0 + 40.0 / 1e-4),
    "cartesian beta=1": dict(t0=0.0, t1=50.0, u0=1.0, v0=0.0,
                             beta=1.0, lam_sq=4.0, c_coef=0.0, threshold=41.0),
}
COMMON = dict(rtol=1e-10, atol=1e-12, h0=1e-4, max_steps=2_000_000)


def run_case(fn, case, repeat):
    args = dict(COMMON, **case)
    fn(**args)  # warm (JIT compile / cache load)
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        ts, us, vs, stop = fn(**args)
        best = min(best, time.perf_counter() - start)
    assert stop == kernels.STOP_BLOWUP
    return best, ts.size


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    rows = []
    for name, case in CASES.items():
        t_py, n = run_case(kernels._madelung_loop, case, args.repeat)
        if kernels.NUMBA_ENABLED:
            t_jit, n_jit = run_case(kernels.madelung_loop, case, args.repeat)
            assert n_jit == n, "paths disagree on accepted step count"
        else:
            t_jit = math.nan
        rows.append((name, n, t_py, t_jit))

    print(f"{'case':<20} {'nodes':>6} {'python':>12} {'numba':>12} {'speedup':>9}")
    for name, n, t_py, t_jit in rows:
        speed = f"{t_py / t_jit:8.1f}x" if math.isfinite(t_jit) else "      n/a"
        jit_txt = f"{t_jit * 1e3:9.3f} ms" if math.isfinite(t_jit) else "        n/a"
        print(f"{name:<20} {n:>6} {t_py * 1e3:9.3f} ms {jit_txt} {speed}")
    if not kernels.NUMBA_ENABLED:
        print("numba unavailable; only the pure-Python path was timed")


if __name__ == "__main__":
    main()
