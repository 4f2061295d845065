"""Acceptance criteria: one test per registered check of the verify suite.

The criteria and their tolerances live in ``madelung_maxent.verify.CHECKS``;
this module runs the full suite at beta = 1 and the quick suite at the other
betas, and asserts the stated runtime budgets on each check's measured time.
Run with -v -s to see every check's detail line.
"""

import functools
import math
from dataclasses import replace

import pytest

from madelung_maxent import verify

SUITES = [(1.0, False)] + [(beta, True) for beta in (0.5, 2.0, 10.0, 100.0)]

# wall-time budgets in seconds; each includes the shared solves the check builds first
BUDGETS = {"kinetic-identity": 5.0, "pde-residual": 2.0, "sweep-trends": 60.0,
           "limit-convergence": 30.0, "divergence-free": 1.0}


@functools.cache
def _case(beta, quick):
    return verify.Case(beta, quick)


@pytest.mark.parametrize("beta, quick, check", [
    pytest.param(beta, quick, check,
                 id=f"{'quick' if quick else 'full'}-beta{beta:g}-{check.name}")
    for beta, quick in SUITES for check in verify.CHECKS
    if not (quick and check.full_only)])
def test_check(beta, quick, check):
    result = verify.run_check(check, _case(beta, quick))
    print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name} "
          f"({result.seconds:.3f}s): {result.detail}")
    assert result.passed, result.detail
    assert result.seconds < BUDGETS.get(check.name, math.inf)


def test_support_stability_fails_on_a_moved_support():
    """A support 1e-5 (relative) off the profile's own wall fails both halves of the check."""
    check = next(c for c in verify.CHECKS if c.name == "support-stability")
    case = verify.Case(1.0, False)
    p = case.profile
    # the cached solve lives in the instance dict; swap in the moved one
    case.__dict__["profile"] = replace(p, observables=replace(p.observables,
                                                              r_m=p.r_m * (1.0 + 1e-5)))
    result = verify.run_check(check, case)
    assert not result.passed
    assert "margin/2 -> 1.00e-05" in result.detail and "tolerance /2 -> 1.00e-05" in result.detail
