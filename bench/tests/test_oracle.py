"""Self-test of the benchmark's oracle: every bad answer must count as a
failed solve, none may be skipped.

    python3 -m pytest bench/tests
"""

import cmath
import json

import pytest

from corpus import Case
from oracle import (
    CRASH,
    ERROR,
    OK,
    TOL,
    UNSTABLE,
    WRONG,
    Outcome,
    Tally,
    outcome_from_cli,
    verify,
)

CUBE_ROOTS = tuple(cmath.exp(2j * cmath.pi * k / 3) for k in range(3))
CUBIC = Case("unity", 3, True, (-1 + 0j, 0j, 0j, 1 + 0j), "descent")
CUBIC_GAUSS = Case("unity", 3, True, CUBIC.coeffs, "gauss")


def _cli_report(roots):
    return json.dumps({"method": "descent", "degree": len(roots),
                       "roots": [{"re": z.real, "im": z.imag, "residual": 0.0}
                                 for z in roots]})


def test_exact_roots_pass():
    verdict = verify(CUBIC, Outcome(roots=CUBE_ROOTS))
    assert verdict.kind == OK and verdict.verified_roots == 3


def test_rounding_floor_admits_a_residual_above_tol():
    # 1e8 (z^3 - 1): a double-precision cube root leaves a residual far
    # above tol, but inside c u sum |a_i| |z|^i
    scaled = Case("scale_1e8", 3, False,
                  tuple(1e8 * c for c in CUBIC.coeffs), "descent")
    assert verify(scaled, Outcome(roots=CUBE_ROOTS)).kind == OK


@pytest.mark.parametrize("roots, why", [
    ((CUBE_ROOTS[0] + 1e-6,) + CUBE_ROOTS[1:], "perturbed root"),
    (CUBE_ROOTS[:2], "short root list"),
    (CUBE_ROOTS + (CUBE_ROOTS[0],), "long root list"),
    ((complex("nan"),) + CUBE_ROOTS[1:], "not a number"),
])
def test_bad_root_lists_fail(roots, why):
    assert verify(CUBIC, Outcome(roots=roots)).kind == WRONG, why


@pytest.mark.parametrize("roots", [
    (CUBE_ROOTS[0], CUBE_ROOTS[0], CUBE_ROOTS[2]),
    (CUBE_ROOTS[0],) * 3,
])
def test_duplicated_root_passes_residual_but_not_product(roots):
    # each root of the list is a true root: only the product check can
    # tell that a distinct root is missing
    verdict = verify(CUBIC, Outcome(roots=roots))
    assert verdict.kind == UNSTABLE and "rebuild" in verdict.reason


def test_gauss_wants_one_root():
    assert verify(CUBIC_GAUSS, Outcome(roots=CUBE_ROOTS[1:2])).kind == OK
    assert verify(CUBIC_GAUSS, Outcome(roots=CUBE_ROOTS[:2])).kind == WRONG
    assert verify(CUBIC_GAUSS,
                  Outcome(roots=(CUBE_ROOTS[1] + 1e-6,))).kind == WRONG


def test_cli_outcomes():
    good = outcome_from_cli(0, _cli_report(CUBE_ROOTS), "")
    assert verify(CUBIC, good).kind == OK
    failed = outcome_from_cli(2, "", "openroots: stage 'trace': boom\n")
    assert verify(CUBIC, failed).kind == ERROR
    assert verify(CUBIC, outcome_from_cli(1, "", "usage")).kind == CRASH
    assert verify(CUBIC, outcome_from_cli(0, "{not json", "")).kind == CRASH


def test_every_bad_answer_counts_as_failed():
    tally = Tally(TOL)
    answers = [
        Outcome(roots=CUBE_ROOTS),
        Outcome(roots=(CUBE_ROOTS[0] + 1e-6,) + CUBE_ROOTS[1:]),
        Outcome(roots=(CUBE_ROOTS[0], CUBE_ROOTS[0], CUBE_ROOTS[2])),
        Outcome(roots=CUBE_ROOTS[:2]),
        outcome_from_cli(2, "", "openroots: no convergence\n"),
    ]
    for outcome in answers:
        tally.add(0, CUBIC, outcome)
    assert tally.attempted == 5
    assert tally.failed == 4
    assert tally.kinds == {OK: 1, ERROR: 1, WRONG: 2, UNSTABLE: 1, CRASH: 0}
    assert tally.verified_roots == 3
    assert not tally.correct


def test_repeated_answers_are_counted_each_time():
    tally = Tally(TOL)
    bad = Outcome(roots=CUBE_ROOTS[:2])
    for _ in range(3):
        tally.add(0, CUBIC, bad)
    assert tally.attempted == 3 and tally.failed == 3


def test_explicit_errors_and_unstable_lists_keep_the_run_correct():
    tally = Tally(TOL)
    tally.add(0, CUBIC, Outcome(roots=CUBE_ROOTS))
    tally.add(0, CUBIC, Outcome(error="ConvergenceFailure: stuck"))
    tally.add(0, CUBIC, Outcome(roots=(CUBE_ROOTS[0],) * 3))
    assert tally.failed == 2 and tally.correct
