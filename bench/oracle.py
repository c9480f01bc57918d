"""Independent verifier for the answers the benchmark collects.

A root is accepted by a backward-error test in the style of MPSolve
(Bini & Robol, J. Comput. Appl. Math. 272, 2014): its residual |p(z)|,
recomputed in mpmath at 34 significant digits from the exact binary
values of the coefficients and of z, must be at most

    max(tol, c * u * sum_i |a_i| |z|^i),   c = 4 * degree, u = 2**-53.

The second term is the rounding floor of Horner's rule in complex double
arithmetic (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
ed., section 5.1): each of the n steps of acc * z + a_i commits at most
(sqrt(5) + 1) u relative error, so 4n bounds the constant.  Below that
floor no double-precision solver can tell z from a root.

A root list from ``all_roots`` must also rebuild p: with a_n the leading
coefficient, every coefficient of a_n * numpy.poly(roots) must lie within
COEFF_FACTOR * max(tol, c * u * max_i |a_i|) of p's.  Root lists of unit
scale that the commit defining the benchmark got right missed p by at most
one such unit.  A duplicated root in place of a distinct root r' moves the
coefficients by about |r - r'| * |p / (z - r')|, so any duplicate farther
than roughly COEFF_FACTOR * tol = 1e-6 from the root it replaced is
caught, and so is a four-root cluster of radius 1e-3 returned smeared over
five times that radius (each root within tol, the set 5e-4 off in the
coefficients).

Nothing here imports the package under test.
"""

import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np

TOL = 1e-9
UNIT_ROUNDOFF = 2.0 ** -53
DIGITS = 34
COEFF_FACTOR = 1e3

# Outcome kinds.  ERROR is an explicit failure (RootFindError, or CLI exit
# code 2).  WRONG breaks the library's own contract: a wrong root count or
# a root that fails the residual test.  UNSTABLE passes the residual test
# root by root but does not rebuild p (a duplicated root, or a cluster
# smeared far beyond tol).  CRASH is any other exception or exit code.
# Every kind but OK counts as a failed solve.
OK, ERROR, WRONG, UNSTABLE, CRASH = "ok", "error", "wrong", "unstable", "crash"


def floor_constant(degree):
    """The c of the rounding floor c * u * sum |a_i| |z|^i."""
    return 4 * degree


@dataclass(frozen=True)
class Outcome:
    """What one solve produced: roots, or the failure it reported."""

    roots: tuple = None
    error: str = None
    crash: str = None
    stage: str = None


@dataclass(frozen=True)
class Verdict:
    kind: str
    verified_roots: int
    reason: str = ""


def residual(coeffs, z):
    """|p(z)| evaluated at DIGITS significant digits."""
    with mpmath.workdps(DIGITS):
        zz = mpmath.mpc(z.real, z.imag)
        acc = mpmath.mpc(0)
        for a in reversed(coeffs):
            acc = acc * zz + mpmath.mpc(a.real, a.imag)
        return float(abs(acc))


def rounding_floor(coeffs, z):
    r = abs(z)
    total = sum(abs(a) * r ** k for k, a in enumerate(coeffs))
    return floor_constant(len(coeffs) - 1) * UNIT_ROUNDOFF * total


def root_ok(coeffs, z, tol=TOL):
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return False
    return residual(coeffs, z) <= max(tol, rounding_floor(coeffs, z))


def product_ok(coeffs, roots, tol=TOL):
    """a_n * numpy.poly(roots) reproduces the coefficients of p."""
    desc = np.asarray(coeffs[::-1], dtype=complex)
    rebuilt = desc[0] * np.poly(np.asarray(roots, dtype=complex))
    unit = max(tol, floor_constant(len(coeffs) - 1) * UNIT_ROUNDOFF
               * float(np.max(np.abs(desc))))
    return float(np.max(np.abs(rebuilt - desc))) <= COEFF_FACTOR * unit


def verify(case, outcome, tol=TOL):
    """Classify one solve of ``case`` (a corpus.Case)."""
    if outcome.crash is not None:
        return Verdict(CRASH, 0, outcome.crash)
    if outcome.error is not None:
        return Verdict(ERROR, 0, outcome.error)
    roots = outcome.roots
    want = case.degree if case.method == "descent" else 1
    if len(roots) != want:
        return Verdict(WRONG, 0, f"{len(roots)} roots, expected {want}")
    for z in roots:
        if not root_ok(case.coeffs, z, tol):
            return Verdict(WRONG, 0, f"root {z!r} fails the residual test")
    if case.method == "descent" and not product_ok(case.coeffs, roots, tol):
        return Verdict(UNSTABLE, 0, "numpy.poly(roots) does not rebuild p")
    return Verdict(OK, len(roots))


def outcome_from_cli(returncode, stdout, stderr):
    """Outcome of one CLI process from its exit code and JSON report."""
    if returncode == 2:
        return Outcome(error=stderr.strip().splitlines()[-1] if stderr.strip()
                       else "exit code 2")
    if returncode != 0:
        return Outcome(crash=f"exit code {returncode}: {stderr.strip()[-200:]}")
    try:
        report = json.loads(stdout)
        roots = tuple(complex(r["re"], r["im"]) for r in report["roots"])
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(crash=f"unreadable report: {exc!r}")
    return Outcome(roots=roots)


class Tally:
    """Verdicts of a run.  Verdicts are cached per (case, answer), so a
    repeated pass over the corpus is checked once."""

    def __init__(self, tol=TOL):
        self.tol = tol
        self.kinds = {OK: 0, ERROR: 0, WRONG: 0, UNSTABLE: 0, CRASH: 0}
        self.verified_roots = 0
        self.failures = {}
        self._cache = {}

    def add(self, index, case, outcome):
        key = (index, outcome)
        verdict = self._cache.get(key)
        if verdict is None:
            verdict = self._cache[key] = verify(case, outcome, self.tol)
        self.kinds[verdict.kind] += 1
        self.verified_roots += verdict.verified_roots
        if verdict.kind != OK:
            label = (verdict.kind, case.method, case.family, case.degree,
                     case.monic, outcome.stage or "")
            self.failures[label] = self.failures.get(label, 0) + 1
        return verdict

    @property
    def attempted(self):
        return sum(self.kinds.values())

    @property
    def failed(self):
        return self.attempted - self.kinds[OK]

    @property
    def correct(self):
        """No solve broke the library's contract: no wrong root count, no
        root failing the residual test, no failure outside RootFindError."""
        return self.kinds[WRONG] == 0 and self.kinds[CRASH] == 0
