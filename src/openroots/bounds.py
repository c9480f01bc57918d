"""Quantitative radii: properness bound and openness radius."""

from .errors import DegreeZero, NonzeroConstantTerm, ZeroPolynomial


def reich_radius(p):
    """Radius R >= 1 with |p(z)| >= |a_n| |z|^n / 2 for all |z| >= R.

    Uses R = max(1, 2 sum(|a_i|, i < n) / |a_n|): for |z| >= R the lower
    terms sum to at most half the leading term.
    """
    n = p.degree
    if n == 0:
        raise DegreeZero("properness bound needs degree >= 1")
    lead = abs(p.coeffs[-1])
    lower = sum(abs(c) for c in p.coeffs[:-1])
    return max(1.0, 2.0 * lower / lead)


def openness_radius(p):
    """A radius r > 0 with |a_n| r^n + sum(|a_i| r^i, j < i < n) < |a_j| r^j.

    j is the lowest index with a_j != 0; requires p(0) = 0.  Found by
    halving from r = 1 (the inequality persists for smaller r).  The
    monomial case j = n returns 1: every r works there.
    """
    if all(c == 0 for c in p.coeffs):
        raise ZeroPolynomial("openness radius of the zero polynomial")
    if p.coeffs[0] != 0:
        raise NonzeroConstantTerm("openness radius requires p(0) = 0")
    n = p.degree
    j = next(i for i, c in enumerate(p.coeffs) if c != 0)
    if j == n:
        return 1.0
    aj = abs(p.coeffs[j])
    r = 1.0
    while True:
        lhs = abs(p.coeffs[n]) * r**n
        lhs += sum(abs(p.coeffs[i]) * r**i for i in range(j + 1, n))
        # keep a 1% margin so the strict inequality is unambiguous
        if 1.01 * lhs < aj * r**j:
            return r
        r *= 0.5
        if r < 1e-300:  # unreachable for a_j != 0
            raise ZeroPolynomial("radius underflow")
