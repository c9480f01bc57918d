"""Quantitative radii: properness bound, openness radius, boundary minimum."""

import cmath
import math

from .errors import DegreeZero, NonzeroConstantTerm, ZeroPolynomial
from .polycore import LazyNumpy, eval_poly

np = LazyNumpy(globals())


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


def boundary_min(p, r, samples=None):
    """Approximate min of |p| on the circle |z| = r; returns (d, d/2).

    Dense angular sampling (4096 * max(1, n) points by default) refined
    by golden-section search around the sample minimum.  Approximate,
    not certified.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    n = max(1, p.degree)
    m = int(samples) if samples else 4096 * n
    theta = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    desc = np.array(p.coeffs[::-1], dtype=complex)
    vals = np.abs(np.polyval(desc, r * np.exp(1j * theta)))
    i = int(np.argmin(vals))
    d = float(vals[i])

    step = 2.0 * math.pi / m
    fa = float(vals[(i - 1) % m])
    fc = float(vals[(i + 1) % m])
    if d < fa and d < fc:
        f = lambda t: abs(eval_poly(p, r * cmath.exp(1j * t)))
        d = min(d, _golden_min(f, theta[i] - step, theta[i] + step))
    return d, d / 2.0


def _golden_min(f, a, c):
    # Golden-section search on [a, c]; 60 steps shrink the bracket by
    # 0.618^60 ~ 3e-13, below any angle resolution that matters here.
    inv = 0.5 * (math.sqrt(5.0) - 1.0)
    x1, x2 = c - inv * (c - a), a + inv * (c - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(60):
        if f2 < f1:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (c - a)
            f2 = f(x2)
        else:
            c, x2, f2 = x2, x1, f1
            x1 = c - inv * (c - a)
            f1 = f(x1)
    return min(f1, f2)
