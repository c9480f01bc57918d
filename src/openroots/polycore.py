"""Complex polynomial arithmetic and harmonic decomposition.

Dense ascending-power representation shared by every other module:
Horner evaluation, differentiation, Taylor recentering by repeated
synthetic division, and the split f(x + iy) = g(x, y) + i h(x, y)
with first partials derived from f'(z) so the Cauchy-Riemann
relations hold exactly by construction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegreeZero


class Poly:
    """Dense univariate polynomial with complex coefficients.

    Coefficients are ascending powers (index = power).  Trailing zero
    coefficients are trimmed on construction, so ``degree`` is always
    the index of the last stored coefficient and the leading
    coefficient is nonzero unless the polynomial is the constant 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [complex(c) for c in coeffs]
        if not cs:
            raise ValueError("need at least one coefficient")
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def monic(self):
        """Divide through by the leading coefficient."""
        lead = self.coeffs[-1]
        if lead == 0:
            raise ZeroDivisionError("cannot normalize the zero polynomial")
        if lead == 1:
            return self
        return Poly([c / lead for c in self.coeffs])

    def __call__(self, z):
        return eval_poly(self, z)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


@dataclass(frozen=True)
class HarmonicEval:
    """Values and first partials of g = Re f and h = Im f at (x, y).

    gx == hy and gy == -hx hold exactly: all four partials come from
    the single complex number f'(x + iy).
    """

    g: float
    h: float
    gx: float
    gy: float
    hx: float
    hy: float


def eval_poly(p, z):
    """Horner evaluation of p at a complex point."""
    z = complex(z)
    acc = p.coeffs[-1]
    for a in reversed(p.coeffs[:-1]):
        acc = acc * z + a
    return acc


def eval_with_derivative(p, z):
    """One Horner pass returning (p(z), p'(z))."""
    z = complex(z)
    b = p.coeffs[-1]
    c = 0j
    for a in reversed(p.coeffs[:-1]):
        c = c * z + b
        b = b * z + a
    return b, c


def eval_jet(p, z):
    """One Horner pass returning (p(z), p'(z), p''(z))."""
    z = complex(z)
    b = p.coeffs[-1]
    c = 0j
    d = 0j
    for a in reversed(p.coeffs[:-1]):
        d = d * z + c
        c = c * z + b
        b = b * z + a
    return b, c, 2.0 * d


class JetKernel:
    """p, p' and p'' at many points at once: the vectorised eval_jet.

    Row k of a preallocated (n + 1, size) buffer takes scale * z**k by a
    running product down the rows, and one (3, n + 1) @ (n + 1, size)
    product with the coefficient rows of p, p', p'' gives the values,
    each column times its ``scale`` (1 by default).  Power sums round
    differently from Horner, within n * u * sum |a_k| |z|^k.
    """

    __slots__ = ("matrix", "powers", "out", "_tail", "_rows")

    def __init__(self, p, size, scale=1.0):
        n = p.degree
        a = np.array(p.coeffs, dtype=complex)
        k = np.arange(n + 1)
        self.matrix = np.zeros((3, n + 1), dtype=complex)
        self.matrix[0] = a
        self.matrix[1, :n] = k[1:] * a[1:]
        self.matrix[2, :n - 1] = (k[2:] * (k[2:] - 1)) * a[2:]
        self.powers = np.empty((n + 1, size), dtype=complex)
        self.powers[0] = scale
        self.out = np.empty((3, size), dtype=complex)
        self._tail = self.powers[1:]
        self._rows = [(self.matrix[:r], self.out[:r]) for r in range(4)]

    def __call__(self, zs, rows=3):
        """The first ``rows`` of the rows p(zs), p'(zs), p''(zs), in a
        buffer the next call overwrites; zs holds ``size`` points."""
        pw = self.powers
        self._tail[...] = zs
        np.multiply.accumulate(pw, axis=0, out=pw)
        matrix, out = self._rows[rows]
        return np.matmul(matrix, pw, out=out)


def eval_jets(p, zs, order=2):
    """eval_jet at every point of the 1-D array zs: rows p, p', p'' up
    to the given derivative order, shape (order + 1, len(zs))."""
    zs = np.asarray(zs, dtype=complex)
    return JetKernel(p, len(zs))(zs, order + 1)


def derivative(p):
    """Coefficient-wise derivative; constants map to the zero polynomial."""
    if p.degree == 0:
        return Poly([0j])
    return Poly([k * c for k, c in enumerate(p.coeffs)][1:])


def _synthetic_div(coeffs, v):
    # Divide an ascending coefficient list by (z - v).
    # Returns (quotient coefficients, remainder).
    m = len(coeffs) - 1
    if m == 0:
        return [], coeffs[0]
    q = [0j] * m
    q[m - 1] = coeffs[m]
    for i in range(m - 1, 0, -1):
        q[i - 1] = coeffs[i] + v * q[i]
    rem = coeffs[0] + v * q[0]
    return q, rem


def synthetic_div(p, v):
    """Divide p by (z - v); returns (quotient Poly, remainder)."""
    q, rem = _synthetic_div(list(p.coeffs), complex(v))
    return Poly(q or [0j]), rem


def taylor_shift(p, v):
    """Recenter p at v: returns q with q(h) = p(v + h).

    Implemented by repeated synthetic division (n^2 complex ops) rather
    than convolution; numerically robust at the small degrees used here.
    The degree and the leading coefficient are preserved.
    """
    v = complex(v)
    if v == 0:
        return p
    work = list(p.coeffs)
    out = []
    while work:
        work, rem = _synthetic_div(work, v)
        out.append(rem)
    return Poly(out)


def harmonic_eval(p, x, y):
    """Evaluate g, h and their first partials at the point (x, y)."""
    w, d = eval_with_derivative(p, complex(x, y))
    gx = d.real
    hx = d.imag
    return HarmonicEval(g=w.real, h=w.imag, gx=gx, gy=-hx, hx=hx, hy=gx)


def critical_points(p, tol=1e-9):
    """All roots of p', with multiplicity, each with |p'(z)| <= tol.

    Found by the descent solver plus deflation; a degree-1 input has a
    constant nonzero derivative and therefore no critical points.
    """
    if p.degree < 1:
        raise DegreeZero("critical_points needs degree >= 1")
    dp = derivative(p)
    if dp.degree == 0:
        return []
    from . import descent  # local import: descent builds on polycore

    return descent.all_roots(dp, tol)
