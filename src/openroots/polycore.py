"""Complex polynomial arithmetic.

Dense ascending-power representation shared by every other module:
Horner evaluation with first and second derivatives, its rounding
floor, differentiation, and Taylor recentering by repeated synthetic
division.

numpy is imported on first use (``LazyNumpy``): the scalar paths
(Horner, recentering, descent) run on plain Python complex numbers and
never load it.
"""

import cmath

from .errors import DegreeZero


class LazyNumpy:
    """Stands in for numpy as a module's ``np`` until the module uses it.

    ``np = LazyNumpy(globals())`` replaces ``import numpy as np``.  The
    first attribute read imports numpy and rebinds that module's ``np``
    to it, so later reads are plain global lookups of numpy itself.
    """

    __slots__ = ("_namespace",)

    def __init__(self, namespace):
        self._namespace = namespace

    def __getattr__(self, name):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = LazyNumpy(globals())


class Poly:
    """Dense univariate polynomial with complex coefficients.

    Coefficients are ascending powers (index = power).  Trailing zero
    coefficients are trimmed on construction, so ``degree`` is always
    the index of the last stored coefficient and the leading
    coefficient is nonzero unless the polynomial is the constant 0.
    nan and inf coefficients are rejected.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [complex(c) for c in coeffs]
        if not cs:
            raise ValueError("need at least one coefficient")
        if not all(map(cmath.isfinite, cs)):
            raise ValueError("coefficients must be finite")
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


def eval_poly(p, z):
    """Horner evaluation of p at a complex point."""
    if type(z) is not complex:
        z = complex(z)
    coeffs = reversed(p.coeffs)
    acc = next(coeffs)
    for a in coeffs:
        acc = acc * z + a
    return acc


def rounding_floor(p, x):
    """gamma * sum |a_i| x^i for degree n: bounds the rounding error of
    Horner's p(z), and sum_k |b^_k - b_k| r^k over the coefficients of
    taylor_shift(p, z), wherever |z| + r <= x (barring underflow).

    gamma = gamma_(17n+10), gamma_m = m u / (1 - m u), u = 2**-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1, 3.6,
    5.1).  A path a_i -> b_k has <= n complex products (sqrt(2) gamma_2
    <= gamma_3) and <= n sums: gamma_4n.  A constant term rounded when p
    was formed (eps in ``PerturbedProblem.shifted``): gamma_1.  A test
    comparing float sums of <= n + 2 terms |b_k| r^k, total <= 2 M, each
    within gamma_(4n+2): gamma_(8n+4).  This sum, at an x within gamma_3
    of |z| + r, is short by <= gamma_(5n+5): gamma_(12n+5) / (1 -
    gamma_(5n+5)) <= gamma_(17n+10).
    """
    m = 17 * p.degree + 10
    acc = 0.0
    for a in reversed(p.coeffs):
        acc = acc * x + abs(a)
    return m * 2.0 ** -53 / (1.0 - m * 2.0 ** -53) * acc


def eval_with_derivative(p, z):
    """(p(z), p'(z)): the first two values of eval_jet."""
    return eval_jet(p, z)[:2]


def eval_jet(p, z):
    """One Horner pass returning (p(z), p'(z), p''(z)).  p' and p'' start
    from a_n, not 0 * z + a_n, so for z != 0 the first two equal
    taylor_shift(p, z).coeffs[:2] bit for bit, signed zeros included."""
    z = complex(z)
    *rest, b = p.coeffs
    c = d = 0j
    if rest:
        b, c = b * z + rest.pop(), b
    if rest:
        b, c, d = b * z + rest.pop(), c * z + b, c
    for a in reversed(rest):
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

    Repeated synthetic division by (z - v) (n^2 / 2 complex
    multiply-adds, Shaw & Traub 1974) rather than convolution;
    numerically robust at the small degrees used here.  Done in place:
    pass j divides the quotient held in a[j:] and leaves its remainder,
    b_j, in a[j], with the same operations in the same order as
    dividing one quotient list after another.  The degree and the
    leading coefficient are preserved.
    """
    v = complex(v)
    if v == 0:
        return p
    a = list(p.coeffs)
    n = len(a) - 1
    lead = a[n]
    for j in range(n):
        acc = lead
        for i in range(n - 1, j - 1, -1):
            acc = a[i] + v * acc
            a[i] = acc
    q = Poly.__new__(Poly)
    q.coeffs = tuple(a)  # complex and trimmed, as p's were
    return q


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
