"""Truncated power series with the weighted-l1 norm and the
contraction-mapping implicit solver.

A series u = sum alpha_k x^k carries the norm ||u|| = sum |alpha_k| r^k.
For f(x, y) = sum a_ij x^i y^j with a_00 = 0 and a_01 != 0, rewrite
y = g(x, y) with b_ij = -a_ij / a_01 (b_00 = b_01 = 0); for radii (r, s)
with B = sum |b_i0| r^i <= s/2 and L = sum |b_ij| r^i j s^(j-1) <= 1/2,
the map G w = g(x, w(x)) is a 1/2-contraction of the ball ||w|| <= s and
its fixed point solves f(x, w(x)) = 0.
"""

from collections import namedtuple

from .errors import ContractionStall, ConvergenceFailure, NoConvergentRadii


class TruncatedSeries:
    """Real power series truncated at a fixed order K (length K + 1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        cs = [float(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            cs = cs[: order + 1] + [0.0] * (order + 1 - len(cs))
        if not cs:
            cs = [0.0]
        self.coeffs = tuple(cs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        k = max(self.order, other.order)
        a = self.coeffs + (0.0,) * (k - self.order)
        b = other.coeffs + (0.0,) * (k - other.order)
        return TruncatedSeries([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TruncatedSeries([c * other for c in self.coeffs])
        return multiply(self, other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r})"


def norm(u, r):
    """Weighted coefficient norm sum |alpha_k| r^k."""
    if r <= 0:
        raise ValueError("r must be positive")
    return sum(abs(c) * r**k for k, c in enumerate(u.coeffs))


def multiply(u, v):
    """Cauchy product truncated at max(order(u), order(v))."""
    k = max(u.order, v.order)
    out = [0.0] * (k + 1)
    for i, a in enumerate(u.coeffs):
        if a == 0.0:
            continue
        for j, b in enumerate(v.coeffs):
            if i + j > k:
                break
            out[i + j] += a * b
    return TruncatedSeries(out)


def integrate(u):
    """Term-wise antiderivative sum alpha_k x^(k+1) / (k+1); order grows by 1."""
    return TruncatedSeries([0.0] + [c / (k + 1) for k, c in enumerate(u.coeffs)])


class BivariateSeries:
    """Finitely supported real series sum a_ij x^i y^j, keyed by (i, j)."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {
            (int(i), int(j)): float(c)
            for (i, j), c in dict(terms).items()
            if float(c) != 0.0
        }

    def coeff(self, i, j):
        return self.terms.get((i, j), 0.0)

    @property
    def orders(self):
        if not self.terms:
            return (0, 0)
        return (max(i for i, _ in self.terms), max(j for _, j in self.terms))

    def transpose(self):
        """Swap the roles of x and y (used for x(y) parametrizations)."""
        return BivariateSeries({(j, i): c for (i, j), c in self.terms.items()})

    def normalized(self):
        """The solved-for-y form: b_ij = -a_ij / a_01 with b_00 = b_01 = 0."""
        if self.coeff(0, 0) != 0.0:
            raise ValueError("normalization requires a_00 = 0")
        a01 = self.coeff(0, 1)
        if a01 == 0.0:
            raise ValueError("normalization requires a_01 != 0")
        b = {key: -c / a01 for key, c in self.terms.items()}
        b.pop((0, 0), None)
        b.pop((0, 1), None)
        return BivariateSeries(b)

    def __repr__(self):
        return f"BivariateSeries({self.terms!r})"


def compose(f, u, order):
    """The series f(x, u(x)) truncated at the given order."""
    if not f.terms:
        return TruncatedSeries([0.0], order)
    jmax = max(j for _, j in f.terms)
    by_j = {}
    for (i, j), c in f.terms.items():
        if i <= order:
            row = by_j.setdefault(j, [0.0] * (order + 1))
            row[i] += c
    acc = TruncatedSeries([0.0], order)
    upow = TruncatedSeries([1.0], order)
    for j in range(jmax + 1):
        if j > 0:
            upow = multiply(upow, TruncatedSeries(u.coeffs, order))
        if j in by_j:
            acc = acc + multiply(TruncatedSeries(by_j[j], order), upow)
    return TruncatedSeries(acc.coeffs, order)


class RadiiRecipe(namedtuple("RadiiRecipe", "r s B L")):
    """Radii (r, s) with the contraction bounds B <= s/2 and L <= 1/2."""

    __slots__ = ()


def choose_radii(f, r_init=1.0):
    """Halve r from r_init (with s = 4B per trial) until the recipe holds.

    For series with no pure-x part (B = 0) the ball radius falls back to
    s = r so it stays positive; the fixed point is then w = 0 anyway.
    """
    g = f.normalized()
    r = float(r_init)
    if r <= 0:
        raise ValueError("r_init must be positive")
    while True:
        B = sum(abs(c) * r**i for (i, j), c in g.terms.items() if j == 0)
        s = 4.0 * B if B > 0.0 else r
        L = sum(
            abs(c) * r**i * j * s ** (j - 1)
            for (i, j), c in g.terms.items()
            if j >= 1
        )
        if B <= 0.5 * s and L <= 0.5:
            return RadiiRecipe(r=r, s=s, B=B, L=L)
        r *= 0.5
        if r < 1e-300:
            raise NoConvergentRadii("radius underflow before the recipe held")


def contraction_map(f, order):
    """Return (G, recipe): the fixed-point operator w -> g(x, w(x)).

    G truncates at the given order; the recipe radii certify it as a
    1/2-contraction of the ball ||w||_r <= s.
    """
    recipe = choose_radii(f)
    g = f.normalized()

    def G(w):
        return compose(g, w, order)

    return G, recipe


def implicit_series_solve(f, K, tol=1e-12, max_iter=None):
    """Fixed point of G from w = 0, truncated at order K.

    Stops once the successive distance ||w_{m+1} - w_m|| (in the recipe
    norm) is <= tol and at least K + 1 iterations have run, so every
    coefficient through order K has stabilized.  Raises ContractionStall
    if the observed distance ratio ever exceeds 1/2 + 1e-9.
    """
    G, recipe = contraction_map(f, K)
    w = TruncatedSeries([0.0], K)
    prev = None
    budget = max_iter if max_iter else max(8 * (K + 1), 400)
    for m in range(1, budget + 1):
        w_next = G(w)
        dist = norm(w_next - w, recipe.r)
        if prev is not None and prev > 0.0 and dist > (0.5 + 1e-9) * prev:
            raise ContractionStall(
                f"distance ratio {dist / prev:.6f} exceeds 1/2 at iterate {m}")
        w = w_next
        if dist == 0.0 or (m >= K + 1 and dist <= tol):
            return w
        prev = dist
    raise ConvergenceFailure(f"no fixed point within {budget} iterations")


def nodal_cubic_demo(order=8):
    """Branch series of y^2 = x^2 (x + 1) at the origin: Y = +-x sqrt(1+x).

    Substituting y = x (1 + w) reduces the singular curve to
    2w + w^2 - x = 0, which the contraction solver handles; both
    branches are verified to satisfy the curve equation through the
    requested order before being returned.
    """
    inner = BivariateSeries({(1, 0): -1.0, (0, 1): 2.0, (0, 2): 1.0})
    w = implicit_series_solve(inner, max(order - 1, 1), 1e-14)
    one_plus_w = TruncatedSeries([1.0]) + w
    plus = TruncatedSeries([0.0] + list(one_plus_w.coeffs), order)
    minus = -plus

    curve = BivariateSeries({(0, 2): 1.0, (3, 0): -1.0, (2, 0): -1.0})
    for branch in (plus, minus):
        resid = compose(curve, branch, order)
        worst = max(abs(c) for c in resid.coeffs)
        if worst > 1e-12:
            raise ArithmeticError(f"branch residual {worst:.3e} through order {order}")
    return plus, minus
