"""Boundary structure on a circle |z| = R, proven by Rouché.

For q = f monic of degree n, let d = sum_{k<n} |a_k| R^(k-n) and
d1 = sum_{k<n} (n-k) |a_k| R^(k-n).  On |z| = R, |q/z^n - 1| <= d and
|z q'/q - n| <= d1 / (1 - d).  If d < sin(min(n, 45) degrees) and
d1 < n (1 - d), arg q stays within arcsin d of n theta and turns strictly
monotonically, on this circle and every larger one (both sums fall as R
grows).  So g = Re q and h = Im q cross it at 2n + 2n nodes (P-nodes and
Q-nodes), one in each bracket +- pi / 4n about the asymptotic angles
(2i+1) pi / 2n and i pi / n, within arcsin(d) / n < 1 degree of it.

Route 2 needs just one such circle, and the smallest is best: every arc
the tracer follows, and every step tolerance, scales with R.  Because the
certificate holds on every circle outside one that passes, the smallest
R >= 1 that passes is found by bisection on log R (annulus_radius).
"""

import math
import sys
from dataclasses import dataclass

from .errors import BracketFailure, ConvergenceFailure, InterleavingViolation
from .polycore import eval_poly

P_KIND = "P"
Q_KIND = "Q"

# relative part of the bisection stop rule, 4 * machine epsilon
_BISECT_RTOL = 4.0 * sys.float_info.epsilon
# resolution of annulus_radius's search in log2 R
_SEARCH_STEP = 1 / 64


@dataclass(frozen=True)
class BoundaryNode:
    """One crossing of g = 0 (kind P) or h = 0 (kind Q) with |z| = R.

    ``deviation`` is the signed offset angle - asymptote, measured
    before wrapping the angle into [0, 2 pi).
    """

    kind: str
    index: int
    angle: float
    asymptote: float
    deviation: float


@dataclass(frozen=True)
class NodeSet:
    """All 4n boundary nodes on |z| = R, sorted by angle."""

    R: float
    nodes: tuple

    @property
    def n(self):
        return len(self.nodes) // 4

    def of_kind(self, kind):
        picked = [nd for nd in self.nodes if nd.kind == kind]
        picked.sort(key=lambda nd: nd.index)
        return tuple(picked)

    def position(self, node):
        return complex(self.R * math.cos(node.angle), self.R * math.sin(node.angle))


def _rouche_certified(q, R):
    # The module docstring's certificate, by Horner in s = 1/R so that no
    # power of R overflows.  Each sum is within gamma_(3n+2) of its value;
    # the factor 1 + 8(n+2)u covers that and the roundings of the tests.
    n = q.degree
    s = 1.0 / R
    d = d1 = 0.0
    for k, a in enumerate(q.coeffs[:-1]):
        d = (d + abs(a)) * s
        d1 = (d1 + (n - k) * abs(a)) * s
    grow = 1.0 + 8 * (n + 2) * 2.0 ** -53
    d, d1 = d * grow, d1 * grow
    return d < math.sin(math.radians(min(n, 45))) and d1 < n * (1.0 - d)


def annulus_radius(p):
    """Smallest R >= 1, to a factor of 2^(1/64), on which the Rouché
    certificate holds, by bisection on t = log2 R: the certificate is
    monotone in R, and each probe is one O(n) pass.  Raises if R^n
    overflows a double.
    """
    if p.degree < 1:
        raise ConvergenceFailure("annulus radius needs degree >= 1")
    q = p.monic()
    if _rouche_certified(q, 1.0):
        return 1.0
    n = q.degree
    top = 1023.0 / n  # R^n overflows from t = top on
    # 2^lo fails; 2^hi passes, or hi is still top
    lo, hi = 0.0, top
    while hi - lo > _SEARCH_STEP:
        mid = 0.5 * (lo + hi)
        if _rouche_certified(q, 2.0 ** mid):
            hi = mid
        else:
            lo = mid
    if hi == top:
        raise ConvergenceFailure(
            f"R^n overflows double at R = {2.0 ** top:.6g}, degree {n}")
    return 2.0 ** hi


def _bisect(f, lo, hi, flo):
    # Sign-change bisection on [lo, hi] with f(lo) = flo: the offset from
    # lo halves each step, lo moves up while the sign matches flo, and the
    # midpoint is returned once the half-step drops below
    # 1e-12 + 4 eps |mid| (100 steps at most).  This is the classic
    # bisection of the numerical libraries step for step, so the angles
    # match theirs to the bit (checked against one in the tests).
    step = hi - lo
    for _ in range(100):
        step *= 0.5
        mid = lo + step
        fmid = f(mid)
        if fmid * flo >= 0:
            lo = mid
        if fmid == 0 or abs(step) < 1e-12 + _BISECT_RTOL * abs(mid):
            return mid
    raise ConvergenceFailure(
        f"node bisection on [{lo:.6f}, {hi:.6f}] did not converge")


def boundary_nodes(p, R):
    """Locate the 2n P-nodes and 2n Q-nodes on |z| = R by bisection.

    Each node is bracketed between the midpoint angles on either side
    of its asymptote; at a radius from annulus_radius, Rouché's argument
    proves exactly one node in each bracket.  Angles are resolved to
    1e-12.
    """
    q = p.monic()
    n = q.degree
    half = math.pi / (4 * n)
    two_pi = 2.0 * math.pi

    def g_at(theta):
        return eval_poly(q, R * complex(math.cos(theta), math.sin(theta))).real

    def h_at(theta):
        return eval_poly(q, R * complex(math.cos(theta), math.sin(theta))).imag

    nodes = []
    for kind, field in ((P_KIND, g_at), (Q_KIND, h_at)):
        for i in range(2 * n):
            if kind == P_KIND:
                asym = (2 * i + 1) * math.pi / (2 * n)
            else:
                asym = i * math.pi / n
            lo, hi = asym - half, asym + half
            flo, fhi = field(lo), field(hi)
            if flo == 0.0 or fhi == 0.0 or (flo > 0) == (fhi > 0):
                raise BracketFailure(
                    f"no sign change for {kind}-node {i} in "
                    f"[{lo:.6f}, {hi:.6f}] at R = {R:.6g}")
            theta = _bisect(field, lo, hi, flo)
            nodes.append(BoundaryNode(
                kind=kind,
                index=i,
                angle=theta % two_pi,
                asymptote=asym,
                deviation=theta - asym,
            ))
    nodes.sort(key=lambda nd: nd.angle)
    return NodeSet(R=float(R), nodes=tuple(nodes))


def node_label(node):
    """Circle label: Q_i -> 2i, P_i -> 2i + 1."""
    if node.kind == Q_KIND:
        return 2 * node.index
    return 2 * node.index + 1


def interleaving_check(ns):
    """The cyclic label sequence by increasing angle; must be 0..4n-1.

    Raises InterleavingViolation when the Q, P, Q, P alternation (or
    the index ordering) fails, which signals R too small or a
    tangential crossing.
    """
    labels = [node_label(nd) for nd in ns.nodes]
    total = len(labels)
    if sorted(labels) != list(range(total)):
        raise InterleavingViolation("node labels are not a permutation")
    start = labels.index(0)
    rotated = labels[start:] + labels[:start]
    if rotated != list(range(total)):
        raise InterleavingViolation(f"cyclic order broken: {rotated}")
    return rotated


def locate_boundary_nodes(p):
    """The nodes on the circle of annulus_radius, the smallest on which
    Rouché proves that each lies alone in its bracket within 1 degree of
    its asymptote, so one bisection pass finds them all."""
    ns = boundary_nodes(p, annulus_radius(p))
    interleaving_check(ns)
    return ns
