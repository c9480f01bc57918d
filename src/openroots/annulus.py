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

Since arg q is strictly monotone across each bracket, Newton on the angle
kept inside the bracket finds its node in a few steps; boundary_nodes
runs all 4n brackets in lockstep, in about four passes of one numpy
kernel (plus two over the bracket ends and two to check the nodes).
"""

import math
import sys
from collections import namedtuple

from .errors import BracketFailure, ConvergenceFailure, InterleavingViolation
from .polycore import JetKernel, LazyNumpy, Poly

np = LazyNumpy(globals())

P_KIND = "P"
Q_KIND = "Q"

# relative part of the node stop rule, 4 * machine epsilon
_NEWTON_RTOL = 4.0 * sys.float_info.epsilon
# lockstep Newton passes before a node still moving is a failure; the
# midpoint fallback alone resolves any bracket to 1e-12 in about 40
_MAX_PASSES = 100
# resolution of annulus_radius's search in log2 R
_SEARCH_STEP = 1 / 64


class BoundaryNode(namedtuple(
        "BoundaryNode", "kind index angle asymptote deviation")):
    """One crossing of g = 0 (kind P) or h = 0 (kind Q) with |z| = R.

    ``deviation`` is the signed offset angle - asymptote, measured
    before wrapping the angle into [0, 2 pi).
    """

    __slots__ = ()


class NodeSet(namedtuple("NodeSet", "R nodes")):
    """All 4n boundary nodes on |z| = R, sorted by angle."""

    __slots__ = ()

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


def boundary_nodes(p, R):
    """Locate the 2n P-nodes and 2n Q-nodes on |z| = R, all at once.

    Each node is bracketed between the midpoint angles on either side
    of its asymptote; at a radius from annulus_radius, Rouché's argument
    proves exactly one node in each bracket.  Safeguarded Newton on the
    angle (Numerical Recipes' rtsafe) runs in all 4n brackets in lockstep:
    each bracket shrinks to the sign change, and a Newton point outside
    it gives way to the midpoint.  A node stops when its step falls below
    1e-12 + 4 eps |theta| or its field is 0; a last pass checks that the
    field changes sign across theta +- 1e-12 at every node.
    """
    q = p.monic()
    n = q.degree
    half = math.pi / (4 * n)
    # q(R w) / R^n on |w| = 1: the signs and Newton steps of q on |z| = R,
    # with values near 1 where z q'(z) would overflow near R^n = 2^1023
    kernel = JetKernel(
        Poly([a * R ** (k - n) for k, a in enumerate(q.coeffs)]), 4 * n)
    asym = np.array([(2 * i + 1) * math.pi / (2 * n) for i in range(2 * n)]
                    + [i * math.pi / n for i in range(2 * n)])
    is_p = np.arange(4 * n) < 2 * n

    def field(theta):
        # Re q (P-nodes) or Im q (Q-nodes) at the angles theta, and its
        # derivative in theta, Re or Im of i z q'(z)
        z = np.exp(1j * theta)
        w, dw = kernel(z, rows=2)
        t = z * dw
        return np.where(is_p, w.real, w.imag), np.where(is_p, -t.imag, t.real)

    def name(bad):
        j = np.flatnonzero(bad)[0]
        return j, f"P-node {j}" if j < 2 * n else f"Q-node {j - 2 * n}"

    lo, hi = asym - half, asym + half
    flo = field(lo)[0]
    bad = ~(np.sign(flo) * np.sign(field(hi)[0]) < 0)
    if bad.any():
        j, node = name(bad)
        raise BracketFailure(f"no sign change for {node} in [{lo[j]:.6f}, "
                             f"{hi[j]:.6f}] at R = {R:.6g}")
    theta = asym
    moving = np.ones(4 * n, dtype=bool)
    for _ in range(_MAX_PASSES):
        f, df = field(theta)
        bad = moving & ~(np.isfinite(f) & np.isfinite(df))
        if bad.any():
            raise ConvergenceFailure(
                f"non-finite field at {name(bad)[1]} on |z| = {R:.6g}")
        # lo keeps the sign of the field at the bracket's start
        at_lo = moving & ((f > 0) == (flo > 0))
        lo = np.where(at_lo, theta, lo)
        hi = np.where(moving & ~at_lo, theta, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = theta - f / df
        tol = 1e-12 + _NEWTON_RTOL * np.abs(theta)
        # a Newton step below the stop rule is taken even onto an end
        inside = (np.abs(newton - theta) < tol) | (
            (lo < newton) & (newton < hi))
        new = np.where(inside, newton, 0.5 * (lo + hi))
        done = (f == 0) | (np.abs(new - theta) < tol)
        theta = np.where(moving & (f != 0), new, theta)
        moving &= ~done
        if not moving.any():
            break
    else:
        raise ConvergenceFailure(f"{name(moving)[1]} still moving after "
                                 f"{_MAX_PASSES} Newton passes")
    bad = ~(np.sign(field(theta - 1e-12)[0])
            * np.sign(field(theta + 1e-12)[0]) < 0)
    if bad.any():
        j, node = name(bad)
        raise ConvergenceFailure(f"{node} at {theta[j]:.15f}: no sign change "
                                 f"within 1e-12 on |z| = {R:.6g}")
    nodes = sorted(
        (BoundaryNode(P_KIND if j < 2 * n else Q_KIND, j % (2 * n),
                      t % (2.0 * math.pi), a, t - a)
         for j, (t, a) in enumerate(zip(theta.tolist(), asym.tolist()))),
        key=lambda nd: nd.angle)
    return NodeSet(float(R), tuple(nodes))


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
    its asymptote, with arg q monotone across it, so a few lockstep
    Newton passes find them all."""
    ns = boundary_nodes(p, annulus_radius(p))
    interleaving_check(ns)
    return ns
