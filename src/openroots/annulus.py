"""Boundary structure on the large circle |z| = R.

For R large enough, the zero sets of g = Re f and h = Im f cross the
circle at 2n + 2n nodes, each within 1 degree of the asymptotic angles
(2i+1) pi / 2n (P-nodes, where the leading term's cosine vanishes) and
i pi / n (Q-nodes, sine).  R is accepted when the signs of g and h at
the 4n midpoint angles between asymptotes, on both circles R and R + 1,
agree with the leading term alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import reich_radius
from .errors import BracketFailure, ConvergenceFailure, InterleavingViolation
from .polycore import eval_jets, eval_poly

P_KIND = "P"
Q_KIND = "Q"

# relative part of the bisection stop rule, 4 * machine epsilon
_BISECT_RTOL = 4.0 * np.finfo(float).eps


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


def _monic(p):
    return p.monic()


def _leading_sign_ok(q, R):
    # Signs of g and h at the 4n midpoints, circles R and R+1, must match
    # the leading term R^n cos(n theta) / R^n sin(n theta).
    n = q.degree
    mid = (np.arange(4 * n) * math.pi / (2 * n)) + math.pi / (4 * n)
    for rho in (R, R + 1.0):
        vals = eval_jets(q, rho * np.exp(1j * mid), 0)[0]
        lead = rho**n * np.exp(1j * n * mid)
        if np.any(np.sign(vals.real) != np.sign(lead.real)):
            return False
        if np.any(np.sign(vals.imag) != np.sign(lead.imag)):
            return False
    return True


def annulus_radius(p):
    """Smallest power-of-2 multiple of the properness radius whose
    midpoint signs on circles R and R+1 match the leading term."""
    if p.degree < 1:
        raise ConvergenceFailure("annulus radius needs degree >= 1")
    q = _monic(p)
    R = reich_radius(q)
    while not _leading_sign_ok(q, R):
        R *= 2.0
    return R


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
    of its asymptote; the radius acceptance test guarantees a sign
    change there.  Angles are resolved to 1e-12.
    """
    q = _monic(p)
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


def locate_boundary_nodes(p, max_doublings=60):
    """Accepted radius plus nodes with every deviation <= 1 degree.

    The sign test alone only confines nodes to their brackets; R is
    doubled until the 1-degree deviation bound from the asymptotic
    angles holds as well (deviations shrink like 1/R).
    """
    bound = math.pi / 180.0
    R = annulus_radius(p)
    for _ in range(max_doublings):
        ns = boundary_nodes(p, R)
        if max(abs(nd.deviation) for nd in ns.nodes) <= bound:
            interleaving_check(ns)
            return ns
        R *= 2.0
    raise ConvergenceFailure("deviation bound not reached while doubling R")
