"""Continuation of the level curves g = eps1 and h = eps2 inside the disc.

Each curve component enters the disc at a boundary node, runs through
the interior, and exits at another node of the same kind; tracing every
component yields a fixed-point-free pairing (matching) of the P-nodes
and of the Q-nodes.  The constant shifts eps1, eps2 are chosen first so
that neither level passes through a critical point of f, making both
curves regular everywhere.

The tracer is an arclength predictor-corrector: predictor along the
rotated gradient, corrector by damped Newton along the gradient.  A
single parametrization replaces coordinate-swapped monotone patches;
the patch-style guarantees (bounded extrema count, slope law, no
merging of distinct components) are audited on the samples instead.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .annulus import P_KIND, Q_KIND
from .errors import (
    MatchingInconsistency,
    NodeSnapAmbiguity,
    StepUnderflow,
)
from .polycore import (
    Poly,
    critical_points,
    eval_jet,
    eval_poly,
    eval_with_derivative,
)

FIELD_G = "g"
FIELD_H = "h"

_KIND_FOR_FIELD = {FIELD_G: P_KIND, FIELD_H: Q_KIND}
_FIELD_FOR_KIND = {P_KIND: FIELD_G, Q_KIND: FIELD_H}


@dataclass(frozen=True)
class PerturbedProblem:
    """The shifted problem g = eps1, h = eps2, i.e. f(z) = eps1 + i eps2.

    ``base`` is stored monic so the boundary-node machinery and the
    traced fields agree; eps1/eps2 keep every critical value of g and h
    at distance > margin from the traced levels.
    """

    base: Poly
    eps1: float
    eps2: float

    def shifted(self):
        """The polynomial f - (eps1 + i eps2), whose g/h zero sets are
        exactly the perturbed curves."""
        c0 = self.base.coeffs[0] - complex(self.eps1, self.eps2)
        return Poly((c0,) + self.base.coeffs[1:])


@dataclass(frozen=True)
class Arc:
    """One traced component: samples from start node to end node."""

    field: str
    samples: np.ndarray
    start_node: object
    end_node: object
    length: float

    def endpoint_indices(self):
        return (self.start_node.index, self.end_node.index)


@dataclass(frozen=True)
class Matching:
    """Fixed-point-free involution on node indices [0, 2n)."""

    pairs: tuple

    def validate(self):
        m = len(self.pairs)
        for i, j in enumerate(self.pairs):
            if not (0 <= j < m) or j == i or self.pairs[j] != i:
                return False
        return True

    def arcs(self):
        return [(i, j) for i, j in enumerate(self.pairs) if i < j]


@dataclass(frozen=True)
class TraceControl:
    """Step-size and tolerance knobs for the continuation."""

    max_step: float
    min_step: float
    first_step: float
    pos_tol: float
    on_curve_tol: float
    node_tol: float
    merge_tol: float
    other_floor: float
    boundary_margin: float
    turn_cap: float = 0.05
    max_steps: int = 500_000
    seed: int = 0

    @classmethod
    def for_disc(cls, R, degree, seed=0):
        scale = max(1.0, R) ** degree
        return cls(
            max_step=R / 64.0,
            min_step=R * 1e-12,
            first_step=R / 512.0,
            pos_tol=1e-9 * R,
            on_curve_tol=1e-8 * scale,
            node_tol=1e-6 * R,
            merge_tol=1e-6 * R,
            other_floor=1e-4 * scale,
            boundary_margin=1e-3 * R,
            seed=seed,
        )


def _field_parts(prob, field, w, d):
    # Value and gradient of the selected shifted component from f and f'.
    if field == FIELD_G:
        return w.real - prob.eps1, d.real, -d.imag
    return w.imag - prob.eps2, d.imag, d.real


def _field_eval(prob, field, x, y):
    # Value and gradient of the selected shifted component at (x, y).
    w, d = eval_with_derivative(prob.base, complex(x, y))
    return _field_parts(prob, field, w, d)


def perturb_regular(p, tol=1e-9):
    """Pick eps1, eps2 so the shifted levels miss every critical point.

    eps is the smallest candidate from {0, +d0, -d0, +2d0, ...}
    (d0 = 1e-6 * scale) at distance > d0/2 from the relevant critical
    values; the finitely many critical values guarantee a quick find.
    """
    base = p.monic()
    if base.degree >= 2:
        crit = critical_points(base, tol)
    else:
        crit = []
    vals = [eval_poly(base, c) for c in crit]
    gvals = [v.real for v in vals]
    hvals = [v.imag for v in vals]
    scale = max([1.0] + [abs(v) for v in gvals + hvals])
    delta0 = 1e-6 * scale
    return PerturbedProblem(
        base=base,
        eps1=_pick_eps(gvals, delta0),
        eps2=_pick_eps(hvals, delta0),
    )


def _pick_eps(vals, delta0):
    margin = 0.5 * delta0
    k = 0
    while True:
        cands = [0.0] if k == 0 else [k * delta0, -k * delta0]
        for c in cands:
            if all(abs(v - c) > margin for v in vals):
                return c
        k += 1


def _corrector(prob, field, x0, y0, px, py, h, ctrl):
    # Damped Newton along the gradient from the predicted point.
    # Returns (x, y, tangent_x, tangent_y, iters, jet) or None on failure;
    # jet is eval_jet at the accepted point, reused by the next step.
    u, v = px, py
    for it in range(5):
        val, fx, fy = _field_eval(prob, field, u, v)
        g2 = fx * fx + fy * fy
        if g2 == 0.0:
            return None
        du = -val * fx / g2
        dv = -val * fy / g2
        nrm = math.hypot(du, dv)
        if nrm > 0.5 * h:
            # single damping: a full step would leave the trust region
            scalefac = 0.5 * h / nrm
            du *= scalefac
            dv *= scalefac
        u += du
        v += dv
        if math.hypot(u - px, v - py) > 0.75 * h:
            return None  # corrector wandered; risk of branch jumping
        if nrm <= ctrl.pos_tol:
            jet = eval_jet(prob.base, complex(u, v))
            val, fx, fy = _field_parts(prob, field, jet[0], jet[1])
            if abs(val) > ctrl.on_curve_tol:
                return None
            gn = math.hypot(fx, fy)
            if gn == 0.0:
                return None
            chord = math.hypot(u - x0, v - y0)
            if chord > ctrl.max_step:
                return None
            # mid-chord audit: the chord of a genuine curve segment stays
            # close to the curve; a branch jump does not
            mval, mfx, mfy = _field_eval(prob, field,
                                         0.5 * (x0 + u), 0.5 * (y0 + v))
            mgn = math.hypot(mfx, mfy)
            if mgn > 0.0 and abs(mval) / mgn > 0.15 * chord + 2.0 * ctrl.pos_tol:
                return None
            return u, v, -fy / gn, fx / gn, it + 1, jet
    return None


def _land_on_circle(prob, field, x, y, R, ctrl):
    # Newton on the 2x2 system (field = 0, |z| = R) from (x, y).
    u, v = x, y
    for _ in range(30):
        val, fx, fy = _field_eval(prob, field, u, v)
        circ = (u * u + v * v - R * R) / (2.0 * R)
        a, b = fx, fy
        c, d = u / R, v / R
        det = a * d - b * c
        if abs(det) < 1e-300:
            return None
        du = (-val * d + circ * b) / det
        dv = (-a * circ + c * val) / det
        u += du
        v += dv
        if math.hypot(du, dv) <= 1e-12 * R:
            val, _, _ = _field_eval(prob, field, u, v)
            if abs(val) > ctrl.on_curve_tol:
                return None
            return u, v
    return None


def _snap_to_node(nodes, kind, x, y):
    # Nearest same-kind node by cyclic angle, within half the minimal
    # same-kind spacing.
    two_pi = 2.0 * math.pi
    theta = math.atan2(y, x) % two_pi
    family = nodes.of_kind(kind)
    angles = sorted(nd.angle for nd in family)
    gaps = [(angles[(i + 1) % len(angles)] - angles[i]) % two_pi
            for i in range(len(angles))]
    window = 0.5 * min(gaps)

    best, best_d = None, float("inf")
    for nd in family:
        d = abs((theta - nd.angle + math.pi) % two_pi - math.pi)
        if d < best_d:
            best, best_d = nd, d
    if best is None or best_d >= window:
        raise NodeSnapAmbiguity(
            f"landing angle {theta:.6f} is {best_d:.3e} rad from the nearest "
            f"{kind}-node, beyond the snap window {window:.3e}")
    return best


def trace_curve(prob, field, start, nodes, ctrl=None):
    """Trace one level-curve component from a boundary node to its partner.

    Unit tangent is the 90-degree rotation of the gradient, signed to
    point into the disc at the start and to preserve orientation after
    that.  The predictor step adapts between min_step and max_step;
    each predicted point is corrected back onto the curve by damped
    Newton (at most 5 iterations, else the step halves).  Tracing ends
    when the boundary is reached again; the landing is refined onto
    |z| = R and snapped to the nearest node of the same kind.
    """
    if _KIND_FOR_FIELD[field] != start.kind:
        raise ValueError(f"field {field!r} cannot start at a {start.kind}-node")
    R = nodes.R
    if ctrl is None:
        ctrl = TraceControl.for_disc(R, prob.base.degree)

    x = R * math.cos(start.angle)
    y = R * math.sin(start.angle)
    jet = eval_jet(prob.base, complex(x, y))
    _, fx, fy = _field_parts(prob, field, jet[0], jet[1])
    gn = math.hypot(fx, fy)
    if gn == 0.0:
        raise StepUnderflow("vanishing gradient at the start node")
    tx, ty = -fy / gn, fx / gn
    if tx * x + ty * y > 0.0:  # point into the disc
        tx, ty = -tx, -ty

    samples = [(x, y)]
    h = ctrl.first_step
    cos_cap = math.cos(ctrl.turn_cap)
    entered = False
    landing = None
    total_len = 0.0

    for _ in range(ctrl.max_steps):
        # conformal feature scale |f'| / |f''| caps the step: level-curve
        # branches only crowd together around critical points, and there
        # this ratio collapses, forcing steps finer than the branch gap
        _, dfz, d2fz = jet
        if d2fz != 0.0:
            h_eff = max(min(h, 0.25 * abs(dfz) / abs(d2fz)), ctrl.min_step)
        else:
            h_eff = h
        hit = _corrector(prob, field, x, y, x + h_eff * tx, y + h_eff * ty,
                         h_eff, ctrl)
        if hit is not None:
            nx, ny, ntx, nty, iters, njet = hit
            if ntx * tx + nty * ty < 0.0:
                ntx, nty = -ntx, -nty
            if ntx * tx + nty * ty < cos_cap:
                hit = None  # turned too sharply; refine
        if hit is None:
            h = 0.5 * h_eff
            if h < ctrl.min_step:
                raise StepUnderflow(
                    f"step underflow at ({x:.6g}, {y:.6g}); "
                    "retry with a stronger perturbation")
            continue

        rr = math.hypot(nx, ny)
        if entered and rr >= R - ctrl.boundary_margin:
            cand = _land_on_circle(prob, field, nx, ny, R, ctrl)
            if cand is not None and math.hypot(cand[0] - nx, cand[1] - ny) <= \
                    4.0 * max(h_eff, ctrl.boundary_margin):
                landing = cand
                break
        total_len += math.hypot(nx - x, ny - y)
        x, y, tx, ty, jet = nx, ny, ntx, nty, njet
        samples.append((x, y))
        if rr < R - 2.0 * ctrl.boundary_margin:
            entered = True
        if iters <= 2:
            h = min(0.8 * ctrl.max_step, 1.25 * h)
        elif iters >= 4:
            h = max(ctrl.min_step, 0.7 * h)
    if landing is None:
        raise StepUnderflow("step budget exhausted before reaching the boundary")

    # the step that crossed the boundary region is replaced by the exact
    # landing point so every sample stays inside the closed disc
    total_len += math.hypot(landing[0] - x, landing[1] - y)
    samples.append(landing)
    end = _snap_to_node(nodes, start.kind, landing[0], landing[1])
    if end.index == start.index:
        raise NodeSnapAmbiguity(
            f"{start.kind}-arc from node {start.index} landed back on its start")
    return Arc(
        field=field,
        samples=np.asarray(samples, dtype=float),
        start_node=start,
        end_node=end,
        length=total_len,
    )


def _trace_kind(prob, nodes, kind, ctrl):
    # Sequential sweep: trace from each unvisited node, mark both ends.
    family = nodes.of_kind(kind)
    count = len(family)
    pairs = [-1] * count
    arcs = []
    field = _FIELD_FOR_KIND[kind]
    for node in family:
        if pairs[node.index] != -1:
            continue
        arc = trace_curve(prob, field, node, nodes, ctrl)
        j = arc.end_node.index
        if pairs[j] != -1:
            raise MatchingInconsistency(
                f"{kind}-node {j} claimed twice (arcs from "
                f"{pairs[j]} and {node.index})")
        pairs[node.index] = j
        pairs[j] = node.index
        arcs.append(arc)
    return Matching(pairs=tuple(pairs)), arcs


def index_runs(lo, hi):
    """Flatten the index ranges [lo[r], hi[r]) of integer arrays lo, hi:
    returns (r, index) arrays with one entry per index, in row order."""
    counts = hi - lo
    rows = np.repeat(np.arange(len(lo)), counts)
    shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return rows, np.arange(len(rows)) + shift


def _close_pairs(arcs, tol):
    """Near sample pairs between arcs, found on a uniform grid.

    ``arcs`` is a list of (m, 2) sample arrays.  For each sample k of arc
    j and each arc i < j whose nearest sample to it lies closer than
    ``tol``, one row (i, j, k, dist, m): m is the index in arc i of that
    nearest sample, the lowest one on ties.  Rows come sorted by
    (i, j, k).  Cells are a hair wider than ``tol`` (so rounding in
    x / cell cannot put two points closer than tol two cells apart),
    which makes the 3 x 3 cell neighbourhood an exact search.
    """
    empty = np.zeros(0, dtype=np.int64)
    if len(arcs) < 2:
        return empty, empty, empty, np.zeros(0), empty
    pts = np.concatenate(arcs)
    sizes = [len(a) for a in arcs]
    arc = np.repeat(np.arange(len(arcs)), sizes)
    local = np.concatenate([np.arange(m) for m in sizes])
    cells = np.floor(pts / (tol * (1.0 + 1e-6))).astype(np.int64)
    cells -= cells.min(axis=0) - 1  # >= 1, so every neighbour key is >= 0
    width = int(cells[:, 1].max()) + 2
    cell = cells[:, 0] * width + cells[:, 1]
    # sort by (cell, arc): the samples of arcs < j in one cell form a run
    key = cell * len(arcs) + arc
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]

    src_parts, cand_parts, dist_parts = [], [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            first = (cell + dx * width + dy) * len(arcs)
            src, pos = index_runs(np.searchsorted(sorted_key, first),
                                  np.searchsorted(sorted_key, first + arc))
            cand = order[pos]
            diff = pts[src] - pts[cand]
            dist = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
            close = dist < tol
            src_parts.append(src[close])
            cand_parts.append(cand[close])
            dist_parts.append(dist[close])
    src = np.concatenate(src_parts)
    cand = np.concatenate(cand_parts)
    dist = np.concatenate(dist_parts)
    # per (i, j, k) the nearest candidate, lowest sample index on ties
    rank = np.lexsort((local[cand], dist, local[src], arc[src], arc[cand]))
    i, j, k = arc[cand][rank], arc[src][rank], local[src][rank]
    head = np.ones(len(rank), dtype=bool)
    head[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1]) | (k[1:] != k[:-1])
    rank = rank[head]
    return i[head], j[head], k[head], dist[rank], local[cand][rank]


def separation_audit(arcs, prob, ctrl):
    """Distinct same-field arcs must stay merge_tol apart, except where
    the other field is bounded away from zero (a mere crossing of the
    conjugate family, not a merger).  Raises MatchingInconsistency."""
    other = {FIELD_G: FIELD_H, FIELD_H: FIELD_G}
    for field in (FIELD_G, FIELD_H):
        group = [a.samples for a in arcs if a.field == field]
        i, j, k, dist, m = _close_pairs(group, ctrl.merge_tol)
        for row in range(len(i)):
            a, b = int(i[row]), int(j[row])
            mid = 0.5 * (group[b][k[row]] + group[a][m[row]])
            oval, _, _ = _field_eval(prob, other[field], mid[0], mid[1])
            if abs(oval) <= ctrl.other_floor:
                pair = (i == a) & (j == b)
                raise MatchingInconsistency(
                    f"{field}-arcs {a} and {b} within "
                    f"{dist[pair].min():.3e} of each other near "
                    f"({mid[0]:.6g}, {mid[1]:.6g})")


def compute_matchings(prob, ns, ctrl=None):
    """Trace every component of both families inside the disc.

    Returns (matchP, matchQ, arcs) with exactly n P-arcs and n Q-arcs.
    Runs the separation audit and a reverse-trace audit (one randomly
    chosen arc per family, seeded by ctrl.seed) before returning.
    """
    if ctrl is None:
        ctrl = TraceControl.for_disc(ns.R, prob.base.degree)
    match_p, arcs_p = _trace_kind(prob, ns, P_KIND, ctrl)
    match_q, arcs_q = _trace_kind(prob, ns, Q_KIND, ctrl)
    arcs = arcs_p + arcs_q

    separation_audit(arcs, prob, ctrl)

    rng = random.Random(ctrl.seed)
    for group in (arcs_p, arcs_q):
        arc = group[rng.randrange(len(group))]
        back = trace_curve(prob, arc.field, arc.end_node, ns, ctrl)
        if back.end_node.index != arc.start_node.index:
            raise MatchingInconsistency(
                f"reverse trace of a {arc.field}-arc reached node "
                f"{back.end_node.index}, expected {arc.start_node.index}")
    return match_p, match_q, arcs


def direction_change_counts(arc, floor):
    """Sign changes of dx and dy along the samples, ignoring jitter
    below ``floor`` (used to audit the extrema budget)."""
    deltas = np.diff(arc.samples, axis=0)
    out = []
    for axis in (0, 1):
        seq = deltas[:, axis]
        seq = seq[np.abs(seq) > floor]
        if len(seq) < 2:
            out.append(0)
            continue
        out.append(int(np.sum(np.sign(seq[1:]) != np.sign(seq[:-1]))))
    return tuple(out)
