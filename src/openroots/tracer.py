"""Continuation of the level curves g = eps1 and h = eps2 inside the disc.

Each curve component enters the disc at a boundary node, runs through
the interior, and exits at another node of the same kind; tracing every
component yields a fixed-point-free pairing (matching) of the P-nodes
and of the Q-nodes.  The constant shifts eps1, eps2 are chosen first so
that neither level passes through a critical point of f, making both
curves regular everywhere.

The tracer is an arclength predictor-corrector: predictor along the
rotated gradient, corrector by damped Newton along the gradient.  Each
step is proven: the Taylor coefficients at the accepted point bound f'
on a disc holding the step, so the level line is one graph there and
the step cannot jump to another branch (``_trace_lanes``).  All 4n
boundary nodes are traced in lockstep on numpy arrays, one lane per
node, so each arc is traced from both ends.  Two audits of the samples
run on every solve: the reverse audit (both traces of an arc pair the
nodes alike) and the separation audit (distinct components do not
merge).  The tests also check the bounded extrema count and the slope
law along the samples (test_extrema_budget, test_slope_cross_check).

Steps and tolerances are fixed multiples of the disc radius R, or of
max(1, R)**n for values of f (the constants below); each function
works them out from nodes.R and prob.base.degree.
"""

import math
from dataclasses import dataclass

from .annulus import P_KIND, Q_KIND
from .errors import (
    InvalidMatching,
    MatchingInconsistency,
    NodeSnapAmbiguity,
    StepUnderflow,
)
from .polycore import (
    JetKernel,
    LazyNumpy,
    Poly,
    critical_points,
    eval_jet,
    eval_poly,
    eval_with_derivative,
)

np = LazyNumpy(globals())

FIELD_G = "g"
FIELD_H = "h"

_KIND_FOR_FIELD = {FIELD_G: P_KIND, FIELD_H: Q_KIND}
_FIELD_FOR_KIND = {P_KIND: FIELD_G, Q_KIND: FIELD_H}

# Steps and position tolerances, times R.  The step certificate sets the
# steps; MAX_STEP bounds them where it cannot: with no k >= 2 terms (degree
# 1) the certified radius is infinite, and an infinite step never lands.
# On random inputs of degree 4 and up the certificate's steps stay below
# R / 4, so there the cap sets none.
MAX_STEP = 1 / 4
FIRST_STEP = 1 / 512
MIN_STEP = 1e-12
POS_TOL = 1e-9  # corrector stop
MERGE_TOL = 1e-6  # separation audit: closest allowed approach
BOUNDARY_MARGIN = 1e-3  # landing band inside the circle
# Field-value tolerances, times max(1, R)**n
ON_CURVE_TOL = 1e-8
OTHER_FLOOR = 1e-4  # separation audit: the other field counts as zero
MAX_STEPS = 500_000  # step budget of one lockstep trace


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
    samples: "np.ndarray"
    start_node: object
    end_node: object

    @property
    def length(self):
        """Length of the sample polyline."""
        return float(np.hypot(*np.diff(self.samples, axis=0).T).sum())

    def endpoint_indices(self):
        return (self.start_node.index, self.end_node.index)


@dataclass(frozen=True)
class Matching:
    """Fixed-point-free involution on node indices [0, 2n)."""

    pairs: tuple

    def validate(self, count=None, name="matching"):
        """Returns self when pairs is a fixed-point-free involution on
        [0, count) (count defaults to len(pairs)); raises InvalidMatching,
        naming the first offending entry, otherwise."""
        pairs = self.pairs
        if count is not None and len(pairs) != count:
            raise InvalidMatching(
                f"{name} has {len(pairs)} entries, expected {count}")
        for i, j in enumerate(pairs):
            if not 0 <= j < len(pairs):
                raise InvalidMatching(
                    f"{name}: {i} -> {j} is outside [0, {len(pairs)})")
            if j == i:
                raise InvalidMatching(f"{name}: {i} is paired with itself")
            if pairs[j] != i:
                raise InvalidMatching(
                    f"{name}: {i} -> {j} but {j} -> {pairs[j]}")
        return self

    def arcs(self):
        return [(i, j) for i, j in enumerate(self.pairs) if i < j]


def _value_scale(prob, R):
    # max(1, R)**n, the size of f on the disc; the field-value
    # tolerances are multiples of it
    return max(1.0, R) ** prob.base.degree


def _field_eval(prob, field, x, y):
    # Value and gradient of the selected shifted component at (x, y).
    # Both gradients come from one f'(z), so Cauchy-Riemann holds exactly.
    w, d = eval_with_derivative(prob.base, complex(x, y))
    if field == FIELD_G:
        return w.real - prob.eps1, d.real, -d.imag
    return w.imag - prob.eps2, d.imag, d.real


def perturb_regular(p, tol=1e-9):
    """Pick eps1, eps2 so the shifted levels miss every critical point.

    tol is the pipeline's target residual; critical points are found to
    residual 100 * tol.  eps is the smallest candidate from
    {0, +d0, -d0, +2d0, ...} (d0 = 1e-6 * scale) at distance > d0/2 from
    the relevant critical values; the finitely many critical values
    guarantee a quick find.
    """
    base = p.monic()
    if base.degree >= 2:
        crit = critical_points(base, 100.0 * tol)
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


def _land_on_circle(prob, field, x, y, R):
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
            if abs(val) > ON_CURVE_TOL * _value_scale(prob, R):
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


# the step after an accepted point is _REACH times the radius the largest
# term of its certificate allows alone, and at most _CAP * MAX_STEP * R
# (so that a chord a little longer than the step passes)
_REACH, _CAP = 0.7, 0.95
# steps per block of the lockstep tracer's sample history
_BLOCK = 256


def _floor_matrix(kernel):
    """K |C(m + k, k) a_(m+k)|, k = 1..n, K = gamma_(20n+20), from the
    kernel's matrix.  Times the kernel's |fl(z^m)| it gives F_1..F_n,
    each within gamma_(4n+8) of K M_k, M_k = sum_j C(j, k) |a_j|
    |z|^(j-k) (entries gamma_4, powers gamma_(3n+2), product gamma_(n+1)).

    The step test is S^ <= fl(fl(|b^_1| - F_1) / sqrt 2), S^ the
    computed sum over k >= 2 of k (|b^_k| + F_k) r^(k-1).  It rounds
    each term at most 4n times (abs, sum, k, the chord and its powers,
    product), the sum n - 2 more and the right side 4 times, so a
    passing test gives sum_(k>=2) k (|b^_k| + F_k) r^(k-1) <= (|b^_1| -
    F_1) / sqrt 2 + gamma_(5n+6) |b^_1|.  As |b^_k - b_k| <=
    gamma_(6n+5) M_k (JetKernel) and |b^_1| <= 1.1 M_1, F_k covers both
    errors: sum_(k>=2) k |b_k| r^(k-1) < |b_1| / sqrt 2 for the exact
    b_k (M_1 > 0, barring underflow).  The floor of the test is at
    least sum_k k F_k r^(k-1) / sqrt 2, about K M'(|z| + r) / sqrt 2
    for M'(x) = sum_j j |a_j| x^(j-1).
    """
    m = 20 * len(kernel.matrix) * 2.0 ** -53
    return m / (1.0 - m) * np.abs(kernel.matrix[1:])


def _trace_lanes(prob, nodes, starts):
    """Trace the curves from every node of ``starts`` at once, in lockstep.

    Lane k starts at starts[k] and traces g (P-node) or h (Q-node); its
    state (position z, unit tangent, step h, the step certificate at z,
    entered and active flags) lives in arrays, so every check of the
    scalar predictor-corrector runs once per step for all lanes.  Lanes
    stay resident after they land: masks, not compaction, select the
    lanes a result applies to, because the cost of a step is its number
    of numpy calls, not its number of lanes.

    A step predicts z + h t, corrects by damped Newton along the
    gradient, and accepts the corrected point u only when it is on the
    curve, its chord r = |u - z| is at most MAX_STEP * R, and the Taylor
    coefficients b_k of the traced c f at z (c = 1 or -i) prove
    sum_(k>=2) k |b_k| r^(k-1) + floor <= |b_1| / sqrt 2, the floor
    bounding the rounding of the b_k and of the test (_floor_matrix).
    Then |f'(w) - f'(z)| < |f'(z)| / sqrt 2 on the disc |w - z| <= r,
    so f' stays within 45 degrees of f'(z): the field is strictly
    monotone along every normal of the tangent at z, its level line is
    one graph over that tangent in the disc, and u lies on z's branch.
    A failed test halves h; an accepted one sets h from the certificate
    at u (_REACH, _CAP).

    Returns (ends, samples): the snapped end node of each lane, and
    samples(k), the (m, 2) points of lane k from its start node to its
    landing point.
    """
    R = nodes.R
    n = prob.base.degree
    max_step = R * MAX_STEP
    min_step = R * MIN_STEP
    pos_tol = R * POS_TOL
    margin = R * BOUNDARY_MARGIN
    L = len(starts)
    # the traced field is Re(c f): c = 1 on g-lanes, -i on h-lanes.  Its
    # gradient is conj(c f'), so -val / (c f') is the Newton step
    # -val * grad / |grad|^2 and i conj(c f') / |f'| the unit tangent.
    c = np.array([1.0 if nd.kind == P_KIND else -1j for nd in starts])
    shifted = prob.shifted()
    kernel = JetKernel(shifted, L, c)
    floor = _floor_matrix(kernel)
    weights = np.arange(2.0, n + 1.0)[:, None]  # k, for k = 2..n
    exponents = 1.0 / (weights - 1.0)  # 1 / (k - 1)
    start_z, t = (
        np.array(col) for col in zip(*(_start(prob, nd, R) for nd in starts)))
    near_circle = R - margin
    inside = R - 2.0 * margin

    def floats(*shape):
        return np.empty(shape or (L,))

    halfh, nrm, fac, rr, cos, sgrad, reach = (floats() for _ in range(7))
    pred, dz, diff, tn = (np.empty(L, dtype=complex) for _ in range(4))
    tn_imag = tn.imag
    pending, flag, rej = (np.empty(L, dtype=bool) for _ in range(3))
    # views are taken once: the loop below is bound by its numpy calls
    val, der = kernel.out[0].real, kernel.out[1]
    u = np.empty(L, dtype=complex)
    # |b_1|, ..., |b_n| and F_1, ..., F_n at u (_floor_matrix); the
    # certificate at u and at z, each as the row (|b_1| - F_1) / sqrt 2
    # over the rows k (|b_k| + F_k), k = 2..n; powers of the chord r^1,
    # ..., r^(n-1), and the terms of the test sum
    mags, floors, cert_u, cert_z = (floats(n, L) for _ in range(4))
    pw_abs = floats(n + 1, L)
    limit_u, terms_u = cert_u[0], cert_u[1:]
    limit_z, terms_z = cert_z[0], cert_z[1:]
    chord_pow, ratio, cert_terms = (floats(n - 1, L) for _ in range(3))
    # one row of ``passed`` per accept test: on-curve value and chord
    # (test <= limit), certificate sum (<= limit_z), corrector converged
    test = floats(3, L)
    absval, chord, cert_sum = test
    limit = floats(2, L)
    limit[0] = ON_CURVE_TOL * _value_scale(prob, R)
    limit[1] = max_step
    passed = np.empty((4, L), dtype=bool)
    ok = np.empty(L, dtype=bool)
    # every step's corrected points and accept mask, in blocks of rows
    hist_z, hist_ok, row = [], [], _BLOCK
    ends = [None] * L
    landing = np.zeros(L, dtype=complex)

    def certify(points):
        # b_0..b_n at ``points`` into the kernel's rows, the certificate
        # into cert_u (the kernel's powers of the points give the floor),
        # and into reach the radius its largest term allows on its own
        np.abs(kernel(points)[1:], out=mags)
        np.abs(kernel.powers, out=pw_abs)
        np.matmul(floor, pw_abs, out=floors)
        np.subtract(mags[0], floors[0], out=limit_u)
        np.multiply(limit_u, math.sqrt(0.5), out=limit_u)
        np.add(mags[1:], floors[1:], out=terms_u)
        np.multiply(terms_u, weights, out=terms_u)
        np.divide(limit_u, terms_u, out=ratio)
        np.power(ratio, exponents, out=ratio)
        np.fmin.reduce(ratio, axis=0, out=reach, initial=np.inf)

    with np.errstate(all="ignore"):
        z = start_z.copy()
        certify(z)
        np.copyto(cert_z, cert_u)
        h = np.minimum(R * FIRST_STEP, _REACH * reach)
        entered = np.zeros(L, dtype=bool)
        active = np.ones(L, dtype=bool)

        for _ in range(MAX_STEPS):
            np.multiply(h, 0.5, out=halfh)
            np.multiply(t, h, out=pred)
            pred += z

            # damped Newton along the gradient, at most 5 iterations: a
            # lane stays ``pending`` until it converges (a zero gradient
            # makes u non-finite, failing the tests)
            np.copyto(u, pred)
            np.copyto(pending, active)
            for _ in range(5):
                kernel(u, 2)
                np.divide(val, der, out=dz)
                np.abs(dz, out=nrm)
                # single damping: a full step would leave the trust region
                np.maximum(nrm, halfh, out=fac)
                np.divide(halfh, fac, out=fac)
                dz *= fac
                np.subtract(u, dz, out=u, where=pending)
                np.greater(nrm, pos_tol, out=flag)
                pending &= flag
                if not np.count_nonzero(pending):
                    break
            np.greater(active, pending, out=passed[3])

            # the Taylor coefficients at u give its value and tangent, and
            # the certificate the next step from u needs
            certify(u)
            np.abs(val, out=absval)
            np.subtract(u, z, out=diff)
            np.abs(diff, out=chord)
            chord_pow[...] = chord
            np.multiply.accumulate(chord_pow, axis=0, out=chord_pow)
            np.multiply(chord_pow, terms_z, out=cert_terms)
            np.sum(cert_terms, axis=0, out=cert_sum)
            np.less_equal(test[:2], limit, out=passed[:2])
            np.less_equal(cert_sum, limit_z, out=passed[2])
            np.logical_and.reduce(passed, axis=0, out=ok)

            np.greater(active, ok, out=rej)
            if np.count_nonzero(rej):
                np.copyto(h, halfh, where=rej)
                low = np.flatnonzero(rej & (h < min_step))
                if len(low):
                    zk = z[low[0]]
                    raise StepUnderflow(
                        f"step underflow at ({zk.real:.6g}, {zk.imag:.6g}); "
                        "retry with a stronger perturbation")

            np.abs(u, out=rr)
            np.logical_and(entered, ok, out=flag)
            np.greater_equal(rr, near_circle, out=flag, where=flag)
            if np.count_nonzero(flag):
                for k in np.flatnonzero(flag):
                    hit = _land(prob, nodes, starts[k], u[k], h[k])
                    if hit is not None:
                        landing[k], ends[k] = hit
                        active[k] = ok[k] = False

            np.copyto(z, u, where=ok)
            np.copyto(cert_z, cert_u, where=ok)
            # the new unit tangent, oriented along the previous one
            np.multiply(der, t, out=tn)
            np.divide(tn_imag, mags[0], out=cos)
            np.copysign(mags[0], cos, out=sgrad)
            np.conjugate(der, out=tn)
            tn *= 1j
            np.divide(tn, sgrad, out=t, where=ok)
            if row == _BLOCK:
                hist_z.append(np.empty((_BLOCK, L), dtype=complex))
                hist_ok.append(np.zeros((_BLOCK, L), dtype=bool))
                row = 0
            hist_z[-1][row] = u
            hist_ok[-1][row] = ok
            row += 1
            np.logical_or(entered, rr < inside, out=entered, where=ok)
            # h stays within [min_step, _CAP * max_step]
            np.multiply(reach, _REACH, out=h, where=ok)
            np.minimum(h, _CAP * max_step, out=h)
            np.maximum(h, min_step, out=h)
            if not np.count_nonzero(active):
                break
        else:
            raise StepUnderflow(
                "step budget exhausted before reaching the boundary")

    def samples(k):
        pts = np.concatenate(
            [start_z[k:k + 1]]
            + [zs[:, k][oks[:, k]] for zs, oks in zip(hist_z, hist_ok)]
            + [landing[k:k + 1]])
        return np.column_stack((pts.real, pts.imag))

    return ends, samples


def _start(prob, node, R):
    # Position and inward unit tangent at a start node.
    z = complex(R * math.cos(node.angle), R * math.sin(node.angle))
    df = eval_jet(prob.base, z)[1]
    gn = abs(df)
    if gn == 0.0:
        raise StepUnderflow("vanishing gradient at the start node")
    cdf = df if node.kind == P_KIND else -1j * df
    t = 1j * cdf.conjugate() / gn
    if (t * z.conjugate()).real > 0.0:  # point into the disc
        t = -t
    return z, t


def _land(prob, nodes, start, u, step):
    # A lane that started at ``start`` accepted u near the circle: Newton
    # onto |z| = R.  A landing within reach of u replaces u, so every
    # sample stays inside the closed disc; returns it with its snapped
    # node, or None to keep tracing.
    R = nodes.R
    cand = _land_on_circle(prob, _FIELD_FOR_KIND[start.kind], u.real, u.imag,
                           R)
    if cand is None or math.hypot(cand[0] - u.real, cand[1] - u.imag) > \
            4.0 * max(step, R * BOUNDARY_MARGIN):
        return None
    end = _snap_to_node(nodes, start.kind, *cand)
    if end.index == start.index:
        raise NodeSnapAmbiguity(
            f"{start.kind}-arc from node {start.index} landed back on its "
            "start")
    return complex(*cand), end


def trace_curve(prob, field, start, nodes):
    """Trace one level-curve component from a boundary node to its partner.

    Unit tangent is the 90-degree rotation of the gradient, signed to
    point into the disc at the start and to preserve orientation after
    that.  Each step, at most MAX_STEP * R, is corrected back onto the
    curve by damped Newton and proven by the step certificate, else it
    halves (``_trace_lanes``).  Tracing ends when the boundary is
    reached again; the landing is moved onto |z| = R by Newton and
    snapped to the nearest node of the same kind.  This is the one-lane
    case of the lockstep tracer behind compute_matchings; the pipeline
    does not call it.  It is kept for library users and for the
    benchmark's probes, which count its calls and samples.
    """
    if _KIND_FOR_FIELD[field] != start.kind:
        raise ValueError(f"field {field!r} cannot start at a {start.kind}-node")
    ends, samples = _trace_lanes(prob, nodes, (start,))
    return Arc(field=field, samples=samples(0), start_node=start,
               end_node=ends[0])


def reverse_audit(kind, ends):
    """The matching traced from both ends of every arc: lane i reached
    node ends[i], so ends[ends[i]] == i must hold for every i.  Returns
    the Matching; raises MatchingInconsistency otherwise."""
    try:
        return Matching(pairs=tuple(ends)).validate(name=f"{kind}-lane ends")
    except InvalidMatching as exc:
        raise MatchingInconsistency(f"reverse audit failed: {exc}") from exc


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


def separation_audit(arcs, prob, R):
    """Distinct same-field arcs must stay MERGE_TOL * R apart, except
    where the other field is bounded away from zero (a mere crossing of
    the conjugate family, not a merger).  Raises MatchingInconsistency."""
    other = {FIELD_G: FIELD_H, FIELD_H: FIELD_G}
    merge_tol = R * MERGE_TOL
    other_floor = OTHER_FLOOR * _value_scale(prob, R)
    for field in (FIELD_G, FIELD_H):
        group = [a.samples for a in arcs if a.field == field]
        i, j, k, dist, m = _close_pairs(group, merge_tol)
        for row in range(len(i)):
            a, b = int(i[row]), int(j[row])
            mid = 0.5 * (group[b][k[row]] + group[a][m[row]])
            oval, _, _ = _field_eval(prob, other[field], mid[0], mid[1])
            if abs(oval) <= other_floor:
                pair = (i == a) & (j == b)
                raise MatchingInconsistency(
                    f"{field}-arcs {a} and {b} within "
                    f"{dist[pair].min():.3e} of each other near "
                    f"({mid[0]:.6g}, {mid[1]:.6g})")


def compute_matchings(prob, ns):
    """Trace every component of both families inside the disc.

    Returns (matchP, matchQ, arcs) with exactly n P-arcs and n Q-arcs.
    All 4n boundary nodes are traced at once, so every arc is traced
    from both of its ends; the two traces must agree (the reverse audit)
    and the one from the lower node index is kept.  The separation audit
    runs before returning.
    """
    match_p, match_q, arcs = _audited_arcs(prob, ns)
    separation_audit(arcs, prob, ns.R)
    return match_p, match_q, arcs


def _audited_arcs(prob, ns):
    # The traces of all lanes (the sample history dies on return, before
    # the separation audit needs its memory), the reverse audit, and the
    # arcs of the lower-index lanes.
    starts = ns.of_kind(P_KIND) + ns.of_kind(Q_KIND)
    count = len(starts) // 2
    ends, samples = _trace_lanes(prob, ns, starts)
    matchings, arcs = [], []
    for offset in (0, count):
        kind = starts[offset].kind
        match = reverse_audit(
            kind, [nd.index for nd in ends[offset:offset + count]])
        matchings.append(match)
        for i, _ in match.arcs():
            arcs.append(Arc(field=_FIELD_FOR_KIND[kind],
                            samples=samples(offset + i),
                            start_node=starts[offset + i],
                            end_node=ends[offset + i]))
    return matchings[0], matchings[1], arcs
