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
node, and two lanes stop where one's point lies in the other's
certified disc, which proves them the two ends of one arc.  Every
solve runs the separation audit (distinct arcs do not merge), the check
that can catch a lane strayed to another branch, and the reverse audit
(the partners handed on form an involution).  The tests also check the
bounded extrema count and the slope law along the samples
(test_extrema_budget, test_slope_cross_check).

Steps and tolerances are fixed multiples of the disc radius R, or of
max(1, R)**n for values of f (the constants below); each function
works them out from nodes.R and prob.base.degree.
"""

import math
from collections import namedtuple

from .annulus import P_KIND, Q_KIND
from .errors import (
    ConvergenceFailure,
    InvalidMatching,
    MatchingInconsistency,
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
    taylor_shift,
)

np = LazyNumpy(globals())

FIELD_G = "g"
FIELD_H = "h"

_KIND_FOR_FIELD = {FIELD_G: P_KIND, FIELD_H: Q_KIND}
_FIELD_FOR_KIND = {P_KIND: FIELD_G, Q_KIND: FIELD_H}

# Steps and position tolerances, times R.  The step certificate sets the
# steps; MAX_STEP bounds them where it cannot: with no k >= 2 terms (degree
# 1) the certified radius is infinite, and an infinite step is never
# accepted.
# On random inputs of degree 4 and up the certificate's steps stay below
# R / 4, so there the cap sets none.
MAX_STEP = 1 / 4
FIRST_STEP = 1 / 512
MIN_STEP = 1e-12
POS_TOL = 1e-9  # corrector stop
MERGE_TOL = 1e-6  # separation audit: closest allowed approach
# Field-value tolerances, times max(1, R)**n
ON_CURVE_TOL = 1e-8
OTHER_FLOOR = 1e-4  # separation audit: the other field counts as zero
MAX_STEPS = 500_000  # step budget of one lockstep trace


class PerturbedProblem(namedtuple("PerturbedProblem", "base eps1 eps2")):
    """The shifted problem g = eps1, h = eps2, i.e. f(z) = eps1 + i eps2.

    ``base`` is stored monic so the boundary-node machinery and the
    traced fields agree; eps1/eps2 keep every critical value of g and h
    at distance > margin from the traced levels.
    """

    __slots__ = ()

    def shifted(self):
        """The polynomial f - (eps1 + i eps2), whose g/h zero sets are
        exactly the perturbed curves."""
        c0 = self.base.coeffs[0] - complex(self.eps1, self.eps2)
        return Poly((c0,) + self.base.coeffs[1:])


class Arc(namedtuple("Arc", "field samples start_node end_node")):
    """One traced component: samples (an (m, 2) array) from start node
    to end node."""

    __slots__ = ()

    @property
    def length(self):
        """Length of the sample polyline."""
        return float(np.hypot(*np.diff(self.samples, axis=0).T).sum())

    def endpoint_indices(self):
        return (self.start_node.index, self.end_node.index)


class Matching(namedtuple("Matching", "pairs")):
    """Fixed-point-free involution on node indices [0, 2n)."""

    __slots__ = ()

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
    residual 100 * tol, on base shifted to the mean of its roots, which
    keeps the critical values and shrinks the coefficients the descent's
    stop scales with (Wilkinson 10's p' from 2.6e7 to 1.1e4); where the
    descent stalls there, on base itself.  eps is the smallest candidate
    from {0, +d0, -d0, +2d0, ...} (d0 = 1e-6 * scale) at distance > d0/2
    from the relevant critical values; the finitely many critical values
    guarantee a quick find.
    """
    base = p.monic()
    vals = []
    if base.degree >= 2:
        try:
            vals = _critical_values(
                taylor_shift(base, -base.coeffs[-2] / base.degree), tol)
        except ConvergenceFailure:
            vals = _critical_values(base, tol)
    gvals = [v.real for v in vals]
    hvals = [v.imag for v in vals]
    scale = max([1.0] + [abs(v) for v in gvals + hvals])
    delta0 = 1e-6 * scale
    return PerturbedProblem(
        base=base,
        eps1=_pick_eps(gvals, delta0),
        eps2=_pick_eps(hvals, delta0),
    )


def _critical_values(q, tol):
    return [eval_poly(q, c) for c in critical_points(q, 100.0 * tol)]


def _pick_eps(vals, delta0):
    margin = 0.5 * delta0
    k = 0
    while True:
        cands = [0.0] if k == 0 else [k * delta0, -k * delta0]
        for c in cands:
            if all(abs(v - c) > margin for v in vals):
                return c
        k += 1


# the step after an accepted point is _REACH times the radius the largest
# term of its certificate allows alone, and at most _CAP * MAX_STEP * R
# (so that a chord a little longer than the step passes)
_REACH, _CAP = 0.7, 0.95


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
    F_1) / sqrt 2 + gamma_(5n+6) |b^_1|.  The meeting test takes r =
    fl(sqrt 2 d), two more roundings of the chord, so at most 6n per
    term and gamma_(7n+6) in all.  As |b^_k - b_k| <= gamma_(6n+5) M_k
    (JetKernel) and |b^_1| <= 1.1 M_1, F_k covers both errors:
    sum_(k>=2) k |b_k| r^(k-1) < |b_1| / sqrt 2 for the exact b_k (M_1 >
    0, barring underflow).  The floor of the test is at
    least sum_k k F_k r^(k-1) / sqrt 2, about K M'(|z| + r) / sqrt 2
    for M'(x) = sum_j j |a_j| x^(j-1).
    """
    m = 20 * len(kernel.matrix) * 2.0 ** -53
    return m / (1.0 - m) * np.abs(kernel.matrix[1:])


def _trace_lanes(prob, nodes, starts):
    """Trace the curves from every node of ``starts`` at once, in lockstep,
    until each lane meets the lane from the other end of its arc.
    ``starts`` is K blocks of H nodes, one block per kind, such as every
    P-node then every Q-node; any other layout raises ValueError.

    Lane k starts at starts[k] and traces g (P-node) or h (Q-node); its
    state (position z and the one before, tangent, step h, the step
    certificates at both positions) lives in arrays, so each check runs
    once per step for all lanes.  Paired lanes stay resident (masks, not
    compaction): a step costs its number of numpy calls, not of lanes.

    A step predicts z + h t, corrects by damped Newton along the
    gradient, and accepts the corrected point u only when it is on the
    curve, its chord r = |u - z| is at most MAX_STEP * R, and the Taylor
    coefficients b_k of the traced c f at z (c = 1 or -i) prove
    sum_(k>=2) k |b_k| r^(k-1) + floor <= |b_1| / sqrt 2, the floor
    bounding the rounding of the b_k and of the test (_floor_matrix).
    Then |f'(w) - f'(z)| < |f'(z)| / sqrt 2 on the disc |w - z| <= r,
    so f' stays within 45 degrees of f'(z): the field is strictly
    monotone along every normal of the tangent at z, its level line is
    one graph of slope at most 1 over that tangent in the disc, and u
    lies on z's branch.  A failed test halves h; an accepted one sets h
    from the certificate at u (_REACH, _CAP).

    After each step, lanes i and j of one kind meet, and stop, when the
    test above holds about c, i's point or its previous one, at rho =
    sqrt 2 d, d = |z_j - c|; distances against reach / sqrt 2 (a chord
    past ``reach`` fails on its largest term alone) pick the candidates
    from a (2, K, H, H) block, each lane against the points and previous
    points of its kind, in the meeting loop's order (centre, then lane).
    c's branch then spans every normal chord of the disc within d of c
    along the tangent, each holding one point of the level set at most,
    so z_j is on it, and the piece between lies within rho of c.  The
    meeting also needs:

    - |c| + rho < R - POS_TOL * R: the piece lies inside the circle, so
      both lanes are on one component of the level set in the disc, a
      regular arc (perturb_regular) whose two boundary nodes are their
      starts.  A lane that meets two raises MatchingInconsistency, as
      does one that steps onto or past the circle unpaired.
    - d <= _CAP * MAX_STEP * R, so the junction is no longer than a step.
    - Points on the level line, which holds up to rounding only: the
      accept tests do not bound the rounding of b_0.  No test here sees
      a lane stray to another branch; the separation audit
      (compute_matchings) stays for that.

    Lanes moving towards each other can pass in one step; the previous
    point's test is there for them.  That none passes untested is
    measured (none reached the circle unpaired on gauss corpus seeds
    0-47), not proven.  Lanes that did would walk on to the circle and
    raise, not return a wrong matching.

    Returns (ends, halves): the partner's start node of each lane, and
    halves[k], the (m, 2) points of lane k from its start node to where
    it met its partner.  The arc from starts[k] is halves[k] followed by
    its partner's half reversed.
    """
    R = nodes.R
    n = prob.base.degree
    max_step, min_step, pos_tol = R * MAX_STEP, R * MIN_STEP, R * POS_TOL
    L = len(starts)
    kinds = [nd.kind for nd in starts]
    K = len(set(kinds)) or 1
    H = L // K
    if not H or kinds != [k for k in kinds[::H] for _ in range(H)]:
        raise ValueError("starts must be one block of equal size per kind, "
                         f"as P-nodes then Q-nodes, not {''.join(kinds)}")
    # the traced field is Re(c f): c = 1 on g-lanes, -i on h-lanes.  Its
    # gradient is conj(c f'), so -val / (c f') is the Newton step
    # -val * grad / |grad|^2 and i conj(c f') / |f'| the unit tangent.
    c = np.array([1.0 if nd.kind == P_KIND else -1j for nd in starts])
    kernel = JetKernel(prob.shifted(), L, c)
    floor = _floor_matrix(kernel)
    weights = np.arange(2.0, n + 1.0)[:, None]  # k, for k = 2..n
    exponents = 1.0 / (weights - 1.0)  # 1 / (k - 1)
    start_z, t = (
        np.array(col) for col in zip(*(_start(prob, nd, R) for nd in starts)))

    def floats(*shape):
        return np.empty(shape or (L,))

    halfh, nrm, fac, rr, sgrad = (floats() for _ in range(5))
    dz, diff, tn = (np.empty(L, dtype=complex) for _ in range(3))
    tn_imag = tn.imag
    pending, flag, rej = (np.empty(L, dtype=bool) for _ in range(3))
    # views are taken once: the loop below is bound by its numpy calls
    val, der = kernel.out[0].real, kernel.out[1]
    u = np.empty(L, dtype=complex)
    # |b_1|, ..., |b_n| and F_1, ..., F_n at u (_floor_matrix); the
    # certificate at u: the row (|b_1| - F_1) / sqrt 2, the rows k (|b_k|
    # + F_k), k = 2..n, and the radius its largest term allows alone;
    # powers of the chord r^1, ..., r^(n-1), and the terms of the test sum
    mags, floors = floats(n, L), floats(n, L)
    cert_u = floats(n + 1, L)
    limit_u, terms_u, reach = cert_u[0], cert_u[1:n], cert_u[n]
    pw_abs = floats(n + 1, L)
    chord_pow, ratio, cert_terms = (floats(n - 1, L) for _ in range(3))
    # the 2L disc centres of the meeting test, each lane's point z, then
    # its previous point, with their certificates; a paired lane's
    # centres become NaN, which no distance test passes
    centre = np.concatenate((start_z, start_z))
    z, prev = centre[:L], centre[L:]
    cert = floats(n + 1, 2 * L)
    cert_z = cert[:, :L]
    limit_z, terms_z = cert_z[0], cert_z[1:n]
    lanes, centres = z.reshape(1, K, 1, H), centre.reshape(2, K, H, 1)
    radius = cert[n].reshape(2, K, H, 1)
    gap = np.empty((2, K, H, H), dtype=complex)
    dist = floats(2, K, H, H)
    near = np.empty((2, K, H, H), dtype=bool)
    pairable = ~np.eye(H, dtype=bool)  # not a lane's own centres
    # one row of ``passed`` per accept test: on-curve value and chord
    # (test <= limit), certificate sum (<= limit_z), corrector converged
    test = floats(3, L)
    absval, chord, cert_sum = test
    limit = np.array([[ON_CURVE_TOL * _value_scale(prob, R)], [max_step]])
    passed = np.empty((4, L), dtype=bool)
    ok = np.empty(L, dtype=bool)
    # every step's corrected points and accept mask, from the start nodes
    hist_z, hist_ok = [start_z], [np.ones(L, dtype=bool)]
    # each lane's partner, and whether it met it from its previous point:
    # its last accepted point is then not part of the arc
    partner, drop = [None] * L, np.zeros(L, dtype=bool)

    def certify(points):
        # b_0..b_n at ``points`` into the kernel's rows and the
        # certificate into cert_u (the kernel's powers give the floor)
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

    def meet():
        # the candidates (centre row, lane j) that pass the meeting test,
        # in row order: every lane's point before any previous point
        flat = np.flatnonzero(near)
        rows, d = flat // H, dist.ravel()[flat]
        rho = d * math.sqrt(2.0)
        pw = np.repeat(rho[None], n - 1, axis=0)
        np.multiply.accumulate(pw, axis=0, out=pw)
        good = ((d <= _CAP * max_step)
                & (np.abs(centre[rows]) + rho < R - pos_tol)
                & (np.sum(pw * cert[1:n, rows], axis=0) <= cert[0, rows]))
        js = rows % L - rows % H + flat % H  # column flat % H of row's block
        met = []
        for ci, j in zip(rows[good].tolist(), js[good].tolist()):
            i = ci % L
            if partner[i] == j:
                continue
            if partner[i] is not None or partner[j] is not None:
                raise MatchingInconsistency(
                    f"{kinds[i]}-lanes from nodes {starts[i].index} and "
                    f"{starts[j].index} meet, but one of them met another")
            partner[i], partner[j], drop[i] = j, i, ci >= L
            met += (i, j)
        active[met] = False
        z[met] = prev[met] = np.nan

    with np.errstate(all="ignore"):
        certify(z)
        cert[:, :L] = cert[:, L:] = cert_u
        h = np.minimum(R * FIRST_STEP, _REACH * reach)
        active = np.ones(L, dtype=bool)

        for _ in range(MAX_STEPS):
            np.multiply(h, 0.5, out=halfh)
            np.multiply(t, h, out=u)
            u += z

            # damped Newton along the gradient, at most 5 iterations: a
            # lane stays ``pending`` until it converges (a zero gradient
            # makes u non-finite, failing the tests)
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
            np.greater_equal(rr, R, out=flag)
            flag &= ok
            if np.count_nonzero(flag):
                nd = starts[int(np.flatnonzero(flag)[0])]
                raise MatchingInconsistency(
                    f"{nd.kind}-lane from node {nd.index} reached the circle "
                    "unpaired")

            np.copyto(prev, z, where=ok)
            np.copyto(cert[:, L:], cert_z, where=ok)
            np.copyto(z, u, where=ok)
            np.copyto(cert_z, cert_u, where=ok)
            # the new unit tangent, oriented along the previous one: the
            # sign of Im(b_1 t) is that of its cosine with t
            np.multiply(der, t, out=tn)
            np.copysign(mags[0], tn_imag, out=sgrad)
            np.conjugate(der, out=tn)
            tn *= 1j
            np.divide(tn, sgrad, out=t, where=ok)
            hist_z.append(u.copy())
            hist_ok.append(ok.copy())
            # h stays within [min_step, _CAP * max_step]
            np.multiply(reach, _REACH, out=h, where=ok)
            np.minimum(h, _CAP * max_step, out=h)
            np.maximum(h, min_step, out=h)

            np.subtract(lanes, centres, out=gap)
            np.abs(gap, out=dist)
            np.less_equal(dist, radius * math.sqrt(0.5), out=near)
            near &= pairable
            if np.count_nonzero(near):
                meet()
                if not np.count_nonzero(active):
                    break
        else:
            raise StepUnderflow(
                "step budget exhausted before every lane met its partner")

    # each lane's start and accepted points, lane by lane, less the last
    # one of a lane in ``drop``
    hist_z, hist_ok = np.array(hist_z).T, np.array(hist_ok).T
    for k in np.flatnonzero(drop):
        hist_ok[k, np.flatnonzero(hist_ok[k])[-1]] = False
    pts = hist_z[hist_ok]
    halves = np.split(np.column_stack((pts.real, pts.imag)),
                      np.cumsum(hist_ok.sum(axis=1))[:-1])
    return [starts[j] for j in partner], halves


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


def trace_curve(prob, field, start, nodes):
    """Trace the level-curve component from a boundary node to the node
    at its other end.

    Every node of the start's kind is traced at once by the proven
    predictor-corrector of ``_trace_lanes``, and the arc is the start's
    lane followed by the lane it met, reversed.  It raises (StepUnderflow,
    MatchingInconsistency) when any lane of that kind fails, even where
    the start's own arc would trace.  The pipeline does not call this; it
    is kept for library users and for the benchmark's probes.
    """
    if _KIND_FOR_FIELD[field] != start.kind:
        raise ValueError(f"field {field!r} cannot start at a {start.kind}-node")
    ends, halves = _trace_lanes(prob, nodes, nodes.of_kind(start.kind))
    end = ends[start.index]
    return Arc(field=field,
               samples=np.concatenate((halves[start.index],
                                       halves[end.index][::-1])),
               start_node=start, end_node=end)


def reverse_audit(kind, ends):
    """The matching traced from both ends of every arc: lane i met the
    lane from node ends[i], so ends[ends[i]] == i must hold for every i.
    Returns the Matching; raises MatchingInconsistency otherwise."""
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
    """Near sample pairs between arcs, found on four shifted grids.

    ``arcs`` is a list of (m, 2) sample arrays.  For each sample k of arc
    j and each arc i < j whose nearest sample to it lies closer than
    ``tol``, one row (i, j, k, dist, m): m is the index in arc i of that
    nearest sample, the lowest one on ties.  Rows come sorted by
    (i, j, k).  With s = tol (1 + 1e-6), grid o (o = 0 or 1 per axis)
    has the cells (q + o) // 2, q = floor(x / s).  Samples closer than
    tol have q at most 1 apart per axis (the 1e-6 covers the rounding of
    x / s while |x| / tol is far below 1e9), and the o of the lower q's
    parity puts both in one cell: the four grids are an exact search.
    """
    empty = np.zeros(0, dtype=np.int64)
    if len(arcs) < 2:
        return empty, empty, empty, np.zeros(0), empty
    pts = np.concatenate(arcs)
    sizes = [len(a) for a in arcs]
    arc = np.repeat(np.arange(len(arcs)), sizes)
    local = np.concatenate([np.arange(m) for m in sizes])
    q = np.floor(pts.T / (tol * (1.0 + 1e-6))).astype(np.int64)
    q -= q.min(axis=1, keepdims=True)
    # a row of cells per grid, keys sorted by (cell, grid, arc): the
    # samples of arcs < arc[src] in src's cell run from the cell's first
    # key to the first key of src's arc
    width = int(q[1].max()) + 2
    cell = ((q[0] + [[0], [0], [1], [1]]) >> 1) * width + (
        (q[1] + [[0], [1], [0], [1]]) >> 1)
    key = (cell * 4 + [[0], [1], [2], [3]]) * len(arcs) + arc
    order = np.argsort(key, axis=None)
    sorted_key = np.take(key, order)
    at = np.arange(len(order))
    lo, hi = (np.maximum.accumulate(np.where(np.concatenate(
        ([True], ids[1:] != ids[:-1])), at, 0))
        for ids in (sorted_key // len(arcs), sorted_key))
    src, cand = (order[r] % len(pts) for r in index_runs(lo, hi))
    diff = pts[src] - pts[cand]
    dist = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
    close = dist < tol
    src, cand, dist = src[close], cand[close], dist[close]
    # per (i, j, k) the nearest candidate, lowest sample index on ties (a
    # pair sharing cells on several grids comes once per grid)
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
    All 4n boundary nodes are traced at once, and each lane stops where
    it meets the lane from the other end of its arc (``_trace_lanes``).
    The reverse audit checks that the partners form an involution, the
    arc from the lower node index is kept, and the separation audit,
    which can catch a lane strayed to another branch, runs last.
    """
    starts = ns.of_kind(P_KIND) + ns.of_kind(Q_KIND)
    count = len(starts) // 2
    ends, halves = _trace_lanes(prob, ns, starts)
    matchings, arcs = [], []
    for offset in (0, count):
        kind = starts[offset].kind
        match = reverse_audit(
            kind, [nd.index for nd in ends[offset:offset + count]])
        matchings.append(match)
        for i, j in match.arcs():
            arcs.append(Arc(field=_FIELD_FOR_KIND[kind],
                            samples=np.concatenate(
                                (halves[offset + i],
                                 halves[offset + j][::-1])),
                            start_node=starts[offset + i],
                            end_node=starts[offset + j]))
    separation_audit(arcs, prob, ns.R)
    return matchings[0], matchings[1], arcs
