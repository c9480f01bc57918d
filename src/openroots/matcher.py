"""Combinatorial and topological endgame.

Given the two boundary matchings, sector induction finds a g-arc and an
h-arc whose endpoints interleave on the circle; interleaving chords of
a disc must cross, and the crossing is pinned down by sign-certified
box bisection (opposite strict signs of the two fields on opposite box
edges guarantee a common zero inside).  Polishing the crossing against
the original polynomial yields a root.
"""

import cmath
import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

from . import annulus as annulus_mod
from .annulus import P_KIND, Q_KIND
from .descent import solve_root
from .errors import (
    DegreeZero,
    LocalizationFailure,
    PipelineError,
)
from .polycore import JetKernel, LazyNumpy, eval_poly, eval_with_derivative
from .tracer import (
    FIELD_G,
    FIELD_H,
    TraceControl,
    compute_matchings,
    index_runs,
    perturb_regular,
)

np = LazyNumpy(globals())


@dataclass(frozen=True)
class BoxND:
    """Axis-aligned box; lo[k] < hi[k] for every axis."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("lo and hi must be equally long and non-empty")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ValueError("need lo[k] < hi[k] on every axis")

    @property
    def dim(self):
        return len(self.lo)

    @property
    def widths(self):
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def center(self):
        return tuple(0.5 * (a + b) for a, b in zip(self.lo, self.hi))


@dataclass(frozen=True)
class SeparatedPair:
    """A g-arc and an h-arc whose boundary nodes interleave.

    sigma_index / tau_index are the smaller node indices of the two
    pairs; the label tuples give the circle labels (Q_i -> 2i,
    P_i -> 2i+1) of the four endpoints.
    """

    sigma_index: int
    tau_index: int
    sigma_labels: tuple
    tau_labels: tuple


def _between(a, b, total):
    # Labels strictly between a and b, counterclockwise from a to b.
    out = []
    k = (a + 1) % total
    while k != b:
        out.append(k)
        k = (k + 1) % total
    return out


def _separates(chord_labels, other_labels, total):
    side = _between(chord_labels[0], chord_labels[1], total)
    return (other_labels[0] in side) != (other_labels[1] in side)


def find_separated_pair(match_p, match_q, n):
    """Sector induction: always returns interleaving (sigma, tau) pairs.

    Start from the P-pair through P_0.  If some Q-pair has exactly one
    endpoint inside the chosen sector, it separates and we are done
    (an odd count of Q-nodes in the sector forces this).  Otherwise
    every Q-pair met in the sector nests inside it; descend into the
    strictly smaller sector cut by the first such pair with the roles
    of P and Q swapped.  Sectors between same-kind nodes always contain
    a node of the other kind, so the descent ends at a singleton whose
    partner must lie outside.
    """
    match_p.validate(2 * n, "matchP")
    match_q.validate(2 * n, "matchQ")
    total = 4 * n

    def label(kind, i):
        return 2 * i if kind == Q_KIND else 2 * i + 1

    def unlabel(kind, lab):
        return lab // 2 if kind == Q_KIND else (lab - 1) // 2

    matching = {P_KIND: match_p.pairs, Q_KIND: match_q.pairs}
    kind = P_KIND
    chord = (0, match_p.pairs[0])
    chord_labs = (label(kind, chord[0]), label(kind, chord[1]))

    while True:
        other = Q_KIND if kind == P_KIND else P_KIND
        sector = _between(chord_labs[0], chord_labs[1], total)
        inside = [lab for lab in sector if (lab % 2 == 0) == (other == Q_KIND)]
        assert inside, "a same-kind sector always holds an opposite-kind node"
        inside_set = set(inside)
        nested = None
        for lab in inside:
            i = unlabel(other, lab)
            j = matching[other][i]
            if label(other, j) not in inside_set:
                return _build_pair(kind, chord, other, (i, j), label, total)
            if nested is None:
                nested = (lab, label(other, j))
        # all pairings stay inside; descend into the sub-sector of the
        # first nested pair, ordered along the current sector
        a, b = nested
        if sector.index(a) > sector.index(b):
            a, b = b, a
        kind = other
        chord_labs = (a, b)
        chord = (unlabel(kind, a), unlabel(kind, b))


def _build_pair(kind, chord, other, sep, label, total):
    if kind == P_KIND:
        sig, tau = chord, sep
    else:
        sig, tau = sep, chord
    pair = SeparatedPair(
        sigma_index=min(sig),
        tau_index=min(tau),
        sigma_labels=(label(P_KIND, sig[0]), label(P_KIND, sig[1])),
        tau_labels=(label(Q_KIND, tau[0]), label(Q_KIND, tau[1])),
    )
    assert _separates(pair.sigma_labels, pair.tau_labels, total)
    return pair


def _shifted_fields(prob):
    # (g - eps1, h - eps2) at an array of points, through one JetKernel
    # per array length (the edge-sign test asks for the same lengths
    # again and again)
    kernels = {}

    def fields(zs):
        kernel = kernels.get(len(zs))
        if kernel is None:
            kernel = kernels[len(zs)] = JetKernel(prob.base, len(zs))
        w = kernel(zs, 1)[0]
        return w.real - prob.eps1, w.imag - prob.eps2

    return fields


def _plane_pair(prob):
    # Vectorized (g - eps1, h - eps2) on arrays of plane coordinates.
    fields = _shifted_fields(prob)

    def pair(xs, ys):
        return fields(xs + 1j * ys)

    return pair


def _pair_miranda(pair, box, m):
    # Strict opposite signs of a 2-function system on opposite edges,
    # m interior samples per edge plus the endpoints, searched over both
    # field-to-axis assignments and both sign orientations.
    (x0, y0), (x1, y1) = box.lo, box.hi
    xs = np.linspace(x0, x1, m + 2)
    ys = np.linspace(y0, y1, m + 2)
    left = pair(np.full_like(ys, x0), ys)
    right = pair(np.full_like(ys, x1), ys)
    bottom = pair(xs, np.full_like(xs, y0))
    top = pair(xs, np.full_like(xs, y1))
    for a in (0, 1):  # which field takes the x-axis pair
        b = 1 - a
        for s1 in (1.0, -1.0):
            if not (np.all(s1 * left[a] < 0) and np.all(s1 * right[a] > 0)):
                continue
            for s2 in (1.0, -1.0):
                if np.all(s2 * bottom[b] < 0) and np.all(s2 * top[b] > 0):
                    return True
    return False


def miranda_test(prob, box, samples_per_edge=64):
    """Strict opposite signs of the two fields on opposite box edges.

    Tries both assignments of field to axis and both sign orientations;
    sampling indeterminacy returns False (conservative).  True implies,
    at sampling resolution, a zero of (g - eps1, h - eps2) in the box.
    """
    if box.dim != 2:
        raise ValueError("miranda_test is the 2-D case; use miranda_test_nd")
    return _pair_miranda(_plane_pair(prob), box, samples_per_edge)


def miranda_test_nd(funcs, box, grid_points=9):
    """Sign conditions on the n opposing face pairs of an n-box.

    funcs are callables on length-n points.  Face inequalities are
    non-strict (<= 0 on the low face, >= 0 on the high face, up to a
    per-function sign flip and an assignment of functions to axes), the
    classical hypothesis; a True result implies a common zero at
    sampling resolution.  Conservative False otherwise.
    """
    n = box.dim
    if len(funcs) != n:
        raise ValueError(f"need exactly {n} functions for a {n}-box")

    axes = [np.linspace(box.lo[k], box.hi[k], grid_points) for k in range(n)]

    def face_points(axis, side):
        fixed = box.lo[axis] if side == 0 else box.hi[axis]
        if n == 1:
            return np.array([[fixed]])
        grids = np.meshgrid(
            *[axes[k] for k in range(n) if k != axis], indexing="ij")
        cols = []
        gi = 0
        for k in range(n):
            if k == axis:
                cols.append(np.full(grids[0].size, fixed))
            else:
                cols.append(grids[gi].ravel())
                gi += 1
        return np.column_stack(cols)

    # flags[i][axis][side] = (all values <= 0, all values >= 0)
    flags = [[[None, None] for _ in range(n)] for _ in range(n)]
    for axis in range(n):
        for side in (0, 1):
            pts = face_points(axis, side)
            for i, f in enumerate(funcs):
                vals = np.array([f(pt) for pt in pts], dtype=float)
                flags[i][axis][side] = (bool(np.all(vals <= 0)),
                                        bool(np.all(vals >= 0)))

    def admissible(i, axis, sign):
        lo_nonpos, lo_nonneg = flags[i][axis][0]
        hi_nonpos, hi_nonneg = flags[i][axis][1]
        if sign > 0:
            return lo_nonpos and hi_nonneg
        return lo_nonneg and hi_nonpos

    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            if all(admissible(i, perm[i], signs[i]) for i in range(n)):
                return True
    return False


def _closest_approach(arc_a, arc_b, chunk=1 << 18):
    # Nearest sample pair (i in arc_a, j in arc_b) and its distance; ties
    # go to the lowest i, then the lowest j.  Some 64 x 64 strided
    # samples give a pair at distance u, so only pairs whose x differ by
    # at most u can be nearer: for each i, one run of arc_b sorted by x
    # (u is widened past the rounding of the distances).  Rows of arc_a
    # go in blocks of at most ``chunk`` candidate pairs.
    a, b = arc_a.samples, arc_b.samples
    sa, sb = a[::len(a) // 64 + 1], b[::len(b) // 64 + 1]
    dx = sa[:, 0, None] - sb[None, :, 0]
    dy = sa[:, 1, None] - sb[None, :, 1]
    u = math.sqrt(float(np.min(dx * dx + dy * dy))) * (1.0 + 1e-9)
    order = np.argsort(b[:, 0], kind="stable")
    bx = b[order, 0]
    lo = np.searchsorted(bx, a[:, 0] - u, "left")
    hi = np.searchsorted(bx, a[:, 0] + u, "right")
    best = (math.inf, 0, 0)
    rows = max(1, chunk // len(b))
    for s in range(0, len(a), rows):
        r, pos = index_runs(lo[s:s + rows], hi[s:s + rows])
        i, j = r + s, order[pos]
        d2 = (a[i, 0] - b[j, 0]) ** 2 + (a[i, 1] - b[j, 1]) ** 2
        if len(d2) == 0 or d2.min() >= best[0]:
            continue
        tied = np.flatnonzero(d2 == d2.min())  # rows ascend with i
        first = tied[i[tied] == i[tied[0]]]
        best = (float(d2[tied[0]]), int(i[tied[0]]), int(j[first].min()))
    d2, i, j = best
    return i, j, math.sqrt(d2)


def _local_spacing(samples, i):
    spans = []
    if i > 0:
        spans.append(float(np.linalg.norm(samples[i] - samples[i - 1])))
    if i + 1 < len(samples):
        spans.append(float(np.linalg.norm(samples[i + 1] - samples[i])))
    return max(spans) if spans else 0.0


def _residual(prob, x, y):
    w = eval_poly(prob.base, complex(x, y))
    return math.hypot(w.real - prob.eps1, w.imag - prob.eps2)


def _split(box, axis, frac=0.5):
    cut = box.lo[axis] + frac * (box.hi[axis] - box.lo[axis])
    lo, hi = list(box.lo), list(box.hi)
    hi_a, lo_b = list(box.hi), list(box.lo)
    hi_a[axis] = cut
    lo_b[axis] = cut
    return BoxND(lo, hi_a), BoxND(lo_b, hi)


def _newton_refine(prob, x, y, max_iter=60):
    # Damped complex Newton for f(z) = eps1 + i eps2 from (x, y); gives
    # a sharp box center when the polyline sampling is coarse.  Best
    # effort: the box certification is what validates the result.
    z = complex(x, y)
    target = complex(prob.eps1, prob.eps2)
    res = abs(eval_poly(prob.base, z) - target)
    floor = 1e-10 * (1.0 + abs(target))
    for _ in range(max_iter):
        f, df = eval_with_derivative(prob.base, z)
        if df == 0:
            return None
        step = (target - f) / df
        if abs(step) <= 1e-13 * (1.0 + abs(z)):
            return z
        cand = z + step
        r = abs(eval_poly(prob.base, cand) - target)
        halvings = 0
        while r >= res and halvings < 8:
            step *= 0.5
            cand = z + step
            r = abs(eval_poly(prob.base, cand) - target)
            halvings += 1
        if r >= res:
            # stalled at the noise floor: accept if essentially a zero
            return z if res <= floor else None
        z, res = cand, r
    return z if res <= floor else None


def _rotated_pair(prob, center, alpha):
    # The field pair in a frame rotated by alpha about ``center``:
    # for alpha = -arg f'(z*) the level curve of the first component
    # runs vertically through z*, the second horizontally, which is the
    # orientation the edge-sign test needs.
    rot = complex(math.cos(alpha), math.sin(alpha))
    fields = _shifted_fields(prob)

    def pair(us, vs):
        return fields(center + (us + 1j * vs) * rot)

    return pair, (lambda u, v: center + complex(u, v) * rot)


def _grow_box(pair, half, cap, m):
    while half <= cap:
        box = BoxND((-half, -half), (half, half))
        if _pair_miranda(pair, box, m):
            return box
        half *= 2.0
    return None


def _bisect_box(prob, pair, to_plane, box, tol, m):
    # Shrink a passing box to diameter <= tol; None if the descent
    # dead-ends (no child passes), so the caller can try another frame.
    for _ in range(400):
        w = box.widths
        if math.hypot(*w) <= tol:
            return box
        axis_order = (0, 1) if w[0] >= w[1] else (1, 0)
        chosen = None
        # off-center cuts first: a zero at the exact center (the usual
        # case after Newton refinement) must not lie on the cut line,
        # where a child can pass with the zero on its boundary
        for axis in axis_order:
            for frac in (0.375, 0.625, 0.5):
                a, b = _split(box, axis, frac)
                pa, pb = _pair_miranda(pair, a, m), _pair_miranda(pair, b, m)
                if pa and pb:
                    za, zb = to_plane(*a.center), to_plane(*b.center)
                    ra = _residual(prob, za.real, za.imag)
                    rb = _residual(prob, zb.real, zb.imag)
                    chosen = a if ra <= rb else b
                elif pa:
                    chosen = a
                elif pb:
                    chosen = b
                if chosen is not None:
                    break
            if chosen is not None:
                break
        if chosen is None:
            return None
        box = chosen
    return None


def locate_crossing(prob, arc_a, arc_b, tol=1e-10, samples_per_edge=64):
    """Localize the guaranteed crossing of a g-arc and an h-arc.

    Seeds a box of half-width 4 local sample spacings around the
    closest-approach midpoint; a box passing the edge-sign test is
    bisected along its longer axis, keeping a passing child, until the
    diameter is <= tol.  Axis-aligned edge signs only settle when the
    local curves run roughly parallel to the axes, so when the seed box
    or its bisection dead-ends, the midpoint is sharpened by damped
    Newton and the procedure repeats in a frame rotated by -arg f'
    (growing from a small box, doubling, capped at the disc radius);
    a frame rotated by the local arc tangent is the last resort.
    """
    if arc_a.field != FIELD_G or arc_b.field != FIELD_H:
        raise ValueError("locate_crossing wants (g-arc, h-arc)")
    i, j, _ = _closest_approach(arc_a, arc_b)
    mid = 0.5 * (arc_a.samples[i] + arc_b.samples[j])
    spacing = max(_local_spacing(arc_a.samples, i),
                  _local_spacing(arc_b.samples, j))
    disc = max(float(np.max(np.linalg.norm(arc_a.samples, axis=1))),
               float(np.max(np.linalg.norm(arc_b.samples, axis=1))))
    seed_half = max(4.0 * spacing, 16.0 * tol)
    m = samples_per_edge

    def frames():
        plane = _plane_pair(prob)
        seed = BoxND((mid[0] - seed_half, mid[1] - seed_half),
                     (mid[0] + seed_half, mid[1] + seed_half))
        if _pair_miranda(plane, seed, m):
            yield plane, (lambda u, v: complex(u, v)), seed
        z_ref = _newton_refine(prob, mid[0], mid[1])
        if z_ref is not None:
            _, df = eval_with_derivative(prob.base, z_ref)
            if df != 0:
                pair, to_plane = _rotated_pair(prob, z_ref, -cmath.phase(df))
                box = _grow_box(pair, 8.0 * tol, disc, m)
                if box is not None:
                    yield pair, to_plane, box
        lo, hi = max(i - 1, 0), min(i + 1, len(arc_a.samples) - 1)
        d = arc_a.samples[hi] - arc_a.samples[lo]
        gamma = math.atan2(d[1], d[0])
        pair, to_plane = _rotated_pair(
            prob, complex(mid[0], mid[1]), math.pi / 2.0 - gamma)
        box = _grow_box(pair, seed_half, disc, m)
        if box is not None:
            yield pair, to_plane, box

    for pair, to_plane, box in frames():
        final = _bisect_box(prob, pair, to_plane, box, tol, m)
        if final is None:
            continue
        zc = to_plane(*final.center)
        _, dfz = eval_with_derivative(prob.base, zc)
        grad_scale = max(1.0, abs(dfz))
        if _residual(prob, zc.real, zc.imag) <= tol * grad_scale:
            return zc.real, zc.imag
    raise LocalizationFailure(
        "no sign-certified box could be shrunk to tolerance inside the disc")


@dataclass(frozen=True)
class PipelineReport:
    """Everything the full run produced (consumed by the CLI/SVG)."""

    root: complex
    residual: float
    nodes: object
    arcs: list
    match_p: object
    match_q: object
    separated: SeparatedPair
    crossing: tuple
    eps1: float
    eps2: float
    timings: dict


@contextmanager
def _stage(name, timings):
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc
    finally:
        timings[name] = time.perf_counter() - t0


def _arc_for(arcs, field, pair):
    want = set(pair)
    for arc in arcs:
        if arc.field == field and set(arc.endpoint_indices()) == want:
            return arc
    raise LocalizationFailure(f"no {field}-arc with endpoints {sorted(want)}")


def run_pipeline(p, tol=1e-9):
    """Perturb, find boundary nodes, trace, match, localize, polish.

    Internal tolerances derive from tol: critical-point residual
    100 * tol, crossing localization sqrt(tol) / 10, final polish tol.
    """
    if p.degree < 1:
        raise DegreeZero("root finding needs degree >= 1")
    timings = {}
    with _stage("perturb", timings):
        prob = perturb_regular(p, 100.0 * tol)
    with _stage("annulus", timings):
        ns = annulus_mod.locate_boundary_nodes(prob.shifted())
    with _stage("trace", timings):
        ctrl = TraceControl.for_disc(ns.R, prob.base.degree)
        match_p, match_q, arcs = compute_matchings(prob, ns, ctrl)
    with _stage("match", timings):
        sep = find_separated_pair(match_p, match_q, prob.base.degree)
        sigma = (sep.sigma_index, match_p.pairs[sep.sigma_index])
        tau = (sep.tau_index, match_q.pairs[sep.tau_index])
        arc_g = _arc_for(arcs, FIELD_G, sigma)
        arc_h = _arc_for(arcs, FIELD_H, tau)
    with _stage("crossing", timings):
        xy = locate_crossing(prob, arc_g, arc_h, math.sqrt(tol) / 10.0)
    with _stage("polish", timings):
        root = solve_root(p, complex(xy[0], xy[1]), 0j, tol)
    return PipelineReport(
        root=root,
        residual=abs(eval_poly(p, root)),
        nodes=ns,
        arcs=arcs,
        match_p=match_p,
        match_q=match_q,
        separated=sep,
        crossing=xy,
        eps1=prob.eps1,
        eps2=prob.eps2,
        timings=timings,
    )


def gauss_root(p, tol=1e-9):
    """One root of p with |p(z)| <= tol, by the full curve pipeline."""
    return run_pipeline(p, tol=tol).root
