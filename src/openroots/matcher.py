"""Combinatorial and topological endgame.

Given the two boundary matchings, sector induction finds a g-arc and an
h-arc whose endpoints interleave on the circle; interleaving chords of
a disc must cross.  Damped Newton from the closest approach of the two
traced polylines gives the crossing z*, and one box of diameter
sqrt(tol) / 10 about z* must pass the edge-sign test (opposite strict
signs of the two fields on opposite box edges guarantee a common zero
inside; the edges are sampled at SAMPLES_PER_EDGE points).  Polishing
the crossing against the original polynomial yields a root.
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

# Interior samples per box edge in the edge-sign test.
SAMPLES_PER_EDGE = 64


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


def _pair_miranda(pair, box):
    # Strict opposite signs of a 2-function system on opposite edges at
    # SAMPLES_PER_EDGE interior samples plus the endpoints, over both
    # field-to-axis assignments and both sign orientations.
    (x0, y0), (x1, y1) = box.lo, box.hi
    xs = np.linspace(x0, x1, SAMPLES_PER_EDGE + 2)
    ys = np.linspace(y0, y1, SAMPLES_PER_EDGE + 2)
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


def miranda_test(prob, box):
    """Strict opposite signs of the two fields on opposite edges of a
    box in plane coordinates, at SAMPLES_PER_EDGE points per edge.

    Tries both assignments of field to axis and both sign orientations.
    True implies, at sampling resolution, a zero of (g - eps1, h - eps2)
    in the box; a zero or wrong-signed sample gives False.
    """
    if box.dim != 2:
        raise ValueError("miranda_test is the 2-D case; use miranda_test_nd")
    return _pair_miranda(_rotated_pair(prob, 0j, 0.0), box)


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


def _residual(prob, z):
    w = eval_poly(prob.base, z)
    return math.hypot(w.real - prob.eps1, w.imag - prob.eps2)


def _newton_refine(prob, z, max_iter=60):
    # Damped complex Newton for f(z) = eps1 + i eps2 from z; gives the
    # center of the crossing frame, sharper than the polyline sampling.
    # None when it stalls above the noise floor or meets f' = 0.
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
    # (g - eps1, h - eps2) on arrays of coordinates of the frame rotated
    # by alpha about ``center``, through one JetKernel per array length
    # (the four edges of a box share one length).  For alpha =
    # -arg f'(z*) the level curve of the first field runs vertically
    # through z*, the second horizontally, which is the orientation the
    # edge-sign test needs.
    rot = complex(math.cos(alpha), math.sin(alpha))
    kernels = {}

    def pair(us, vs):
        kernel = kernels.get(len(us))
        if kernel is None:
            kernel = kernels[len(us)] = JetKernel(prob.base, len(us))
        w = kernel(center + (us + 1j * vs) * rot, 1)[0]
        return w.real - prob.eps1, w.imag - prob.eps2

    return pair


def locate_crossing(prob, arc_a, arc_b, tol=1e-10):
    """Localize the guaranteed crossing of a g-arc and an h-arc.

    Damped Newton from the closest approach of the two polylines gives
    z*.  In the frame rotated by -arg f'(z*) about z*, the g-curve runs
    vertically and the h-curve horizontally through z*, as the edge-sign
    test needs (for analytic f, the inverse-Jacobian preconditioner of a
    Miranda test is this rotation and a scale; Frommer, Lang & Schnurr,
    Computing 72, 2004).  The square of diameter tol centred at z* in
    that frame must pass the test, so a common zero of the two fields
    lies within tol / 2 of z*, and z* must have
    |f - eps| <= tol * max(1, |f'|).  Returns z* as (x, y).  Each failing
    step raises LocalizationFailure naming it.
    """
    if arc_a.field != FIELD_G or arc_b.field != FIELD_H:
        raise ValueError("locate_crossing wants (g-arc, h-arc)")
    i, j, _ = _closest_approach(arc_a, arc_b)
    mid = complex(*(0.5 * (arc_a.samples[i] + arc_b.samples[j])))
    z_ref = _newton_refine(prob, mid)
    if z_ref is None:
        raise LocalizationFailure("newton: no point of f = eps found from "
                                  f"the closest approach {mid!r}")
    _, df = eval_with_derivative(prob.base, z_ref)
    if df == 0:
        raise LocalizationFailure(f"frame: f' = 0 at Newton point {z_ref!r}")
    half = tol / math.sqrt(8.0)
    box = BoxND((-half, -half), (half, half))
    if not _pair_miranda(_rotated_pair(prob, z_ref, -cmath.phase(df)), box):
        raise LocalizationFailure(f"box: the square of diameter {tol:.3e} "
                                  f"about {z_ref!r} fails the edge-sign test")
    res = _residual(prob, z_ref)
    if res > tol * max(1.0, abs(df)):
        raise LocalizationFailure(f"residual: |f - eps| = {res:.3e} at "
                                  f"{z_ref!r} exceeds {tol:.3e} * "
                                  "max(1, |f'|)")
    return z_ref.real, z_ref.imag


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
        prob = perturb_regular(p, tol)
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
