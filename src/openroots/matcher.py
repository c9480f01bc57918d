"""Combinatorial and topological endgame.

Given the two boundary matchings, sector induction finds a g-arc and an
h-arc whose endpoints interleave on the circle; interleaving chords of
a disc must cross.  Damped Newton from the closest approach of the two
traced polylines gives the crossing z*, and the Taylor coefficients of
f - eps at z* prove, in closed form, that one box of diameter
sqrt(tol) / 10 about z* holds a common zero of the two fields (strict
opposite signs on opposite box edges, the Poincare-Miranda hypothesis).
Polishing the crossing against the original polynomial yields a root:
one within tol, or one whose residual is proven to be at the rounding
floor.
"""

import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

from . import annulus as annulus_mod
from .annulus import P_KIND, Q_KIND
from .descent import _U, solve_root
from .errors import (
    ConvergenceFailure,
    DegreeZero,
    LocalizationFailure,
    PipelineError,
    RootFindError,
)
from .polycore import (LazyNumpy, eval_bound, eval_poly,
                       eval_with_derivative, rounding_floor, taylor_shift)
from .tracer import (
    FIELD_G,
    FIELD_H,
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


def _pair_miranda(prob, z, half):
    # With w = u + iv in the frame rotated by -arg b_1 about z, f - eps =
    # b_0 + |b_1| w + T, |T| <= sum_{k>=2} |b_k| r^k on |u|, |v| <= half.
    # If |b_0| + that tail + rounding < |b_1| half, g - eps1 has strict
    # opposite signs at u = -half and u = half, h - eps2 at v = +-half.
    shifted = prob.shifted()
    b = taylor_shift(shifted, z).coeffs
    r = math.sqrt(2.0) * half
    tail = 0.0
    for c in reversed(b[2:]):
        tail = tail * r + abs(c)
    lhs = abs(b[0]) + tail * r * r + rounding_floor(shifted, abs(z) + r)
    return lhs < abs(b[1]) * half


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


def _newton_refine(prob, z, max_iter=60):
    # Damped complex Newton for f(z) = eps1 + i eps2 from z; gives the
    # center of the crossing box, sharper than the polyline sampling.
    # None when it stops above the rounding floor or meets f' = 0.
    target = complex(prob.eps1, prob.eps2)
    res = abs(eval_poly(prob.base, z) - target)
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
            break  # stalled: accept if essentially a zero
        z, res = cand, r
    return z if res <= rounding_floor(prob.shifted(), abs(z)) else None


def locate_crossing(prob, arc_a, arc_b, tol=1e-10):
    """Localize the guaranteed crossing of a g-arc and an h-arc.

    Damped Newton from the closest approach of the two polylines gives
    z*.  In the frame rotated by -arg f'(z*) about z*, the g-curve runs
    vertically and the h-curve horizontally through z* (for analytic f,
    the inverse-Jacobian preconditioner of a Miranda test is this
    rotation and a scale; Frommer, Lang & Schnurr, Computing 72, 2004).
    The Taylor coefficients b_k of f - eps at z* must prove strict
    opposite edge signs on the square of diameter tol centred at z* in
    that frame (``_pair_miranda``), so a common zero of the two fields
    lies within tol / 2 of z*.  The proof also gives |f(z*) - eps| <
    |f'(z*)| tol / sqrt(8).  Returns z* as (x, y).  Each failing step
    raises LocalizationFailure naming it.
    """
    if arc_a.field != FIELD_G or arc_b.field != FIELD_H:
        raise ValueError("locate_crossing wants (g-arc, h-arc)")
    i, j, _ = _closest_approach(arc_a, arc_b)
    mid = complex(*(0.5 * (arc_a.samples[i] + arc_b.samples[j])))
    z_ref = _newton_refine(prob, mid)
    if z_ref is None:
        raise LocalizationFailure("newton: no point of f = eps found from "
                                  f"the closest approach {mid!r}")
    if not _pair_miranda(prob, z_ref, tol / math.sqrt(8.0)):
        raise LocalizationFailure(f"box: the Taylor coefficients at {z_ref!r}"
                                  " do not prove the edge signs of the "
                                  f"square of diameter {tol:.3e}")
    return z_ref.real, z_ref.imag


def _residual_bound(p, z):
    """(v, e, floor): Horner's p(z), its running error bound (eval_bound),
    and the oracle's rounding floor 4n u sum |a_i| |z|^i, lowered by
    (8n + 16)u to stay below the same sum computed in any order."""
    value, err, total = eval_bound(p, z)
    n = p.degree
    return value, err, 4 * n * _U * total * (1.0 - (8 * n + 16) * _U)


def _polish(p, z, tol):
    # (root, stop, floor): solve_root from z stops within tol.  Where it
    # gets stuck at its noise floor (1e-13 times the largest Taylor
    # coefficient, coarser than rounding), Newton from that point, while
    # the residual falls, may still reach tol; otherwise the point is
    # taken when |p^(z)| + e(z), lifted past the rounding of the sum and
    # of a residual recomputed in higher precision, proves its residual
    # within the floor
    try:
        root = solve_root(p, z, 0j, tol)
        return root, "tol", _residual_bound(p, root)[2]
    except ConvergenceFailure as exc:
        root, res = exc.point, exc.residual
        if root is None:
            raise
        for _ in range(3):
            value, slope = eval_with_derivative(p, root)
            if slope == 0:
                break
            cand = root - value / slope
            cand_res = abs(eval_poly(p, cand))
            if not cand_res < res:
                break
            root, res = cand, cand_res
        value, err, floor = _residual_bound(p, root)
        if res <= tol:
            return root, "tol", floor
        if (abs(value) + err) * (1.0 + 16 * _U) > max(tol, floor):
            raise
        return root, "floor", floor


@dataclass(frozen=True)
class PipelineReport:
    """Everything the full run produced (consumed by the CLI/SVG).

    ``stop`` says which bound the root's residual meets: "tol", or
    "floor", the rounding floor ``floor`` (``_residual_bound``) at the root.
    """

    root: complex
    residual: float
    stop: str
    floor: float
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
    except RootFindError as exc:
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
    100 * tol, crossing localization sqrt(tol) / 10, final polish tol or
    the rounding floor (``_polish``).
    """
    if p.degree < 1:
        raise DegreeZero("root finding needs degree >= 1")
    timings = {}
    with _stage("perturb", timings):
        prob = perturb_regular(p, tol)
    with _stage("annulus", timings):
        ns = annulus_mod.locate_boundary_nodes(prob.shifted())
    with _stage("trace", timings):
        match_p, match_q, arcs = compute_matchings(prob, ns)
    with _stage("match", timings):
        sep = find_separated_pair(match_p, match_q, prob.base.degree)
        sigma = (sep.sigma_index, match_p.pairs[sep.sigma_index])
        tau = (sep.tau_index, match_q.pairs[sep.tau_index])
        arc_g = _arc_for(arcs, FIELD_G, sigma)
        arc_h = _arc_for(arcs, FIELD_H, tau)
    with _stage("crossing", timings):
        xy = locate_crossing(prob, arc_g, arc_h, math.sqrt(tol) / 10.0)
    with _stage("polish", timings):
        root, stop, floor = _polish(p, complex(xy[0], xy[1]), tol)
    return PipelineReport(
        root=root,
        residual=abs(eval_poly(p, root)),
        stop=stop,
        floor=floor,
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
    """One root of p with |p(z)| <= tol, or within the rounding floor, by
    the full curve pipeline."""
    return run_pipeline(p, tol=tol).root
