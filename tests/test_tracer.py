import math
import random

import numpy as np
import pytest

from conftest import random_poly
from openroots import (
    Poly,
    boundary_nodes,
    compute_matchings,
    eval_poly,
    harmonic_eval,
    locate_boundary_nodes,
    perturb_regular,
    trace_curve,
)
from openroots.tracer import (
    PerturbedProblem,
    TraceControl,
    _close_pairs,
    direction_change_counts,
)

SQRT2 = math.sqrt(2.0)


def line_distance(x, y):
    # distance to the nearer of y = x and y = -x
    return min(abs(x - y), abs(x + y)) / SQRT2


class TestPerturbRegular:
    def test_square_minus_one(self):
        # critical point 0 with g(0,0) = -1, h = 0: only h needs a shift
        prob = perturb_regular(Poly([-1, 0, 1]))
        assert prob.eps1 == 0.0
        assert prob.eps2 == pytest.approx(1e-6, rel=1e-6)

    def test_pure_square_needs_both(self):
        prob = perturb_regular(Poly([0, 0, 1]))
        assert prob.eps1 != 0.0 and prob.eps2 != 0.0

    def test_depressed_cubic(self):
        # critical points +-1 with g = -+2, h = 0
        prob = perturb_regular(Poly([0, -3, 0, 1]))
        assert prob.eps1 == 0.0
        assert prob.eps2 != 0.0

    def test_margin_at_critical_points(self):
        from openroots import critical_points
        rng = np.random.default_rng(61)
        for _ in range(10):
            p = random_poly(rng, int(rng.integers(2, 6)))
            prob = perturb_regular(p)
            crit = critical_points(prob.base, 1e-9)
            vals = [eval_poly(prob.base, c) for c in crit]
            scale = max([1.0] + [max(abs(v.real), abs(v.imag)) for v in vals])
            margin = 0.5e-6 * scale
            for v in vals:
                assert abs(v.real - prob.eps1) > margin
                assert abs(v.imag - prob.eps2) > margin

    def test_shifted_polynomial(self):
        prob = perturb_regular(Poly([0, 0, 1]))
        pt = prob.shifted()
        assert pt.coeffs[0] == -complex(prob.eps1, prob.eps2)
        assert pt.coeffs[1:] == prob.base.coeffs[1:]


class TestTraceCurve:
    def test_identity_vertical_diameter(self):
        prob = perturb_regular(Poly([0, 1]))
        ns = boundary_nodes(prob.shifted(), 2.0)
        start = ns.of_kind("P")[0]
        arc = trace_curve(prob, "g", start, ns)
        assert arc.start_node.index == 0 and arc.end_node.index == 1
        assert max(abs(x) for x, _ in arc.samples) <= 1e-8
        assert abs(arc.length - 4.0) <= 1e-2

    def test_kind_field_mismatch_rejected(self):
        prob = perturb_regular(Poly([0, 1]))
        ns = boundary_nodes(prob.shifted(), 2.0)
        with pytest.raises(ValueError):
            trace_curve(prob, "h", ns.of_kind("P")[0], ns)

    def test_singular_square_runs_straight_through(self):
        # unperturbed z^2: the exact level set is the pair of lines
        # y = +-x, so each trace passes the origin and reaches the
        # diametrically opposite node
        p = Poly([0, 0, 1])
        prob = PerturbedProblem(p.monic(), 0.0, 0.0)
        ns = boundary_nodes(p, 1.0)
        for start in ns.of_kind("P"):
            arc = trace_curve(prob, "g", start, ns)
            assert arc.end_node.index == (start.index + 2) % 4
            assert max(line_distance(x, y) for x, y in arc.samples) <= 1e-6

    def test_perturbed_square_hugs_lines(self):
        # with the forced eps the level set is a thin hyperbola pair
        prob = perturb_regular(Poly([0, 0, 1]))
        ns = locate_boundary_nodes(prob.shifted())
        mp, mq, arcs = compute_matchings(prob, ns)
        assert mp.pairs == (3, 2, 1, 0)
        for arc in arcs:
            if arc.field == "g":
                assert max(line_distance(x, y) for x, y in arc.samples) <= 1e-2

    def test_cubic_h_arcs_on_curve(self):
        prob = perturb_regular(Poly([-1, 0, 0, 1]))
        ns = locate_boundary_nodes(prob.shifted())
        claimed = set()
        for start in ns.of_kind("Q"):
            if start.index in claimed:
                continue
            arc = trace_curve(prob, "h", start, ns)
            claimed.update({arc.start_node.index, arc.end_node.index})
            for x, y in arc.samples:
                h = eval_poly(prob.base, complex(x, y)).imag
                assert abs(h - prob.eps2) <= 1e-8
        assert claimed == set(range(6))

    def test_step_budget_exhaustion(self):
        from dataclasses import replace
        from openroots.errors import StepUnderflow
        prob = perturb_regular(Poly([-1, 0, 0, 1]))
        ns = locate_boundary_nodes(prob.shifted())
        ctrl = replace(TraceControl.for_disc(ns.R, 3), max_steps=3)
        with pytest.raises(StepUnderflow):
            trace_curve(prob, "g", ns.of_kind("P")[0], ns, ctrl)

    def test_samples_within_max_step(self):
        prob = perturb_regular(Poly([-1, 0, 0, 1]))
        ns = locate_boundary_nodes(prob.shifted())
        ctrl = TraceControl.for_disc(ns.R, 3)
        arc = trace_curve(prob, "g", ns.of_kind("P")[0], ns, ctrl)
        deltas = np.linalg.norm(np.diff(arc.samples, axis=0), axis=1)
        assert np.max(deltas) <= ctrl.max_step * (1 + 1e-9)
        # endpoints sit on the node positions
        for nd, sample in ((arc.start_node, arc.samples[0]),
                           (arc.end_node, arc.samples[-1])):
            pos = ns.position(nd)
            assert math.hypot(sample[0] - pos.real,
                              sample[1] - pos.imag) <= ctrl.node_tol


def matching_suite(seed=62):
    rng = np.random.default_rng(seed)
    return [Poly([0, 1]), Poly([-1, 0, 1]), Poly([-1, 0, 0, 1]),
            Poly([1, 0, 1]), random_poly(rng, 4), random_poly(rng, 5)]


class TestComputeMatchings:
    def test_identity_single_diameters(self):
        prob = perturb_regular(Poly([0, 1]))
        ns = boundary_nodes(prob.shifted(), 2.0)
        mp, mq, arcs = compute_matchings(prob, ns)
        assert mp.pairs == (1, 0) and mq.pairs == (1, 0)
        assert len(arcs) == 2

    def test_arc_counts_and_involutions(self):
        for p in matching_suite():
            prob = perturb_regular(p)
            ns = locate_boundary_nodes(prob.shifted())
            mp, mq, arcs = compute_matchings(prob, ns)
            n = p.degree
            assert mp.validate() and mq.validate()
            assert len([a for a in arcs if a.field == "g"]) == n
            assert len([a for a in arcs if a.field == "h"]) == n
            # endpoint distinctness: every node claimed exactly once
            for kind, field in (("P", "g"), ("Q", "h")):
                ends = []
                for a in arcs:
                    if a.field == field:
                        ends.extend(a.endpoint_indices())
                assert sorted(ends) == list(range(2 * n))

    def test_extrema_budget(self):
        for p in matching_suite():
            n = p.degree
            prob = perturb_regular(p)
            ns = locate_boundary_nodes(prob.shifted())
            _, _, arcs = compute_matchings(prob, ns)
            budget = 2 * n * (n - 1)
            for arc in arcs:
                dx_changes, dy_changes = direction_change_counts(
                    arc, 1e-7 * ns.R)
                assert dx_changes <= budget
                assert dy_changes <= budget

    def test_slope_cross_check(self):
        # slope of a polyline segment vs the analytic slope -fx/fy at the
        # segment midpoint (y-parametrized reciprocal where |fy| < |fx|)
        rng = random.Random(63)
        for p in matching_suite():
            prob = perturb_regular(p)
            ns = locate_boundary_nodes(prob.shifted())
            _, _, arcs = compute_matchings(prob, ns)
            for arc in arcs:
                m = len(arc.samples)
                for _ in range(10):
                    i = rng.randrange(0, m - 1)
                    x = 0.5 * (arc.samples[i][0] + arc.samples[i + 1][0])
                    y = 0.5 * (arc.samples[i][1] + arc.samples[i + 1][1])
                    he = harmonic_eval(prob.base, x, y)
                    fx, fy = (he.gx, he.gy) if arc.field == "g" else (he.hx, he.hy)
                    dx = arc.samples[i + 1][0] - arc.samples[i][0]
                    dy = arc.samples[i + 1][1] - arc.samples[i][1]
                    if abs(fy) >= abs(fx):
                        if abs(dx) < 1e-12 * ns.R:
                            continue
                        assert abs(dy / dx - (-fx / fy)) <= 1e-2 * (1 + abs(fx / fy))
                    else:
                        if abs(dy) < 1e-12 * ns.R:
                            continue
                        assert abs(dx / dy - (-fy / fx)) <= 1e-2 * (1 + abs(fy / fx))

    def test_on_curve_residual_scaled(self):
        p = matching_suite()[4]
        prob = perturb_regular(p)
        ns = locate_boundary_nodes(prob.shifted())
        ctrl = TraceControl.for_disc(ns.R, p.degree)
        _, _, arcs = compute_matchings(prob, ns, ctrl)
        target = complex(prob.eps1, prob.eps2)
        for arc in arcs:
            for x, y in arc.samples:
                w = eval_poly(prob.base, complex(x, y)) - target
                val = w.real if arc.field == "g" else w.imag
                assert abs(val) <= ctrl.on_curve_tol



def brute_close_pairs(arcs, tol):
    """For each sample k of arc j and each arc i < j, the nearest sample
    of arc i (first on ties) when closer than tol, by all distances."""
    rows = []
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            for k, pt in enumerate(arcs[j]):
                diff = pt - arcs[i]
                dist = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
                m = int(np.argmin(dist))
                if dist[m] < tol:
                    rows.append((i, j, k, dist[m], m))
    return rows


def as_rows(found):
    i, j, k, dist, m = found
    return [(int(a), int(b), int(c), d, int(e))
            for a, b, c, d, e in zip(i, j, k, dist, m)]


class TestClosePairs:
    def test_random_walks_against_brute_force(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            arcs = [np.cumsum(rng.normal(scale=0.05, size=(m, 2)), axis=0)
                    for m in rng.integers(1, 120, size=rng.integers(2, 6))]
            for tol in (0.01, 0.05, 0.3):
                want = brute_close_pairs(arcs, tol)
                assert as_rows(_close_pairs(arcs, tol)) == want

    def test_lattice_points_on_cell_edges(self):
        # coordinates are exact multiples of tol: every point sits on a
        # cell edge, and lattice neighbours are exactly tol apart, which
        # the strict test must not count
        tol = 0.25
        rng = np.random.default_rng(72)
        arcs = [tol * rng.integers(-6, 6, size=(40, 2)).astype(float)
                for _ in range(4)]
        arcs.append(tol * rng.integers(-6, 6, size=(40, 2))
                    + rng.choice([0.0, 1e-12, -1e-12], size=(40, 2)))
        want = brute_close_pairs(arcs, tol)
        assert want
        assert as_rows(_close_pairs(arcs, tol)) == want

    def test_pair_exactly_tol_apart_is_not_close(self):
        arcs = [np.array([[0.0, 0.0]]), np.array([[0.5, 0.0]])]
        i, _, _, _, _ = _close_pairs(arcs, 0.5)
        assert len(i) == 0
        i, j, k, dist, m = _close_pairs(arcs, np.nextafter(0.5, 1.0))
        assert as_rows((i, j, k, dist, m)) == [(0, 1, 0, 0.5, 0)]

    def test_duplicate_points_tie_to_lowest_index(self):
        arcs = [np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]]),
                np.array([[1.0, 1.0], [1.0, 1.0]]),
                np.array([[2.0, 2.0], [1.0, 1.0]])]
        got = as_rows(_close_pairs(arcs, 1e-3))
        assert got == brute_close_pairs(arcs, 1e-3)
        assert (0, 1, 0, 0.0, 0) in got and (0, 2, 0, 0.0, 1) in got

    def test_one_arc_family(self):
        walk = np.cumsum(np.full((50, 2), 1e-4), axis=0)
        for arcs in ([walk], []):
            found = _close_pairs(arcs, 1.0)
            assert all(len(part) == 0 for part in found)
