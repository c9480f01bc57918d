import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_poly
from openroots import (
    Poly,
    boundary_nodes,
    compute_matchings,
    eval_poly,
    locate_boundary_nodes,
    perturb_regular,
    trace_curve,
    tracer,
)
from openroots.errors import (
    InvalidMatching,
    MatchingInconsistency,
    StepUnderflow,
)
from openroots.tracer import (
    Matching,
    PerturbedProblem,
    _close_pairs,
    _disputed,
    _field_eval,
    _trace_lanes,
    direction_change_counts,
    reverse_audit,
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

    def test_pipeline_tol_by_default(self):
        # critical points to 100 * tol, as run_pipeline asks for them: at
        # 1e-9 itself the degree-10 and -11 draws stall at the noise floor
        rng = np.random.default_rng(2015)
        for degree in range(4, 13):
            coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(
                size=degree + 1)
            prob = perturb_regular(Poly(coeffs))
            assert prob.base.degree == degree

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

    def test_step_budget_exhaustion(self, monkeypatch):
        prob = perturb_regular(Poly([-1, 0, 0, 1]))
        ns = locate_boundary_nodes(prob.shifted())
        monkeypatch.setattr(tracer, "MAX_STEPS", 3)
        with pytest.raises(StepUnderflow):
            trace_curve(prob, "g", ns.of_kind("P")[0], ns)

    def test_samples_within_max_step(self):
        prob = perturb_regular(Poly([-1, 0, 0, 1]))
        ns = locate_boundary_nodes(prob.shifted())
        arc = trace_curve(prob, "g", ns.of_kind("P")[0], ns)
        deltas = np.linalg.norm(np.diff(arc.samples, axis=0), axis=1)
        assert np.max(deltas) <= tracer.MAX_STEP * ns.R * (1 + 1e-9)
        # endpoints sit on the node positions
        for nd, sample in ((arc.start_node, arc.samples[0]),
                           (arc.end_node, arc.samples[-1])):
            pos = ns.position(nd)
            assert math.hypot(sample[0] - pos.real,
                              sample[1] - pos.imag) <= 1e-6 * ns.R


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
                    _, fx, fy = _field_eval(prob, arc.field, x, y)
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
        _, _, arcs = compute_matchings(prob, ns)
        on_curve_tol = tracer.ON_CURVE_TOL * max(1.0, ns.R) ** p.degree
        target = complex(prob.eps1, prob.eps2)
        for arc in arcs:
            for x, y in arc.samples:
                w = eval_poly(prob.base, complex(x, y)) - target
                val = w.real if arc.field == "g" else w.imag
                assert abs(val) <= on_curve_tol

    def test_step_budget_exhaustion_many_lanes(self, monkeypatch):
        p = matching_suite()[5]
        prob = perturb_regular(p)
        ns = locate_boundary_nodes(prob.shifted())
        monkeypatch.setattr(tracer, "MAX_STEPS", 40)
        with pytest.raises(StepUnderflow, match="budget"):
            compute_matchings(prob, ns)


class TestLockstep:
    def test_lanes_independent(self):
        # each lane of the lockstep run reaches the node that a one-lane
        # trace from the same start reaches, with as many samples; the
        # samples agree within pos_tol, not to the bit, since the batched
        # jet rounds by batch position
        rng = np.random.default_rng(64)
        for n in (3, 6, 10):
            prob = perturb_regular(random_poly(rng, n))
            ns = locate_boundary_nodes(prob.shifted())
            starts = ns.of_kind("P") + ns.of_kind("Q")
            ends, lengths, samples = _trace_lanes(prob, ns, starts)
            for k, start in enumerate(starts):
                field = "g" if start.kind == "P" else "h"
                arc = trace_curve(prob, field, start, ns)
                assert arc.end_node == ends[k]
                assert arc.samples.shape == samples(k).shape
                assert np.max(np.abs(arc.samples - samples(k))) <= \
                    tracer.POS_TOL * ns.R
                assert arc.length == pytest.approx(lengths[k], rel=1e-9)

    def test_arcs_are_lower_index_lanes(self):
        prob = perturb_regular(matching_suite()[4])
        ns = locate_boundary_nodes(prob.shifted())
        mp, mq, arcs = compute_matchings(prob, ns)
        assert [a.start_node.index for a in arcs] == \
            [i for i, _ in mp.arcs()] + [i for i, _ in mq.arcs()]
        for arc in arcs:
            assert arc.start_node.index < arc.end_node.index

    def test_reverse_audit(self):
        assert reverse_audit("P", [3, 2, 1, 0]).pairs == (3, 2, 1, 0)
        with pytest.raises(MatchingInconsistency, match="0 -> 1 but 1 -> 2"):
            reverse_audit("P", [1, 2, 3, 0])


class TestDisputedLanes:
    @staticmethod
    def nodes(*indices):
        return [SimpleNamespace(index=i) for i in indices]

    def test_agreeing_lanes(self):
        assert _disputed(self.nodes(1, 0, 3, 2, 2, 3, 0, 1), 4) == []

    def test_disagreeing_lanes_and_their_ends(self):
        # P-lane 0 claims node 2, whose lane says 3: lanes 0, 2 and the
        # lane of node 1, which still claims 0, are disputed; the Q
        # family (lanes 4..7) is fine
        ends = self.nodes(2, 0, 3, 2, 3, 2, 1, 0)
        assert _disputed(ends, 4) == [0, 1, 2]

    @staticmethod
    def faulty_first_trace(monkeypatch, faults):
        # _trace_lanes whose first ``faults`` calls send P-lane 0 to the
        # wrong node; returns the log of (start indices, refine) per call
        calls, real = [], tracer._trace_lanes

        def traced(prob, nodes, starts, refine=1.0):
            ends, lengths, samples = real(prob, nodes, starts, refine)
            calls.append(([nd.index for nd in starts], refine))
            if len(calls) <= faults and starts[0].index == 0:
                family = nodes.of_kind("P")
                wrong = next(nd for nd in family
                             if nd.index not in (0, ends[0].index))
                ends[0] = wrong
            return ends, lengths, samples

        monkeypatch.setattr(tracer, "_trace_lanes", traced)
        return calls

    def test_disputed_lanes_traced_again_finer(self, monkeypatch):
        prob = perturb_regular(Poly([-1, 0, 0, 1]))
        ns = locate_boundary_nodes(prob.shifted())
        want_p, want_q, want_arcs = compute_matchings(prob, ns)
        calls = self.faulty_first_trace(monkeypatch, 1)
        mp, mq, arcs = compute_matchings(prob, ns)
        assert (mp, mq) == (want_p, want_q)
        assert [a.end_node for a in arcs] == [a.end_node for a in want_arcs]
        assert len(calls) == 2
        # lane 0, the lane of its true partner, and the lane of the node
        # it wrongly claimed (the lowest other one)
        assert calls[0][1] == 1.0
        lanes, refine = calls[1]
        partner = want_p.pairs[0]
        wrong = min(set(range(6)) - {0, partner})
        assert lanes == sorted({0, partner, wrong})
        assert refine == 4
        # the kept arc of lane 0 is its retrace: the first and the largest
        # step are a quarter of the defaults
        assert arcs[0].start_node.index == 0
        steps = np.linalg.norm(np.diff(arcs[0].samples, axis=0), axis=1)
        assert steps[0] == pytest.approx(tracer.FIRST_STEP * ns.R / 4, rel=1e-6)
        assert steps.max() <= tracer.MAX_STEP * ns.R / 4 * (1 + 1e-9)

    def test_dispute_that_persists_fails_the_audit(self, monkeypatch):
        prob = perturb_regular(Poly([-1, 0, 0, 1]))
        ns = locate_boundary_nodes(prob.shifted())
        self.faulty_first_trace(monkeypatch, 2)
        with pytest.raises(MatchingInconsistency, match="reverse audit"):
            compute_matchings(prob, ns)


class TestMatchingValidate:
    def test_involution_passes(self):
        m = Matching(pairs=(1, 0, 3, 2))
        assert m.validate() is m
        assert m.validate(4, "m") is m

    def test_fixed_point(self):
        with pytest.raises(InvalidMatching, match="2 is paired with itself"):
            Matching(pairs=(1, 0, 2, 3)).validate()

    def test_asymmetric_pair(self):
        with pytest.raises(InvalidMatching, match="0 -> 1 but 1 -> 2"):
            Matching(pairs=(1, 2, 0, 3)).validate()

    def test_out_of_range(self):
        with pytest.raises(InvalidMatching, match="outside"):
            Matching(pairs=(4, 2, 1, 3)).validate()
        with pytest.raises(InvalidMatching, match="outside"):
            Matching(pairs=(-1, 0)).validate()

    def test_wrong_length(self):
        with pytest.raises(InvalidMatching, match="expected 4"):
            Matching(pairs=(1, 0)).validate(4, "matchP")


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
