import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import exact_abs2, exact_taylor, random_point, random_poly
from openroots import (
    Poly,
    boundary_nodes,
    compute_matchings,
    critical_points,
    eval_poly,
    locate_boundary_nodes,
    perturb_regular,
    taylor_shift,
    trace_curve,
    tracer,
)
from openroots.errors import (
    ConvergenceFailure,
    InvalidMatching,
    MatchingInconsistency,
    StepUnderflow,
)
from openroots.polycore import JetKernel
from openroots.tracer import (
    Matching,
    PerturbedProblem,
    _close_pairs,
    _field_eval,
    _trace_lanes,
    reverse_audit,
)

SQRT2 = math.sqrt(2.0)


def line_distance(x, y):
    # distance to the nearer of y = x and y = -x
    return min(abs(x - y), abs(x + y)) / SQRT2


# gauss corpus (bench/corpus.py, 20 s) seed 0 case 14, as (re, im) in
# ascending powers
SEED0_CASE14 = [
    (0.6080752853534778, 0.597748817888559),
    (1.4142178772294915, 1.1020024882234596),
    (0.13939256775837883, 0.15467327941939177),
    (0.815889459129897, -1.0273674843976592),
    (1.499275103677634, -0.34148202962696383),
    (0.10016125651933967, -0.21879712825211595),
    (-0.5843105627220035, -1.2743627459904134),
    (-0.37564544008821993, 0.14968797740910225),
    (0.5905558022462201, -1.4410349900687345),
    (-0.27606136144307014, -0.43022515496698904),
    (0.17542537385845822, 0.3608001517766062),
    (-1.338399941418875, -0.07177613019123023),
    (-0.7215962670562497, 0.20777147464200488),
    (-0.3465501389452231, 0.80540307289547),
    (-0.17169056625021534, 0.897379179163208),
    (-1.7269350098409981, 0.508052262047181),
    (1.0, 0.0),
]


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

    def test_critical_points_where_the_centred_descent_stalls(self):
        # gauss corpus seed 0 case 14 (degree 16): the descent stalls at
        # its noise floor on the centred polynomial, not on p itself
        p = Poly([complex(re, im) for re, im in SEED0_CASE14])
        q = taylor_shift(p, -p.coeffs[-2] / p.degree)
        with pytest.raises(ConvergenceFailure, match="noise floor"):
            critical_points(q, 1e-7)
        assert perturb_regular(p).base.degree == 16

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

    def test_singular_square_stops_before_the_critical_point(self):
        # unperturbed z^2: the exact level set is the pair of lines
        # y = +-x, crossing at the critical point 0, where no disc keeps
        # f' within 45 degrees of its value at the centre; the step
        # certificate shrinks towards 0 and the trace stops there
        p = Poly([0, 0, 1])
        prob = PerturbedProblem(p.monic(), 0.0, 0.0)
        ns = boundary_nodes(p, 1.0)
        for start in ns.of_kind("P"):
            with pytest.raises(StepUnderflow, match="step underflow at") \
                    as err:
                trace_curve(prob, "g", start, ns)
            x, y = (float(v) for v in
                    str(err.value).split("(")[1].split(")")[0].split(","))
            assert math.hypot(x, y) <= 1e-9

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

    def test_cap_lands_where_the_certificate_allows_any_step(
            self, monkeypatch):
        # a degree-1 field has no k >= 2 Taylor terms, so its certified
        # radius is infinite: MAX_STEP alone bounds the steps, and each
        # arc, its two halves joined, crosses the disc in a few capped
        # steps (plus the first step of each lane); on z^2 + 1 in a few
        # dozen
        for p, most in ((Poly([2 - 1j, 1]),
                         3 + math.ceil(2 / (tracer._CAP * tracer.MAX_STEP))),
                        (Poly([1, 0, 1]), 48)):
            prob = perturb_regular(p)
            ns = locate_boundary_nodes(prob.shifted())
            starts = ns.of_kind("P") + ns.of_kind("Q")
            ends, halves = _trace_lanes(prob, ns, starts)
            assert max(len(halves[k]) + len(halves[starts.index(end)])
                       for k, end in enumerate(ends)) <= most
        # without the cap an infinite step is never accepted
        monkeypatch.setattr(tracer, "MAX_STEP", math.inf)
        monkeypatch.setattr(tracer, "MAX_STEPS", 1000)
        prob = perturb_regular(Poly([0, 1]))
        ns = locate_boundary_nodes(prob.shifted())
        with pytest.raises(StepUnderflow, match="budget exhausted"):
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
                # sign changes of dx and of dy along the samples, ignoring
                # jitter below 1e-7 R
                for seq in np.diff(arc.samples, axis=0).T:
                    seq = np.sign(seq[np.abs(seq) > 1e-7 * ns.R])
                    assert np.count_nonzero(seq[1:] != seq[:-1]) <= budget

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
        # the lanes of this degree-5 draw meet after 25 lockstep steps
        monkeypatch.setattr(tracer, "MAX_STEPS", 12)
        with pytest.raises(StepUnderflow, match="budget"):
            compute_matchings(prob, ns)


# gauss corpus (bench/corpus.py, 20 s) seed 7: case 88, two double roots
# and a simple one, and case 112, a triple root and two simple ones, as
# (re, im) in ascending powers
MULTIPLE_ROOTS = {
    "seed7-case88": [
        (0.5894115680149361, -1.436568035477351),
        (2.138767064319195, -0.05952298782906407),
        (-1.4581374896172756, -0.5178894598509267),
        (1.030371740842772, -0.2269941658795712),
        (-0.7876127919058387, 1.6416428026843282),
        (1.0, 0.0),
    ],
    "seed7-case112": [
        (-5.470252136058928, -2.975621144702015),
        (4.4326385960854475, 1.234729406686915),
        (0.9372586531764975, -8.321202305498788),
        (3.1082164832672508, 10.502322179074211),
        (-4.192023546634249, -3.494079318746046),
        (1.0, 0.0),
    ],
}


@pytest.mark.parametrize("name", sorted(MULTIPLE_ROOTS))
def test_unperturbed_multiple_roots_fail_the_trace(name):
    # at eps = 0 the traced levels pass through the multiple roots, where
    # rounding moves the computed curves by more than the gap between
    # branches; the points are on the level lines only up to rounding,
    # and such a trace must end in an error, never in matchings
    p = Poly([complex(re, im) for re, im in MULTIPLE_ROOTS[name]])
    prob = PerturbedProblem(p.monic(), 0.0, 0.0)
    ns = locate_boundary_nodes(prob.shifted())
    with pytest.raises(MatchingInconsistency):
        compute_matchings(prob, ns)


class TestLockstep:
    def test_lanes_independent(self):
        # each lane of the lockstep run over both kinds meets the partner
        # that trace_curve, over the start's kind alone, reaches from the
        # same start, with as many samples; the samples agree within
        # pos_tol, not to the bit, since the batched jet rounds by batch
        # position
        rng = np.random.default_rng(64)
        for n in (3, 6, 10):
            prob = perturb_regular(random_poly(rng, n))
            ns = locate_boundary_nodes(prob.shifted())
            starts = ns.of_kind("P") + ns.of_kind("Q")
            ends, halves = _trace_lanes(prob, ns, starts)
            for k, start in enumerate(starts):
                field = "g" if start.kind == "P" else "h"
                arc = trace_curve(prob, field, start, ns)
                assert arc.end_node == ends[k]
                j = starts.index(ends[k])
                joined = np.concatenate((halves[k], halves[j][::-1]))
                assert arc.samples.shape == joined.shape
                assert np.max(np.abs(arc.samples - joined)) <= \
                    tracer.POS_TOL * ns.R
                polyline = np.hypot(*np.diff(joined, axis=0).T).sum()
                assert arc.length == pytest.approx(polyline, rel=1e-9)

    def test_lanes_meet_inside_in_half_the_steps(self, monkeypatch):
        # every lane stops where it meets its partner, inside the circle,
        # each with accepted points of its own; so the loop runs for
        # about half the longest arc's samples, not for all of them
        suite = matching_suite() + [
            Poly([complex(c) for c in np.poly(np.arange(1.0, 9.0))[::-1]])]
        for p in suite:
            prob = perturb_regular(p)
            ns = locate_boundary_nodes(prob.shifted())
            starts = ns.of_kind("P") + ns.of_kind("Q")
            ends, halves = _trace_lanes(prob, ns, starts)
            for k, half in enumerate(halves):
                assert len(half) >= 2
                assert math.hypot(*half[-1]) < ns.R
                assert ends[starts.index(ends[k])] == starts[k]
            longest = max(len(halves[k]) + len(halves[starts.index(end)])
                          for k, end in enumerate(ends))
            with monkeypatch.context() as patch:
                patch.setattr(tracer, "MAX_STEPS",
                              math.ceil(longest / 2) + 2)
                _trace_lanes(prob, ns, starts)

    def test_lane_without_partner_reaches_the_circle(self):
        prob = perturb_regular(matching_suite()[4])
        ns = locate_boundary_nodes(prob.shifted())
        start = ns.of_kind("Q")[3]
        with pytest.raises(MatchingInconsistency,
                           match="Q-lane from node 3 reached the circle "
                                 "unpaired"):
            _trace_lanes(prob, ns, (start,))

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
    def faulty_first_trace(monkeypatch):
        # _trace_lanes that sends P-lane 0 to the wrong node; returns the
        # log of the start indices per call
        calls, real = [], tracer._trace_lanes

        def traced(prob, nodes, starts):
            ends, samples = real(prob, nodes, starts)
            calls.append([nd.index for nd in starts])
            family = nodes.of_kind("P")
            ends[0] = next(nd for nd in family
                           if nd.index not in (0, ends[0].index))
            return ends, samples

        monkeypatch.setattr(tracer, "_trace_lanes", traced)
        return calls

    def test_dispute_that_persists_fails_the_audit(self, monkeypatch):
        # the two traces of an arc disagree: the audit fails at once,
        # with no second trace
        prob = perturb_regular(Poly([-1, 0, 0, 1]))
        ns = locate_boundary_nodes(prob.shifted())
        calls = self.faulty_first_trace(monkeypatch)
        with pytest.raises(MatchingInconsistency, match="reverse audit"):
            compute_matchings(prob, ns)
        assert len(calls) == 1


def certificate(p, z):
    """The step certificate at z, formed as _trace_lanes forms it:
    (limit, terms), the test at chord r being sum_k terms[k] r^(k+1) <=
    limit."""
    kernel = JetKernel(p, 1)
    mags = np.abs(kernel(np.array([z]))[1:, 0])
    floors = tracer._floor_matrix(kernel) @ np.abs(kernel.powers[:, 0])
    limit = (mags[0] - floors[0]) * math.sqrt(0.5)
    terms = (mags[1:] + floors[1:]) * np.arange(2.0, p.degree + 1.0)
    return limit, terms


def certified(cert, r):
    limit, terms = cert
    return float(np.sum(terms * np.cumprod(np.full(len(terms), r)))) <= limit


def largest_certified(cert):
    # the test passes on an interval [0, r*]: bisect for r*
    lo, hi = 0.0, 1.0
    while certified(cert, hi) and hi < 1e300:
        lo, hi = hi, 2.0 * hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if certified(cert, mid):
            lo = mid
        else:
            hi = mid
    return lo


def f_prime_turn(p, z, r, points=64):
    """max |f'(w) - f'(z)| / |f'(z)| over w = z + r e^(i t) at ``points``
    angles, in mpmath at 40 digits; the maximum over the disc is on its
    circle."""
    with mpmath.workdps(40):
        coeffs = [mpmath.mpc(a.real, a.imag) for a in p.coeffs]

        def dp(w):
            acc = mpmath.mpc(0)
            for k in range(len(coeffs) - 1, 0, -1):
                acc = acc * w + k * coeffs[k]
            return acc

        zc = mpmath.mpc(z.real, z.imag)
        d0 = dp(zc)
        worst = max(abs(dp(zc + r * mpmath.expjpi(2 * mpmath.mpf(j) / points))
                        - d0) for j in range(points))
        return float(worst / abs(d0))


class TestStepCertificate:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 16),
           st.floats(-3, 3), st.floats(0, 1))
    def test_certified_disc_keeps_f_prime_within_45_degrees(
            self, seed, degree, scale, where):
        rng = np.random.default_rng(seed)
        p = random_poly(rng, degree, scale=10.0 ** scale)
        # a point out to twice the largest root modulus
        radius = 2.0 * max(1e-3, max(abs(a) ** (1.0 / (degree - k))
                                     for k, a in enumerate(p.coeffs[:-1])))
        z = random_point(rng, radius * where)
        cert = certificate(p, z)
        assume(cert[0] > 0)
        r = largest_certified(cert)
        assume(r > 0)
        assert f_prime_turn(p, z, r) < math.sqrt(0.5)

    def test_floor_covers_the_kernel_rounding(self):
        # F_k >= |b^_k - b_k| for every k >= 1, exactly: so the floor,
        # sum_k k F_k r^(k-1), covers sum_k k |b^_k - b_k| r^(k-1) and
        # sum_k |b^_k - b_k| r^k <= r sum_k F_k r^(k-1) for every r
        rng = np.random.default_rng(91)
        for _ in range(40):
            n = int(rng.integers(1, 17))
            p = random_poly(rng, n, scale=10.0 ** rng.uniform(-3, 3))
            z = random_point(rng, 10.0 ** rng.uniform(-2, 1))
            for c in (1.0, -1j):
                kernel = JetKernel(p, 1, np.array([c]))
                got = kernel(np.array([z]))[:, 0]
                floors = tracer._floor_matrix(kernel) @ \
                    np.abs(kernel.powers[:, 0])
                for k, (er, ei) in enumerate(exact_taylor(p, z)[1:], 1):
                    want = (er, ei) if c == 1.0 else (ei, -er)
                    assert exact_abs2(got[k], want) <= \
                        Fraction(floors[k - 1]) ** 2

    def test_traced_steps_are_certified(self):
        # every traced step lies in a disc about the point its lane
        # stepped from where f' stays within 45 degrees of its value
        # there; the junction of two halves lies in the disc, sqrt 2
        # times wider, that proved the meeting
        rng = np.random.default_rng(92)
        prob = perturb_regular(random_poly(rng, 7))
        ns = locate_boundary_nodes(prob.shifted())
        starts = ns.of_kind("P") + ns.of_kind("Q")
        ends, halves = _trace_lanes(prob, ns, starts)
        shifted = prob.shifted()
        for half in halves:
            pts = half[:, 0] + 1j * half[:, 1]
            for k in rng.choice(len(pts) - 1, size=8):
                z, u = complex(pts[k]), complex(pts[k + 1])
                assert certified(certificate(shifted, z), abs(u - z))
                assert f_prime_turn(shifted, z, abs(u - z), 16) < \
                    math.sqrt(0.5)
        for k, end in enumerate(ends):
            a, b = (complex(*halves[i][-1]) for i in (k, starts.index(end)))
            rho = SQRT2 * abs(b - a)
            held = [c for c in (a, b)
                    if certified(certificate(shifted, c), rho)]
            assert held
            assert f_prime_turn(shifted, held[0], rho, 16) < math.sqrt(0.5)


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
