import cmath
import math

import numpy as np
import pytest

from openroots import (
    BoxND,
    Poly,
    compute_matchings,
    find_separated_pair,
    gauss_root,
    locate_boundary_nodes,
    locate_crossing,
    miranda_test,
    miranda_test_nd,
    perturb_regular,
    run_pipeline,
)
from openroots.errors import InvalidMatching
from openroots.matcher import _closest_approach
from openroots.tracer import Matching


def involutions(items):
    """All fixed-point-free involutions on the given index list."""
    if not items:
        yield {}
        return
    first, rest = items[0], items[1:]
    for k, partner in enumerate(rest):
        sub = rest[:k] + rest[k + 1:]
        for tail in involutions(sub):
            pairing = {first: partner, partner: first}
            pairing.update(tail)
            yield pairing


def as_matching(pairing):
    return Matching(pairs=tuple(pairing[i] for i in range(len(pairing))))


def labels_between(a, b, total):
    out = set()
    k = (a + 1) % total
    while k != b:
        out.add(k)
        k = (k + 1) % total
    return out


def separates(p_pair, q_pair, n):
    total = 4 * n
    e, f = 2 * p_pair[0] + 1, 2 * p_pair[1] + 1
    side = labels_between(e, f, total)
    return (2 * q_pair[0] in side) != (2 * q_pair[1] in side)


def brute_force_separated(mp, mq, n):
    found = []
    for sig in mp.arcs():
        for tau in mq.arcs():
            if separates(sig, tau, n):
                found.append((sig, tau))
    return found


class TestFindSeparatedPair:
    def test_single_diameter_forced(self):
        mp = Matching(pairs=(1, 0))
        mq = Matching(pairs=(1, 0))
        sp = find_separated_pair(mp, mq, 1)
        assert sp.sigma_index == 0 and sp.tau_index == 0
        assert separates((0, 1), (0, 1), 1)

    def test_nested_with_one_crossing(self):
        # n = 4; sigma_0 = (P0, P3); the only separating tau is Q1-Q4
        mp = as_matching({0: 3, 3: 0, 1: 2, 2: 1, 4: 5, 5: 4, 6: 7, 7: 6})
        mq = as_matching({1: 4, 4: 1, 2: 3, 3: 2, 0: 5, 5: 0, 6: 7, 7: 6})
        sp = find_separated_pair(mp, mq, 4)
        assert {sp.sigma_index, mp.pairs[sp.sigma_index]} == {0, 3}
        assert {sp.tau_index, mq.pairs[sp.tau_index]} == {1, 4}
        assert sp.sigma_labels == (1, 7)
        assert set(sp.tau_labels) == {2, 8}

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive(self, n):
        all_m = [as_matching(d) for d in involutions(list(range(2 * n)))]
        assert len(all_m) == {2: 3, 3: 15}[n]
        for mp in all_m:
            for mq in all_m:
                sp = find_separated_pair(mp, mq, n)
                sig = (sp.sigma_index, mp.pairs[sp.sigma_index])
                tau = (sp.tau_index, mq.pairs[sp.tau_index])
                assert separates(sig, tau, n)
                found = brute_force_separated(mp, mq, n)
                assert found, "the crossing theorem must force a pair"
                assert any(set(sig) == set(s) and set(tau) == set(t)
                           for s, t in found)

    def test_random_large(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            ids = list(range(2 * n))
            mp_d, mq_d = {}, {}
            for d in (mp_d, mq_d):
                pool = ids.copy()
                rng.shuffle(pool)
                for a, b in zip(pool[::2], pool[1::2]):
                    d[a], d[b] = b, a
            mp, mq = as_matching(mp_d), as_matching(mq_d)
            sp = find_separated_pair(mp, mq, n)
            sig = (sp.sigma_index, mp.pairs[sp.sigma_index])
            tau = (sp.tau_index, mq.pairs[sp.tau_index])
            assert separates(sig, tau, n)

    def test_invalid_matching_rejected(self):
        with pytest.raises(InvalidMatching):
            find_separated_pair(Matching(pairs=(0, 1)), Matching(pairs=(1, 0)), 1)
        with pytest.raises(InvalidMatching):
            find_separated_pair(Matching(pairs=(1, 0)), Matching(pairs=(1, 0, 3, 2)), 1)


class TestMirandaTest:
    def test_identity_centered_box(self):
        prob = perturb_regular(Poly([0, 1]))
        assert miranda_test(prob, BoxND((-1, -1), (1, 1))) is True

    def test_identity_offset_box(self):
        prob = perturb_regular(Poly([0, 1]))
        assert miranda_test(prob, BoxND((1, -1), (2, 1))) is False

    def test_square_minus_one_near_root(self):
        prob = perturb_regular(Poly([-1, 0, 1]))
        assert miranda_test(prob, BoxND((0.9, -0.1), (1.1, 0.1))) is True

    def test_dim_checked(self):
        prob = perturb_regular(Poly([0, 1]))
        with pytest.raises(ValueError):
            miranda_test(prob, BoxND((0, 0, 0), (1, 1, 1)))


class TestMirandaNd:
    def test_identity_boxes(self):
        for n in (1, 2, 3, 4):
            funcs = [(lambda k: (lambda x: x[k]))(k) for k in range(n)]
            box = BoxND((-1,) * n, (1,) * n)
            assert miranda_test_nd(funcs, box) is True

    def test_constant_rejected(self):
        funcs = [lambda x: 1.0, lambda x: -2.0]
        assert miranda_test_nd(funcs, BoxND((-1, -1), (1, 1))) is False

    def test_forty_five_degree_rotation(self):
        funcs = [lambda x: x[0] + x[1], lambda x: x[0] - x[1]]
        assert miranda_test_nd(funcs, BoxND((-1, -1), (1, 1))) is True

    def test_zero_outside_box(self):
        funcs = [lambda x: x[0] - 3.0, lambda x: x[1]]
        assert miranda_test_nd(funcs, BoxND((-1, -1), (1, 1))) is False

    def test_function_count_checked(self):
        with pytest.raises(ValueError):
            miranda_test_nd([lambda x: x[0]], BoxND((-1, -1), (1, 1)))


def pipeline_arcs(p):
    prob = perturb_regular(p)
    ns = locate_boundary_nodes(prob.shifted())
    mp, mq, arcs = compute_matchings(prob, ns)
    sp = find_separated_pair(mp, mq, p.degree)
    sigma = {sp.sigma_index, mp.pairs[sp.sigma_index]}
    tau = {sp.tau_index, mq.pairs[sp.tau_index]}
    arc_g = next(a for a in arcs
                 if a.field == "g" and set(a.endpoint_indices()) == sigma)
    arc_h = next(a for a in arcs
                 if a.field == "h" and set(a.endpoint_indices()) == tau)
    return prob, arc_g, arc_h


class TestLocateCrossing:
    def test_identity_origin(self):
        prob, arc_g, arc_h = pipeline_arcs(Poly([0, 1]))
        x, y = locate_crossing(prob, arc_g, arc_h, 1e-10)
        assert math.hypot(x, y) <= 1e-9

    def test_square_minus_one(self):
        prob, arc_g, arc_h = pipeline_arcs(Poly([-1, 0, 1]))
        x, y = locate_crossing(prob, arc_g, arc_h, 1e-10)
        # shifted root within 2 eps / |f'| of a true root
        assert min(abs(complex(x, y) - 1), abs(complex(x, y) + 1)) <= 1e-5

    def test_cubic_roots_of_unity(self):
        prob, arc_g, arc_h = pipeline_arcs(Poly([-1, 0, 0, 1]))
        x, y = locate_crossing(prob, arc_g, arc_h, 1e-10)
        roots = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
        assert min(abs(complex(x, y) - w) for w in roots) <= 1e-5

    def test_field_order_enforced(self):
        prob, arc_g, arc_h = pipeline_arcs(Poly([0, 1]))
        with pytest.raises(ValueError):
            locate_crossing(prob, arc_h, arc_g, 1e-10)


class Polyline:
    def __init__(self, samples):
        self.samples = np.asarray(samples, dtype=float)


def brute_closest(a, b):
    # every distance; row-major argmin gives the lowest i, then lowest j
    diff = a[:, None, :] - b[None, :, :]
    d2 = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]
    i, j = divmod(int(np.argmin(d2)), len(b))
    return i, j, math.sqrt(d2[i, j])


class TestClosestApproach:
    def test_crossing_polylines_against_brute_force(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            m, k = rng.integers(2, 900, size=2)
            t = np.linspace(-1.0, 1.0, m)[:, None]
            s = np.linspace(-1.0, 1.0, k)[:, None]
            a = t * rng.normal(size=2) + 0.01 * rng.normal(size=(m, 2))
            b = s * rng.normal(size=2) + 0.01 * rng.normal(size=(k, 2))
            want = brute_closest(a, b)
            assert _closest_approach(Polyline(a), Polyline(b)) == want
            assert _closest_approach(Polyline(a), Polyline(b),
                                     chunk=1000) == want

    def test_ties_go_to_lowest_indices(self):
        # a[2] has two nearest b samples, b[2] first in x order, and
        # a[2] and a[4] tie for the pair distance
        a = np.array([[-2.0, -2.0], [-1.0, -1.0], [0.0, 0.5],
                      [2.0, 2.0], [0.0, 0.5]])
        b = np.array([[-2.0, 2.0], [1.0, 0.5], [-1.0, 0.5], [2.0, -2.0]])
        assert _closest_approach(Polyline(a), Polyline(b)) == \
            brute_closest(a, b) == (2, 1, 1.0)
        for chunk in (1, 4, 8):
            assert _closest_approach(Polyline(a), Polyline(b),
                                     chunk=chunk) == (2, 1, 1.0)

    def test_shared_sample(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        b = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
        assert _closest_approach(Polyline(a), Polyline(b)) == (1, 1, 0.0)


class TestGaussRoot:
    def test_linear(self):
        assert abs(gauss_root(Poly([-5, 1]), 1e-9) - 5) <= 1e-9

    def test_square_plus_one(self):
        z = gauss_root(Poly([1, 0, 1]), 1e-9)
        assert min(abs(z - 1j), abs(z + 1j)) <= 1e-8

    def test_quartic_roots_of_unity(self):
        z = gauss_root(Poly([-1, 0, 0, 0, 1]), 1e-9)
        assert min(abs(z - w) for w in (1, -1, 1j, -1j)) <= 1e-8

    def test_report_fields(self):
        rep = run_pipeline(Poly([1, 0, 1]), 1e-9)
        assert rep.residual <= 1e-9
        assert rep.nodes.R > 0
        assert len(rep.arcs) == 2 * 2
        assert set(rep.timings) == {
            "perturb", "annulus", "trace", "match", "crossing", "polish"}
        assert rep.match_p.validate() and rep.match_q.validate()

    def test_seed_determinism(self):
        a = run_pipeline(Poly([-1, 0, 0, 1]), 1e-9)
        b = run_pipeline(Poly([-1, 0, 0, 1]), 1e-9)
        assert a.root == b.root and a.crossing == b.crossing
