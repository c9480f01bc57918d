import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openroots import (
    BoxND,
    Poly,
    compute_matchings,
    eval_poly,
    find_separated_pair,
    gauss_root,
    locate_boundary_nodes,
    locate_crossing,
    miranda_test_nd,
    perturb_regular,
    run_pipeline,
)
from openroots import matcher
from openroots.errors import (
    ConvergenceFailure,
    InvalidMatching,
    LocalizationFailure,
    PipelineError,
)
from openroots.matcher import _closest_approach
from openroots.polycore import eval_with_derivative
from openroots.tracer import Matching, PerturbedProblem


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


def plane_miranda(prob, box):
    # the sampled 2-D test on g - eps1 and h - eps2, 66 points per edge
    f = prob.shifted()
    return miranda_test_nd([lambda pt: eval_poly(f, complex(*pt)).real,
                            lambda pt: eval_poly(f, complex(*pt)).imag],
                           box, grid_points=66)


class TestMirandaTest:
    def test_identity_centered_box(self):
        prob = perturb_regular(Poly([0, 1]))
        assert plane_miranda(prob, BoxND((-1, -1), (1, 1))) is True

    def test_identity_offset_box(self):
        prob = perturb_regular(Poly([0, 1]))
        assert plane_miranda(prob, BoxND((1, -1), (2, 1))) is False

    def test_square_minus_one_near_root(self):
        prob = perturb_regular(Poly([-1, 0, 1]))
        assert plane_miranda(prob, BoxND((0.9, -0.1), (1.1, 0.1))) is True


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

    def test_random_against_numpy_roots(self):
        rng = np.random.default_rng(2015)
        for degree in range(4, 13):
            coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(
                size=degree + 1)
            prob, arc_g, arc_h = pipeline_arcs(Poly(coeffs))
            x, y = locate_crossing(prob, arc_g, arc_h, 1e-10)
            roots = np.roots(prob.shifted().coeffs[::-1])
            assert np.min(np.abs(roots - complex(x, y))) <= 1e-6, degree

    def test_pipeline_tol_box_holds_a_root(self):
        # the certified box has diameter tol about the returned point, so
        # a root of the shifted polynomial lies within tol / 2 of it
        tol = math.sqrt(1e-9) / 10.0
        rng = np.random.default_rng(2016)
        for degree in range(4, 13):
            coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(
                size=degree + 1)
            prob, arc_g, arc_h = pipeline_arcs(Poly(coeffs))
            x, y = locate_crossing(prob, arc_g, arc_h, tol)
            roots = np.roots(prob.shifted().coeffs[::-1])
            assert np.min(np.abs(roots - complex(x, y))) <= tol / 2, degree

    def test_one_box_of_diameter_tol(self, monkeypatch):
        calls = []
        certify = matcher._pair_miranda

        def spy(prob, z, half):
            calls.append((z, half))
            return certify(prob, z, half)

        monkeypatch.setattr(matcher, "_pair_miranda", spy)
        prob, arc_g, arc_h = pipeline_arcs(Poly([-1, 0, 0, 1]))
        tol = math.sqrt(1e-9) / 10.0
        xy = locate_crossing(prob, arc_g, arc_h, tol)
        ((z, half),) = calls
        assert (z.real, z.imag) == xy
        assert half * math.sqrt(8.0) == pytest.approx(tol, rel=1e-15)

    def test_residual_within_contract(self):
        # the certificate gives |f(z*) - eps| < |f'(z*)| tol / sqrt(8)
        tol = 1e-10
        rng = np.random.default_rng(2015)
        for degree in range(4, 13):
            coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(
                size=degree + 1)
            prob, arc_g, arc_h = pipeline_arcs(Poly(coeffs))
            z = complex(*locate_crossing(prob, arc_g, arc_h, tol))
            f, df = eval_with_derivative(prob.base, z)
            res = abs(f - complex(prob.eps1, prob.eps2))
            assert res <= tol * max(1.0, abs(df)), degree

    @pytest.mark.parametrize("helper, step", [
        ("_newton_refine", "newton"), ("_pair_miranda", "box")])
    def test_failure_names_its_step(self, monkeypatch, helper, step):
        prob, arc_g, arc_h = pipeline_arcs(Poly([-1, 0, 0, 1]))
        failing = {"_newton_refine": None, "_pair_miranda": False}[helper]
        monkeypatch.setattr(matcher, helper, lambda *a, **k: failing)
        with pytest.raises(LocalizationFailure, match=f"^{step}: "):
            locate_crossing(prob, arc_g, arc_h, 1e-10)


coefficients = st.complex_numbers(max_magnitude=3, allow_nan=False,
                                  allow_infinity=False)


class TestPairMiranda:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(coefficients, min_size=2, max_size=12),
           st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3), st.data())
    def test_certified_square_holds_a_root(self, low, eps1, eps2, data):
        prob = PerturbedProblem(Poly(low + [1]), eps1, eps2)
        roots = np.roots(prob.shifted().coeffs[::-1])
        near = st.builds(
            lambda w, e, t: complex(w) + 10.0 ** e * cmath.exp(1j * t),
            st.sampled_from(list(roots)), st.floats(-14, 0),
            st.floats(0, 2 * math.pi))
        z = data.draw(st.one_of(near, st.complex_numbers(max_magnitude=4)))
        half = 10.0 ** data.draw(st.floats(-12, 0))
        if matcher._pair_miranda(prob, z, half):
            assert np.min(np.abs(roots - z)) <= math.sqrt(2.0) * half

    def test_double_root_outside_square(self):
        # |b_0| = 0.25 < |b_1| half = 0.3, but the double root at 0.5 is
        # outside the square; the tail |b_2| r^2 = 0.18 rejects it
        prob = PerturbedProblem(Poly([0.25, -1, 1]), 0, 0)
        assert matcher._pair_miranda(prob, 0j, 0.3) is False

    def test_square_below_rounding_floor(self):
        prob = PerturbedProblem(Poly([-1, 1]), 0, 0)
        assert matcher._pair_miranda(prob, 1 + 0j, 1e-17) is False


# Cases of the gauss benchmark corpus (bench/corpus.py, 20 s), as
# (re, im) in ascending powers: random monic polynomials of seed 1 case
# 14 (degree 16), seed 3 case 58 (degree 14) and seed 8 case 82 (degree
# 15), and the 1e8-scaled degree-6 polynomial of seed 11 case 21.  Each
# failed to polish a crossing found by an earlier localization: an
# axis-aligned frame (the first two) or the centre of a bisected box.
CORPUS_CASES = {
    "seed1-case14": [
        (0.9336439207878271, -1.2402518643838543),
        (0.3164829710658963, 1.0639887286091017),
        (-1.437888694530303, 1.135828998049859),
        (0.3683565811099103, -0.981849186063916),
        (-0.6090193656941694, 1.1597036986001164),
        (0.09394138374070891, -1.3602982701570798),
        (-0.5324629760506003, 0.37940438921603653),
        (-1.1768269332005559, -0.026136882823972685),
        (-1.6402626712179662, -0.3091050648230621),
        (0.4992885280252986, 0.04922052251505063),
        (0.47248012161575453, -0.35303572326384147),
        (-0.4247076375230628, -0.6943271395669904),
        (0.3241608921721296, -0.5811919350465141),
        (-0.7090066393538536, 0.22584080570666587),
        (-0.2554468289433094, -0.34107649749844904),
        (-1.666839764559155, 0.033577439779959646),
        (1.0, 0.0),
    ],
    "seed3-case58": [
        (0.5967354591030224, 0.6948940643792652),
        (1.0364965678908897, -1.4385648172982846),
        (1.1192469174820492, -1.2352349559513771),
        (0.8941945943576637, -0.8734247931302412),
        (-0.22774415781867785, 2.395271740091972),
        (0.3640818632095909, 0.7155614262959428),
        (0.3712111125391872, -0.4072894470650084),
        (0.16801269527224266, 1.0317573324281122),
        (-1.7386081639664932, 0.07040531237309776),
        (0.8069003803165352, -0.6273577865535672),
        (0.19329815226488822, 0.2575965229843051),
        (-0.06337120187581044, 0.3603980624505836),
        (-0.4391802318666104, 0.689598116068266),
        (-1.749888417451276, -0.480252007420714),
        (1.0, 0.0),
    ],
    "seed8-case82": [
        (-0.8440872629598837, -0.3216565100921899),
        (0.8650921043851844, 0.07117610418914434),
        (-0.5970334710646993, 0.8302798189454127),
        (-0.8974634210010582, -1.7616662583564913),
        (-1.6634075408665634, -0.2219833480086559),
        (-0.13942962549476542, -0.12747101660049354),
        (-0.46753840851903433, 1.56265008919242),
        (-0.9513739740901112, -0.448155034425365),
        (-1.0220952281392668, -0.3091087319690212),
        (2.06237696133738, -1.1401610964937625),
        (-0.45144323018683846, 0.3600322313135962),
        (-0.9217302279426645, -1.2603293122551833),
        (-0.7198512975712834, 0.2780221589459481),
        (-0.024547720646966465, 0.08710997569326735),
        (-2.1940266036926994, -0.002146393212567485),
        (1.0, 0.0),
    ],
    "seed11-case21": [
        (-30820615.225130677, -122567627.7896421),
        (19567827.369228255, 43363036.6502868),
        (-27232620.276171904, -18968923.67540949),
        (18914178.648723852, 20505133.72583017),
        (56054393.42393614, -30381622.99032537),
        (-9998656.324022505, 126846584.44761154),
        (75837727.76134042, -32530772.933086265),
    ],
}


@pytest.mark.parametrize("name", sorted(CORPUS_CASES))
def test_corpus_case_root_confirmed_by_numpy(name):
    # the contract: a root within tol, or within the rounding floor
    coeffs = [complex(re, im) for re, im in CORPUS_CASES[name]]
    report = run_pipeline(Poly(coeffs), 1e-9)
    if report.stop == "tol":
        assert report.residual <= 1e-9
    else:
        assert report.stop == "floor" and report.residual <= report.floor
    roots = np.roots(coeffs[::-1])
    assert np.min(np.abs(roots - report.root)) <= 1e-6


def test_wilkinson_8_solves_past_the_separation_audit():
    # prod (z - k), k = 1..8, as the benchmark corpus builds it.  Traced
    # at the old R = 725 758, two h-arcs came within the separation
    # audit's MERGE_TOL * R of each other ("h-arcs 0 and 7 within
    # 7.893e-04") and the solve failed in stage trace
    coeffs = [complex(c) for c in np.poly(np.arange(1.0, 9.0))[::-1]]
    p = Poly(coeffs)
    report = run_pipeline(p, 1e-9)
    if report.stop == "tol":
        assert report.residual <= 1e-9
    else:
        assert report.stop == "floor" and report.residual <= report.floor
    assert min(abs(report.root - k) for k in range(1, 9)) <= 1e-6
    assert exact_residual(p, report.root) <= max(1e-9, report.floor)


# gauss corpus seed 0, case 21: a degree-6 polynomial times 1e8, whose
# polish got stuck at the noise floor above tol 1e-9
SCALE_1E8 = [
    (-11296718.324165883, -136268239.39619407),
    (-27641086.307259142, 156509061.53757733),
    (-30174338.28869673, 96600822.30230024),
    (-48543820.96378365, -6259271.21456255),
    (14623107.216489779, 158847003.89476022),
    (16064109.55865469, 83594792.5369672),
    (76020882.75049658, 73208801.83757088),
]


def exact_residual(p, z):
    # |p(z)| for the float coefficients and point, to 40 digits
    with mpmath.workdps(40):
        acc = mpmath.mpc(0)
        for a in reversed(p.coeffs):
            acc = acc * mpmath.mpc(z.real, z.imag) + mpmath.mpc(a.real, a.imag)
        return abs(acc)


class TestPolishFloor:
    def test_stuck_polish_returns_a_floor_point(self):
        p = Poly([complex(re, im) for re, im in SCALE_1E8])
        report = run_pipeline(p, 1e-9)
        assert report.stop == "floor"
        assert 1e-9 < report.residual <= report.floor
        assert report.floor == matcher._residual_bound(p, report.root)[2]
        # the oracle's floor: 4 n u sum |a_i| |z|^i, here in mpmath
        with mpmath.workdps(40):
            x = mpmath.mpf(abs(report.root))
            oracle = 24 * mpmath.mpf(2) ** -53 * sum(
                mpmath.mpf(abs(a)) * x ** k for k, a in enumerate(p.coeffs))
            assert exact_residual(p, report.root) <= oracle
        # solve_root names the point where it got stuck
        with pytest.raises(ConvergenceFailure, match="noise floor") as err:
            matcher.solve_root(p, report.root, 0j, 1e-9)
        assert err.value.point == report.root
        assert err.value.residual == report.residual

    def test_point_above_the_floor_still_raises(self, monkeypatch):
        p = Poly([complex(re, im) for re, im in SCALE_1E8])
        stuck = ConvergenceFailure("stuck", 0.3 + 0.3j, 1e8)

        def raise_stuck(*args):
            raise stuck

        monkeypatch.setattr(matcher, "solve_root", raise_stuck)
        with pytest.raises(ConvergenceFailure) as err:
            matcher._polish(p, 0.3 + 0.3j, 1e-9)
        assert err.value is stuck
        stuck.point = None  # a failure that names no point re-raises too
        with pytest.raises(ConvergenceFailure):
            matcher._polish(p, 0.3 + 0.3j, 1e-9)

    def test_root_within_tol_reports_tol(self):
        report = run_pipeline(Poly([-1, 0, 0, 1]), 1e-9)
        assert report.stop == "tol" and report.residual <= 1e-9
        assert 0.0 < report.floor < 1e-14


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

    def test_bug_is_not_a_stage_failure(self, monkeypatch):
        def broken(*args):
            raise TypeError("a bug, not a solver failure")

        monkeypatch.setattr(matcher, "find_separated_pair", broken)
        with pytest.raises(TypeError):
            run_pipeline(Poly([-1, 0, 0, 1]), 1e-9)

    def test_solver_failure_names_its_stage(self, monkeypatch):
        def stuck(*args):
            raise ConvergenceFailure("stuck")

        monkeypatch.setattr(matcher, "find_separated_pair", stuck)
        with pytest.raises(PipelineError) as info:
            run_pipeline(Poly([-1, 0, 0, 1]), 1e-9)
        assert info.value.stage == "match"
        assert isinstance(info.value.cause, ConvergenceFailure)

    def test_seed_determinism(self):
        a = run_pipeline(Poly([-1, 0, 0, 1]), 1e-9)
        b = run_pipeline(Poly([-1, 0, 0, 1]), 1e-9)
        assert a.root == b.root and a.crossing == b.crossing
