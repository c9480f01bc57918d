import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poly
from openroots import (
    Poly,
    annulus_radius,
    boundary_nodes,
    eval_poly,
    interleaving_check,
    locate_boundary_nodes,
    reich_radius,
)
from openroots import annulus
from openroots.annulus import _rouche_certified
from openroots.errors import (
    BracketFailure,
    ConvergenceFailure,
    InterleavingViolation,
    RootFindError,
)

ONE_DEGREE = math.pi / 180.0


def dense_zero_angles(p, R, component, samples=360_000):
    """Independent oracle: bracket every sign change of Re/Im f on |z| = R."""
    optimize = pytest.importorskip("scipy.optimize")
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    desc = np.array(p.monic().coeffs[::-1], dtype=complex)
    vals = np.polyval(desc, R * np.exp(1j * theta))
    vals = vals.real if component == "re" else vals.imag
    out = []
    f = (lambda t: eval_poly(p.monic(), R * np.exp(1j * t)).real) \
        if component == "re" else \
        (lambda t: eval_poly(p.monic(), R * np.exp(1j * t)).imag)
    step = 2.0 * math.pi / samples
    for i in range(samples):
        a, b = vals[i], vals[(i + 1) % samples]
        if a == 0.0:
            out.append(theta[i])
        elif (a > 0) != (b > 0):
            out.append(optimize.bisect(f, theta[i], theta[i] + step, xtol=1e-12))
    return sorted(t % (2.0 * math.pi) for t in out)


class TestAnnulusRadius:
    def test_identity_accepts_small_radius(self):
        p = Poly([0, 1])
        R = annulus_radius(p)
        assert R == reich_radius(p) == 1.0

    def test_pure_cube(self):
        assert annulus_radius(Poly([0, 0, 0, 1])) == 1.0

    def test_cube_with_large_square_term(self):
        p = Poly([0, 0, 10, 1])
        R = annulus_radius(p)
        assert R >= reich_radius(p)
        # accepted radius keeps lower terms below the leading midpoint margin
        assert 10.0 * R**2 < R**3 * math.sin(math.pi / 4.0)


def sign_scan_zeros(q, rho, samples):
    """Independent count of the zeros of Re q and Im q on |z| = rho: sign
    changes of q(z) / rho^n over dense equispaced samples, in numpy."""
    n = q.degree
    scaled = [a * rho ** (k - n) for k, a in enumerate(q.coeffs)]
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    vals = np.polyval(np.array(scaled[::-1]), np.exp(1j * theta))
    flips = [np.signbit(part) != np.signbit(np.roll(part, 1))
             for part in (vals.real, vals.imag)]
    return [int(np.count_nonzero(f)) for f in flips]


@st.composite
def _certificate_cases(draw):
    # degree 1-64, lower coefficients at scale 1e-3..1e3, lead near unit size
    n = draw(st.integers(1, 64))
    scale = 10.0 ** draw(st.integers(-3, 3))
    part = st.floats(-1, 1)
    low = [complex(draw(part), draw(part)) * scale for _ in range(n)]
    lead = draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=10))
    return Poly(low + [lead])


class TestRoucheCertificate:
    @settings(max_examples=40, deadline=None)
    @given(_certificate_cases())
    def test_nodes_alone_and_within_one_degree(self, p):
        n, q = p.degree, p.monic()
        try:
            R = annulus_radius(p)
        except ConvergenceFailure as exc:
            # only R^n overflow stops the search: no radius below it passes
            assert "overflows" in str(exc)
            assert not _rouche_certified(q, 2.0 ** (1023 / n - 1 / 64))
            return
        # the smallest certified radius, to the search's factor 2^(1/64)
        assert _rouche_certified(q, R)
        assert R == 1.0 or not _rouche_certified(q, R * 2.0 ** (-1 / 64))
        for rho in (R, 2 * R):
            if n * math.log2(rho) >= 1023:
                continue
            ns = boundary_nodes(p, rho)
            assert max(abs(nd.deviation) for nd in ns.nodes) <= ONE_DEGREE
            assert interleaving_check(ns) == list(range(4 * n))
            assert sign_scan_zeros(q, rho, 256 * n) == [2 * n, 2 * n]

    def test_cap_at_45_degrees(self):
        # d = 0.8 < sin 60 degrees at R = 1, but a node there is outside
        # its bracket of +- 0.75 degrees: the cap must be 45, not 89
        p = Poly([0] * 59 + [0.8, 1])
        assert not _rouche_certified(p, 1.0)
        with pytest.raises(BracketFailure, match="P-node 35"):
            boundary_nodes(p, 1.0)
        ns = locate_boundary_nodes(p)
        assert _rouche_certified(p, ns.R)
        assert max(abs(nd.deviation) for nd in ns.nodes) <= ONE_DEGREE

    def test_radius_overflow_is_named(self):
        # d < sin 45 degrees needs R > 1000 sqrt 2, and R^128 overflows
        # from R = 2^(1023/128) < 256 on: no certified R fits a double
        n = 128
        p = Poly([1.0] * (n - 1) + [1e3, 1.0])
        assert not _rouche_certified(p, 2.0 ** (1023 / n))
        with pytest.raises(RootFindError, match="R\\^n overflows double"):
            locate_boundary_nodes(p)


class TestBoundaryNodes:
    def test_identity_exact_angles(self):
        ns = boundary_nodes(Poly([0, 1]), 2.0)
        p_angles = [nd.angle for nd in ns.of_kind("P")]
        q_angles = [nd.angle for nd in ns.of_kind("Q")]
        assert np.allclose(p_angles, [math.pi / 2, 3 * math.pi / 2], atol=1e-12)
        assert np.allclose(q_angles, [0.0, math.pi], atol=1e-12)

    def test_pure_cube_exact_angles(self):
        ns = boundary_nodes(Poly([0, 0, 0, 1]), 1.0)
        expect = [(2 * i + 1) * math.pi / 6 for i in range(6)]
        got = [nd.angle for nd in ns.of_kind("P")]
        assert np.allclose(got, expect, atol=1e-9)

    def test_quadratic_against_dense_sampling(self):
        p = Poly([1, 1, 1])
        ns = locate_boundary_nodes(p)
        for kind, component in (("P", "re"), ("Q", "im")):
            got = sorted(nd.angle for nd in ns.of_kind(kind))
            want = dense_zero_angles(p, ns.R, component)
            assert len(got) == len(want) == 4
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-9
        for nd in ns.of_kind("P"):
            assert abs(nd.deviation) <= ONE_DEGREE

    def test_node_field_residuals(self):
        rng = np.random.default_rng(51)
        polys = [Poly([-1, 0, 0, 1]), Poly([1, 0, 1]), random_poly(rng, 5)]
        for p in polys:
            ns = locate_boundary_nodes(p)
            n = p.degree
            q = p.monic()
            for nd in ns.nodes:
                w = eval_poly(q, ns.position(nd))
                val = w.real if nd.kind == "P" else w.imag
                assert abs(val) <= 1e-9 * ns.R**n

    def test_bracket_failure_at_bad_radius(self):
        with pytest.raises(BracketFailure):
            boundary_nodes(Poly([0, 0, 10, 1]), 1.0)

    def test_nodes_match_scipy_bisection(self):
        rng = np.random.default_rng(52)
        polys = [Poly([-1, 0, 0, 1]), Poly([1, 1, 1]),
                 random_poly(rng, 5), random_poly(rng, 8, monic=False)]
        for p in polys:
            ns = locate_boundary_nodes(p)
            field = node_field(p, ns.R)
            for nd in ns.nodes:
                theta = nd.asymptote + nd.deviation
                assert abs(theta - scipy_node(p, ns.R, nd)) <= 2e-12
                assert nd.angle == theta % (2.0 * math.pi)
                # the scalar Horner field changes sign across the node
                below = field(nd, nd.angle - 1e-12)
                above = field(nd, nd.angle + 1e-12)
                assert below * above < 0

    @pytest.mark.parametrize("row", [0, 1])
    def test_non_finite_kernel_row_is_named(self, monkeypatch, row):
        # a NaN in P-node 3's value or slope in the first Newton pass,
        # after the two bracket passes, stops the solve and names it
        passes = []

        def poison(out):
            passes.append(1)
            if len(passes) == 3:
                out[row, 3] = complex("nan")
        monkeypatch.setattr(annulus, "JetKernel", tampered_kernel(poison))
        with pytest.raises(ConvergenceFailure, match="P-node 3 "):
            boundary_nodes(Poly([1, 1, 1]), 2.0)

    def test_zero_slope_falls_back_to_bisection(self, monkeypatch):
        # Newton steps are infinite, so every step is the midpoint: about
        # 40 passes, and the same nodes
        p = Poly([1, 1, 1])
        want = boundary_nodes(p, 2.0)
        passes = []

        def flatten(out):
            passes.append(1)
            out[1] = 0

        monkeypatch.setattr(annulus, "JetKernel", tampered_kernel(flatten))
        got = boundary_nodes(p, 2.0)
        assert len(passes) > 30
        for a, b in zip(want.nodes, got.nodes):
            assert a[:2] == b[:2] and abs(a.angle - b.angle) <= 2e-12

    def test_pass_cap_names_moving_node(self, monkeypatch):
        monkeypatch.setattr(annulus, "_MAX_PASSES", 1)
        with pytest.raises(ConvergenceFailure, match="still moving"):
            boundary_nodes(Poly([1, 1, 1]), 2.0)

    def test_false_convergence_fails_the_sign_check(self, monkeypatch):
        # a slope 1e12 times too steep makes every first Newton step fall
        # below 1e-12, far from the node, and the final check catches it
        def steepen(out):
            out[1] *= 1e12
        monkeypatch.setattr(annulus, "JetKernel", tampered_kernel(steepen))
        with pytest.raises(ConvergenceFailure,
                           match="no sign change within 1e-12"):
            boundary_nodes(Poly([1, 1, 1]), 2.0)

    def test_few_newton_passes(self, monkeypatch):
        # TestDeviations' polynomials and 20 random ones of degree 2-16;
        # 2 bracket passes and 2 check passes surround the Newton passes
        polys = [Poly([-5, 1]), Poly([1, 0, 1]), Poly([-1, 0, 1]),
                 Poly([-1, 0, 0, 1]), Poly([-1, 0, 0, 0, 1]),
                 Poly([2, -3, 0, 1]), Poly([1, -1, 0, 0, 0, 1]),
                 random_poly(np.random.default_rng(53), 6), Poly([1, 1, 1]),
                 random_poly(np.random.default_rng(54), 4)]
        rng = np.random.default_rng(55)
        polys += [random_poly(rng, int(n), scale=float(s), monic=False)
                  for n, s in zip(rng.integers(2, 17, size=20),
                                  10.0 ** rng.integers(-2, 3, size=20))]
        passes = []
        monkeypatch.setattr(annulus, "JetKernel",
                            tampered_kernel(lambda out: passes.append(1)))
        for p in polys:
            R = annulus_radius(p)
            del passes[:]
            ns = boundary_nodes(p, R)
            assert len(passes) - 4 <= 8
            for nd in ns.nodes:
                theta = nd.asymptote + nd.deviation
                assert abs(theta - scipy_node(p, R, nd)) <= 2e-12


def node_field(p, R):
    """The scalar Horner field of a node's kind at an angle."""
    q = p.monic()

    def field(nd, t):
        w = eval_poly(q, R * complex(math.cos(t), math.sin(t)))
        return w.real if nd.kind == "P" else w.imag
    return field


def scipy_node(p, R, nd):
    """The node in its bracket by scipy's bisection, to xtol 1e-12."""
    optimize = pytest.importorskip("scipy.optimize")
    half = math.pi / (4 * p.degree)
    field = node_field(p, R)
    return optimize.bisect(lambda t: field(nd, t), nd.asymptote - half,
                           nd.asymptote + half, xtol=1e-12)


def tampered_kernel(tamper):
    """annulus.JetKernel, with tamper(rows) applied to every result."""
    base = annulus.JetKernel

    class Tampered(base):
        __slots__ = ()

        def __call__(self, zs, rows=None):
            out = base.__call__(self, zs, rows)
            tamper(out)
            return out
    return Tampered


class TestInterleaving:
    def test_pure_cube_sequence(self):
        ns = boundary_nodes(Poly([0, 0, 0, 1]), 1.0)
        assert interleaving_check(ns) == list(range(12))

    def test_identity_sequence(self):
        ns = boundary_nodes(Poly([0, 1]), 2.0)
        assert interleaving_check(ns) == [0, 1, 2, 3]

    def test_random_cubic(self):
        rng = np.random.default_rng(52)
        for _ in range(5):
            ns = locate_boundary_nodes(random_poly(rng, 3))
            assert interleaving_check(ns) == list(range(12))

    def test_violation_detected(self):
        ns = boundary_nodes(Poly([0, 1]), 2.0)
        swapped = type(ns)(R=ns.R, nodes=tuple(
            type(nd)(kind=nd.kind, index=1 - nd.index, angle=nd.angle,
                     asymptote=nd.asymptote, deviation=nd.deviation)
            if nd.kind == "Q" else nd
            for nd in ns.nodes))
        with pytest.raises(InterleavingViolation):
            interleaving_check(swapped)


class TestDeviations:
    def test_one_degree_bound_for_suite(self):
        rng = np.random.default_rng(53)
        polys = [Poly([-5, 1]), Poly([1, 0, 1]), Poly([-1, 0, 1]),
                 Poly([-1, 0, 0, 1]), Poly([-1, 0, 0, 0, 1]),
                 Poly([2, -3, 0, 1]), Poly([1, -1, 0, 0, 0, 1]),
                 random_poly(rng, 6)]
        for p in polys:
            ns = locate_boundary_nodes(p)
            assert max(abs(nd.deviation) for nd in ns.nodes) <= ONE_DEGREE

    def test_doubling_radius_shrinks_deviation(self):
        rng = np.random.default_rng(54)
        for p in (Poly([1, 1, 1]), Poly([2, -3, 0, 1]), random_poly(rng, 4)):
            R = annulus_radius(p)
            d1 = max(abs(nd.deviation) for nd in boundary_nodes(p, R).nodes)
            d2 = max(abs(nd.deviation) for nd in boundary_nodes(p, 2 * R).nodes)
            assert d2 <= 0.55 * d1
