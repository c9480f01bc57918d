import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_abs2, exact_taylor, random_point, random_poly
from openroots import (
    Poly,
    critical_points,
    derivative,
    eval_poly,
    synthetic_div,
    taylor_shift,
)
from openroots import annulus_radius
from openroots.errors import DegreeZero
from openroots.polycore import (
    JetKernel,
    LazyNumpy,
    eval_bound,
    eval_jet,
    eval_with_derivative,
    rounding_floor,
)
from openroots.tracer import PerturbedProblem, _field_eval


def naive_eval(p, z):
    return sum(c * z**k for k, c in enumerate(p.coeffs))


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        p = Poly([1, 2, 0, 0])
        assert p.degree == 1
        assert p.coeffs == (1 + 0j, 2 + 0j)

    def test_zero_constant_kept(self):
        assert Poly([0]).degree == 0

    def test_monic(self):
        p = Poly([2, 0, 4])
        assert p.monic().coeffs == (0.5 + 0j, 0j, 1 + 0j)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, -math.inf),
                                     complex(math.nan, 0)])
    def test_non_finite_rejected(self, bad):
        # a nan coefficient used to send run_pipeline into an endless loop
        with pytest.raises(ValueError, match="coefficients must be finite"):
            Poly([bad, 1, 1])


class TestEval:
    def test_root_of_unity(self):
        assert eval_poly(Poly([1, 0, 1]), 1j) == 0

    def test_cubic_at_one(self):
        assert eval_poly(Poly([-1, 0, 0, 1]), 1) == 0

    def test_cubic_at_two(self):
        assert eval_poly(Poly([-1, 0, 0, 1]), 2) == 7

    def test_horner_matches_power_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = random_poly(rng, int(rng.integers(0, 11)), monic=False)
            z = random_point(rng, 2.0)
            a = eval_poly(p, z)
            b = naive_eval(p, z)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_derivative_pass_consistent(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = random_poly(rng, int(rng.integers(1, 9)), monic=False)
            z = random_point(rng)
            f, df = eval_with_derivative(p, z)
            f2, df2, d2f2 = eval_jet(p, z)
            assert f == eval_poly(p, z) and f2 == f
            assert abs(df - eval_poly(derivative(p), z)) <= 1e-12 * (1 + abs(df))
            assert abs(d2f2 - eval_poly(derivative(derivative(p)), z)) <= \
                1e-11 * (1 + abs(d2f2))


class TestJetKernel:
    @staticmethod
    def floors(p, radius):
        # 4 n u sum |a_k| |z|^k for p, p', p'': the oracle's rounding floor
        n = p.degree
        u = np.finfo(float).eps / 2
        a = np.abs(np.array(p.coeffs))
        k = np.arange(n + 1)
        rows = [a, k * a, k * (k - 1) * a]
        return [4 * n * u * float(np.sum(row[r:] * radius ** (k[r:] - r)))
                for r, row in enumerate(rows)]

    def test_matches_eval_jet_within_floor(self):
        # rows 0, 1 and 2 are p, p' and p'' / 2
        rng = np.random.default_rng(15)
        for n in (2, 3, 5, 8, 16, 32, 64):
            p = random_poly(rng, n, monic=bool(n % 2))
            for radius in (0.5, 1.0, annulus_radius(p)):
                zs = radius * np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
                jets = JetKernel(p, len(zs))(zs)
                assert jets.shape == (n + 1, len(zs))
                floors = self.floors(p, radius)
                for col, z in enumerate(zs):
                    for row, want in enumerate(eval_jet(p, z)):
                        got = jets[row, col] * (2 if row == 2 else 1)
                        assert abs(got - want) <= floors[row]

    def test_rows_are_taylor_coefficients_within_bound(self):
        # |b^_k - b_k| <= gamma_(6n+5) sum_j C(j, k) |a_j| |z|^(j-k),
        # against the exact coefficients of the float inputs
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 17))
            p = random_poly(rng, n, scale=10.0 ** rng.uniform(-3, 3),
                            monic=bool(rng.integers(2)))
            zs = np.array([random_point(rng, 10.0 ** rng.uniform(-2, 1))
                           for _ in range(3)])
            scale = np.array([1.0, -1j, 1.0])
            rows = JetKernel(p, 3, scale)(zs)
            m = (6 * n + 5) * 2.0 ** -53
            gamma = Fraction(m) / (1 - Fraction(m))
            mags = [Fraction(abs(a)) for a in p.coeffs]
            for col, z in enumerate(zs):
                exact = exact_taylor(p, complex(z))
                x = Fraction(abs(z))
                for k in range(n + 1):
                    er, ei = exact[k]
                    want = (er, ei) if scale[col] == 1 else (ei, -er)
                    bound = gamma * sum(math.comb(j, k) * mags[j] * x ** (j - k)
                                        for j in range(k, n + 1))
                    # |z| is itself rounded: allow it one more gamma_3
                    assert exact_abs2(rows[k, col], want) <= \
                        (bound * (1 + Fraction(4 * n + 4, 2 ** 53))) ** 2

    def test_order_and_scale(self):
        rng = np.random.default_rng(16)
        p = random_poly(rng, 6)
        zs = np.array([random_point(rng) for _ in range(5)])
        scale = np.array([1, -1j, 2, 0.5j, -1])
        scaled = JetKernel(p, 5, scale)(zs)
        full = JetKernel(p, 5)(zs)
        assert JetKernel(p, 5)(zs, 1).shape == (1, 5)
        assert np.allclose(JetKernel(p, 5)(zs, 1), full[:1], rtol=1e-14)
        assert np.allclose(scaled, scale * full, rtol=1e-14)

    def test_linear(self):
        jets = JetKernel(Poly([2, 3]), 2)(np.array([0, 1j]))
        assert np.array_equal(jets, [[2, 2 + 3j], [3, 3]])


def test_lazy_numpy_rebinds_the_global_on_first_use():
    namespace = {}
    namespace["np"] = LazyNumpy(namespace)
    assert namespace["np"].pi == np.pi
    assert namespace["np"] is np


class TestDerivative:
    def test_cubic(self):
        assert derivative(Poly([-1, 0, 0, 1])).coeffs == (0j, 0j, 3 + 0j)

    def test_constant(self):
        assert derivative(Poly([5])).coeffs == (0j,)

    def test_quadratic(self):
        assert derivative(Poly([0, 1, 1])).coeffs == (1 + 0j, 2 + 0j)


class TestTaylorShift:
    def test_square_at_one(self):
        assert taylor_shift(Poly([0, 0, 1]), 1).coeffs == (1 + 0j, 2 + 0j, 1 + 0j)

    def test_zero_shift_is_identity(self):
        p = Poly([3, 1j, -2])
        assert taylor_shift(p, 0) is p

    def test_cubic_at_one_pointwise(self):
        p = Poly([-1, 0, 0, 1])
        q = taylor_shift(p, 1)
        assert q.coeffs == (0j, 3 + 0j, 3 + 0j, 1 + 0j)
        rng = np.random.default_rng(13)
        for _ in range(100):
            h = random_point(rng)
            lhs = eval_poly(q, h)
            rhs = eval_poly(p, 1 + h)
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))

    def test_constant_term_is_value(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            p = random_poly(rng, int(rng.integers(1, 8)), monic=False)
            v = random_point(rng)
            assert abs(taylor_shift(p, v).coeffs[0] - eval_poly(p, v)) <= \
                1e-11 * (1 + abs(eval_poly(p, v)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                       allow_infinity=False),
                    min_size=1, max_size=8),
           st.complex_numbers(max_magnitude=2, allow_nan=False,
                              allow_infinity=False))
    def test_roundtrip(self, coeffs, v):
        p = Poly(coeffs)
        back = taylor_shift(taylor_shift(p, v), -v)
        scale = max(1.0, max(abs(c) for c in p.coeffs))
        assert len(back.coeffs) == len(p.coeffs)
        for a, b in zip(back.coeffs, p.coeffs):
            assert abs(a - b) <= 1e-10 * scale


def exact_error(c, exact):
    # |c - exact| for a float complex c, each part's difference rounded once
    return abs(complex(float(Fraction(c.real) - exact[0]),
                       float(Fraction(c.imag) - exact[1])))


class TestRoundingFloor:
    def test_bounds_horner_and_taylor_shift(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            degree = int(rng.integers(1, 17))
            p = random_poly(rng, degree, scale=10.0 ** rng.uniform(-3, 3),
                            monic=False)
            v = random_point(rng, radius=10.0 ** rng.uniform(-2, 1))
            r = 10.0 ** rng.uniform(-12, 0)
            floor = rounding_floor(p, abs(v) + r)
            exact = exact_taylor(p, v)
            assert exact_error(eval_poly(p, v), exact[0]) <= floor
            shifted = taylor_shift(p, v).coeffs
            assert sum(exact_error(b, e) * r ** k for k, (b, e) in
                       enumerate(zip(shifted, exact))) <= floor


class TestEvalBound:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 16),
           st.floats(-3, 3), st.floats(-2, 1.5))
    def test_running_bound_covers_the_exact_error(self, seed, degree,
                                                   scale, radius):
        rng = np.random.default_rng(seed)
        p = random_poly(rng, degree, scale=10.0 ** scale,
                        monic=bool(seed % 2))
        z = random_point(rng, 10.0 ** radius)
        value, err, total = eval_bound(p, z)
        assert value == eval_poly(p, z)
        assert exact_abs2(value, exact_taylor(p, z)[0]) <= Fraction(err) ** 2
        want = sum(abs(a) * abs(z) ** k for k, a in enumerate(p.coeffs))
        assert total == pytest.approx(want, rel=1e-13)

    def test_constant_is_exact(self):
        assert eval_bound(Poly([2 - 1j]), 5.0) == (2 - 1j, 0.0, abs(2 - 1j))


class TestSyntheticDiv:
    def test_exact_factor(self):
        q, rem = synthetic_div(Poly([-1, 0, 0, 1]), 1)  # z^3-1 by (z-1)
        assert abs(rem) == 0
        assert q.coeffs == (1 + 0j, 1 + 0j, 1 + 0j)

    def test_remainder_is_value(self):
        p = Poly([2, -1, 3j])
        _, rem = synthetic_div(p, 1.5 + 0.5j)
        assert abs(rem - eval_poly(p, 1.5 + 0.5j)) < 1e-12


class TestHarmonicEval:
    """g = Re f, h = Im f and their gradients, as the tracer evaluates
    them (``tracer._field_eval``, with eps1 = eps2 = 0)."""

    @staticmethod
    def fields(p, x, y):
        # (g, h, gx, gy, hx, hy)
        prob = PerturbedProblem(base=p, eps1=0.0, eps2=0.0)
        g, gx, gy = _field_eval(prob, "g", x, y)
        h, hx, hy = _field_eval(prob, "h", x, y)
        return g, h, gx, gy, hx, hy

    def test_identity_map(self):
        assert self.fields(Poly([0, 1]), 2.0, 3.0) == (2, 3, 1, 0, 0, 1)

    def test_square(self):
        g, h, gx, gy, _, _ = self.fields(Poly([0, 0, 1]), 1.0, 1.0)
        assert (g, h) == (0, 2)
        assert (gx, gy) == (2, -2)

    def test_cubic_at_root(self):
        g, h, gx, _, _, _ = self.fields(Poly([-1, 0, 0, 1]), 1.0, 0.0)
        assert (g, h, gx) == (0, 0, 3)

    def test_cauchy_riemann_exact(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            p = random_poly(rng, int(rng.integers(1, 9)), monic=False)
            z = random_point(rng)
            _, _, gx, gy, hx, hy = self.fields(p, z.real, z.imag)
            assert gx == hy
            assert gy == -hx

    def test_partials_match_finite_differences(self):
        rng = np.random.default_rng(16)
        delta = 1e-6
        for _ in range(25):
            p = random_poly(rng, int(rng.integers(1, 7)))
            z = random_point(rng)
            g, h, gx, gy, hx, hy = self.fields(p, z.real, z.imag)
            gx_fd, hx_fd = (
                (a - b) / delta for a, b in
                zip(self.fields(p, z.real + delta, z.imag)[:2], (g, h)))
            gy_fd, hy_fd = (
                (a - b) / delta for a, b in
                zip(self.fields(p, z.real, z.imag + delta)[:2], (g, h)))
            scale = max(1.0, abs(gx), abs(gy))
            for fd, exact in ((gx_fd, gx), (gy_fd, gy), (hx_fd, hx),
                              (hy_fd, hy)):
                assert abs(fd - exact) <= 1e-4 * scale


class TestCriticalPoints:
    def test_square(self):
        pts = critical_points(Poly([0, 0, 1]), 1e-9)
        assert len(pts) == 1 and abs(pts[0]) <= 1e-9

    def test_depressed_cubic(self):
        pts = sorted(critical_points(Poly([0, -3, 0, 1]), 1e-9),
                     key=lambda z: z.real)
        assert len(pts) == 2
        assert abs(pts[0] + 1) <= 1e-8 and abs(pts[1] - 1) <= 1e-8

    def test_quartic_plus_z(self):
        # p' = 4z^3 + 1: closed-form cube roots of -1/4 as the oracle
        pts = critical_points(Poly([0, 1, 0, 0, 1]), 1e-9)
        r = 0.25 ** (1.0 / 3.0)
        expect = [r * cmath.exp(1j * (math.pi + 2 * math.pi * k) / 3)
                  for k in range(3)]
        assert len(pts) == 3
        for w in expect:
            assert min(abs(z - w) for z in pts) <= 1e-8

    def test_linear_has_none(self):
        assert critical_points(Poly([4, 2]), 1e-9) == []

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeZero):
            critical_points(Poly([5]), 1e-9)

    def test_count_and_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = random_poly(rng, int(rng.integers(2, 7)))
            pts = critical_points(p, 1e-9)
            assert len(pts) == p.degree - 1
            dp = derivative(p)
            for z in pts:
                assert abs(eval_poly(dp, z)) <= 1e-9
