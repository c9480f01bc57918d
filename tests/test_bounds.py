import cmath
import math

import numpy as np
import pytest

from conftest import random_poly
from openroots import Poly, eval_poly, openness_radius, reich_radius
from openroots.errors import DegreeZero, NonzeroConstantTerm, ZeroPolynomial


def circle_samples(rng, radius, count):
    return [radius * cmath.exp(1j * t)
            for t in rng.uniform(0.0, 2.0 * math.pi, size=count)]


class TestReichRadius:
    def test_pure_powers(self):
        for n in range(1, 6):
            assert reich_radius(Poly([0] * n + [1])) == 1.0

    def test_square_plus_one(self):
        assert reich_radius(Poly([1, 0, 1])) == 2.0

    def test_cubic(self):
        p = Poly([3, 2, 0, 1])
        assert reich_radius(p) == 10.0
        rng = np.random.default_rng(21)
        for z in circle_samples(rng, 10.0, 1000):
            assert abs(eval_poly(p, z)) >= 0.5 * abs(z) ** 3

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeZero):
            reich_radius(Poly([7]))

    def test_bound_on_random_polynomials(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            p = random_poly(rng, int(rng.integers(1, 9)))
            R = reich_radius(p)
            n = p.degree
            for radius in (R, 2.0 * R):
                for z in circle_samples(rng, radius, 50):
                    assert abs(eval_poly(p, z)) >= 0.5 * abs(z) ** n


def lhs_rhs(p, r):
    n = p.degree
    j = next(i for i, c in enumerate(p.coeffs) if c != 0)
    lhs = abs(p.coeffs[n]) * r**n
    lhs += sum(abs(p.coeffs[i]) * r**i for i in range(j + 1, n))
    return lhs, abs(p.coeffs[j]) * r**j


class TestOpennessRadius:
    def test_square_plus_z(self):
        r = openness_radius(Poly([0, 1, 1]))
        assert r <= 0.5
        lhs, rhs = lhs_rhs(Poly([0, 1, 1]), r)
        assert lhs < rhs

    def test_monomial_degenerate(self):
        for n in (1, 2, 5):
            assert openness_radius(Poly([0] * n + [1])) == 1.0

    def test_cubic_with_large_linear_term(self):
        p = Poly([0, 10, 0, 1])
        r = openness_radius(p)
        assert r**2 < 10.0
        lhs, rhs = lhs_rhs(p, r)
        assert lhs < rhs

    def test_margin_and_monotonicity(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            deg = int(rng.integers(2, 8))
            p = random_poly(rng, deg, monic=False)
            p = Poly((0,) + p.coeffs[1:])  # force p(0) = 0
            if all(c == 0 for c in p.coeffs):
                continue
            if next(i for i, c in enumerate(p.coeffs) if c != 0) == p.degree:
                continue
            r = openness_radius(p)
            lhs, rhs = lhs_rhs(p, r)
            assert 1.01 * lhs < rhs
            lhs2, rhs2 = lhs_rhs(p, r / 2)
            assert lhs2 < rhs2

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            openness_radius(Poly([0]))

    def test_nonzero_constant_term_rejected(self):
        with pytest.raises(NonzeroConstantTerm):
            openness_radius(Poly([1, 1]))


class TestBoundaryMin:
    # the minimum of |p| on a circle, taken over samples
    def test_positive_inside_openness_radius(self):
        p = Poly([0, 1, 1])
        r = openness_radius(p)
        rng = np.random.default_rng(24)
        assert min(abs(eval_poly(p, z))
                   for z in circle_samples(rng, r, 4096)) > 0
