import cmath
import math

import numpy as np
import pytest

from conftest import random_point, random_poly
from openroots import (
    Poly,
    all_roots,
    descent_step,
    eval_poly,
    preimage_count,
    solve_root,
    taylor_shift,
)
from openroots.errors import (
    AtTarget,
    ConvergenceFailure,
    DegreeZero,
    RootFindError,
)

TWO_PI = 2.0 * math.pi


def angle_diff(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def audit_step(p, v, t, rep):
    """Re-derive the recentered coefficients and check the step laws."""
    b = taylor_shift(p, v).coeffs
    q = t - b[0]
    # phase law: s psi + arg b_s = arg q (mod 2 pi)
    assert angle_diff(rep.s * rep.psi + cmath.phase(b[rep.s]),
                      cmath.phase(q)) <= 1e-9
    # beta conditions as literal inequalities
    tail = sum(abs(b[k]) * rep.beta ** (k - rep.s)
               for k in range(rep.s + 1, len(b)))
    assert tail < abs(b[rep.s])
    assert abs(b[rep.s]) * rep.beta ** rep.s < abs(q)
    assert rep.after < rep.before


class TestDescentStep:
    def test_linear(self):
        rep = descent_step(Poly([0, 1]), 1.0, 0.0)
        assert rep.s == 1
        assert angle_diff(rep.psi, math.pi) <= 1e-12
        assert 0 < rep.beta < 1
        assert abs(rep.after - (1 - rep.beta)) <= 1e-12

    def test_square_from_one(self):
        p = Poly([0, 0, 1])
        rep = descent_step(p, 1.0, 0.0)
        # shift gives b = (1, 2, 1): s = 1, conditions beta < 2 and beta < 1/2
        assert rep.s == 1
        assert rep.beta < 0.5
        assert abs(rep.after - (1 - rep.beta) ** 2) <= 1e-12
        audit_step(p, 1.0, 0.0, rep)

    def test_cubic_from_origin(self):
        p = Poly([-1, 0, 0, 1])
        rep = descent_step(p, 0.0, 0.0)
        assert rep.s == 3
        assert angle_diff(rep.psi, 0.0) <= 1e-12
        assert rep.beta < 1.0
        assert abs(rep.after - abs(rep.beta**3 - 1)) <= 1e-12

    def test_at_target(self):
        with pytest.raises(AtTarget):
            descent_step(Poly([0, 0, 1]), 1.0, 1.0)

    def test_radius_cap_respected(self):
        rep = descent_step(Poly([0, 0, 1]), 0.5, 0.0, radius_cap=0.6)
        assert rep.beta <= 0.9 * 0.1 + 1e-15

    def test_monotonicity_and_audit_random(self):
        rng = np.random.default_rng(31)
        done = 0
        while done < 1000:
            p = random_poly(rng, int(rng.integers(1, 9)), monic=False)
            v = random_point(rng, 2.0)
            t = random_point(rng, 3.0)
            try:
                rep = descent_step(p, v, t)
            except AtTarget:
                continue
            audit_step(p, v, t, rep)
            done += 1


class TestSolveRoot:
    def test_linear_one_step(self):
        z = solve_root(Poly([-5, 1]), 0.0, 0.0, 1e-9, max_iter=2)
        assert abs(z - 5) <= 1e-12

    def test_square_plus_one(self):
        z = solve_root(Poly([1, 0, 1]), 1 + 0.1j, 0.0, 1e-9)
        assert abs(eval_poly(Poly([1, 0, 1]), z)) <= 1e-9
        assert min(abs(z - 1j), abs(z + 1j)) <= 1e-6

    def test_cubic_roots_of_unity(self):
        p = Poly([-1, 0, 0, 1])
        z = solve_root(p, 0.5 + 0.5j, 0.0, 1e-9)
        assert abs(eval_poly(p, z)) <= 1e-9
        roots = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
        assert min(abs(z - w) for w in roots) <= 1e-6

    def test_nonzero_target(self):
        p = Poly([0, 0, 1])
        z = solve_root(p, 1.0, 4.0, 1e-12)
        assert abs(eval_poly(p, z) - 4.0) <= 1e-12

    def test_budget_exhaustion(self):
        with pytest.raises(ConvergenceFailure):
            solve_root(Poly([-1, 0, 0, 1]), 0.0, 0.0, 1e-15, max_iter=1)

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeZero):
            solve_root(Poly([3]), 0.0)


class TestAllRoots:
    def test_square_minus_one(self):
        roots = all_roots(Poly([-1, 0, 1]), 1e-9)
        assert sorted(round(z.real) for z in roots) == [-1, 1]
        for z in roots:
            assert abs(z.imag) <= 1e-8

    def test_cubic_closed_form(self):
        roots = all_roots(Poly([-1, 0, 0, 1]), 1e-9)
        expect = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
        assert len(roots) == 3
        for w in expect:
            assert min(abs(z - w) for z in roots) <= 1e-7

    def test_double_root_multiplicity(self):
        # (z-1)^2 (z+2) = z^3 - 3z + 2
        p = Poly([2, -3, 0, 1])
        roots = all_roots(p, 1e-10)
        near_one = [z for z in roots if abs(z - 1) <= 1e-4]
        near_minus_two = [z for z in roots if abs(z + 2) <= 1e-7]
        assert len(near_one) == 2 and len(near_minus_two) == 1
        for z in roots:
            assert abs(eval_poly(p, z)) <= 1e-10

    def test_reconstruction(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            p = random_poly(rng, int(rng.integers(1, 7)))
            roots = all_roots(p, 1e-9)
            rebuilt = np.poly(roots)[::-1]  # ascending
            for a, b in zip(rebuilt, p.monic().coeffs):
                assert abs(a - b) <= 1e-6

    def test_underflowing_phase_is_a_root_find_error(self):
        # arg(1e150 + 1e-200j) underflows: cmath.phase raises
        # OverflowError there, the step's phases must not
        with pytest.raises(RootFindError):
            all_roots(Poly([1e150, 0, 1e150 + 1e-200j]))


class TestPreimageCount:
    def test_square_regular_value(self):
        assert preimage_count(Poly([0, 0, 1]), 1.0, 1e-9, 1e-3) == (2, 2)

    def test_square_critical_value(self):
        assert preimage_count(Poly([0, 0, 1]), 0.0, 1e-9, 1e-3) == (1, 2)

    def test_cubic_three_preimages(self):
        assert preimage_count(Poly([0, -1, 0, 1]), 0.0, 1e-9, 1e-3) == (3, 3)

    def test_locally_constant_at_regular_values(self):
        rng = np.random.default_rng(33)
        p = random_poly(rng, 4)
        for _ in range(5):
            w = random_point(rng, 2.0)
            roots = all_roots(Poly((p.coeffs[0] - w,) + p.coeffs[1:]), 1e-9)
            from openroots import derivative
            if min(abs(eval_poly(derivative(p), z)) for z in roots) <= 0.1:
                continue
            base = preimage_count(p, w, 1e-9, 1e-6)
            assert base[1] == 4
            for k in range(10):
                shift = w + 1e-3 * cmath.exp(2j * math.pi * k / 10)
                assert preimage_count(p, shift, 1e-9, 1e-6)[1] == 4
