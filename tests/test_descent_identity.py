"""Bit-identity of the in-place descent step with the list-based one.

The reference below is the straightforward form of the descent solver:
Taylor recentering by dividing one quotient list after another, |b_k|
recomputed at every halving, and f(v) re-evaluated when a step finds
the residual at the noise floor.  The library must reproduce it
exactly: same coefficients, same roots, same error messages.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_poly
from openroots import (
    Poly,
    all_roots,
    descent,
    descent_step,
    eval_poly,
    solve_root,
    taylor_shift,
)
from openroots.errors import (
    AtTarget,
    ConvergenceFailure,
    DegenerateConstant,
    RootFindError,
)
from openroots.polycore import eval_jet, eval_with_derivative


def ref_synthetic_div(coeffs, v):
    m = len(coeffs) - 1
    if m == 0:
        return [], coeffs[0]
    q = [0j] * m
    q[m - 1] = coeffs[m]
    for i in range(m - 1, 0, -1):
        q[i - 1] = coeffs[i] + v * q[i]
    return q, coeffs[0] + v * q[0]


def ref_taylor_shift(coeffs, v):
    v = complex(v)
    if v == 0:
        return tuple(coeffs)
    work, out = list(coeffs), []
    while work:
        work, rem = ref_synthetic_div(work, v)
        out.append(rem)
    return tuple(out)


def ref_eval(coeffs, z):
    z = complex(z)
    acc = coeffs[-1]
    for a in reversed(coeffs[:-1]):
        acc = acc * z + a
    return acc


def ref_eval_with_derivative(coeffs, z):
    z = complex(z)
    b, c = coeffs[-1], 0j
    for a in reversed(coeffs[:-1]):
        c = c * z + b
        b = b * z + a
    return b, c


def ref_descent_step(coeffs, v, t):
    v, t = complex(v), complex(t)
    b = ref_taylor_shift(coeffs, v)
    drop = 1e-13 * (1.0 + max(abs(c) for c in b))
    q = t - b[0]
    before = abs(q)
    if before <= drop:
        raise AtTarget(f"|t - f(v)| = {before:.3e} at the noise floor")
    candidates = [k for k in range(1, len(b)) if abs(b[k]) > drop]
    if not candidates:
        raise DegenerateConstant("all recentered coefficients b_k, k >= 1, vanish")
    phi = math.atan2(q.imag, q.real)
    for s in candidates:
        psi = (phi - math.atan2(b[s].imag, b[s].real)) / s
        beta_ii = 1.0
        while sum(abs(b[k]) * beta_ii ** (k - s)
                  for k in range(s + 1, len(b))) >= abs(b[s]):
            beta_ii *= 0.5
        beta = 0.9 * min(beta_ii, (before / abs(b[s])) ** (1.0 / s))
        step = beta * cmath.exp(1j * psi)
        after = abs(t - ref_eval(coeffs, v + step))
        if after < before:
            return s, beta, psi, after, step
    raise ConvergenceFailure(
        f"no numerically decreasing step at v = {v} (residual {before:.3e})")


def ref_solve_root(coeffs, v0, t=0j, tol=1e-9, max_iter=10_000):
    v, t = complex(v0), complex(t)
    res = abs(ref_eval(coeffs, v) - t)
    for _ in range(max_iter):
        if res <= tol:
            return v
        try:
            s, beta, psi, after, step = ref_descent_step(coeffs, v, t)
        except AtTarget:
            res = abs(ref_eval(coeffs, v) - t)
            if res <= tol:
                return v
            raise ConvergenceFailure(
                f"residual {res:.3e} stuck at the noise floor above tol {tol:.3e}")
        best_v, best_res = v + step, after
        phase = cmath.exp(1j * psi)
        for _ in range(8):
            beta *= 0.5
            cand = v + beta * phase
            r = abs(ref_eval(coeffs, cand) - t)
            if r < best_res:
                best_v, best_res = cand, r
        if s == 1:
            fv, dfv = ref_eval_with_derivative(coeffs, v)
            cand = v + (t - fv) / dfv
            r = abs(ref_eval(coeffs, cand) - t)
            if r < best_res:
                best_v, best_res = cand, r
        v, res = best_v, best_res
    raise ConvergenceFailure(
        f"no root after {max_iter} iterations; residual {res:.3e}")


def ref_all_roots(coeffs, tol=1e-9):
    roots, work = [], list(coeffs)
    while len(work) > 1:
        if len(work) == 2:
            raw = -work[0] / work[1]
        else:
            raw = ref_solve_root(work, 0j, 0j, tol)
        polished = ref_solve_root(coeffs, raw, 0j, tol)
        roots.append(polished)
        work, _ = ref_synthetic_div(work, polished)
    return tuple(roots)


def outcome(fn, *args):
    try:
        return tuple(fn(*args))
    except RootFindError as exc:
        return type(exc), str(exc)


SHIFTS = [0, 1e-3, -1e-3j, 1, -1, 2.5, 2.5j, 50, -50, 0.3 - 0.7j,
          1e-3 * cmath.exp(2j), 2.5 * cmath.exp(-1j), 50 * cmath.exp(0.4j)]


class TestTaylorShiftIdentity:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_equals_repeated_division(self, n):
        rng = np.random.default_rng(100 + n)
        p = random_poly(rng, n, monic=bool(n % 2))
        for v in SHIFTS:
            assert taylor_shift(p, v).coeffs == ref_taylor_shift(p.coeffs, v)

    def test_real_coefficients(self):
        p = Poly([3, -1, 0, 2, 0, 0, 1])
        for v in SHIFTS:
            assert taylor_shift(p, v).coeffs == ref_taylor_shift(p.coeffs, v)


class TestStep:
    def test_matches_reference_step(self):
        rng = np.random.default_rng(42)
        for n in range(1, 17):
            p = random_poly(rng, n, monic=False)
            for v in SHIFTS[1:]:
                rep = descent_step(p, v, 0.5j)
                want = ref_descent_step(p.coeffs, v, 0.5j)
                assert (rep.s, rep.beta, rep.psi, rep.after, rep.step) == want

    def test_halving_sums_in_index_order(self):
        # sum |b_k|, k = 2..4, is 1 added in index order and 1 + 2^-52
        # added from the top; |b_1| = 1 + 2^-52 makes the order decide
        # whether beta = 1 passes
        p = Poly([0, 1 + 2**-52, 1, 2**-53, 2**-53])
        rep = descent_step(p, 0, 10)
        assert rep.beta == 0.9 == ref_descent_step(p.coeffs, 0, 10)[1]


def _signed_part(scale):
    # a float of magnitude below scale, or a zero of either sign
    return st.one_of(st.floats(-1, 1).map(lambda x: x * scale),
                     st.sampled_from([0.0, -0.0]))


@st.composite
def _shift_cases(draw):
    # (p, v): degree 1-32, coefficients and v at scales 1e-8..1e8, v != 0
    coeff_scale = 10.0 ** draw(st.integers(-8, 8))
    point_scale = 10.0 ** draw(st.integers(-8, 8))
    n = draw(st.integers(1, 32))
    parts = draw(st.lists(_signed_part(coeff_scale), min_size=2 * n + 2,
                          max_size=2 * n + 2))
    coeffs = [complex(x, y) for x, y in zip(parts[::2], parts[1::2])]
    if coeffs[-1] == 0:
        coeffs[-1] = complex(coeff_scale, -0.0)
    x = draw(st.floats(-1, 1).filter(lambda x: x * point_scale != 0))
    y = draw(st.one_of(st.sampled_from([0.0, -0.0]),
                       _signed_part(point_scale)))
    return Poly(coeffs), complex(x * point_scale, y)


def _bits(z):
    return repr(z.real), repr(z.imag)


class TestNewtonFromShift:
    """solve_root's Newton point takes f(v) and f'(v) from the step's
    Taylor shift; they must be the Horner values bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(_shift_cases())
    @example((Poly([1j, complex(2, -0.0)]), 0.5 + 0.25j))
    def test_shift_head_is_horner(self, case):
        p, v = case
        fv = eval_poly(p, v)
        dfv = eval_with_derivative(p, v)[1]
        b = taylor_shift(p, v).coeffs
        assert (_bits(b[0]), _bits(b[1])) == (_bits(fv), _bits(dfv))
        jet = eval_jet(p, v)
        assert (_bits(jet[0]), _bits(jet[1])) == (_bits(fv), _bits(dfv))
        t = fv + 2.0 * max(map(abs, b)) + 1.0
        try:
            rep = descent_step(p, v, t)
        except RootFindError:
            return
        assert (_bits(rep.value), _bits(rep.slope)) == (_bits(fv), _bits(dfv))

    def test_negative_zero_lead(self):
        # 0 * v + a_1 would turn the lead's -0 imaginary part into +0
        p = Poly([0j, complex(1, -0.0)])
        rep = descent_step(p, 1, 5)
        assert _bits(rep.slope) == _bits(eval_with_derivative(p, 1)[1]) \
            == _bits(eval_jet(p, 1)[1]) == ("1.0", "-0.0")


def _from_roots(roots):
    return Poly(np.poly(np.asarray(roots, dtype=complex))[::-1])


def _differential_polys():
    rng = np.random.default_rng(43)
    polys = {f"deg{n}-{kind}": random_poly(rng, n, monic=kind == "monic")
             for n in range(2, 25) for kind in ("nonmonic", "monic")}
    polys["wilkinson8"] = Poly(np.poly(np.arange(1, 9))[::-1])
    polys["scale1e8-deg7"] = Poly([1e8 * c
                                   for c in random_poly(rng, 7).coeffs])
    for n in range(25, 33):
        polys[f"deg{n}"] = random_poly(rng, n, monic=bool(n % 2))
    polys["unity8"] = Poly([-1] + [0] * 7 + [1])
    centre = complex(*(0.5 * rng.normal(size=2)))
    polys["cluster"] = _from_roots(
        [centre + 1e-3 * 1j ** k for k in range(4)]
        + list(rng.normal(size=2) + 1j * rng.normal(size=2)))
    a, b, c = rng.normal(size=3) + 1j * rng.normal(size=3)
    polys["double"] = _from_roots([a, a, b, b, c])
    a, b, c = rng.normal(size=3) + 1j * rng.normal(size=3)
    polys["triple"] = _from_roots([a, a, a, b, c])
    polys["scale1e-8-deg6"] = Poly([1e-8 * c for c in
                                    random_poly(rng, 6, monic=False).coeffs])
    return polys


DIFFERENTIAL = _differential_polys()


class TestAllRootsDifferential:
    @pytest.mark.parametrize("name", DIFFERENTIAL)
    def test_same_roots_or_same_error(self, name):
        p = DIFFERENTIAL[name]
        assert outcome(all_roots, p, 1e-9) == \
            outcome(ref_all_roots, p.coeffs, 1e-9)

    def test_corpus_covers_both_outcomes(self):
        failed = {isinstance(outcome(all_roots, p, 1e-9)[0], type)
                  for p in DIFFERENTIAL.values()}
        assert failed == {True, False}


def _target(draw, p, v):
    # f(v) plus an offset of 1e-13..1e8 times the largest |b_k|: from just
    # above descent_step's noise floor to far from f(v)
    fv = eval_poly(p, v)
    size = max(map(abs, taylor_shift(p, v).coeffs))
    offset = size * 10.0 ** draw(st.floats(-13, 8))
    return fv + offset * cmath.exp(1j * draw(st.floats(0, 2 * cmath.pi)))


def _flush(z):
    # parts below 1e-200 become 0: the bound holds barring underflow
    return complex(*(x if abs(x) >= 1e-200 else 0.0 for x in (z.real, z.imag)))


def _bound_cases():
    # _shift_cases with nothing tiny enough for the step's products to
    # underflow
    return _shift_cases().map(
        lambda case: (Poly(map(_flush, case[0].coeffs)), _flush(case[1])))


def _gamma(m):
    mu = Fraction(m, 2 ** 53)
    return mu / (1 - mu)


def _sq(z):
    return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2


class TestHalvingBound:
    """descent._halvings' L_k is a lower bound on every halving's computed
    residual, so solve_root may skip a halving whose L_k is above a
    residual it already has."""

    @staticmethod
    def _terms(p, v, rep):
        # H_k, A and x as _halvings computes them, for the exact checks
        w = abs(v)
        lift = w * descent._U
        betas = [0.5 * rep.beta * 0.5 ** k for k in range(8)]
        hs = [(beta + lift) * descent._UP for beta in betas]
        a = 0.0
        for m in rep._mags[:1:-1]:
            a = a * hs[0] + m
        return betas, hs, a, (w + hs[0]) * descent._UP

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_lower_bound_holds(self, data):
        p, v = data.draw(_bound_cases())
        t = _target(data.draw, p, v)
        try:
            rep = descent_step(p, v, t)
        except RootFindError:
            return
        n = p.degree
        phase = cmath.exp(1j * rep.psi)
        betas, hs, a, x = self._terms(p, v, rep)
        g = (4 * n + 8) * 2.0 ** -53
        floor2 = 2.0 * descent.rounding_floor(p, x)
        for k, (beta, low) in enumerate(descent._halvings(p, v, rep)):
            h = hs[k]
            assert beta == betas[k]
            # the terms above are the ones _halvings used
            assert repr(low) == repr(rep.before * (1 - g) - (
                rep._mags[1] * h + a * h * h + floor2) * (1 + g))
            z = v + beta * phase
            assert abs(eval_poly(p, z) - t) >= low
            # |z_k - v| <= H_k <= H_1 and |v| + H_1 <= x, exactly
            assert _sq(z - v) <= Fraction(h) ** 2
            assert h <= hs[0]
        room = Fraction(x) - Fraction(hs[0])
        assert room >= 0 and room ** 2 >= _sq(v)
        # |b^_j| <= fl|b^_j| (1 + gamma_2) above underflow, and T(H_1) =
        # sum_(j>=2) fl|b^_j| H_1^j <= H_1^2 A (1 + gamma_(2n-2)), exactly
        b = taylor_shift(p, v).coeffs
        for bj, m in zip(b, rep._mags):
            if m >= 2.0 ** -1022:
                assert _sq(bj) <= (Fraction(m) * (1 + _gamma(2))) ** 2
        h1 = Fraction(hs[0])
        tail = sum(Fraction(m) * h1 ** j
                   for j, m in enumerate(rep._mags) if j >= 2)
        assert tail <= h1 ** 2 * Fraction(a) * (1 + _gamma(2 * n - 2))

    def test_far_target(self):
        # |t| >> M(|v| + H_1): the roundings of before and of the residual,
        # not F, set the margin, and only the (1 -+ g) slack covers them
        p = Poly([-0.10922561189039715 + 0.44308006468156513j,
                  0.524560164915884 - 0.9957878932977786j])
        v, t = -0.5424755574590947, 94.5818
        rep = descent_step(p, v, t)
        phase = cmath.exp(1j * rep.psi)
        for beta, low in descent._halvings(p, v, rep):
            assert abs(eval_poly(p, v + beta * phase) - t) >= low


def _bits_or_error(fn, *args):
    try:
        return _bits(fn(*args))
    except RootFindError as exc:
        return type(exc), str(exc)


class _EvalSpy:
    """Records every point descent.eval_poly is called at."""

    def __init__(self, monkeypatch):
        self.points = []
        real = descent.eval_poly

        def spy(p, z):
            self.points.append(z)
            return real(p, z)
        monkeypatch.setattr(descent, "eval_poly", spy)


class TestPrunedSearch:
    """solve_root skips halvings and still matches the full line search
    of ref_solve_root bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_same_root_bits_or_same_error(self, data):
        p, v0 = data.draw(_shift_cases())
        t = _target(data.draw, p, v0)
        assert _bits_or_error(solve_root, p, v0, t, 1e-9, 60) == \
            _bits_or_error(ref_solve_root, p.coeffs, v0, t, 1e-9, 60)

    def test_half_step_still_wins(self, monkeypatch):
        # descent corpus seed 0: from v = 0, beta*/2 beats beta*, the other
        # halvings and Newton, so its bound must let it be evaluated
        p = Poly([1.2405278891114753 + 1.778981600891134j,
                  0.970852810037209 - 0.2191356523478109j,
                  -0.2964324916534929 - 0.8091123098770499j])
        rep = descent_step(p, 0, 0)
        phase = cmath.exp(1j * rep.psi)
        res = {k: abs(eval_poly(p, rep.beta * 0.5 ** k * phase))
               for k in range(9)}
        res["newton"] = abs(eval_poly(p, -rep.value / rep.slope))
        assert rep.s == 1 and min(res, key=res.get) == 1
        spy = _EvalSpy(monkeypatch)
        with pytest.raises(ConvergenceFailure) as exc:
            solve_root(p, 0, 0, 1e-9, 1)
        assert str(exc.value) == \
            f"no root after 1 iterations; residual {res[1]:.3e}"
        assert 0.5 * rep.beta * phase in spy.points
        monkeypatch.undo()
        assert _bits_or_error(solve_root, p, 0, 0) == \
            _bits_or_error(ref_solve_root, p.coeffs, 0, 0)

    def test_newton_tail_evaluates_no_halving(self, monkeypatch):
        # near the root sqrt 2 of z^2 - 2, Newton's residual is far below
        # every halving's bound: only the start, the step and Newton
        p = Poly([-2, 0, 1])
        v = 1.4142
        rep = descent_step(p, v, 0)
        newton = v + (0 - rep.value) / rep.slope
        spy = _EvalSpy(monkeypatch)
        with pytest.raises(ConvergenceFailure):
            solve_root(p, v, 0, 0.0, 1)
        assert spy.points == [v, v + rep.step, newton]
