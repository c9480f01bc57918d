"""Strict-decrease descent steps and the root solver built on them.

The core move: recenter f at v, take the lowest nonvanishing Taylor
coefficient b_s (s >= 1), and step by p = beta * exp(i psi) with the
phase chosen so b_s p^s points from f(v) straight at the target t.
With beta small enough the residual |t - f(v + p)| strictly drops.
Iterating (with a halving line search and a Newton shortcut when
s = 1) drives the residual to tolerance; deflation then yields all
roots, and root counting over perturbed targets checks that preimage
cardinalities are locally constant.  The line search skips a halving
only where a lower bound from the step's Taylor coefficients and the
rounding model of ``rounding_floor`` proves its computed residual
larger than one already known, so the iterates are those of the full
search, bit for bit.
"""

import cmath
import math
from collections import namedtuple
from itertools import repeat
from operator import mul

from .errors import (
    AtTarget,
    ConvergenceFailure,
    DegenerateConstant,
    DegreeZero,
)
# eval_with_derivative is not called here; bench/tests/test_probes.py
# deletes this binding to check that absent probes are reported.
from .polycore import (Poly, eval_poly, eval_with_derivative, rounding_floor,
                       synthetic_div, taylor_shift)

_U = 2.0 ** -53  # unit roundoff of binary64
_UP = 1.0 + 8 * _U  # exact; lifts a bound past its own few roundings


class DescentStepReport(namedtuple(
        "DescentStepReport", "s beta psi before after step value slope")):
    """One accepted descent step, as an immutable tuple.

    s is the lowest index >= 1 with b_s != 0 after recentering; psi the
    step phase; before/after the residuals |t - f(v)| and |t - f(v+p)|;
    value and slope are b_0 = f(v) and b_1 = f'(v), the first two
    recentered coefficients.  Guarantees after < before and
    s*psi + arg(b_s) = arg(t - f(v)) modulo 2 pi.  descent_step also
    leaves the computed |b_k| in the private attribute ``_mags``, which
    solve_root's halving bound reads.
    """


def descent_step(p, v, t, radius_cap=None):
    """Compute one strictly decreasing step for |t - f(.)| from v.

    beta is 0.9 times the smallest of three bounds: the largest power
    of 1/2 with sum(|b_k| beta^(k-s), k > s) < |b_s|; the phase-aligned
    cap (|q| / |b_s|)^(1/s); and radius_cap - |v| when a cap is given.
    The decrease is re-verified numerically; if a b_s sits so close to
    the noise floor that its step cannot move the residual in floating
    point (a near-critical v), the next admissible index is used.

    Raises AtTarget if f(v) is already within the coefficient noise
    floor of t, DegenerateConstant if no b_s exists.
    """
    if p.degree < 1:
        raise DegreeZero("descent needs degree >= 1")
    if type(v) is not complex:
        v = complex(v)
    if type(t) is not complex:
        t = complex(t)
    b = taylor_shift(p, v).coeffs
    mags = list(map(abs, b))
    drop = 1e-13 * (1.0 + max(mags))
    q = t - b[0]
    before = abs(q)
    if before <= drop:
        raise AtTarget(f"|t - f(v)| = {before:.3e} at the noise floor")
    candidates = [k for k in range(1, len(b)) if mags[k] > drop]
    if not candidates:
        raise DegenerateConstant("all recentered coefficients b_k, k >= 1, vanish")

    cap = None
    if radius_cap is not None:
        cap = radius_cap - abs(v)
        if cap <= 0:
            raise ValueError("v lies outside the radius cap")

    # math.atan2, not cmath.phase: cmath.phase raises OverflowError when
    # the angle underflows (cmath.phase(1e150 + 1e-200j))
    phi = math.atan2(q.imag, q.real)
    for s in candidates:
        theta = math.atan2(b[s].imag, b[s].real)
        psi = (phi - theta) / s

        bs = mags[s]
        tail = mags[s + 1:]
        powers = range(1, len(tail) + 1)
        beta_ii = 1.0
        while sum(map(mul, tail, map(pow, repeat(beta_ii), powers))) >= bs:
            beta_ii *= 0.5
        beta_iii = (before / bs) ** (1.0 / s)
        beta = 0.9 * min(beta_ii, beta_iii)
        if cap is not None:
            beta = min(beta, 0.9 * cap)

        step = beta * cmath.exp(1j * psi)
        after = abs(t - eval_poly(p, v + step))
        if after < before:
            rep = DescentStepReport(s, beta, psi, before, after, step,
                                    b[0], b[1])
            rep._mags = mags
            return rep
    raise ConvergenceFailure(
        f"no numerically decreasing step at v = {v} (residual {before:.3e})")


def _halvings(p, v, rep):
    """(beta_k, L_k) for the halvings beta_k = beta/2^k, k = 1..8, of the
    step rep from v, where L_k is a lower bound on the computed residual
    |p(z_k) - t| at z_k = v + beta_k e^(i psi), barring underflow.  L_k
    grows with k.  With u = 2^-53, gamma_m = m u / (1 - m u), b^_j the
    step's shifted coefficients and b_j the exact ones, F =
    rounding_floor(p, x) and n the degree:

    * z_k = fl(v + fl(beta_k e^(i psi))) with |e^(i psi)| <= 1 + 2u, so
      |z_k - v| <= (beta_k + u fl|v|)(1 + gamma_4) <= H_k := fl(fl(beta_k
      + u fl|v|)(1 + 8u)), and |v| + H_k <= x := fl(fl(fl|v| + H_1)(1 +
      8u)) as H_k <= H_1.
    * Taylor at v: |t - p(z_k)| >= |t - b^_0| - sum_(j>=1) |b^_j| H_k^j
      - sum_j |b_j - b^_j| H_k^j.  The last sum and Horner's error
      |p^(z_k) - p(z_k)| are each <= F (see rounding_floor).
    * sum_(j>=2) |b^_j| H^(j-2) grows with H, so the j >= 2 part is <=
      H_k^2 A, with A that sum at H_1 (one real Horner pass).  So
      S_k = fl(fl|b^_1| H_k + A H_k^2 + 2F) is >= the true sum over
      1 + gamma_(2n+2): fl|b^_j| is within 2u of |b^_j|, A H_k^2 takes
      2n - 2 roundings and fl|b^_1| H_k one, and the sum 2 more.
    * before = fl|fl(t - b^_0)| <= (1 + gamma_3)|t - b^_0| (abs within
      2u), and the computed residual fl|fl(p^(z_k) - t)| >= (1 - 3u)
      |p^(z_k) - t|, so it is >= (1 - 6u) before - (1 + gamma_(2n+2)) S_k.
      L_k = fl(fl(before (1 - g)) - fl(S_k (1 + g))) stays below that
      for g = (4n + 8)u, which makes 1 - g and 1 + g exact.
    * A skip needs S_k < before, so for before < 2^1022 a skipped
      residual is < 2^1023 and its abs cannot overflow (abs would
      raise).  Larger, L_k <= 0 and nothing is skipped.  An inf or nan
      in S_k makes L_k -inf or nan, which skips nothing.
    """
    g = (4 * p.degree + 8) * _U
    mags = rep._mags
    w = abs(v)
    lift = w * _U
    beta = 0.5 * rep.beta
    h1 = (beta + lift) * _UP
    a = 0.0
    for m in mags[:1:-1]:
        a = a * h1 + m
    floor2 = 2.0 * rounding_floor(p, (w + h1) * _UP)
    top = rep.before * (1.0 - g) if rep.before < 2.0 ** 1022 else 0.0
    hi = 1.0 + g
    for _ in range(8):
        h = (beta + lift) * _UP
        yield beta, top - (mags[1] * h + a * h * h + floor2) * hi
        beta *= 0.5


def solve_root(p, v0, t=0j, tol=1e-9, max_iter=10_000):
    """Iterate descent steps until |f(z) - t| <= tol; returns z.

    Each iteration line-searches beta over
    {beta*, beta*/2, ..., beta*/2^8} and, when s = 1, also tries the
    Newton point v + (t - f(v))/f'(v), keeping the first candidate, in
    that order, with the smallest computed residual.  The descent step
    alone guarantees monotone decrease; Newton accelerates the tail.

    The Newton point goes first, and a halving is evaluated only while
    its lower bound (``_halvings``) is at most ``bar``, the smallest
    residual known so far.  A skipped halving's residual is above the
    final minimum, so it can neither win nor tie, and the iterates,
    residuals and errors are those of the full search, bit for bit.
    The bounds grow with k, so the first skip ends the search.
    """
    if p.degree < 1:
        raise DegreeZero("solve_root needs degree >= 1")
    v = complex(v0)
    t = complex(t)
    res = abs(eval_poly(p, v) - t)
    for _ in range(max_iter):
        if res <= tol:
            return v
        try:
            rep = descent_step(p, v, t)
        except AtTarget:
            # res is |f(v) - t| > tol, already evaluated at this v
            raise ConvergenceFailure(
                f"residual {res:.3e} stuck at the noise floor above tol {tol:.3e}")
        best_v = v + rep.step
        best_res = bar = rep.after
        if rep.s == 1:
            newton = v + (t - rep.value) / rep.slope
            newton_res = abs(eval_poly(p, newton) - t)
            if newton_res < bar:
                bar = newton_res
        phase = cmath.exp(1j * rep.psi)
        for beta, low in _halvings(p, v, rep):
            if low > bar:
                break
            cand = v + beta * phase
            r = abs(eval_poly(p, cand) - t)
            if r < best_res:
                best_v, best_res = cand, r
            if r < bar:
                bar = r
        if rep.s == 1 and newton_res < best_res:
            best_v, best_res = newton, newton_res
        v, res = best_v, best_res
    raise ConvergenceFailure(
        f"no root after {max_iter} iterations; residual {res:.3e}")


def all_roots(p, tol=1e-9, max_iter=10_000):
    """All n roots of p (with multiplicity) via solve + deflation.

    Every deflated root is re-polished against the original p before
    being reported, so residuals are |p(z)| <= tol, not residuals of
    the deflated factor.
    """
    if p.degree < 1:
        raise DegreeZero("all_roots needs degree >= 1")
    roots = []
    work = p
    while work.degree >= 1:
        if work.degree == 1:
            raw = -work.coeffs[0] / work.coeffs[1]
        else:
            raw = solve_root(work, 0j, 0j, tol, max_iter)
        polished = solve_root(p, raw, 0j, tol, max_iter)
        roots.append(polished)
        work, _ = synthetic_div(work, polished)
    return roots


def preimage_count(p, w, tol=1e-9, cluster_tol=1e-6):
    """Count preimages of w: returns (distinct, total).

    total is always degree(p) (roots of p - w with multiplicity);
    distinct collapses roots closer than cluster_tol into clusters.
    """
    if p.degree < 1:
        raise DegreeZero("preimage_count needs degree >= 1")
    shifted = Poly((p.coeffs[0] - complex(w),) + p.coeffs[1:])
    roots = all_roots(shifted, tol)
    reps = []
    for z in roots:
        if all(abs(z - r) > cluster_tol for r in reps):
            reps.append(z)
    return len(reps), len(roots)
