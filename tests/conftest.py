from fractions import Fraction

import numpy as np

from openroots import Poly


def random_poly(rng, degree, scale=1.0, monic=True):
    """Random dense complex polynomial of exactly the given degree."""
    low = rng.normal(size=degree) * scale + 1j * rng.normal(size=degree) * scale
    lead = 1.0 if monic else complex(rng.normal(), rng.normal())
    while lead == 0:
        lead = complex(rng.normal(), rng.normal())
    return Poly(list(low) + [lead])


def random_point(rng, radius=2.0):
    r = radius * np.sqrt(rng.uniform())
    t = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(t), r * np.sin(t))


def exact_taylor(p, v):
    """Taylor coefficients of p at v as exact (re, im) pairs of Fractions,
    by the repeated synthetic division of taylor_shift."""
    vr, vi = Fraction(v.real), Fraction(v.imag)
    a = [(Fraction(c.real), Fraction(c.imag)) for c in p.coeffs]
    for j in range(p.degree):
        for i in range(p.degree - 1, j - 1, -1):
            (ar, ai), (br, bi) = a[i], a[i + 1]
            a[i] = (ar + vr * br - vi * bi, ai + vr * bi + vi * br)
    return a


def exact_abs2(c, exact):
    """|c - exact|^2 as a Fraction, for a float complex c."""
    return (Fraction(c.real) - exact[0]) ** 2 + \
        (Fraction(c.imag) - exact[1]) ** 2
