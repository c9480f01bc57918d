"""Seeded input corpus for the openroots benchmark.

Self-contained: it needs numpy only and imports nothing from the package
under test or from its test suite, so the parent commit and a change can
be shown to see identical inputs.  Print the fingerprints with

    python3 bench/corpus.py --seed 0 --seconds 20

A corpus is a list of rounds.  One round holds one random polynomial of
each degree of the workload's range plus one member of each structured
family, so every degree and family keeps its share of the corpus whatever
the seed; the seed only draws the coefficients.  The number of rounds is
proportional to ``--seconds``.
"""

import argparse
import hashlib
import math
import zlib
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("descent", "gauss", "cli-cold")

# Why each family is in the corpus.
FAMILY_WHY = {
    "random": "dense complex N(0,1) coefficients, monic and non-monic in "
              "turn: the typical input, at every degree of the range",
    "unity": "z^n - 1 for n = 5, 8, 16: equally spaced roots, exact zero "
             "middle coefficients, symmetric level curves",
    "wilkinson": "prod (z - k), k = 1..n, n = 8 and 10: real roots with "
                 "coefficients up to 1e7, badly conditioned",
    "cluster": "four roots within 1e-3 of a random centre plus two far "
               "roots: deflation and tracing near a critical point",
    "double": "two double roots and a simple one: p and p' share roots",
    "triple": "a triple root and two simple ones: p, p' and p'' share a root",
    "scale_1e8": "a random degree-6 polynomial times 1e8: the rounding floor "
                 "of |p(z)| lies above tol",
    "scale_1e-8": "a random degree-6 polynomial times 1e-8: tol is loose "
                  "against the coefficients",
}

# Degree range of the random part of one round.
RANDOM_DEGREES = {
    "descent": range(2, 33),
    "gauss": range(2, 17),
    "cli-cold": range(3, 7),
}

# Rounds per second of --seconds.  Sized on the reference machine (see
# speed.py) so that one pass over the corpus takes about --seconds at the
# commit that defined the benchmark.
ROUNDS_PER_SECOND = {
    "descent": 7.5,
    "gauss": 0.25,
    "cli-cold": 0.15,
}


@dataclass(frozen=True)
class Case:
    """One input: ascending complex coefficients and how to solve them."""

    family: str
    degree: int
    monic: bool
    coeffs: tuple
    method: str  # "descent" or "gauss": the solver the workload calls


def _from_roots(roots, lead=1.0):
    # numpy.poly gives descending coefficients of the monic product.
    return tuple(complex(c) * lead for c in np.poly(np.asarray(roots))[::-1])


def _random_coeffs(rng, degree, monic, scale=1.0):
    low = rng.normal(size=degree) + 1j * rng.normal(size=degree)
    lead = 1.0 + 0j if monic else complex(rng.normal(), rng.normal())
    return tuple(complex(c) * scale for c in list(low) + [lead])


def _random_roots(rng, count):
    return list(rng.normal(size=count) + 1j * rng.normal(size=count))


def _structured(rng, r):
    unity_n = (5, 8, 16)[r % 3]
    yield "unity", tuple([-1 + 0j] + [0j] * (unity_n - 1) + [1 + 0j])
    yield "wilkinson", _from_roots(np.arange(1.0, 9.0))
    yield "wilkinson", _from_roots(np.arange(1.0, 11.0))
    centre = complex(*(0.5 * rng.normal(size=2)))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    cluster = [centre + 1e-3 * np.exp(1j * (phase + k * math.pi / 2.0))
               for k in range(4)]
    yield "cluster", _from_roots(cluster + _random_roots(rng, 2))
    a, b, c = _random_roots(rng, 3)
    yield "double", _from_roots([a, a, b, b, c])
    a, b, c = _random_roots(rng, 3)
    yield "triple", _from_roots([a, a, a, b, c])
    yield "scale_1e8", _random_coeffs(rng, 6, False, 1e8)
    yield "scale_1e-8", _random_coeffs(rng, 6, False, 1e-8)


def rounds_for(workload, seconds):
    return max(1, round(ROUNDS_PER_SECOND[workload] * seconds))


def build(workload, seed, seconds):
    """The workload's corpus for this seed, as a list of Case."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    cases = []
    for r in range(rounds_for(workload, seconds)):
        for degree in RANDOM_DEGREES[workload]:
            monic = (r + degree) % 2 == 0
            coeffs = _random_coeffs(rng, degree, monic)
            if workload == "cli-cold":
                for method in ("descent", "gauss"):
                    cases.append(Case("random", degree, monic, coeffs, method))
            else:
                cases.append(Case("random", degree, monic, coeffs, workload))
        if workload != "cli-cold":
            for family, coeffs in _structured(rng, r):
                cases.append(Case(family, len(coeffs) - 1, coeffs[-1] == 1,
                                  coeffs, workload))
    return cases


def fingerprint(cases):
    """sha256 over the coefficient bytes and solver of every case."""
    h = hashlib.sha256()
    for case in cases:
        h.update(case.method.encode())
        h.update(np.asarray(case.coeffs, dtype=np.complex128).tobytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    for workload in WORKLOADS:
        cases = build(workload, args.seed, args.seconds)
        print(f"{workload:9s} {len(cases):6d} cases  sha256 {fingerprint(cases)}")


if __name__ == "__main__":
    main()
