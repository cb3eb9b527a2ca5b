"""Small exact polynomial helpers over the rationals.

Polynomials are tuples of coefficients in ascending degree order with no
trailing zeros; () is the zero polynomial.  Coefficients are ints or
Fractions, normalized through rootdata.exact.
"""

from __future__ import annotations

from fractions import Fraction

from .rootdata import exact


def normalize(coeffs):
    cs = [exact(Fraction(c)) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p):
    return len(p) - 1


def mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def from_roots(roots):
    """Monic polynomial with the given roots (with multiplicity)."""
    p = (1,)
    for r in roots:
        p = mul(p, (-r, 1))
    return p


def evaluate(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc

