"""Root systems, weight lattices, and Weyl group actions for types B, C, D.

Weights live in the dual of the diagonal Cartan subalgebra and are written
in the orthonormal epsilon-basis, so the invariant bilinear form is the
ordinary dot product.  A weight is stored as a tuple of integer numerators
`num` over one positive denominator `den`, reduced so that
gcd(den, *num) == 1; equality and hashing are structural, and arithmetic
stays on Python ints.  Coordinates are given and read back exactly: the
constructor takes int or Fraction (floats and bools are rejected), and
`coords` returns the int/Fraction tuple, with integral entries as ints.

The root system is the one source of two facts the other layers rest on:
its simple roots, coroots and positive roots are integral (checked once,
at construction), and dominance is the one chamber test
(lam, alpha_i^vee) >= 0 on int numerators, with no per-family table.

Conventions:
  * simple-root indices in the public API are 1-based (i = 1..n),
  * the natural module has dimension m = 2n+1 in type B and 2n in C, D,
  * a Weyl group word (i1, ..., ik) denotes s_{i1} s_{i2} ... s_{ik} as a
    product of simple reflections, the rightmost letter acting first.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from operator import mul

FAMILIES = ("B", "C", "D")


class InvariantError(ArithmeticError):
    """A mathematical invariant failed during a computation (CLI exit 1).

    Raised instead of `assert`, so the check also runs under `python -O`;
    `label` names the invariant and leads the message.
    """

    def __init__(self, label, detail):
        super().__init__(f"{label}: {detail}")
        self.label = label


class CapExceeded(RuntimeError):
    """A requested carrier or crystal is larger than its configured cap (CLI exit 2)."""


DEFAULT_MAX_DIM = 3000


def resolve_max_dim(explicit=None):
    """The carrier dimension cap: the explicit value (--max-dim), else SCHURKIT_MAX_DIM, else 3000.

    A cap that is not a positive integer is bad input: ValueError, naming
    where the value came from.  `cli.run` calls this before any command
    starts, so every command refuses such a cap up front.
    """
    source = "--max-dim"
    if explicit is None:
        source = "SCHURKIT_MAX_DIM"
        explicit = os.environ.get("SCHURKIT_MAX_DIM") or DEFAULT_MAX_DIM
    try:
        cap = int(explicit)
    except ValueError:
        raise ValueError(f"{source} must be a positive dimension cap, got {explicit!r}") from None
    if cap < 1:
        raise ValueError(f"{source} must be a positive dimension cap, got {cap}")
    return cap


def exact(x):
    """Coerce x to an int or a reduced Fraction; refuse inexact types."""
    if isinstance(x, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Weight:
    """Immutable exact-rational vector in the epsilon-basis: `num` over `den`."""

    __slots__ = ("num", "den")

    def __init__(self, coords):
        cs = tuple([exact(c) for c in coords])
        dens = [c.denominator for c in cs if c.denominator != 1]
        if not dens:
            self.num, self.den = cs, 1
            return
        den = math.lcm(*dens)
        self.num = tuple([c.numerator * (den // c.denominator) for c in cs])
        self.den = den

    @classmethod
    def from_numerators(cls, num, den):
        """The weight num/den for a tuple of ints and a positive int den."""
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
        return _weight(num, den)

    @classmethod
    def zero(cls, n):
        return _weight((0,) * n, 1)

    @classmethod
    def eps(cls, n, i):
        """The i-th standard basis vector (1-based i)."""
        if not 1 <= i <= n:
            raise IndexError(f"epsilon index {i} out of range 1..{n}")
        return _weight(tuple(1 if j == i - 1 else 0 for j in range(n)), 1)

    @property
    def coords(self):
        """The coordinates as exact numbers: ints where integral, else Fractions."""
        d = self.den
        if d == 1:
            return self.num
        return tuple(a // d if a % d == 0 else Fraction(a, d) for a in self.num)

    def __len__(self):
        return len(self.num)

    def __getitem__(self, j):
        return self.coords[j]

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other):
        return self._signed_sum(other, 1)

    def __sub__(self, other):
        return self._signed_sum(other, -1)

    def _signed_sum(self, other, sign):
        """self + sign * other, for sign 1 or -1."""
        d, e = self.den, other.den
        if d == e:
            num = tuple([a + sign * b for a, b in zip(self.num, other.num, strict=True)])
            return _weight(num, 1) if d == 1 else Weight.from_numerators(num, d)
        # Over coprime denominators the sum is already reduced.
        g = math.gcd(d, e)
        p, q = e // g, sign * (d // g)
        num = tuple([a * p + b * q for a, b in zip(self.num, other.num, strict=True)])
        return _weight(num, d * p) if g == 1 else Weight.from_numerators(num, d * p)

    def __neg__(self):
        return _weight(tuple([-a for a in self.num]), self.den)

    def __mul__(self, scalar):
        scalar = exact(scalar)
        if isinstance(scalar, int):
            d = self.den
            g = math.gcd(d, scalar) if d != 1 else 1
            if g != 1:
                scalar //= g
                d //= g
            return _weight(tuple([scalar * a for a in self.num]), d)
        p, q = scalar.numerator, scalar.denominator
        return Weight.from_numerators(tuple([p * a for a in self.num]), q * self.den)

    __rmul__ = __mul__

    def dot(self, other):
        """Bilinear form value; the epsilon-basis is orthonormal."""
        s = sum([a * b for a, b in zip(self.num, other.num, strict=True)])
        d = self.den * other.den
        if d == 1 or s % d == 0:
            return s // d
        return Fraction(s, d)

    def is_integral(self):
        return self.den == 1

    def __eq__(self, other):
        return isinstance(other, Weight) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "Weight(%s)" % ", ".join(str(c) for c in self.coords)

    def to_json(self):
        return [c if isinstance(c, int) else f"{c.numerator}/{c.denominator}" for c in self.coords]


def _weight(num, den):
    """A weight from numerators and denominator already in reduced form."""
    w = object.__new__(Weight)
    w.num = num
    w.den = den
    return w


class LieType:
    """A classical family letter together with a rank; equal and hashed by both.

    A value: the fields must not be reassigned after construction.
    """

    __slots__ = ("family", "rank")

    def __init__(self, family, rank):
        if family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
        min_rank = 2 if family == "D" else 1
        if not isinstance(rank, int) or rank < min_rank:
            raise ValueError(f"rank {rank} out of range for family {family} (need >= {min_rank})")
        self.family = family
        self.rank = rank

    def __eq__(self, other):
        if not isinstance(other, LieType):
            return NotImplemented
        return self.family == other.family and self.rank == other.rank

    def __hash__(self):
        return hash((self.family, self.rank))

    def __repr__(self):
        return f"LieType(family={self.family!r}, rank={self.rank!r})"

    @property
    def natural_dim(self):
        """Dimension m of the natural module: 2n+1 for B, 2n for C and D."""
        n = self.rank
        return 2 * n + 1 if self.family == "B" else 2 * n

    def __str__(self):
        return f"{self.family}{self.rank}"


class RootSystem:
    """Simple roots, Cartan matrix, positive roots, and rho for one type.

    The coroots are computed once, and the simple roots, coroots and
    positive roots are checked integral at construction (InvariantError
    "integral simple roots"), so every layer reads `simple_root(i).num` and
    `coroot(i).num` as int tuples without a check of its own.
    """

    __slots__ = ("lie_type", "simple_roots", "cartan", "positive_roots", "rho", "coroots")

    def __init__(self, lie_type, simple_roots, cartan, positive_roots, rho, coroots):
        for name, roots in (("simple root", simple_roots), ("coroot", coroots), ("positive root", positive_roots)):
            for w in roots:
                if w.den != 1:
                    raise InvariantError("integral simple roots", f"{name} {w!r} in {lie_type} is not integral")
        self.lie_type = lie_type
        self.simple_roots = simple_roots
        self.cartan = cartan
        self.positive_roots = positive_roots
        self.rho = rho
        self.coroots = coroots  # alpha_i^vee = 2 alpha_i / (alpha_i, alpha_i), computed once

    @property
    def rank(self):
        return self.lie_type.rank

    @property
    def family(self):
        return self.lie_type.family

    def simple_root(self, i):
        """alpha_i, 1-based."""
        self._check_index(i)
        return self.simple_roots[i - 1]

    def coroot(self, i):
        """alpha_i^vee = 2 alpha_i / (alpha_i, alpha_i), 1-based."""
        self._check_index(i)
        return self.coroots[i - 1]

    def in_chamber(self, num):
        """True iff (num, alpha_i^vee) >= 0 for every i: the closed dominant chamber.

        num is an int tuple, the numerators of a weight over any positive
        denominator; the coroots are integral, so each pairing is an int.
        """
        return all(sum(map(mul, num, c.num)) >= 0 for c in self.coroots)

    def is_dominant(self, w):
        """`in_chamber(w.num)`: w's numerators have the signs of its pairings."""
        return self.in_chamber(w.num)

    def simple_root_coefficients(self, v):
        """Coefficients c with v = sum c_i alpha_i, as exact rationals."""
        n = self.rank
        partial = list(itertools.accumulate(v.coords))
        half = Fraction(1, 2)
        if self.family == "B":
            coeffs = partial[: n - 1] + [partial[n - 1]]
        elif self.family == "C":
            coeffs = partial[: n - 1] + [half * partial[n - 1]]
        else:
            s = partial[n - 2] if n >= 2 else 0
            coeffs = partial[: n - 2] + [half * (s - v.coords[n - 1]), half * (s + v.coords[n - 1])]
        return tuple(exact(Fraction(c)) for c in coeffs)

    def dominance_leq(self, mu, lam):
        """True iff lam - mu is a nonnegative-integer combination of simple roots."""
        coeffs = self.simple_root_coefficients(lam - mu)
        return all(isinstance(c, int) and c >= 0 for c in coeffs)

    def simple_reflect(self, i, w):
        """s_i(w) = w - (w, alpha_i^vee) alpha_i."""
        alpha = self.simple_root(i)
        return w - w.dot(self.coroot(i)) * alpha

    def weyl_orbit(self, w):
        """Full Weyl orbit of w, sorted descending for determinism."""
        seen = {w}
        frontier = [w]
        while frontier:
            nxt = []
            for x in frontier:
                for i in range(1, self.rank + 1):
                    y = self.simple_reflect(i, x)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(seen, key=lambda x: x.coords, reverse=True))

    def longest_element(self):
        """A reduced word for the longest Weyl element and its action.

        The action is w -> -w except in type D with odd rank, where the last
        coordinate keeps its sign.  The word is computed by descent peeling
        from the antidominant chamber and is fixed (smallest index first), so
        downstream string parametrizations are reproducible.
        """
        n = self.rank
        d_odd = self.family == "D" and n % 2 == 1

        def action(w):
            if d_odd:
                return _weight(tuple([-a for a in w.num[: n - 1]]) + w.num[n - 1 :], w.den)
            return -w

        word = []
        x = action(self.rho)
        while x != self.rho:
            for i in range(1, n + 1):
                if x.dot(self.coroot(i)) < 0:
                    x = self.simple_reflect(i, x)
                    word.append(i)
                    break
            else:
                raise InvariantError("descent peeling", "stalled on a non-dominant weight")
        if len(word) != len(self.positive_roots):
            raise InvariantError(
                "reduced-word length", f"{len(word)} letters for {len(self.positive_roots)} positive roots"
            )
        return tuple(word), action

    def _check_index(self, i):
        if not 1 <= i <= self.rank:
            raise IndexError(f"simple-root index {i} out of range 1..{self.rank}")


def build_root_system(lt: LieType) -> RootSystem:
    """Realize the root system of lt in epsilon-coordinates.

    Simple roots are alpha_i = eps_i - eps_{i+1} for i < n in every family,
    and alpha_n = eps_n (B), 2 eps_n (C), eps_{n-1} + eps_n (D).
    """
    n = lt.rank
    e = lambda i: Weight.eps(n, i)
    simples = [e(i) - e(i + 1) for i in range(1, n)]
    if lt.family == "B":
        simples.append(e(n))
    elif lt.family == "C":
        simples.append(2 * e(n))
    else:
        simples.append(e(n - 1) + e(n))

    positives = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            positives.append(e(i) - e(j))
            positives.append(e(i) + e(j))
    if lt.family == "B":
        positives.extend(e(i) for i in range(1, n + 1))
    elif lt.family == "C":
        positives.extend(2 * e(i) for i in range(1, n + 1))

    cartan = tuple(
        tuple(exact(Fraction(2 * ai.dot(aj), ai.dot(ai))) for aj in simples) for ai in simples
    )
    for row in cartan:
        if any(not isinstance(a, int) for a in row):
            raise InvariantError("integral Cartan matrix", f"{lt} has Cartan row {row}")

    rho = Weight.zero(n)
    for beta in positives:
        rho = rho + beta
    rho = Fraction(1, 2) * rho

    return RootSystem(
        lie_type=lt,
        simple_roots=tuple(simples),
        cartan=cartan,
        positive_roots=tuple(positives),
        rho=rho,
        coroots=tuple(Fraction(2, a.dot(a)) * a for a in simples),
    )
