"""Signed-composition combinatorics and the weight sets of tensor powers.

The two central sets are Pi(type, r), all weights of the r-th tensor power
of the natural module, and pi(type, r), its dominant members.  Both are
finite sets of integer weights, stored in a canonical descending
lexicographic order so that dominance-maximal elements come first.
"""

from __future__ import annotations

from .rootdata import LieType, RootSystem, Weight


def _canonical(elements):
    uniq = sorted(set(elements), key=lambda w: w.coords, reverse=True)
    return tuple(uniq)


class WeightSet:
    """A finite, duplicate-free, canonically ordered set of weights; equal by elements and label.

    A value: the fields must not be reassigned after construction, since
    the member set is derived from `elements` once, in the constructor.
    """

    __slots__ = ("elements", "label", "_members")

    def __init__(self, elements, label):
        self.elements = elements
        self.label = label
        self._members = frozenset(elements)

    def __eq__(self, other):
        if not isinstance(other, WeightSet):
            return NotImplemented
        return self.elements == other.elements and self.label == other.label

    def __hash__(self):
        return hash((self.elements, self.label))

    @classmethod
    def make(cls, elements, label):
        return cls(_canonical(elements), label)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, w):
        return w in self._members

    def as_set(self):
        return self._members

    def to_json(self):
        return {"label": self.label, "elements": [w.to_json() for w in self.elements]}


def compositions(n, r):
    """All n-part compositions of r (nonnegative entries, order matters)."""
    if n == 1:
        yield (r,)
        return
    for first in range(r + 1):
        for rest in compositions(n - 1, r - first):
            yield (first,) + rest


def signed_compositions(n, r) -> WeightSet:
    """Integer vectors whose absolute values sum to r."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    out = []
    for comp in compositions(n, r):
        signable = [k for k, c in enumerate(comp) if c > 0]
        for mask in range(1 << len(signable)):
            v = list(comp)
            for bit, k in enumerate(signable):
                if mask >> bit & 1:
                    v[k] = -v[k]
            out.append(Weight(v))
    return WeightSet.make(out, f"SignedComp({n},{r})")


def _partitions(n, r):
    """Weakly decreasing nonnegative n-tuples summing to r."""

    def rec(parts_left, total, bound):
        if parts_left == 0:
            if total == 0:
                yield ()
            return
        for first in range(min(total, bound), -1, -1):
            for rest in rec(parts_left - 1, total - first, first):
                yield (first,) + rest

    yield from rec(n, r, r)


def lambda_plus(n, r) -> WeightSet:
    """Partitions of r with at most n parts, padded with zeros."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return WeightSet.make([Weight(p) for p in _partitions(n, r)], f"Lambda+({n},{r})")


def lambda_minus(n, r) -> WeightSet:
    """Image of lambda_plus under negation of the last coordinate."""
    flipped = [Weight(w.coords[:-1] + (-w.coords[-1],)) for w in lambda_plus(n, r)]
    return WeightSet.make(flipped, f"Lambda-({n},{r})")


def lambda_pm(n, r) -> WeightSet:
    both = list(lambda_plus(n, r)) + list(lambda_minus(n, r))
    return WeightSet.make(both, f"Lambda+-({n},{r})")


def tensor_degrees(lt: LieType, r):
    """Ascending degrees s whose signed compositions are weights of the r-th power.

    Type B reaches every degree s <= r because the natural module has a zero
    weight; types C and D only the degrees of matching parity.
    """
    if lt.family == "B":
        return range(r + 1)
    return range(r % 2, r + 1, 2)


def tensor_weights_Pi(lt: LieType, r) -> WeightSet:
    """All weights of the r-th tensor power of the natural module."""
    if r < 1:
        raise ValueError("need r >= 1")
    out = []
    for s in tensor_degrees(lt, r):
        out.extend(signed_compositions(lt.rank, s))
    return WeightSet.make(out, f"Pi({lt},{r})")


def tensor_dominant_pi(lt: LieType, r) -> WeightSet:
    """Dominant weights of the r-th tensor power."""
    if r < 1:
        raise ValueError("need r >= 1")
    out = []
    for s in tensor_degrees(lt, r):
        if lt.family == "D":
            out.extend(lambda_pm(lt.rank, s))
        else:
            out.extend(lambda_plus(lt.rank, s))
    return WeightSet.make(out, f"pi({lt},{r})")


def is_saturated(rs: RootSystem, ws: WeightSet) -> bool:
    """True iff ws is closed downward under dominance among dominant weights.

    The candidates below a dominant lam with |lam|_1 = s > 0 are the dominant
    weights of the s-th tensor power: a dominant mu <= lam has |mu|_1 <= s,
    of the parity of s in types C and D.  In B and C the coefficients of
    x = lam - mu on the simple roots are its partial sums s_k (in C the
    last one halved), so |lam|_1 - |mu|_1 = s_n >= 0.  In D the last two
    are (s_{n-1} -+ x_n)/2 >= 0, so s_{n-1} >= |x_n|, and
    |lam|_1 - |mu|_1 = s_{n-1} + |lam_n| - |mu_n| >= s_{n-1} - |x_n| >= 0.
    In C and D the root lattice has even coordinate sum, which fixes the
    parity.  Below 0 is only 0 itself.  Every weight of ws must be dominant
    and integral (ValueError otherwise).
    """
    members = ws.as_set()
    for lam in members:
        if not rs.is_dominant(lam):
            raise ValueError(f"non-dominant element {lam!r} in weight set {ws.label}")
    for lam in members:
        if not lam.is_integral():
            raise ValueError("saturation test expects integer weights")
        degree = sum(map(abs, lam.num))
        if degree == 0:
            continue
        for mu in tensor_dominant_pi(rs.lie_type, degree):
            if mu not in members and rs.dominance_leq(mu, lam):
                return False
    return True
