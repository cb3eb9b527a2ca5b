"""Highest weights of tensor-power factors, with an independent multiplicity oracle.

Two routes to the same answer are kept deliberately separate:

  * closed-form factor rules per family (partition-exponent conditions,
    with the type-D sign splitting of the last exponent), and
  * a chamber-walk count: the multiplicity of L(lam) in the r-th tensor
    power is the number of r-step walks from 0 to lam whose steps are the
    weights of the natural module and whose paths stay in the dominant
    chamber (Littelmann's path model; Grabiner-Magyar).

The factor rules state the exponent conditions against the tensor degree
r.  Factor multiplicities come only from the walk; the rules decide
membership only.  Freudenthal's recursion gives the full character of a
simple module; the path model does not call it, and the acceptance suite
(criterion 7) compares each crystal's endpoint multiset with it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rootdata import InvariantError, LieType, RootSystem, Weight, build_root_system
from .weightsets import WeightSet, _partitions, tensor_dominant_pi

_char_cache = {}


class FormalCharacter:
    """Finite weight-multiplicity map, Weyl-group invariant for modules."""

    __slots__ = ("terms", "_lookup")

    def __init__(self, terms):
        self.terms = terms  # sorted ((weight, mult), ...) pairs
        self._lookup = dict(terms)

    def as_dict(self):
        return dict(self.terms)

    def multiplicity(self, w):
        return self._lookup.get(w, 0)

    def total(self):
        return sum(m for _, m in self.terms)


def freudenthal_multiplicities(rs: RootSystem, lam: Weight) -> FormalCharacter:
    """Full weight character of the simple module with highest weight lam.

    Standard recursion: walk the weight system downward level by level
    (candidates are previous-level weights minus a simple root) and solve

      (|lam+rho|^2 - |mu+rho|^2) m_mu = 2 sum_{a>0} sum_{k>=1} m_{mu+ka} (mu+ka, a)

    exactly.  Every weight of the module lies in lam + (root lattice), so
    the walk runs on integer numerator tuples over one denominator d that
    also carries rho; both sides of the recursion then scale by d^2, which
    cancels.  Results are memoized per (type, lam).
    """
    if not rs.is_dominant(lam):
        raise ValueError(f"{lam!r} is not dominant for {rs.lie_type}")
    key = (rs.family, rs.rank, lam.coords)
    cached = _char_cache.get(key)
    if cached is not None:
        return cached

    d = math.lcm(lam.den, rs.rho.den)  # roots are integral, as RootSystem checks

    def scaled(w):
        return tuple([a * (d // w.den) for a in w.num])

    rho = scaled(rs.rho)
    simple = [scaled(a) for a in rs.simple_roots]
    positive = [scaled(a) for a in rs.positive_roots]
    top = scaled(lam)
    top_norm = sum([(a + b) ** 2 for a, b in zip(top, rho)])
    mult = {top: 1}
    frontier = [top]
    while frontier:
        candidates = {tuple([a - b for a, b in zip(mu, alpha)]) for mu in frontier for alpha in simple}
        frontier = []
        for mu in sorted(candidates, reverse=True):
            if mu in mult:
                continue
            num = 0
            for alpha in positive:
                nu = tuple([a + b for a, b in zip(mu, alpha)])
                m_nu = mult.get(nu)
                while m_nu is not None:
                    num += m_nu * sum([a * b for a, b in zip(nu, alpha)])
                    nu = tuple([a + b for a, b in zip(nu, alpha)])
                    m_nu = mult.get(nu)
            if num == 0:
                continue
            denom = top_norm - sum([(a + b) ** 2 for a, b in zip(mu, rho)])
            m_mu, rem = divmod(2 * num, denom)
            if rem or m_mu <= 0:
                raise InvariantError(
                    "Freudenthal integrality",
                    f"multiplicity {Fraction(2 * num, d * d)}/{Fraction(denom, d * d)} "
                    f"at {Weight.from_numerators(mu, d)!r} for {lam!r}",
                )
            mult[mu] = m_mu
            frontier.append(mu)

    char = FormalCharacter(
        terms=tuple((Weight.from_numerators(w, d), m) for w, m in sorted(mult.items(), reverse=True))
    )
    _char_cache.setdefault(key, char)
    return char


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """Product formula over positive roots; exact integer.

    Numerator and denominator are integer products of pairings against
    lam + rho and rho, both scaled by one common denominator (roots are
    integral, as RootSystem checks), which cancels in the single division
    at the end.
    """
    if not rs.is_dominant(lam):
        raise ValueError(f"{lam!r} is not dominant for {rs.lie_type}")
    d = math.lcm(lam.den, rs.rho.den)
    rho = [a * (d // rs.rho.den) for a in rs.rho.num]
    top = [a * (d // lam.den) + b for a, b in zip(lam.num, rho)]
    num = den = 1
    for alpha in rs.positive_roots:
        num *= sum([a * b for a, b in zip(top, alpha.num)])
        den *= sum([a * b for a, b in zip(rho, alpha.num)])
    dim, rem = divmod(num, den)
    if rem:
        raise InvariantError("Weyl dimension integrality", f"{Fraction(num, den)} for {lam!r}")
    return dim


def pi0_weyl_rules(lt: LieType, r: int) -> WeightSet:
    """Highest weights of the tensor-power factors, by the closed-form rules.

    Family B admits exponents f with sum r-2k, or with sum r-2k'-1 provided
    f_{n-k'} is nonzero (vacuous once n-k' <= 0).  Family C admits exactly
    the sums of parity r.  Family D admits the sums of parity r, each
    nonzero last exponent splitting into a signed pair.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    n = lt.rank
    out = []
    for total in range(r + 1):
        for f in _partitions(n, total):
            if lt.family == "C":
                if (r - total) % 2 == 0:
                    out.append(Weight(f))
            elif lt.family == "D":
                if (r - total) % 2 == 0:
                    out.append(Weight(f))
                    if f[n - 1] > 0:
                        out.append(Weight(f[:-1] + (-f[n - 1],)))
            else:  # B
                if (r - total) % 2 == 0:
                    out.append(Weight(f))
                elif r - 1 - total >= 0 and (r - 1 - total) % 2 == 0:
                    kp = (r - 1 - total) // 2
                    if n - kp <= 0 or f[n - kp - 1] != 0:
                        out.append(Weight(f))
    return WeightSet.make(out, f"pi0({lt},{r})")


class DecompositionResult:
    """Factor multiplicities of a tensor power next to its dominant weights."""

    __slots__ = ("lie_type", "r", "pi", "pi0", "multiplicities", "equal", "dims")

    def __init__(self, lie_type, r, pi, pi0, multiplicities, equal, dims=None):
        if not pi0.as_set() <= pi.as_set():
            raise InvariantError("decomposition consistency", "factor weights must be dominant tensor weights")
        if set(multiplicities) != pi0.as_set():
            raise InvariantError("decomposition consistency", "multiplicities must cover exactly the factor weights")
        self.lie_type = lie_type
        self.r = r
        self.pi = pi
        self.pi0 = pi0
        self.multiplicities = multiplicities
        self.equal = equal
        self.dims = dims if dims is not None else {}  # {lam: dim L(lam)} over pi and pi0, each computed once

    def pi_minus_pi0(self):
        return tuple(w for w in self.pi if w not in self.pi0)

    def squared_dimension_sums(self):
        """Wedderburn dimension sums over pi and over pi0, read from `dims`."""
        return sum(self.dims[w] ** 2 for w in self.pi), sum(self.dims[w] ** 2 for w in self.pi0)

    def to_json(self):
        return {
            "family": self.lie_type.family,
            "rank": self.lie_type.rank,
            "r": self.r,
            "equal": self.equal,
            "pi": self.pi.to_json()["elements"],
            "pi0": self.pi0.to_json()["elements"],
            "pi_minus_pi0": [w.to_json() for w in self.pi_minus_pi0()],
            "multiplicities": [
                {"weight": w.to_json(), "mult": self.multiplicities[w]} for w in self.pi0
            ],
        }


def _zero_step_allowed(family, lam):
    """Type B's zero weight: its path dips to lam - eps_n/2, dominant iff lam_n > 0."""
    return family == "B" and lam[-1] > 0


def _chamber_walks(rs: RootSystem, r: int) -> dict:
    """{lam: number of dominant r-step walks from 0 to lam}, on integer tuples."""
    n, family, in_chamber = rs.rank, rs.family, rs.in_chamber
    walks = {(0,) * n: 1}
    for _ in range(r):
        nxt = {}
        for lam, count in walks.items():
            ends = [lam[:i] + (lam[i] + s,) + lam[i + 1 :] for i in range(n) for s in (1, -1)]
            if _zero_step_allowed(family, lam):
                ends.append(lam)
            for mu in ends:
                if in_chamber(mu):
                    nxt[mu] = nxt.get(mu, 0) + count
        walks = nxt
    return walks


def decompose_tensor_character(lt: LieType, r: int) -> DecompositionResult:
    """Factor multiplicities of the r-th tensor power, by counting chamber walks.

    Concatenated paths realize tensor products (Littelmann, Paths and root
    operators in representation theory, 1995), so m_lam(V^r) counts the
    r-step walks from 0 to lam whose steps are the weights of V and whose
    paths stay dominant (Grabiner-Magyar, Random walks in Weyl chambers and
    the decomposition of tensor powers, 1993).  The steps +-eps_i have
    straight paths, so such a step is kept iff it ends in the chamber,
    which the root system's `in_chamber` decides.  The
    zero weight of type B has the path that dips to lam - eps_n/2 and back,
    so it is a step only where lam_n > 0.  Every walk must end in pi, and
    the counts must satisfy sum_lam m_lam dim L(lam) = m^r, or
    InvariantError is raised.  The dimensions of the weights in pi are kept
    in the result.
    """
    rs = build_root_system(lt)
    mults = {Weight(lam): count for lam, count in sorted(_chamber_walks(rs, r).items(), reverse=True)}
    pi = _dominant_pi(rs, lt, r)
    outside = [lam for lam in mults if lam not in pi]
    if outside:
        raise InvariantError("chamber walk", f"endpoints {outside[:3]} of {lt} r={r} are not dominant tensor weights")
    dims = {lam: weyl_dimension(rs, lam) for lam in pi}
    total = sum(m * dims[lam] for lam, m in mults.items())
    if total != lt.natural_dim**r:
        raise InvariantError(
            "tensor dimension", f"factor dimensions of {lt} r={r} sum to {total}, not {lt.natural_dim}^{r}"
        )
    pi0 = WeightSet.make(mults.keys(), f"pi0({lt},{r})")
    return DecompositionResult(
        lie_type=lt, r=r, pi=pi, pi0=pi0, multiplicities=mults, equal=pi0.as_set() == pi.as_set(), dims=dims
    )


def compare_pi0_pi(lt: LieType, r: int) -> DecompositionResult:
    """Cross-check the factor rules against the oracle and compare with pi."""
    oracle = decompose_tensor_character(lt, r)
    rules = pi0_weyl_rules(lt, r)
    if rules.as_set() != oracle.pi0.as_set():
        raise ArithmeticError(
            f"factor rules and character oracle disagree for {lt}, r={r}: "
            f"rules={sorted(w.coords for w in rules)}, oracle={sorted(w.coords for w in oracle.pi0)}"
        )
    return oracle


def classify_type_B(n_max: int, r_max: int):
    """Equality table for the family-B headline question, over a grid.

    Each (n, r) builds one root system, and its totals are read from the
    Weyl dimensions its `DecompositionResult` keeps, as the `dims` command's are.
    """
    if n_max < 1 or r_max < 1:
        raise ValueError("bounds must be >= 1")
    rows = []
    for n in range(1, n_max + 1):
        for r in range(1, r_max + 1):
            res = compare_pi0_pi(LieType("B", n), r)
            dim_pi, dim_schur = res.squared_dimension_sums()
            rows.append(
                {
                    "family": "B",
                    "n": n,
                    "r": r,
                    "equal": res.equal,
                    "pi_size": len(res.pi),
                    "pi0_size": len(res.pi0),
                    "dim_S_pi": dim_pi,
                    "dim_Schur": dim_schur,
                }
            )
    return rows


def _dominant_pi(rs: RootSystem, lt: LieType, r: int) -> WeightSet:
    """pi, checked once against the chamber before any Weyl dimension is taken.

    A weight of pi outside the chamber is a failed check (InvariantError),
    not an invalid request, so it must not reach `weyl_dimension`'s
    ValueError.
    """
    pi = tensor_dominant_pi(lt, r)
    outside = [lam for lam in pi if not rs.in_chamber(lam.num)]
    if outside:
        raise InvariantError("dominant tensor weights", f"{outside[:3]} of {lt} r={r} lie outside the dominant chamber")
    return pi


def schur_dimensions(lt: LieType, r: int):
    """Wedderburn dimension sums over pi and over pi0 (by the factor rules, which must lie in pi)."""
    rs = build_root_system(lt)
    pi, rules = _dominant_pi(rs, lt, r), pi0_weyl_rules(lt, r)
    outside = [lam for lam in rules if lam not in pi]
    if outside:
        raise InvariantError("factor rules", f"{outside[:3]} of {lt} r={r} are not dominant tensor weights")
    squares = {lam: weyl_dimension(rs, lam) ** 2 for lam in pi}
    return sum(squares.values()), sum(squares[lam] for lam in rules)
