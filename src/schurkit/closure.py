"""Generated-algebra dimensions: the closure of a carrier's generators.

`quotient_witness` measures the algebra A the Chevalley generators generate
on the tower and on the single power, the tower's top block: every
generator keeps the degree, so cutting to the block's rows maps A_tower onto
A_single, and one closure, the tower's, gives both.  The weight idempotents
split A into pieces 1_mu A 1_mu' = sum_lam Hom(L(lam)_mu', L(lam)_mu), so
each piece (`ClosureResult.piece_dimensions`) must be sum_lam m_lam(mu)
m_lam(mu') by the character oracle, lam over pi and pi0; each carrier's
highest piece that differs is kept, and fails that carrier's verdict even
where its total sum_lam dim L(lam)^2 agrees.  A positive difference of the
totals exhibits the single power as a proper quotient.
`presentations_generate_same_algebra` checks that the Cartan and the
projector generators generate one algebra, closing both generator sets in
full only where their classes differ.

The closure is seeded at the rows that determine A (`_closure_seeds`), or
at every row.  Where the e_i, f_i and H_i pass the place gate
`replinalg.orbit_rows`, A commutes with the place permutations, and the
closure multiplies on the right only, so restriction to the orbit rows is
injective on A.  Where, besides, every H_i is diagonal and X2 and X3 hold,
n_i = exp(e_i) exp(-f_i) exp(e_i) lies in A and conjugates 1_mu to
1_{s_i mu}, so 1_{w mu} A = n_w 1_mu A: only the dominant weights' orbit
rows are seeded, dim A = sum over dominant mu of |W mu| dim 1_mu A, and
only the pieces at dominant mu are compared.  The premises hold on the
block too, whose seeds are its own dominant orbit rows; where they fail,
the cut of the full closure is all of A_single.  X2 alone does not suffice:
a C1 r=2 fault that passes the gate and X2 and breaks X3 on both sides
would read 7 for 10.

The relation checks do not need this module, so the jobs that run them do
not execute it.
"""

from __future__ import annotations

import functools
import itertools

from . import decomposition
from .idempotents import IdempotentFamily
from .presentation import _commutator_cases, _coroot_element, _x3_cases
from .replinalg import Representation, algebra_closure, orbit_rows, tower_rep
from .rootdata import LieType, Weight, build_root_system
from .weightsets import tensor_dominant_pi


class QuotientReport:
    __slots__ = (
        "lie_type", "r", "dim_single", "dim_tower", "expected_single", "expected_tower", "difference",
        "piece_single", "piece_tower",
    )

    def __init__(
        self, lie_type, r, dim_single, dim_tower, expected_single, expected_tower, difference,
        piece_single=None, piece_tower=None,
    ):
        self.lie_type = lie_type
        self.r = r
        self.dim_single = dim_single
        self.dim_tower = dim_tower
        self.expected_single = expected_single
        self.expected_tower = expected_tower
        self.difference = difference
        self.piece_single = piece_single  # each carrier's highest piece (mu, mu') that differs from its sum, or None
        self.piece_tower = piece_tower

    @property
    def equal(self):
        return self.dim_single == self.dim_tower

    @property
    def mismatch(self):
        """The tower's differing piece, else the single power's, or None."""
        return self.piece_tower or self.piece_single

    @property
    def single_matches(self):
        return self.dim_single == self.expected_single and self.piece_single is None

    @property
    def tower_matches(self):
        return self.dim_tower == self.expected_tower and self.piece_tower is None

    @property
    def totals_match(self):
        return (self.dim_single, self.dim_tower) == (self.expected_single, self.expected_tower)

    @property
    def matches_expected(self):
        return self.single_matches and self.tower_matches

    def to_json(self):
        return {
            "family": self.lie_type.family,
            "rank": self.lie_type.rank,
            "r": self.r,
            "dim_single_power": self.dim_single,
            "dim_tower": self.dim_tower,
            "difference": self.difference,
            "equal": self.equal,
            "expected_single_power": self.expected_single,
            "expected_tower": self.expected_tower,
            "matches_expected": self.matches_expected,
        }


def _closure_seeds(rep: Representation, rs):
    """(rows, weight): the rows a closure of the carrier's generators is seeded at, or (None, None) for every row.

    Where every H_i is diagonal, the e_i, f_i and H_i pass the place gate and
    X2 and X3 hold, rows are the orbit rows at dominant weights and weight(a)
    is the H-eigenvalue tuple of index a.  X2 and X3 are decided on the orbit
    rows, as in the Serre check.
    """
    if not all(hi.is_diagonal() for hi in rep.h):
        return None, None
    orbits = orbit_rows(rep, rep.generator_lists())
    x2 = _commutator_cases(rep.e, rep.f, lambda i: _coroot_element(rs, rep.h, i, orbits), orbits)
    if orbits is None or not all(res.is_zero() for _, res in itertools.chain(x2, _x3_cases(rs, rep, orbits))):
        return None, None
    diagonals = [hi.diagonal() for hi in rep.h]
    weight = lambda a: tuple(d[a] for d in diagonals)
    return [a for a in orbits if rs.in_chamber(weight(a))], weight


def _closure_dimensions(tower: Representation, rs):
    """[(dim A, dim 1_c A 1_c' per piece (c, c')) on the tower, then on its top block], and whether seeded dominant."""
    rows, weight = _closure_seeds(tower, rs)
    res = algebra_closure(tower.generator_lists(), rows)
    _, offset, size = tower.blocks[-1]
    orbit = functools.cache((lambda c: 1) if weight is None else (lambda c: len(rs.weyl_orbit(Weight(weight(c[0]))))))
    cuts = res.piece_dimensions(), res.piece_dimensions(range(offset, offset + size))
    return [(sum(orbit(c) * d for (c, _), d in dims.items()), dims) for dims in cuts], weight is not None


def _piece_mismatch(rs, lams, kind, weights, dims, dominant):
    """The highest piece (mu, mu') whose dimension differs from sum_lam m_lam(mu) m_lam(mu'), or None."""
    table = {}  # (mu, mu') -> [dimension, expected]
    for lam in lams:
        terms = decomposition.freudenthal_multiplicities(rs, lam).terms
        for mu, m in terms:
            if not dominant or rs.is_dominant(mu):
                for nu, n in terms:
                    table.setdefault((mu, nu), [0, 0])[1] += m * n
    for (c, d), dim in dims.items():  # at the weights of c[0] and d[0]; faulty classes can share them, and add up
        table.setdefault((weights[c[0]], weights[d[0]]), [0, 0])[0] += dim
    differing = [(mu.coords, nu.coords, have, want) for (mu, nu), (have, want) in table.items() if have != want]
    if differing:
        mu, nu, have, want = max(differing)
        return f"{kind}: dim 1_mu A 1_mu' = {have} at (mu, mu')=({mu}, {nu}), expected {want}"
    return None


def quotient_witness(lt: LieType, r: int, max_dim=None) -> QuotientReport:
    """Generated-algebra dimensions on the single power and on the tower.

    Equality means the single-power image already realizes the whole
    family of simple modules; a positive difference exhibits the single
    power as a proper quotient and equals the squared-dimension total of
    the missing factors.  `piece_tower` and `piece_single` name each
    carrier's highest piece (mu, mu') whose dimension differs from
    sum_lam m_lam(mu) m_lam(mu'), lam over pi (tower) or pi0 (single power),
    or are None; both are checked on every call.
    """
    rs = build_root_system(lt)
    tower = tower_rep(lt, r, max_dim)
    # pi and the factor rules are chamber-checked here, before the closure and before any oracle call
    expected = decomposition.schur_dimensions(lt, r)
    carriers, dominant = _closure_dimensions(tower, rs)
    rules = (tensor_dominant_pi, decomposition.pi0_weyl_rules)
    piece_tower, piece_single = (
        _piece_mismatch(rs, pi(lt, r), kind, tower.weights, dims, dominant)
        for kind, (_, dims), pi in zip(("tower", "power"), carriers, rules)
    )
    (dim_tower, _), (dim_single, _) = carriers
    return QuotientReport(
        lt, r, dim_single, dim_tower, expected[1], expected[0], dim_tower - dim_single, piece_single, piece_tower
    )


def _same_classes(size, diagonals, others):
    """Labelling each index of range(size) by its tuple of values in either list gives one partition.

    An empty list labels every index () and so forms one class.
    """
    pairs = {(tuple(d[a] for d in diagonals), tuple(d[a] for d in others)) for a in range(size)}
    return len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


def presentations_generate_same_algebra(rep: Representation, fam: IdempotentFamily) -> bool:
    """Same span test: Cartan generators against projector generators.

    `algebra_closure` uses diagonal generators only to grade, so where every
    H_i and projector is diagonal and their joint classes are one partition,
    both closures are one computation and the answer is True; otherwise both
    generator sets are closed in full and compared.
    """
    projectors = list(fam.table.values())
    if all(x.is_diagonal() for x in [*rep.h, *projectors]):
        if _same_classes(rep.dim, [h.diagonal() for h in rep.h], [p.diagonal() for p in projectors]):
            return True
    with_h = algebra_closure(list(rep.e) + list(rep.f) + list(rep.h))
    with_proj = algebra_closure(list(rep.e) + list(rep.f) + projectors)
    return (
        with_h.dimension == with_proj.dimension
        and with_h.canonical_rows() == with_proj.canonical_rows()
    )
