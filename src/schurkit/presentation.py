"""Machine verification of the two presentations on faithful carriers.

The Serre-compatible presentation has seven relation groups per family
(labels B1..B7, C1..C7, D1..D7): commuting Cartan operators, the
coroot commutator targets, eigenvalue commutators, both Serre
relations, an annihilator polynomial for each H_i, and one for every
signed sum J of the H_i.  The projector presentation has eight groups
(R1..R8): orthogonal idempotents summing to one, the commutator-to-
projector identity, four ladder families, and both Serre relations.

Every relation group is checked as an exact operator identity on the
given carrier, which is the only input: the type and degree are the
carrier's own, and the constants come from its root system.  A failing
group records the sub-case and the location of its largest residual entry.
Groups the two presentations share are built by one helper each: the
commutator [e_i, f_j] = delta_ij h_i (X2, R2), whose target is the coroot
element h_i = sum_k <eps_k, alpha_i^vee> H_k (X2) or sum_lam
<lam, alpha_i^vee> 1_lam (R2), and the Serre relations (X4/X5, R7/R8).
The ladder groups R3-R6 are computed by `idempotents.ladder_check`.

Two facts of the carriers cut the work of `replinalg`'s row kernel.

Diagonal values.  The weight basis is an eigenbasis of every H_i and
every 1_lam, so each H_i's diagonal is read once, and an H_i that is not
diagonal is a failed check.  X1 then holds (diagonal operators commute);
X6 and X7 multiply out diagonal values, each signed sum J of X7 being the
signed sum of the diagonals.  R1's product 1_lam 1_mu is index-by-index,
so only projectors whose supports meet are paired, and the completeness
sum is a sum of diagonal values.  Every bracket, X3's [H_i, x] + d x
included, is one pass of the row kernel.

Place symmetry.  The lifted generators commute with the permutations of
the tensor places of each tower block, which permute the base-m digits of
an index, so every residual R of them has R[sa, sb] = R[a, b] and is zero
exactly when its rows at the non-decreasing digit tuples are: 330 of 2801
rows on B3 r=4.  Each check calls the place gate `replinalg.orbit_rows`
once, on every operator its residuals read: the Serre check on the e_i,
f_i and H_i, the idempotent check on the e_i, f_i and the projector table.
Where the gate passes, every residual and target is formed on those rows
alone, and in full where it fails: the X2/R2 commutators and their
targets, the X3 brackets, the Serre chains, the X6/X7 shift products of
the H diagonals, R1's projector products, and `ladder_check`'s entry
scan and R3-R6 ladder residuals.  A diagonal residual is a residual
of place-fixed operators too, so the same argument covers it.  Row a of
[x, z] reads row a of z and the rows of z at the columns x stores in row
a, so each bracket of a Serre chain forms just the rows the next one reads,
planned backwards from the orbit rows, and no intermediate is formed in
full: on `verify B 3 4` each presentation makes 31 `bracket` calls, all
on restricted rows, 11 662 rows in all.  The orbit rows also give the
full residual's witness.
Sorting an index's digits gives its orbit row, the smallest index of its
orbit (digit 0 is the most significant), and row sa is row a with its
columns permuted.  So the smallest row that holds a largest-magnitude
entry is an orbit row, formed whole: whether a residual is zero, its
largest magnitude and the first entry of it in (row, column) order are the
full residual's, and the witness is the one the full residuals give.

The zero-locus scan (over the L1 shells a zero can lie on) lives here as
well, since it decides which relation groups are redundant.  The
generated-algebra comparisons, which read the X2 and X3 checks from
here, are in `closure`, so that the jobs that check relations do not
execute them.
"""

from __future__ import annotations

import itertools

from .idempotents import IdempotentFamily, _check_sizes, annihilator_for_signed_sums, ladder_check, p1
from .replinalg import ExactMatrix, Representation, _combine, indices, orbit_rows, product_of_shifts
from .rootdata import LieType, Weight, build_root_system
from .weightsets import WeightSet, compositions, tensor_weights_Pi


class RelationCheck:
    """One relation group's outcome; equal by label, status and witness."""

    __slots__ = ("label", "holds", "witness")

    def __init__(self, label, holds, witness=None):
        self.label = label
        self.holds = holds
        self.witness = witness

    def __eq__(self, other):
        if not isinstance(other, RelationCheck):
            return NotImplemented
        return (self.label, self.holds, self.witness) == (other.label, other.holds, other.witness)

    def to_json(self):
        doc = {"label": self.label, "status": "holds" if self.holds else "fails"}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


class RelationReport:
    __slots__ = ("presentation", "family", "rank", "r", "carrier", "reduced_word", "generator_convention", "relations")

    def __init__(self, presentation, family, rank, r, carrier, reduced_word, generator_convention, relations=None):
        self.presentation = presentation
        self.family = family
        self.rank = rank
        self.r = r
        self.carrier = carrier
        self.reduced_word = reduced_word
        self.generator_convention = generator_convention
        self.relations = relations if relations is not None else []

    @property
    def all_hold(self):
        return all(c.holds for c in self.relations)

    def failing_labels(self):
        return tuple(c.label for c in self.relations if not c.holds)

    def to_json(self):
        return {
            "presentation": self.presentation,
            "type": self.family,
            "rank": self.rank,
            "r": self.r,
            "carrier": self.carrier,
            "reduced_word": list(self.reduced_word),
            "generator_convention": self.generator_convention,
            "relations": [c.to_json() for c in self.relations],
        }


_GENERATOR_CONVENTION = (
    "e_i = E(i,i+1)-E(n+i+1,n+i) for i<n; last root vector per family with "
    "[e_n,f_n] = 2H_n (B), H_n (C), H_{n-1}+H_n (D); H_i = E(i,i)-E(n+i,n+i)"
)


def _check_many(label, cases):
    """Aggregate (case, residual) pairs into one relation check.

    The recorded witness is the largest-magnitude residual entry across
    the failing sub-cases, the first one found in a fixed iteration order.
    """
    worst = None
    for case, residual in cases:
        if residual.is_zero():
            continue
        mag, i, j, v = residual.max_abs_with_location()
        if worst is None or mag > worst[0]:
            worst = (mag, case, i, j, v)
    if worst is None:
        return RelationCheck(label=label, holds=True)
    mag, case, i, j, v = worst
    witness = {"case": case, "entry": [i, j], "value": f"{v}/1", "magnitude": str(mag)}
    return RelationCheck(label=label, holds=False, witness=witness)


def _needed_rows(x, rows):
    """The rows of z that the rows `rows` of [x, z] read: each row a, and the columns x stores in row a (None: all)."""
    if rows is None:
        return None
    stored = x._data
    needed = set(rows)
    for a in rows:
        needed.update(b for b, _ in stored.get(a, ()))
    return needed


def _serre_sum(x, y, a_xy, rows=None):
    """sum_s (-1)^s C(k, s) x^{k-s} y x^s with k = 1-a, exactly; only `rows`, if given.

    The sum is the iterated commutator ad_x^k(y), formed as k brackets
    [x, z], each in one pass, and no list of powers.  Each bracket forms
    only the rows the next one reads (`_needed_rows`), planned backwards
    from `rows`, so no intermediate is formed in full.
    """
    k = 1 - a_xy
    plan = [rows]  # the rows of the last bracket, then those of each bracket before it
    for _ in range(k - 1):
        plan.append(_needed_rows(x, plan[-1]))
    z = y
    for r in reversed(plan[:k]):
        z = x.bracket(z, None, r)
    return z


def _serre_cases(gens, cartan, rows=None):
    """The Serre residuals ad_{x_i}^k(x_j), k = 1 - a_ij, in (i, j) order, i != j, on `rows` (None: all)."""
    for i, j in itertools.permutations(range(len(gens)), 2):
        yield (f"i={i+1},j={j+1}", _serre_sum(gens[i], gens[j], cartan[i][j], rows))


def _commutator_cases(e, f, target, rows=None):
    """Residuals of [e_i, f_j] = delta_ij target(i), each on `rows` (None: all); target is built only when i == j."""
    n = len(e)
    for i in range(n):
        for j in range(n):
            yield (f"i={i+1},j={j+1}", e[i].bracket(f[j], target(i) if i == j else None, rows))


def _coroot_element(rs, h, i, rows=None):
    """h_i = sum_k <eps_k, alpha_i^vee> H_k, target of [e_i, f_i], in one pass (i 0-based), on `rows` (None: all)."""
    return _combine(h[i].size, (), tuple((c, hk) for c, hk in zip(rs.coroot(i + 1).coords, h) if c), rows)


def _x3_cases(rs, rep, rows):
    """Residuals of [H_k, x_j] = <eps_k, +-alpha_j> x_j for x = e, f (X3), on `rows` (None: all).

    Each residual [H_k, x] - <eps_k, +-alpha_j> x is one pass of the row
    kernel, as every other bracket of the checks is.
    """
    for k, hk in enumerate(rep.h):
        for j in range(rs.rank):
            c = rs.simple_root(j + 1).num[k]  # <eps_k, alpha_j>: integral, as RootSystem checks
            for name, x, shift in ("e", rep.e[j], -c), ("f", rep.f[j], c):
                yield (f"[H_{k+1},{name}_{j+1}]", _combine(rep.dim, ((1, hk, x), (-1, x, hk)), ((shift, x),), rows))


def _new_report(presentation, rep: Representation):
    """An empty report for a carrier, and the root system of its type."""
    rs = build_root_system(rep.lie_type)
    word, _ = rs.longest_element()
    report = RelationReport(
        presentation=presentation,
        family=rs.family,
        rank=rs.rank,
        r=rep.r,
        carrier=rep.kind,
        reduced_word=word,
        generator_convention=_GENERATOR_CONVENTION,
    )
    return report, rs


def verify_serre_presentation(rep: Representation) -> RelationReport:
    """Check the seven Cartan-generator relation groups on a carrier."""
    report, rs = _new_report("serre", rep)
    n, fam = rs.rank, rs.family
    e, f, h = rep.e, rep.f, rep.h
    # the weight basis of a carrier is an eigenbasis of every H_i: X1, X6 and X7 read the diagonals
    diagonals = []
    for i, hi in enumerate(h):
        if not hi.is_diagonal():
            raise ArithmeticError(f"{fam}6: H_{i+1} not diagonal on the weight basis")
        diagonals.append(hi.diagonal())
    report.relations.append(RelationCheck(label=f"{fam}1", holds=True))  # diagonal operators commute
    rows = orbit_rows(rep, rep.generator_lists())  # X2's targets and X3's brackets read the H_i
    x2_cases = _commutator_cases(e, f, lambda i: _coroot_element(rs, h, i, rows), rows)
    report.relations.append(_check_many(f"{fam}2", x2_cases))

    report.relations.append(_check_many(f"{fam}3", _x3_cases(rs, rep, rows)))
    report.relations.append(_check_many(f"{fam}4", _serre_cases(e, rs.cartan, rows)))
    report.relations.append(_check_many(f"{fam}5", _serre_cases(f, rs.cartan, rows)))

    x6_cases = ((f"P1(H_{i+1})", product_of_shifts(d, p1(rep.r), rows)) for i, d in enumerate(diagonals))
    report.relations.append(_check_many(f"{fam}6", x6_cases))
    signed = annihilator_for_signed_sums(fam, rep.r)
    at = range(rep.dim) if rows is None else rows

    def x7_cases():
        for signs in itertools.product((1, -1), repeat=n):
            j_diagonal = [0] * rep.dim  # read at `rows` alone, if given
            for a in at:
                j_diagonal[a] = sum([s * d[a] for s, d in zip(signs, diagonals)])
            label = "J=" + "".join("+" if s == 1 else "-" for s in signs)
            yield (label, product_of_shifts(j_diagonal, signed, rows))

    report.relations.append(_check_many(f"{fam}7", x7_cases()))
    return report


def _projector_cases(fam, dim, rows=None):
    """Residuals of 1_lam 1_mu = delta 1_lam in (lam, mu) order, then of the completeness sum, on `rows` (None: all).

    The projectors are diagonal (`fam.holders()` raises otherwise), so
    1_lam 1_mu is the index-by-index product, and only pairs whose
    supports share an index can leave a residual.
    """
    lams = list(fam.table)
    holders = fam.holders()
    at = indices(dim)[:dim] if rows is None else rows
    products = {}  # (position of lam, position of mu) -> {index: entry of 1_lam 1_mu - delta 1_lam}
    for b in at:
        held = holders.get(b, ())
        for p, u in held:
            for q, v in held:
                w = u * v - u if p == q else u * v
                if w:
                    products.setdefault((p, q), {})[b] = w
    for p, q in sorted(products):
        yield (f"1_{lams[p].coords} 1_{lams[q].coords}", ExactMatrix._diag_at(dim, products[p, q].items()))
    yield ("completeness", ExactMatrix._diag_at(dim, ((b, sum(v for _, v in holders.get(b, ())) - 1) for b in at)))


def verify_idempotent_presentation(rep: Representation, fam: IdempotentFamily) -> RelationReport:
    """Check the eight projector-presentation relation groups on a carrier.

    A projector whose size is not the carrier's is refused first
    (ValueError).  R7 and R8 are formed before R1, so that their brackets
    are freed before the family's projector index is built; the report
    keeps the R1-R8 order.  The ladder groups R3-R6 come from
    `idempotents.ladder_check`, the one implementation the `idempotents`
    command uses too.  Ladder cases whose target projector is absent from
    the family's table (while its weight does belong to the carrier weight
    set) are skipped: the missing projector is a completeness defect,
    which R1 reports.
    """
    _check_sizes(fam.table, rep.dim)  # before the place gate reads the table
    report, rs = _new_report("idempotent", rep)
    rows = orbit_rows(rep, [*rep.e, *rep.f, *fam.table.values()])  # R2's targets are sums of the projectors
    # R7 and R8 are checked first, so that the Serre brackets, the largest
    # intermediates, are freed before the family's projector index is built
    serre = [_check_many(f"R{k}", _serre_cases(gens, rs.cartan, rows)) for k, gens in ((7, rep.e), (8, rep.f))]
    report.relations.append(_check_many("R1", _projector_cases(fam, rep.dim, rows)))
    coroot_target = lambda i: fam.weighted_sum(rs.coroot(i + 1).dot, rows)  # sum_lam <lam, alpha_i^vee> 1_lam
    report.relations.append(_check_many("R2", _commutator_cases(rep.e, rep.f, coroot_target, rows)))
    for label, cases in ladder_check(fam, rep, rows).residuals.items():
        report.relations.append(_check_many(label, cases))
    report.relations.extend(serre)
    return report


# ---------------------------------------------------------------------------
# Zero locus of the annihilator equations in the Cartan variables


def zero_locus(lt: LieType, r: int, include_p1hi: bool = True) -> WeightSet:
    """Common zeros of the signed-sum annihilator equations, by a pruned scan.

    Points are doubled: each candidate is an integer vector v, tested
    against doubled root sets and kept as the weight v/2.  A point vanishes
    under a factored annihilator polynomial exactly when the signed sum
    hits one of its roots, so membership is decided against the root sets.

    The signed sum with the signs of v itself is its L1 norm, so every zero
    lies on a shell |v|_1 = c for a nonnegative doubled root c, and only
    those shells are scanned.  Every root is at most r, so the shells lie
    inside the box [-2r, 2r]^n of the half-integer window.  The P1(H_i)
    equations make each coordinate a doubled P1 root, that is, even.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    n = lt.rank
    signed_roots = {2 * c for c in annihilator_for_signed_sums(lt.family, r)}
    step = 2 if include_p1hi else 1
    out = []
    for norm in sorted(c for c in signed_roots if c >= 0):
        for comp in compositions(n, norm // step):
            for point in itertools.product(*[(step * c, -step * c) if c else (0,) for c in comp]):
                sums = {0}  # the signed sums of the coordinates so far, over all their sign vectors
                for v in point:
                    sums = {t + v for t in sums} | {t - v for t in sums}
                if sums <= signed_roots:
                    out.append(Weight.from_numerators(point, 2))
    flag = "all-equations" if include_p1hi else "signed-sums-only"
    return WeightSet.make(out, f"V({lt},{r},{flag})")


class ZeroLocusReport:
    __slots__ = ("lie_type", "r", "include_p1hi", "locus", "pi_all", "equals_pi", "extra_points")

    def __init__(self, lie_type, r, include_p1hi, locus, pi_all, equals_pi, extra_points):
        self.lie_type = lie_type
        self.r = r
        self.include_p1hi = include_p1hi
        self.locus = locus
        self.pi_all = pi_all
        self.equals_pi = equals_pi
        self.extra_points = extra_points

    def to_json(self):
        return {
            "family": self.lie_type.family,
            "rank": self.lie_type.rank,
            "r": self.r,
            "include_p1hi": self.include_p1hi,
            "locus_size": len(self.locus),
            "pi_size": len(self.pi_all),
            "equals_pi": self.equals_pi,
            "extra_points": [w.to_json() for w in self.extra_points],
        }


def zero_locus_report(lt: LieType, r: int, include_p1hi: bool = True) -> ZeroLocusReport:
    locus = zero_locus(lt, r, include_p1hi)
    pi_all = tensor_weights_Pi(lt, r)
    extra = tuple(w for w in locus if w not in pi_all)
    missing = tuple(w for w in pi_all if w not in locus)
    if missing:
        raise ArithmeticError(f"zero locus lost tensor weights {missing[:3]} for {lt}, r={r}")
    return ZeroLocusReport(
        lie_type=lt,
        r=r,
        include_p1hi=include_p1hi,
        locus=locus,
        pi_all=pi_all,
        equals_pi=not extra,
        extra_points=extra,
    )


def __getattr__(name):
    """`presentations_generate_same_algebra` of `closure`, also read under this module's name."""
    if name == "presentations_generate_same_algebra":
        from . import closure

        return closure.presentations_generate_same_algebra
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
