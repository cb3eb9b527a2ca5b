"""Weight-space projectors built from integer-rooted annihilator polynomials.

For a carrier whose Cartan operators H_i have integer spectra in [-r, r],
the projector onto the simultaneous eigenspace of eigenvalue vector lam is

    1_lam = prod_i  P1^(lam_i)(H_i) / P1^(lam_i)(lam_i),

where P1 has the roots -r, ..., r and P1^(k) is P1 with the factor
(T - k) removed.  The polynomial product is the normative construction;
because the H_i are diagonal on the standard tensor basis the projectors
are plain indicator diagonals, so the family is materialized that way
after the polynomial formula has been re-verified on a sample of weights.
The check stays in integers: the deleted-factor product N of the numerators
must equal d * 1_lam, where d = prod_i P1^(lam_i)(lam_i) is the normaliser.
The H_i are diagonal, so the product of the factors is taken index by index;
an H_i that is not diagonal on the weight basis is a failed check, and so is
a weight of the family with a coordinate outside [-r, r] (InvariantError).
The table's indicators and every weighted sum of them (the R2 target
sum_lam <lam, alpha_i^vee> 1_lam, and H_i itself) are built as diagonals.

P1 and P2, whose roots are -r, -r+2, ..., r, are kept as integer root
tuples and applied factor by factor with `shift_products` (diagonal
values) or `product_of_shifts` (the diagonal operator); no coefficient is
formed.  They, and the signed-sum annihilator built from them, are what
the projectors, the Serre check's X6/X7 and the zero-locus scan read.

`ladder_check` is the one implementation of the projector presentation's
ladder relations R3-R6; the presentation report takes its groups from it.
"""

from __future__ import annotations

import math

from .replinalg import ExactMatrix, Representation, _combine, diagonal_index, indices, shift_products
from .rootdata import InvariantError, Weight, build_root_system
from .weightsets import WeightSet, tensor_weights_Pi


def p1(r):
    """Roots of P1: every integer in [-r, r]."""
    return tuple(range(-r, r + 1))


def p2(r):
    """Roots of P2: the integers in [-r, r] of the parity of r."""
    return tuple(range(-r, r + 1, 2))


def annihilator_for_signed_sums(family, r):
    """Roots of the polynomial every signed sum of Cartan operators satisfies."""
    return p1(r) if family == "B" else p2(r)


def polynomial_idempotent(rep: Representation, lam: Weight):
    """(N, d) with 1_lam = N / d, by the deleted-factor product.

    N = prod_i P1^(lam_i)(H_i) is an integer matrix and d = prod_i
    P1^(lam_i)(lam_i) its nonzero integer normaliser.  Never expands the
    degree-2rn product symbolically: the diagonal values of each
    P1^(lam_i)(H_i) come from `shift_products`, and N's diagonal is their
    per-index product.  A carrier's H_i are diagonal on its weight basis
    (`weights[b]` is basis vector b's eigenvalue vector); an H_i that is
    not raises ArithmeticError.  The weights come from the tensor weight
    set, so a coordinate outside [-r, r] is a failed check too
    (InvariantError), not bad input.
    """
    values, denom = _deleted_factor_values(rep, lam, [])
    return ExactMatrix.diag(values), denom


def _deleted_factor_values(rep, lam, diagonals):
    """N's diagonal values and d, as `polynomial_idempotent` defines them.

    `diagonals` holds the H_i diagonals read so far, in order; an H_i is
    read, and checked to be diagonal, only where the list stops, so a
    caller that keeps the list reads each H_i once.
    """
    r = rep.r
    roots = p1(r)
    values = [1] * rep.dim
    denom = 1
    for i, hi in enumerate(rep.h):
        k = lam.coords[i]
        if k not in roots:
            raise InvariantError("integer window", f"eigenvalue {k} for H_{i+1} escapes [-{r}, {r}]")
        if i == len(diagonals):
            if not hi.is_diagonal():
                raise ArithmeticError(f"H_{i+1} not diagonal on the weight basis")
            diagonals.append(hi.diagonal())
        shifts = [j for j in roots if j != k]
        values = [v * w for v, w in zip(values, shift_products(diagonals[i], shifts))]
        denom *= math.prod(k - j for j in shifts)
    return values, denom


class IdempotentFamily:
    """The complete system of weight projectors on one carrier."""

    __slots__ = ("rep", "pi_all", "table", "_holders")

    def __init__(self, rep, pi_all, table):
        self.rep = rep
        self.pi_all = pi_all
        self.table = table  # not to be changed once holders() has read it
        self._holders = None

    def holders(self):
        """`diagonal_index` of the table, built on the first call and kept for R1, R2's targets and `ladder_check`.

        The projectors are diagonal; one that is not raises ArithmeticError
        on every call, since nothing is kept then.
        """
        if self._holders is None:
            self._holders = diagonal_index(self.table)
        return self._holders

    def weighted_sum(self, coeff, rows=None) -> ExactMatrix:
        """Sum of coeff(lam) * 1_lam over the family, accumulated on the diagonal; only `rows`, if given.

        The projectors are diagonal; one that is not raises ArithmeticError (`holders`).
        """
        coeffs = [coeff(lam) for lam in self.table]
        holders = self.holders()
        at = holders if rows is None else [b for b in rows if b in holders]
        return ExactMatrix.from_entries(self.rep.dim, ((b, b, sum(coeffs[p] * v for p, v in holders[b])) for b in at))

    def rank_table(self):
        """Projector ranks per weight; for indicator diagonals this is the trace."""
        return {lam: mat.trace() for lam, mat in self.table.items()}

    def summary_json(self):
        return {
            "carrier": self.rep.kind,
            "dim": self.rep.dim,
            "ranks": [{"weight": lam.to_json(), "rank": int(rank)} for lam, rank in self.rank_table().items()],
        }


# Weights on which the polynomial formula is re-checked against the indicators.
_VERIFY_SAMPLE = 4


def build_idempotents(rep: Representation) -> IdempotentFamily:
    """Construct all 1_lam on a carrier, verifying the polynomial formula.

    The indicator-diagonal shortcut and the polynomial product must agree
    exactly (N == d * 1_lam, see `polynomial_idempotent`); they are compared
    as diagonal values on a deterministic sample of weights (spread through
    the canonical order, plus the extremes), and each H_i's diagonal is
    read once for the whole sample.  The basis indices are grouped by
    weight in one pass, and each group is stored as its indicator diagonal.
    """
    r = rep.r
    pi_all = tensor_weights_Pi(rep.lie_type, r)
    support = {}  # weight -> basis indices carrying it, as the shared index ints
    for b, w in zip(indices(rep.dim), rep.weights):
        for c in w.coords:
            if not isinstance(c, int) or not -r <= c <= r:
                raise ArithmeticError(f"carrier weight {w!r} at basis vector {b} escapes [-{r}, {r}]")
        support.setdefault(w, []).append(b)
    if not support.keys() <= pi_all.as_set():
        raise ArithmeticError("carrier weights are not contained in the expected weight set")

    # indicator diagonals; their indices are basis positions, so no entry needs validating
    table = {lam: ExactMatrix._diag_at(rep.dim, ((b, 1) for b in support.get(lam, ()))) for lam in pi_all}

    elements = list(pi_all)
    if elements:
        stride = max(1, len(elements) // min(_VERIFY_SAMPLE, len(elements)))
        picks = sorted(set(range(0, len(elements), stride)) | {len(elements) - 1})
        diagonals = []
        for idx in picks:
            lam = elements[idx]
            values, normaliser = _deleted_factor_values(rep, lam, diagonals)
            if values != [normaliser * v for v in table[lam].diagonal()]:
                raise ArithmeticError(f"polynomial and indicator projectors disagree at {lam!r}")
    return IdempotentFamily(rep=rep, pi_all=pi_all, table=table)


def reconstruct_H(fam: IdempotentFamily, i) -> ExactMatrix:
    """Sum of lam_i * 1_lam over the family; equals the carrier's H_i."""
    if not 1 <= i <= fam.rep.rank:
        raise IndexError(f"index {i} out of range 1..{fam.rep.rank}")
    return fam.weighted_sum(lambda lam: lam.coords[i - 1])


def _check_sizes(table, dim):
    """Refuse a projector table of another carrier: every projector must have size dim (ValueError)."""
    if any(m.size != dim for m in table.values()):
        raise ValueError(f"size mismatch: the projectors against a carrier of dimension {dim}")


class LadderReport:
    """Nonzero residuals of the ladder families R3-R6, per label."""

    __slots__ = ("residuals", "checked", "skipped")

    def __init__(self, residuals, checked, skipped):
        self.residuals = residuals  # label -> [(case, residual)], in case order
        self.checked = checked
        self.skipped = skipped

    @property
    def ok(self):
        return not any(self.residuals.values())


_ZERO = -1  # the target position of a weight outside the carrier weight set, whose projector is zero


def ladder_check(fam: IdempotentFamily, rep: Representation = None, rows=None) -> LadderReport:
    """Verify the four ladder families on every projector of the family.

        R3: e_i 1_lam = 1_{lam+a_i} e_i        R5: 1_lam e_i = e_i 1_{lam-a_i}
        R4: f_i 1_lam = 1_{lam-a_i} f_i        R6: 1_lam f_i = f_i 1_{lam+a_i}

    The projectors are diagonal (`fam.holders()` raises otherwise), so the
    residual op 1_lam - 1_mu op has the entries op_ab (P_lam[b] - P_mu[a]):
    it is zero exactly when P_lam[b] = P_mu[a] at every entry (a, b) of op,
    and 1_lam op - op 1_mu exactly when P_lam[a] = P_mu[b].  So one scan of
    each generator's entries, against its table of the positions of
    lam +- alpha_i, decides every case (`_ladder_failures`), and a
    residual matrix is formed only for a failing case, by the row kernel on
    `rows`.  The generators come from `rep` (default: the family's own
    carrier), so a perturbed carrier can be checked against a clean family.
    Given `rows`, the scan reads the generators' entries in those rows only:
    where the generators and the projectors pass the place gate, a residual
    is zero exactly when its orbit rows are (`replinalg.orbit_rows`).

    Weights mu outside the carrier weight set contribute 1_mu = 0.  If a
    weight inside the set is missing from the family's table the case is
    skipped rather than failed: completeness of the family is a separate
    check (R1) and the identity cannot be evaluated without the missing
    projector.  Only nonzero residuals are kept, under the case label
    "i=<i>,lam=<coords>".
    """
    rep = rep if rep is not None else fam.rep
    rs = build_root_system(rep.lie_type)
    members = fam.pi_all.as_set()
    table = fam.table
    _check_sizes(table, rep.dim)
    holders = fam.holders()
    lams = list(table)
    position = {lam: n for n, lam in enumerate(lams)}
    # each index's class: the (position, value) pairs of the projectors that hold it
    classes = {}
    cls = [classes.setdefault(tuple(holders.get(b, ())), len(classes)) for b in range(rep.dim)]
    held = [dict(pairs) for pairs in classes]

    def target(mu):
        """mu's table position, _ZERO outside the weight set, None (skipped) where the table lacks it."""
        return _ZERO if mu not in members else position.get(mu)

    residuals = {label: [] for label in ("R3", "R4", "R5", "R6")}
    checked = skipped = 0
    for idx in range(1, rep.rank + 1):
        alpha = rs.simple_root(idx)
        # op 1_lam = 1_{lam+shift} op (R3, R4) and 1_lam op = op 1_{lam-shift} (R5, R6)
        for op, shift, left, right in (
            (rep.e[idx - 1], alpha, "R3", "R5"),
            (rep.f[idx - 1], -alpha, "R4", "R6"),
        ):
            up = [target(lam + shift) for lam in lams]
            down = [target(lam - shift) for lam in lams]
            stored = op._data.items() if rows is None else ((a, op._data[a]) for a in rows if a in op._data)
            pairs = {(cls[a], cls[b]) for a, row in stored for b, _ in row}
            # op 1_lam - 1_up op has the entries op_ab (P_lam[b] - P_up[a]),
            # and 1_lam op - op 1_down the entries op_ab (P_lam[a] - P_down[b])
            sides = (
                (left, up, _ladder_failures({(b, a) for a, b in pairs}, held, up), False),
                (right, down, _ladder_failures(pairs, held, down), True),
            )
            for n, lam in enumerate(lams):
                for label, targets, failing, ahead in sides:
                    mu = targets[n]
                    if mu is None:
                        skipped += 1
                        continue
                    checked += 1
                    if n in failing:
                        terms = [(1, table[lam], op) if ahead else (1, op, table[lam])]
                        if mu != _ZERO:
                            terms.append((-1, op, table[lams[mu]]) if ahead else (-1, table[lams[mu]], op))
                        residuals[label].append((f"i={idx},lam={lam.coords}", _combine(rep.dim, terms, (), rows)))
    return LadderReport(residuals=residuals, checked=checked, skipped=skipped)


def _ladder_failures(pairs, held, targets):
    """The positions n with P_n[x] != P_targets[n][y] for some (class of x, class of y) in pairs.

    held[c] is the {position: value} of the projectors that hold an index of
    class c, and targets[n] the position of the projector that case n
    compares with P_n: _ZERO for a zero projector, None for a skipped case.
    The two values can differ only at a position n that holds x or whose
    target holds y.
    """
    inverse = {m: n for n, m in enumerate(targets) if m is not None and m != _ZERO}
    failing = set()
    for cx, cy in pairs:
        at_x, at_y = held[cx], held[cy]
        for n in set(at_x).union(inverse[m] for m in at_y if m in inverse):
            mu = targets[n]
            if mu is not None and at_x.get(n, 0) != (0 if mu == _ZERO else at_y.get(mu, 0)):
                failing.add(n)
    return failing
