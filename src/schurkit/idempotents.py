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
formed.

`ladder_check` is the one implementation of the projector presentation's
ladder relations R3-R6; the presentation report takes its groups from it.
"""

from __future__ import annotations

import math

from .replinalg import ExactMatrix, Representation, diagonal_index, right_products, shift_products
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
    r = rep.r
    roots = p1(r)
    values = [1] * rep.dim
    denom = 1
    for i, hi in enumerate(rep.h):
        k = lam.coords[i]
        if k not in roots:
            raise InvariantError("integer window", f"eigenvalue {k} for H_{i+1} escapes [-{r}, {r}]")
        if not hi.is_diagonal():
            raise ArithmeticError(f"H_{i+1} not diagonal on the weight basis")
        shifts = [j for j in roots if j != k]
        values = [v * w for v, w in zip(values, shift_products(hi.diagonal(), shifts))]
        denom *= math.prod(k - j for j in shifts)
    return ExactMatrix.diag(values), denom


class IdempotentFamily:
    """The complete system of weight projectors on one carrier."""

    __slots__ = ("rep", "pi_all", "table")

    def __init__(self, rep, pi_all, table):
        self.rep = rep
        self.pi_all = pi_all
        self.table = table

    def weighted_sum(self, coeff) -> ExactMatrix:
        """Sum of coeff(lam) * 1_lam over the family, accumulated on the diagonal.

        The projectors are diagonal; one that is not raises ArithmeticError (`diagonal_index`).
        """
        coeffs = [coeff(lam) for lam in self.table]
        total = [0] * self.rep.dim
        for b, held in diagonal_index(self.table).items():
            total[b] = sum(coeffs[p] * v for p, v in held)
        return ExactMatrix.diag(total)

    def rank_table(self):
        """Projector ranks per weight; for indicator diagonals this is the trace."""
        return {lam: mat.trace() for lam, mat in self.table.items()}

    def without(self, lam: Weight) -> "IdempotentFamily":
        """Copy of the family with one projector dropped (for fault probes)."""
        table = {mu: mat for mu, mat in self.table.items() if mu != lam}
        return IdempotentFamily(rep=self.rep, pi_all=self.pi_all, table=table)

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
    on a deterministic sample of weights (spread through the canonical
    order, plus the extremes).
    """
    r = rep.r
    pi_all = tensor_weights_Pi(rep.lie_type, r)
    support = {}  # weight -> basis indices carrying it
    for b, w in enumerate(rep.weights):
        for c in w.coords:
            if not isinstance(c, int) or not -r <= c <= r:
                raise ArithmeticError(f"carrier weight {w!r} at basis vector {b} escapes [-{r}, {r}]")
        support.setdefault(w, []).append(b)
    if not support.keys() <= pi_all.as_set():
        raise ArithmeticError("carrier weights are not contained in the expected weight set")

    # indicator diagonals; their indices are basis positions, so no entry needs validating
    table = {lam: ExactMatrix(rep.dim, {b: {b: 1} for b in support.get(lam, ())}) for lam in pi_all}

    elements = list(pi_all)
    if elements:
        stride = max(1, len(elements) // min(_VERIFY_SAMPLE, len(elements)))
        picks = sorted(set(range(0, len(elements), stride)) | {len(elements) - 1})
        for idx in picks:
            lam = elements[idx]
            product, normaliser = polynomial_idempotent(rep, lam)
            if product != ExactMatrix.diag([normaliser * v for v in table[lam].diagonal()]):
                raise ArithmeticError(f"polynomial and indicator projectors disagree at {lam!r}")
    return IdempotentFamily(rep=rep, pi_all=pi_all, table=table)


def reconstruct_H(fam: IdempotentFamily, i) -> ExactMatrix:
    """Sum of lam_i * 1_lam over the family; equals the carrier's H_i."""
    if not 1 <= i <= fam.rep.rank:
        raise IndexError(f"index {i} out of range 1..{fam.rep.rank}")
    return fam.weighted_sum(lambda lam: lam.coords[i - 1])


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


def ladder_check(fam: IdempotentFamily, rep: Representation = None) -> LadderReport:
    """Verify the four ladder families on every projector of the family.

        R3: e_i 1_lam = 1_{lam+a_i} e_i        R5: 1_lam e_i = e_i 1_{lam-a_i}
        R4: f_i 1_lam = 1_{lam-a_i} f_i        R6: 1_lam f_i = f_i 1_{lam+a_i}

    Each product op 1_lam and 1_lam op is formed once per (i, lam), both in
    one pass per generator: R5 at lam reuses the two products R3 compares
    at lam - a_i, and R6 reuses R4's the same way.  The generators come from
    `rep` (default: the family's own carrier), so a perturbed carrier can
    be checked against a clean family.

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
    zero = ExactMatrix.zeros(rep.dim)
    times_projectors = right_products(fam.table)
    residuals = {label: [] for label in ("R3", "R4", "R5", "R6")}
    checked = skipped = 0
    for idx in range(1, rep.rank + 1):
        alpha = rs.simple_root(idx)
        # op 1_lam = 1_{lam+shift} op (R3, R4) and 1_lam op = op 1_{lam-shift} (R5, R6)
        for op, shift, left, right in (
            (rep.e[idx - 1], alpha, "R3", "R5"),
            (rep.f[idx - 1], -alpha, "R4", "R6"),
        ):
            op_lam, lam_op = times_projectors(op, left=True)
            for lam in fam.table:
                for label, lhs, rhs, target in (
                    (left, op_lam[lam], lam_op, lam + shift),
                    (right, lam_op[lam], op_lam, lam - shift),
                ):
                    if target in members:
                        expected = rhs.get(target)
                        if expected is None:
                            skipped += 1
                            continue
                    else:
                        expected = zero
                    checked += 1
                    if lhs != expected:
                        residuals[label].append((f"i={idx},lam={lam.coords}", lhs - expected))
    return LadderReport(residuals=residuals, checked=checked, skipped=skipped)
