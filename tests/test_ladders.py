"""Property tests for the shared ladder check (relations R3-R6).

Single-entry perturbations of one e_i or f_i on small towers: the ladder
check must agree with a direct evaluation of the four identities, and with
the ladder groups of the projector-presentation report.
"""

import dataclasses
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit.idempotents import build_idempotents, ladder_check
from schurkit.presentation import verify_idempotent_presentation
from schurkit.replinalg import ExactMatrix, tower_rep
from schurkit.rootdata import LieType, build_root_system

LADDER_LABELS = ("R3", "R4", "R5", "R6")
CARRIERS = (("B", 1), ("B", 2), ("C", 1), ("C", 2), ("D", 2))


@lru_cache(maxsize=None)
def clean_tower(family, rank, r):
    lt = LieType(family, rank)
    rep = tower_rep(lt, r)
    return lt, rep, build_idempotents(rep)


@st.composite
def perturbed_towers(draw):
    family, rank = draw(st.sampled_from(CARRIERS))
    r = draw(st.integers(1, 2))
    lt, rep, fam = clean_tower(family, rank, r)
    side = draw(st.sampled_from(("e", "f")))
    i = draw(st.integers(0, rank - 1))
    row = draw(st.integers(0, rep.dim - 1))
    col = draw(st.integers(0, rep.dim - 1))
    value = draw(st.sampled_from((-2, -1, 1, 2)))
    gens = list(getattr(rep, side))
    gens[i] = gens[i] + ExactMatrix.unit(rep.dim, row, col, value)
    return lt, r, fam, dataclasses.replace(rep, **{side: tuple(gens)})


def direct_ladder_residuals(fam, rep):
    """Each ladder identity evaluated on its own, with no shared products."""
    rs = build_root_system(rep.lie_type)
    members = fam.pi_all.as_set()
    zero = ExactMatrix.zeros(rep.dim)
    found = {}
    for i in range(rep.rank):
        alpha = rs.simple_root(i + 1)
        e, f = rep.e[i], rep.f[i]
        for lam, proj in fam.table.items():
            for label, lhs, target, rhs in (
                ("R3", e @ proj, lam + alpha, lambda p: p @ e),
                ("R4", f @ proj, lam - alpha, lambda p: p @ f),
                ("R5", proj @ e, lam - alpha, lambda p: e @ p),
                ("R6", proj @ f, lam + alpha, lambda p: f @ p),
            ):
                if target not in members:
                    expected = zero
                elif target in fam.table:
                    expected = rhs(fam.table[target])
                else:
                    continue
                if lhs != expected:
                    found.setdefault(label, []).append((f"i={i+1},lam={lam.coords}", lhs - expected))
    return found


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(perturbed_towers())
def test_ladder_check_matches_direct_evaluation_and_report(case):
    lt, r, fam, bad = case
    ladders = ladder_check(fam, bad)
    failing = {label: cases for label, cases in ladders.residuals.items() if cases}
    assert failing == direct_ladder_residuals(fam, bad)

    runs = [verify_idempotent_presentation(lt, r, bad, fam).failing_labels() for _ in range(2)]
    assert runs[0] == runs[1]
    report_ladders = tuple(label for label in runs[0] if label in LADDER_LABELS)
    assert ladders.ok == (not report_ladders)
    assert tuple(failing) == report_ladders
