import io
import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit import cli
from schurkit.closure import presentations_generate_same_algebra, quotient_witness
from schurkit.idempotents import annihilator_for_signed_sums, build_idempotents, p1
from schurkit.presentation import (
    _coroot_element,
    _serre_sum,
    verify_idempotent_presentation,
    verify_serre_presentation,
    zero_locus,
    zero_locus_report,
)
from schurkit.replinalg import ExactMatrix, Representation, single_power_rep, tower_rep
from schurkit.rootdata import LieType, Weight, build_root_system
from schurkit.weightsets import WeightSet, tensor_weights_Pi
from conftest import all_lie_types, rebuild

HALF = Fraction(1, 2)


def scaled_fn_rep(rep, factor=2):
    return Representation(
        lie_type=rep.lie_type,
        r=rep.r,
        e=rep.e,
        f=rep.f[:-1] + (factor * rep.f[-1],),
        h=rep.h,
        dim=rep.dim,
        weights=rep.weights,
        blocks=rep.blocks,
        kind=rep.kind,
    )


def binomial_serre_sum(x, y, k):
    """sum_s (-1)^s C(k, s) x^{k-s} y x^s from explicit powers of x."""
    powers = [ExactMatrix.identity(x.size)]
    for _ in range(k):
        powers.append(powers[-1] @ x)
    total = ExactMatrix.zeros(x.size)
    for s in range(k + 1):
        total = total + (-1) ** s * comb(k, s) * (powers[k - s] @ y @ powers[s])
    return total


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_serre_sum_is_the_iterated_commutator(k):
    rng = random.Random(k)

    def entry():
        return rng.choice((0, 0, 1, -1, 2, -3))

    for shape in ("general", "diagonal-x"):
        for _ in range(5):
            n = rng.randint(2, 5)
            x = ExactMatrix.from_dense(
                [[entry() if shape == "general" or i == j else 0 for j in range(n)] for i in range(n)]
            )
            y = ExactMatrix.from_dense([[entry() for _ in range(n)] for _ in range(n)])
            assert _serre_sum(x, y, 1 - k) == binomial_serre_sum(x, y, k)


def test_serre_report_structure_and_success():
    lt = LieType("B", 2)
    rep = tower_rep(lt, 2)
    report = verify_serre_presentation(rep)
    assert [c.label for c in report.relations] == ["B1", "B2", "B3", "B4", "B5", "B6", "B7"]
    assert report.all_hold
    doc = report.to_json()
    assert doc["presentation"] == "serre"
    assert doc["reduced_word"] == [1, 2, 1, 2]
    assert all(rel["status"] == "holds" for rel in doc["relations"])


def test_serre_c2_r3():
    lt = LieType("C", 2)
    rep = tower_rep(lt, 3)
    assert verify_serre_presentation(rep).all_hold


def test_idempotent_presentation_d3():
    lt = LieType("D", 3)
    rep = tower_rep(lt, 2)
    fam = build_idempotents(rep)
    report = verify_idempotent_presentation(rep, fam)
    assert [c.label for c in report.relations] == [f"R{k}" for k in range(1, 9)]
    assert report.all_hold


@pytest.mark.parametrize("kind", ["tower", "power"])
def test_report_header_is_read_off_the_carrier(kind):
    for lt, r in ((LieType("C", 2), 3), (LieType("B", 1), 2), (LieType("D", 3), 1)):
        rep = tower_rep(lt, r) if kind == "tower" else single_power_rep(lt, r)
        for report in (verify_serre_presentation(rep), verify_idempotent_presentation(rep, build_idempotents(rep))):
            doc = report.to_json()
            assert (doc["type"], doc["rank"], doc["r"], doc["carrier"]) == (lt.family, lt.rank, r, kind)
            assert report.all_hold


def family_commutator_target(lt, h, i):
    """[e_i, f_i] by the per-family table of the generator convention (i 0-based)."""
    n = lt.rank
    if i < n - 1:
        return h[i] - h[i + 1]
    if lt.family == "B":
        return 2 * h[n - 1]
    if lt.family == "C":
        return h[n - 1]
    return h[n - 2] + h[n - 1]


@pytest.mark.parametrize("lt", all_lie_types(4), ids=str)
def test_coroot_target_equals_the_family_table(lt):
    rep = tower_rep(lt, 2)
    rs = build_root_system(lt)
    for i in range(lt.rank):
        target = _coroot_element(rs, rep.h, i)
        assert target == family_commutator_target(lt, rep.h, i)
        assert target == rep.e[i].bracket(rep.f[i])


def transpose(m):
    return ExactMatrix.from_entries(m.size, ((j, i, v) for i, j, v in m.iter_entries()))


@pytest.mark.parametrize("lt", all_lie_types(4), ids=str)
def test_transpose_scales_per_family(lt):
    # f_i = c_i e_i^T on every carrier: the natural f_n of type B is 2 e_n^T, and lifts keep the scale
    expected = (1,) * (lt.rank - 1) + (2 if lt.family == "B" else 1,)
    for r in (1, 2, 3):
        for rep in (tower_rep(lt, r), single_power_rep(lt, r)):
            assert [f == c * transpose(e) for e, f, c in zip(rep.e, rep.f, expected)] == [True] * lt.rank


def test_bracket_counts_on_the_b3_tower(monkeypatch):
    # B3 r=4: [e_i, f_j] is formed once for each of the 9 pairs, and each ordered pair's Serre chain
    # ad_{x_i}^k(x_j), k = 1 - a_ij = 2, 1, 2, 2, 1, 3, takes k brackets on each side (11 + 11)
    calls = []
    bracket = ExactMatrix.bracket
    monkeypatch.setattr(ExactMatrix, "bracket", lambda self, *args, **kw: calls.append(1) or bracket(self, *args, **kw))
    for presentation in ("serre", "idempotent"):
        calls.clear()
        argv = ["verify", "B", "3", "4", "--presentation", presentation]
        assert cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
        assert len(calls) == 31, presentation


def test_fault_scaled_fn_flags_exactly_c2():
    lt = LieType("C", 2)
    rep = scaled_fn_rep(tower_rep(lt, 2))
    report = verify_serre_presentation(rep)
    assert report.failing_labels() == ("C2",)
    witness = next(c.witness for c in report.relations if not c.holds)
    assert witness["case"] == "i=2,j=2"


def test_witness_of_a_negative_integer_residual():
    # on the C2 natural module (tower at r=1), -2 f_2 leaves [e_2, f_2] - H_2 = -3 H_2 =
    # diag(0, -3, 0, 3): the first of the two largest entries is the witness
    lt = LieType("C", 2)
    report = verify_serre_presentation(scaled_fn_rep(tower_rep(lt, 1), factor=-2))
    assert report.failing_labels() == ("C2",)
    assert report.relations[1].witness == {"case": "i=2,j=2", "entry": [1, 1], "value": "-3/1", "magnitude": "3"}


def test_fault_scaled_fn_idempotent_side_flags_exactly_r2():
    # ladder and Serre relations are homogeneous in f_n, so only the
    # commutator-to-projector identity can notice the scaling
    lt = LieType("C", 2)
    clean = tower_rep(lt, 2)
    fam = build_idempotents(clean)
    report = verify_idempotent_presentation(scaled_fn_rep(clean), fam)
    assert report.failing_labels() == ("R2",)


def without(fam, lam):
    """The family with the projector 1_lam dropped."""
    return rebuild(fam, table={mu: mat for mu, mat in fam.table.items() if mu != lam})


def test_fault_removed_idempotent_flags_exactly_r1():
    lt = LieType("C", 2)
    rep = tower_rep(lt, 2)
    fam = without(build_idempotents(rep), Weight((0, 0)))
    report = verify_idempotent_presentation(rep, fam)
    assert report.failing_labels() == ("R1",)
    witness = next(c.witness for c in report.relations if not c.holds)
    assert witness["case"] == "completeness"


@lru_cache(maxsize=None)
def clean_tower(family, rank, r):
    rep = tower_rep(LieType(family, rank), r)
    return rep, build_idempotents(rep)


@st.composite
def dropped_projectors(draw):
    """(carrier, family, lam): a B/C/D tower of rank <= 3 and r <= 3 under the default cap, and one weight of it."""
    family = draw(st.sampled_from("BCD"))
    rank = draw(st.integers(2 if family == "D" else 1, 3))
    rep, fam = clean_tower(family, rank, draw(st.integers(1, 3)))
    return rep, fam, draw(st.sampled_from(sorted(fam.table, key=lambda lam: lam.coords)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dropped_projectors())
def test_any_dropped_projector_flags_r1_and_r2_unless_it_is_the_zero_weight(case):
    # completeness fails at the dropped weight's indices; R2's target sum_lam <lam, alpha_i^vee> 1_lam
    # misses a term exactly when some <lam, alpha_i^vee> != 0, that is, when lam != 0
    rep, fam, lam = case
    report = verify_idempotent_presentation(rep, without(fam, lam))
    assert report.failing_labels() == (("R1",) if lam == Weight.zero(rep.rank) else ("R1", "R2"))
    assert report.relations[0].witness["case"] == "completeness"


def test_zero_locus_equals_weight_set_c2():
    lt = LieType("C", 2)
    expected = tensor_weights_Pi(lt, 2).as_set()
    assert zero_locus(lt, 2, include_p1hi=True).as_set() == expected
    assert zero_locus(lt, 2, include_p1hi=False).as_set() == expected


def test_zero_locus_b2_grows_without_h_equations():
    lt = LieType("B", 2)
    full = zero_locus_report(lt, 2, include_p1hi=True)
    assert full.equals_pi
    dropped = zero_locus_report(lt, 2, include_p1hi=False)
    assert not dropped.equals_pi
    assert Weight((Fraction(3, 2), HALF)) in set(dropped.extra_points)
    assert set(full.locus) < set(dropped.locus)
    # every extra point is a genuinely half-integer vector
    for w in dropped.extra_points:
        assert not w.is_integral()


def test_zero_locus_b1_r1():
    ws = zero_locus(LieType("B", 1), 1, include_p1hi=True)
    assert {w.coords for w in ws} == {(-1,), (0,), (1,)}


def test_zero_locus_b1_unchanged_without_h_equations():
    # with one variable, +H_1 is itself a signed sum, so the extra equations
    # add nothing and the locus cannot grow
    for r in (1, 2, 3):
        with_h = zero_locus(LieType("B", 1), r, include_p1hi=True)
        without_h = zero_locus(LieType("B", 1), r, include_p1hi=False)
        assert with_h.as_set() == without_h.as_set()


def test_quotient_witness_values():
    qb = quotient_witness(LieType("B", 2), 2)
    assert (qb.dim_single, qb.dim_tower) == (297, 322)
    assert qb.difference == 25
    assert qb.matches_expected and not qb.equal

    qc = quotient_witness(LieType("C", 2), 2)
    assert (qc.dim_single, qc.dim_tower) == (126, 126)
    assert qc.equal and qc.matches_expected

    qb1 = quotient_witness(LieType("B", 1), 2)
    assert qb1.equal and qb1.matches_expected
    assert qb1.dim_tower == 35


@pytest.mark.parametrize("family,rank,r", [("C", 1, 2), ("D", 2, 2), ("B", 1, 2)])
def test_both_presentations_generate_same_operator_algebra(family, rank, r):
    rep = tower_rep(LieType(family, rank), r)
    fam = build_idempotents(rep)
    assert presentations_generate_same_algebra(rep, fam)


def test_deep_grid_degree_four_towers():
    # one size up from the acceptance grid: the 2801-dimensional carrier
    lt = LieType("B", 3)
    rep = tower_rep(lt, 4)
    assert verify_serre_presentation(rep).all_hold
    fam = build_idempotents(rep)
    assert verify_idempotent_presentation(rep, fam).all_hold


def fraction_zero_locus(lt, r, include_p1hi):
    """The zero-locus scan on Fraction coordinates over the half-integer box."""
    n = lt.rank
    signed_roots = set(annihilator_for_signed_sums(lt.family, r))
    h_roots = set(p1(r))
    values = [HALF * k for k in range(-2 * r, 2 * r + 1)]
    out = []
    for point in itertools.product(values, repeat=n):
        if include_p1hi and not all(v in h_roots for v in point):
            continue
        if all(
            sum(s * v for s, v in zip(signs, point)) in signed_roots
            for signs in itertools.product((1, -1), repeat=n)
        ):
            out.append(Weight(point))
    flag = "all-equations" if include_p1hi else "signed-sums-only"
    return WeightSet.make(out, f"V({lt},{r},{flag})")


@pytest.mark.parametrize("include_p1hi", [True, False])
@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
def test_zero_locus_matches_fraction_scan(lt, include_p1hi):
    for r in range(1, 5):
        assert zero_locus(lt, r, include_p1hi) == fraction_zero_locus(lt, r, include_p1hi)


def test_zero_locus_matches_fraction_scan_on_c4_without_h_equations():
    lt = LieType("C", 4)
    assert zero_locus(lt, 4, include_p1hi=False) == fraction_zero_locus(lt, 4, include_p1hi=False)
