import io
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from schurkit import cli, idempotents, replinalg
from schurkit.idempotents import (
    annihilator_for_signed_sums,
    build_idempotents,
    ladder_check,
    p1,
    p2,
    polynomial_idempotent,
    reconstruct_H,
)
from schurkit.replinalg import ExactMatrix, Representation, product_of_shifts, single_power_rep, tower_rep
from schurkit.rootdata import LieType, Weight, build_root_system
from conftest import rebuild


def trivial_rep(lt, r):
    # one-dimensional carrier of weight zero; all generators act as zero
    zero = ExactMatrix.zeros(1)
    n = lt.rank
    return Representation(
        lie_type=lt,
        r=r,
        e=(zero,) * n,
        f=(zero,) * n,
        h=(zero,) * n,
        dim=1,
        weights=(Weight.zero(n),),
        blocks=((0, 0, 1),),
        kind="tower",
    )


def test_annihilator_polynomials():
    assert p1(2) == (-2, -1, 0, 1, 2)
    assert p2(2) == (-2, 0, 2)
    assert p2(3) == (-3, -1, 1, 3)
    assert annihilator_for_signed_sums("B", 3) == p1(3)
    assert annihilator_for_signed_sums("C", 3) == annihilator_for_signed_sums("D", 3) == p2(3)


def test_deleted_factor_examples():
    # P1 with the factor (T - k) removed, at diag(-r..r): nonzero only at k, where it is the normaliser
    for r in (1, 2, 3):
        window = ExactMatrix.diag(list(p1(r)))
        for k in p1(r):
            shifts = [j for j in p1(r) if j != k]
            expected = math.prod(k - j for j in shifts)
            deleted = product_of_shifts(window.diagonal(), shifts)
            assert expected != 0
            assert deleted == ExactMatrix.unit(2 * r + 1, k + r, k + r, expected)


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 1, 2), ("D", 2, 2)])
def test_family_completeness_orthogonality_idempotency(family, rank, r):
    rep = tower_rep(LieType(family, rank), r)
    fam = build_idempotents(rep)
    total = ExactMatrix.zeros(rep.dim)
    table = list(fam.table.items())
    for lam, proj in table:
        assert proj @ proj == proj
        total = total + proj
    assert total == ExactMatrix.identity(rep.dim)
    for a, (lam, pa) in enumerate(table):
        for mu, pb in table[a + 1 :]:
            assert (pa @ pb).is_zero()
            assert (pb @ pa).is_zero()


@pytest.mark.parametrize("family,rank,r", [("B", 1, 2), ("D", 2, 2)])
def test_polynomial_route_agrees_everywhere(family, rank, r):
    rep = tower_rep(LieType(family, rank), r)
    fam = build_idempotents(rep)
    for lam, proj in fam.table.items():
        product, normaliser = polynomial_idempotent(rep, lam)
        assert normaliser != 0
        assert product == normaliser * proj


def test_polynomial_route_spot_check_c2():
    rep = tower_rep(LieType("C", 2), 2)
    fam = build_idempotents(rep)
    lam = Weight((1, 1))
    product, normaliser = polynomial_idempotent(rep, lam)
    assert product == normaliser * fam.table[lam]


def test_rank_of_top_projector_on_single_power():
    rep = single_power_rep(LieType("C", 2), 2)
    fam = build_idempotents(rep)
    assert fam.rank_table()[Weight((2, 0))] == 1


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2), ("D", 3, 2)])
def test_ranks_match_weight_multiplicities(family, rank, r):
    rep = tower_rep(LieType(family, rank), r)
    fam = build_idempotents(rep)
    counts = Counter(rep.weights)
    for lam, rank_value in fam.rank_table().items():
        assert rank_value == counts.get(lam, 0)


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 1), ("D", 3, 1)])
def test_reconstruct_cartan_operators(family, rank, r):
    rep = tower_rep(LieType(family, rank), r)
    fam = build_idempotents(rep)
    for i in range(1, rank + 1):
        assert reconstruct_H(fam, i) == rep.h[i - 1]


def test_reconstruct_zero_on_trivial_carrier():
    rep = trivial_rep(LieType("B", 1), 1)
    fam = build_idempotents(rep)
    assert reconstruct_H(fam, 1).is_zero()


def test_eigen_identity():
    rep = tower_rep(LieType("C", 2), 2)
    fam = build_idempotents(rep)
    for lam, proj in fam.table.items():
        for i in range(1, 3):
            assert rep.h[i - 1] @ proj == lam.coords[i - 1] * proj


def test_ladders_hold_on_c2_tower():
    rep = tower_rep(LieType("C", 2), 2)
    fam = build_idempotents(rep)
    report = ladder_check(fam)
    assert report.ok
    assert report.skipped == 0
    assert report.checked == 4 * 2 * len(fam.table)


def test_ladder_zero_branches():
    lt = LieType("C", 2)
    rep = tower_rep(lt, 2)
    fam = build_idempotents(rep)
    rs = build_root_system(lt)
    members = fam.pi_all.as_set()
    top = Weight((2, 0))
    assert top + rs.simple_root(1) not in members
    assert (rep.e[0] @ fam.table[top]).is_zero()
    bottom = Weight((-2, 0))
    assert bottom - rs.simple_root(1) not in members
    assert (rep.f[0] @ fam.table[bottom]).is_zero()


def test_polynomial_indicator_disagreement_is_a_failed_check(monkeypatch):
    # a raised ArithmeticError, not an assert, so the check survives python -O
    monkeypatch.setattr(idempotents, "_deleted_factor_values", lambda rep, lam, diagonals: ([2] * rep.dim, 1))
    with pytest.raises(ArithmeticError, match="disagree"):
        build_idempotents(tower_rep(LieType("C", 2), 2))
    err = io.StringIO()
    assert cli.run(["idempotents", "C", "2", "2"], stdout=io.StringIO(), stderr=err) == 1
    assert "check failed" in err.getvalue()


def test_non_diagonal_cartan_operator_is_a_failed_check(monkeypatch):
    def skewed_tower(lt, r, max_dim=None):
        rep = tower_rep(lt, r, max_dim)
        # an off-diagonal H_1 entry: the weight basis is no longer an eigenbasis
        return rebuild(rep, h=(rep.h[0] + ExactMatrix.unit(rep.dim, 0, 1),) + rep.h[1:])

    with pytest.raises(ArithmeticError, match="H_1 not diagonal"):
        build_idempotents(skewed_tower(LieType("C", 2), 2))
    monkeypatch.setattr(replinalg, "tower_rep", skewed_tower)
    messages = {}
    for argv in (
        ["idempotents", "C", "2", "2"],
        ["verify", "C", "2", "2", "--presentation", "serre"],
        ["verify", "C", "2", "2", "--presentation", "idempotent"],
    ):
        err = io.StringIO()
        assert cli.run(argv, stdout=io.StringIO(), stderr=err) == 1, argv
        assert "check failed" in err.getvalue() and "not diagonal" in err.getvalue(), argv
        messages[argv[-1]] = err.getvalue()
    # the Serre check names the relation group and the operator
    assert messages["serre"] == "check failed: C6: H_1 not diagonal on the weight basis\n"


def test_carrier_weight_outside_tensor_weights_is_a_failed_check():
    # (1,) lies in the window [-2, 2] but is not a weight of the C1 tower at r=2
    rep = rebuild(trivial_rep(LieType("C", 1), 2), weights=(Weight((1,)),))
    with pytest.raises(ArithmeticError, match="not contained"):
        build_idempotents(rep)


def test_spectrum_escape_is_rejected():
    rep = tower_rep(LieType("C", 1), 3)
    # lie about the tensor degree: weights reach +-3 but the window is [-1, 1]
    shrunk = Representation(
        lie_type=rep.lie_type,
        r=1,
        e=rep.e,
        f=rep.f,
        h=rep.h,
        dim=rep.dim,
        weights=rep.weights,
        blocks=rep.blocks,
        kind=rep.kind,
    )
    with pytest.raises(ArithmeticError, match="escapes"):
        build_idempotents(shrunk)


def test_half_integer_weight_is_rejected():
    from fractions import Fraction

    rep = trivial_rep(LieType("B", 1), 1)
    bad = Representation(
        lie_type=rep.lie_type,
        r=rep.r,
        e=rep.e,
        f=rep.f,
        h=rep.h,
        dim=1,
        weights=(Weight((Fraction(1, 2),)),),
        blocks=rep.blocks,
        kind=rep.kind,
    )
    with pytest.raises(ArithmeticError, match="escapes"):
        build_idempotents(bad)


def test_family_summary_json():
    rep = tower_rep(LieType("C", 1), 2)
    fam = build_idempotents(rep)
    doc = fam.summary_json()
    assert doc["dim"] == 5
    assert {tuple(x["weight"]) for x in doc["ranks"]} == {(2,), (0,), (-2,)}
    assert sum(x["rank"] for x in doc["ranks"]) == 5


# A tensor weight outside the window [-r, r] is an internal fault (exit 1), not bad input (exit 2).
WIDENED_PI = (
    "import sys\n"
    "from schurkit import cli, idempotents\n"
    "from schurkit.rootdata import Weight\n"
    "from schurkit.weightsets import WeightSet\n"
    "real = idempotents.tensor_weights_Pi\n"
    "idempotents.tensor_weights_Pi = lambda lt, r: WeightSet.make([*real(lt, r), Weight((r + 1, 0))], 'Pi')\n"
    "sys.exit(cli.run(sys.argv[1:]))\n"
)


@pytest.mark.parametrize(
    "argv", [["idempotents", "C", "2", "2"], ["verify", "C", "2", "2", "--presentation", "idempotent"]], ids=" ".join
)
def test_weight_outside_the_window_is_a_failed_check_under_optimized_mode(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", WIDENED_PI, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "check failed: integer window: eigenvalue 3 for H_1 escapes [-2, 2]\n"
