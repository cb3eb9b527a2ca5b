import os
import subprocess
import sys
from fractions import Fraction

import pytest

import schurkit
from schurkit.decomposition import (
    DecompositionResult,
    FormalCharacter,
    classify_type_B,
    compare_pi0_pi,
    decompose_tensor_character,
    freudenthal_multiplicities,
    natural_character,
    pi0_weyl_rules,
    schur_dimensions,
    weyl_dimension,
)
from schurkit.rootdata import InvariantError, LieType, Weight, build_root_system
from schurkit.weightsets import tensor_dominant_pi
from conftest import all_lie_types

SRC = os.path.dirname(os.path.dirname(schurkit.__file__))


def coords(ws):
    return {w.coords for w in ws}


def test_pi0_rules_frozen_examples():
    assert coords(pi0_weyl_rules(LieType("B", 2), 2)) == {(2, 0), (1, 1), (0, 0)}
    assert coords(pi0_weyl_rules(LieType("D", 2), 2)) == {(2, 0), (1, 1), (1, -1), (0, 0)}
    for n in (1, 2, 3):
        only = coords(pi0_weyl_rules(LieType("B", n), 1))
        assert only == {tuple(1 if k == 0 else 0 for k in range(n))}


def test_pi0_rules_match_pi_for_c_and_d_by_construction():
    for family in ("C", "D"):
        for n in (2, 3):
            for r in (1, 2, 3):
                lt = LieType(family, n)
                assert coords(pi0_weyl_rules(lt, r)) == coords(tensor_dominant_pi(lt, r))


def test_natural_character():
    ch = natural_character(LieType("B", 2))
    assert ch.total() == 5
    assert ch.multiplicity(Weight((0, 0))) == 1
    assert ch.multiplicity(Weight((0, -1))) == 1


def test_freudenthal_highest_weight_line_and_dimension():
    rs = build_root_system(LieType("B", 2))
    ch = freudenthal_multiplicities(rs, Weight((1, 0)))
    assert ch.multiplicity(Weight((1, 0))) == 1
    assert ch.total() == 5
    assert len(ch.terms) == 5
    ch2 = freudenthal_multiplicities(build_root_system(LieType("C", 2)), Weight((1, 1)))
    assert ch2.total() == 5


def test_freudenthal_adjoint_has_cartan_multiplicity():
    rs = build_root_system(LieType("B", 2))
    ch = freudenthal_multiplicities(rs, Weight((1, 1)))
    assert ch.total() == 10
    assert ch.multiplicity(Weight((0, 0))) == 2


def test_freudenthal_rejects_non_dominant():
    rs = build_root_system(LieType("B", 2))
    with pytest.raises(ValueError):
        freudenthal_multiplicities(rs, Weight((0, 1)))
    with pytest.raises(ValueError):
        weyl_dimension(rs, Weight((0, 1)))


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_characters_are_weyl_invariant_and_match_dimension(lt, r):
    rs = build_root_system(lt)
    for lam in tensor_dominant_pi(lt, r):
        ch = freudenthal_multiplicities(rs, lam)
        assert ch.total() == weyl_dimension(rs, lam)
        assert ch.is_weyl_invariant(rs)


def test_weyl_dimension_values():
    rs = build_root_system(LieType("B", 2))
    assert weyl_dimension(rs, Weight((0, 0))) == 1
    assert weyl_dimension(rs, Weight((1, 1))) == 10
    assert weyl_dimension(rs, Weight((2, 0))) == 14
    rsc = build_root_system(LieType("C", 2))
    assert weyl_dimension(rsc, Weight((2, 0))) == 10
    from fractions import Fraction

    assert weyl_dimension(rs, Weight((Fraction(1, 2), Fraction(1, 2)))) == 4


def test_decompose_c2_r2():
    res = decompose_tensor_character(LieType("C", 2), 2)
    assert {w.coords: m for w, m in res.multiplicities.items()} == {(2, 0): 1, (1, 1): 1, (0, 0): 1}
    assert res.equal


def test_decompose_b2_r2_support():
    res = decompose_tensor_character(LieType("B", 2), 2)
    assert coords(res.pi0) == {(2, 0), (1, 1), (0, 0)}
    assert not res.equal
    assert [w.coords for w in res.pi_minus_pi0()] == [(1, 0)]


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
def test_decompose_degree_one(lt):
    res = decompose_tensor_character(lt, 1)
    top = tuple(1 if k == 0 else 0 for k in range(lt.rank))
    assert {w.coords: m for w, m in res.multiplicities.items()} == {top: 1}


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_total_dimension_identity(lt, r):
    rs = build_root_system(lt)
    res = decompose_tensor_character(lt, r)
    total = sum(m * weyl_dimension(rs, w) for w, m in res.multiplicities.items())
    assert total == lt.natural_dim**r


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_rules_agree_with_oracle(lt, r):
    res = compare_pi0_pi(lt, r)
    assert res.pi0.as_set() <= res.pi.as_set()
    if lt.family in ("C", "D"):
        assert res.equal


def test_compare_type_b_special_cases():
    res = compare_pi0_pi(LieType("B", 2), 2)
    assert not res.equal
    assert [w.coords for w in res.pi_minus_pi0()] == [(1, 0)]
    for r in (2, 3, 4, 5, 6):
        assert compare_pi0_pi(LieType("B", 1), r).equal
    for n in (1, 2, 3):
        assert not compare_pi0_pi(LieType("B", n), 1).equal


def test_classification_rows():
    rows = classify_type_B(2, 3)
    by_key = {(row["n"], row["r"]): row["equal"] for row in rows}
    assert by_key[(1, 1)] is False
    assert by_key[(1, 3)] is True
    assert by_key[(2, 2)] is False
    first = rows[0]
    assert set(first) == {"family", "n", "r", "equal", "pi_size", "pi0_size", "dim_S_pi", "dim_Schur"}


def test_schur_dimensions_values():
    assert schur_dimensions(LieType("C", 2), 2) == (126, 126)
    assert schur_dimensions(LieType("B", 2), 2) == (322, 297)
    assert schur_dimensions(LieType("C", 1), 2) == (10, 10)
    assert schur_dimensions(LieType("D", 2), 2) == (100, 100)


def test_result_json_shape():
    doc = compare_pi0_pi(LieType("B", 2), 2).to_json()
    assert doc["equal"] is False
    assert doc["pi_minus_pi0"] == [[1, 0]]
    assert {"weight": [2, 0], "mult": 1} in doc["multiplicities"]


def test_inconsistent_decomposition_is_an_invariant_error():
    pi = tensor_dominant_pi(LieType("C", 1), 2)
    with pytest.raises(InvariantError, match="decomposition consistency"):
        DecompositionResult(LieType("C", 1), 2, pi, pi, {}, True)


def test_invariant_check_survives_optimized_mode():
    code = (
        "from schurkit.decomposition import DecompositionResult\n"
        "from schurkit.rootdata import LieType\n"
        "from schurkit.weightsets import tensor_dominant_pi\n"
        "pi = tensor_dominant_pi(LieType('C', 1), 2)\n"
        "DecompositionResult(LieType('C', 1), 2, pi, pi, {}, True)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "InvariantError: decomposition consistency" in proc.stderr


def fraction_freudenthal(rs, lam):
    """Freudenthal's recursion on Fraction coordinate tuples: {coords: mult}."""

    def vec(w):
        return tuple(Fraction(c) for c in w.coords)

    def add(x, y, k=1):
        return tuple(a + k * b for a, b in zip(x, y))

    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    rho = vec(rs.rho)
    top = add(vec(lam), rho)
    simple = [vec(a) for a in rs.simple_roots]
    positive = [vec(a) for a in rs.positive_roots]
    mult = {vec(lam): 1}
    frontier = list(mult)
    while frontier:
        candidates = {add(mu, alpha, -1) for mu in frontier for alpha in simple}
        frontier = []
        for mu in sorted(candidates, reverse=True):
            if mu in mult:
                continue
            num = 0
            for alpha in positive:
                k = 1
                while add(mu, alpha, k) in mult:
                    nu = add(mu, alpha, k)
                    num += 2 * mult[nu] * dot(nu, alpha)
                    k += 1
            if num == 0:
                continue
            m = num / (dot(top, top) - dot(add(mu, rho), add(mu, rho)))
            assert m.denominator == 1 and m > 0
            mult[mu] = int(m)
            frontier.append(mu)
    return mult


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
def test_freudenthal_matches_fraction_recursion(lt):
    rs = build_root_system(lt)
    highest = [k * w for w in rs.fundamental_weights() for k in (1, 2)] + [rs.rho]
    for lam in highest:
        char = freudenthal_multiplicities(rs, lam)
        assert {w.coords: m for w, m in char.terms} == fraction_freudenthal(rs, lam)
        assert [w.coords for w, _ in char.terms] == sorted((w.coords for w, _ in char.terms), reverse=True)
        assert char == FormalCharacter.from_dict(char.as_dict())
        for w, m in char.terms:
            assert char.multiplicity(w) == m
        assert char.multiplicity(lam + rs.rho + rs.rho) == 0
