import itertools
from fractions import Fraction

import pytest

from schurkit.rootdata import LieType, Weight, build_root_system
from schurkit.replinalg import natural_weights
from schurkit.weightsets import (
    WeightSet,
    is_saturated,
    lambda_minus,
    lambda_plus,
    lambda_pm,
    signed_compositions,
    tensor_dominant_pi,
    tensor_weights_Pi,
)
from conftest import all_lie_types


def coords(ws):
    return {w.coords for w in ws}


def brute_signed_compositions(n, r):
    # independent oracle: scan the whole integer box
    out = set()
    for v in itertools.product(range(-r, r + 1), repeat=n):
        if sum(abs(c) for c in v) == r:
            out.add(v)
    return out


def test_signed_compositions_examples():
    assert coords(signed_compositions(2, 2)) == {(2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert coords(signed_compositions(1, 0)) == {(0,)}
    assert coords(signed_compositions(2, 1)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_signed_compositions_against_box_scan(n, r):
    assert coords(signed_compositions(n, r)) == brute_signed_compositions(n, r)


def test_partition_sets():
    assert coords(lambda_plus(2, 2)) == {(2, 0), (1, 1)}
    assert coords(lambda_pm(2, 2)) == {(2, 0), (1, 1), (1, -1)}
    assert coords(lambda_minus(2, 2)) == {(2, 0), (1, -1)}
    assert coords(lambda_plus(3, 0)) == {(0, 0, 0)}


def test_tensor_weights_counts():
    assert len(tensor_weights_Pi(LieType("C", 2), 2)) == 9
    assert len(tensor_weights_Pi(LieType("B", 2), 1)) == 5
    assert len(tensor_weights_Pi(LieType("D", 2), 1)) == 4


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_tensor_weights_against_summing_oracle(lt, r):
    # independent oracle: all r-fold sums of natural-module weights
    base = natural_weights(lt)
    sums = set()
    for combo in itertools.product(base, repeat=r):
        total = Weight.zero(lt.rank)
        for w in combo:
            total = total + w
        sums.add(total)
    assert set(tensor_weights_Pi(lt, r)) == sums


def test_tensor_dominant_examples():
    assert coords(tensor_dominant_pi(LieType("B", 2), 2)) == {(2, 0), (1, 1), (1, 0), (0, 0)}
    assert coords(tensor_dominant_pi(LieType("C", 2), 2)) == {(2, 0), (1, 1), (0, 0)}
    assert coords(tensor_dominant_pi(LieType("D", 2), 2)) == {(2, 0), (1, 1), (1, -1), (0, 0)}


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_dominant_set_is_dominant_filter_of_full_set(lt, r):
    rs = build_root_system(lt)
    full = tensor_weights_Pi(lt, r)
    dominant = {w for w in full if rs.is_dominant(w)}
    assert set(tensor_dominant_pi(lt, r)) == dominant


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_full_set_is_weyl_closure_of_dominant_set(lt, r):
    rs = build_root_system(lt)
    closure = {mu for w in tensor_dominant_pi(lt, r) for mu in rs.weyl_orbit(w)}
    assert closure == tensor_weights_Pi(lt, r).as_set()


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_integrality_and_degree_bounds(lt, r):
    for w in tensor_weights_Pi(lt, r):
        assert w.is_integral()
        total = sum(abs(c) for c in w.coords)
        assert total <= r
        if lt.family in ("C", "D"):
            assert (r - total) % 2 == 0


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_dominant_sets_are_saturated(lt, r):
    rs = build_root_system(lt)
    pi = tensor_dominant_pi(lt, r)
    assert is_saturated(rs, pi)
    # removing the top weight keeps the set saturated
    trimmed = WeightSet.make(list(pi)[1:], "trimmed")
    assert is_saturated(rs, trimmed)


def test_saturation_counterexample_and_errors():
    rs = build_root_system(LieType("C", 2))
    assert not is_saturated(rs, WeightSet.make([Weight((1, 1))], "lonely"))
    assert is_saturated(rs, WeightSet.make([Weight((0, 0))], "origin"))
    with pytest.raises(ValueError):
        is_saturated(rs, WeightSet.make([Weight((0, 1))], "bad"))
    # dominant for B2 but not a weight of it: every coordinate must be integral
    with pytest.raises(ValueError, match="integer weights"):
        is_saturated(build_root_system(LieType("B", 2)), WeightSet.make([Weight((1, Fraction(1, 2)))], "half"))


def box_is_saturated(rs, ws):
    """The saturation test over the box of dominant weights with mu_1 <= lam_1."""
    n = rs.rank

    def box(top):
        out = []

        def go(prefix, bound):
            if len(prefix) == n:
                out.append(Weight(prefix))
            elif len(prefix) == n - 1 and rs.family == "D":
                for c in range(bound, -bound - 1, -1):
                    go(prefix + (c,), bound)
            else:
                for c in range(bound, -1, -1):
                    go(prefix + (c,), c)

        go((), top)
        return out

    members = ws.as_set()
    assert all(rs.is_dominant(lam) and lam.is_integral() for lam in members)
    return all(mu in members or not rs.dominance_leq(mu, lam) for lam in members for mu in box(lam.coords[0]))


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_saturation_equals_the_dominant_box_reference(lt, r):
    rs = build_root_system(lt)
    pi = tensor_dominant_pi(lt, r)
    sets = [pi] + [WeightSet.make([w for w in pi if w != drop], "dropped") for drop in pi]
    verdicts = [is_saturated(rs, ws) for ws in sets]
    assert verdicts == [box_is_saturated(rs, ws) for ws in sets]
    assert verdicts[0]


def test_canonical_order_puts_top_weight_first():
    pi = tensor_dominant_pi(LieType("B", 2), 2)
    assert pi.elements[0] == Weight((2, 0))
    ordered = [w.coords for w in pi]
    assert ordered == sorted(ordered, reverse=True)


def test_weight_set_json():
    doc = signed_compositions(2, 1).to_json()
    assert doc["label"] == "SignedComp(2,1)"
    assert doc["elements"] == [[1, 0], [0, 1], [0, -1], [-1, 0]]
