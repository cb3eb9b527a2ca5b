import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit.rootdata import InvariantError, LieType, Weight, build_root_system
from conftest import all_lie_types, fundamental_weights, rebuild

HALF = Fraction(1, 2)


def rs_of(family, rank):
    return build_root_system(LieType(family, rank))


def apply_word(rs, word, w):
    """Apply a Weyl word to a weight; the rightmost letter acts first."""
    for i in reversed(word):
        w = rs.simple_reflect(i, w)
    return w


def test_last_simple_root_per_family():
    assert rs_of("B", 2).simple_root(2) == Weight((0, 1))
    assert rs_of("C", 2).simple_root(2) == Weight((0, 2))
    assert rs_of("D", 3).simple_root(3) == Weight((0, 1, 1))


@pytest.mark.parametrize("lt", all_lie_types(4), ids=str)
def test_first_simple_roots_shared(lt):
    rs = build_root_system(lt)
    n = lt.rank
    for i in range(1, n):
        expected = Weight.eps(n, i) - Weight.eps(n, i + 1)
        assert rs.simple_root(i) == expected


def test_cartan_matrix_b2_frozen():
    assert rs_of("B", 2).cartan == ((2, -1), (-2, 2))


@pytest.mark.parametrize("lt", all_lie_types(4), ids=str)
def test_cartan_matrix_properties(lt):
    rs = build_root_system(lt)
    n = lt.rank
    cartan = rs.cartan
    for i in range(n):
        assert cartan[i][i] == 2
        for j in range(n):
            if i != j:
                assert cartan[i][j] in (0, -1, -2)
                assert cartan[i][j] * cartan[j][i] in (0, 1, 2)
            # recompute from the bilinear form
            ai, aj = rs.simple_roots[i], rs.simple_roots[j]
            assert cartan[i][j] == Fraction(2 * ai.dot(aj), ai.dot(ai))


def test_coroot_values():
    assert rs_of("B", 2).coroot(2) == Weight((0, 2))
    assert rs_of("C", 2).coroot(2) == Weight((0, 1))
    assert rs_of("D", 3).coroot(3) == Weight((0, 1, 1))


def test_coroot_index_errors():
    rs = rs_of("B", 2)
    with pytest.raises(IndexError):
        rs.coroot(0)
    with pytest.raises(IndexError):
        rs.coroot(3)


def test_fundamental_weights_frozen():
    assert fundamental_weights(rs_of("B", 2))[1] == Weight((HALF, HALF))
    assert fundamental_weights(rs_of("C", 2))[1] == Weight((1, 1))
    assert fundamental_weights(rs_of("D", 4))[2] == Weight((HALF, HALF, HALF, -HALF))


@pytest.mark.parametrize("lt", all_lie_types(4), ids=str)
def test_fundamental_weights_pair_with_coroots(lt):
    rs = build_root_system(lt)
    fw = fundamental_weights(rs)
    for j, w in enumerate(fw):
        for i in range(1, lt.rank + 1):
            assert w.dot(rs.coroot(i)) == (1 if i == j + 1 else 0)


@pytest.mark.parametrize("lt", all_lie_types(4), ids=str)
def test_rho_is_sum_of_fundamental_weights(lt):
    rs = build_root_system(lt)
    total = Weight.zero(lt.rank)
    for w in fundamental_weights(rs):
        total = total + w
    assert rs.rho == total


def test_is_dominant_examples():
    assert rs_of("B", 2).is_dominant(Weight((2, 0)))
    assert rs_of("D", 2).is_dominant(Weight((1, -1)))
    assert not rs_of("B", 2).is_dominant(Weight((1, 2)))
    assert not rs_of("C", 2).is_dominant(Weight((1, -1)))
    assert rs_of("B", 2).is_dominant(Weight((HALF, HALF)))


def chain_is_dominant(family, c):
    """The per-family chain table: c_1 >= ... >= c_n >= 0 (B, C), or c_{n-1} >= |c_n| (D)."""
    n = len(c)
    for k in range(n - 2):
        if c[k] < c[k + 1]:
            return False
    if family == "D":
        return c[n - 2] >= abs(c[n - 1])
    if n >= 2 and c[n - 2] < c[n - 1]:
        return False
    return c[n - 1] >= 0


@pytest.mark.parametrize("lt", all_lie_types(4), ids=str)
def test_coroot_chamber_equals_the_family_chain_table(lt):
    rs = build_root_system(lt)
    for num in itertools.product(range(-6, 7), repeat=lt.rank):  # the half-integer box [-3, 3]^n
        w = Weight.from_numerators(num, 2)
        expected = chain_is_dominant(lt.family, w.num)
        assert rs.in_chamber(num) == expected
        assert rs.is_dominant(w) == expected


@pytest.mark.parametrize(
    "field,index", [("simple_roots", 0), ("simple_roots", -1), ("coroots", -1), ("positive_roots", 0)]
)
@pytest.mark.parametrize("family", "BCD")
def test_non_integral_root_data_is_refused_at_construction(field, index, family):
    rs = rs_of(family, 3)
    roots = list(getattr(rs, field))
    roots[index] = Fraction(1, 3) * roots[index]
    with pytest.raises(InvariantError, match="integral simple roots") as info:
        rebuild(rs, **{field: tuple(roots)})
    assert info.value.label == "integral simple roots"
    assert rebuild(rs).coroots == rs.coroots


def test_dominance_leq_b2_by_exhaustive_expansion():
    rs = rs_of("B", 2)
    target = Weight((1, 1))
    found = [
        (c1, c2)
        for c1 in range(6)
        for c2 in range(6)
        if c1 * rs.simple_root(1) + c2 * rs.simple_root(2) == target
    ]
    assert found == [(1, 2)]
    assert rs.dominance_leq(Weight((0, 0)), target)


def test_dominance_leq_examples():
    rs = rs_of("C", 2)
    assert rs.dominance_leq(Weight((1, 1)), Weight((2, 0)))  # difference alpha_1
    assert rs.dominance_leq(Weight((2, 0)), Weight((2, 0)))
    assert not rs.dominance_leq(Weight((2, 0)), Weight((1, 1)))
    # parity obstruction: (1,0) - (0,0) is not in the C2 root lattice cone
    assert not rs.dominance_leq(Weight((0, 0)), Weight((1, 0)))
    # half-integer difference is never a root-lattice element
    assert not rs_of("B", 2).dominance_leq(Weight((HALF, HALF)), Weight((1, 0)))


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
def test_simple_root_coefficients_roundtrip(lt):
    rs = build_root_system(lt)
    rng = random.Random(7)
    for _ in range(25):
        coords = [rng.randint(-4, 4) for _ in range(lt.rank)]
        if rng.random() < 0.5 and lt.family in ("B", "D"):
            coords = [c + HALF for c in coords]
        v = Weight(coords)
        coeffs = rs.simple_root_coefficients(v)
        rebuilt = Weight.zero(lt.rank)
        for c, alpha in zip(coeffs, rs.simple_roots):
            rebuilt = rebuilt + c * alpha
        assert rebuilt == v


def test_simple_reflect_examples():
    assert rs_of("B", 2).simple_reflect(2, Weight((1, 1))) == Weight((1, -1))
    assert rs_of("C", 2).simple_reflect(1, Weight((2, 0))) == Weight((0, 2))


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
def test_simple_reflect_involution_and_form(lt):
    rs = build_root_system(lt)
    rng = random.Random(11)
    for _ in range(20):
        u = Weight([rng.randint(-3, 3) for _ in range(lt.rank)])
        v = Weight([rng.randint(-3, 3) for _ in range(lt.rank)])
        for i in range(1, lt.rank + 1):
            assert rs.simple_reflect(i, rs.simple_reflect(i, u)) == u
            assert rs.simple_reflect(i, u).dot(rs.simple_reflect(i, v)) == u.dot(v)
            if u.dot(rs.coroot(i)) == 0:
                assert rs.simple_reflect(i, u) == u


def test_longest_element_word_length_b2():
    word, _ = rs_of("B", 2).longest_element()
    assert len(word) == 4


def test_longest_element_examples():
    _, act_c2 = rs_of("C", 2).longest_element()
    assert act_c2(Weight((1, 1))) == Weight((-1, -1))
    _, act_d3 = rs_of("D", 3).longest_element()
    assert act_d3(Weight((0, 0, 1))) == Weight((0, 0, 1))
    _, act_d4 = rs_of("D", 4).longest_element()
    assert act_d4(Weight((1, 2, 0, 1))) == Weight((-1, -2, 0, -1))


@pytest.mark.parametrize("lt", all_lie_types(4), ids=str)
def test_longest_element_word_reproduces_action(lt):
    rs = build_root_system(lt)
    word, action = rs.longest_element()
    assert len(word) == len(rs.positive_roots)
    for i in range(1, lt.rank + 1):
        eps = Weight.eps(lt.rank, i)
        assert apply_word(rs, word, eps) == action(eps)
    # the action maps the dominant chamber onto its negative
    assert rs.is_dominant(-action(rs.rho))


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
def test_weyl_orbit_of_first_basis_vector(lt):
    rs = build_root_system(lt)
    orbit = rs.weyl_orbit(Weight.eps(lt.rank, 1))
    expected = set()
    for i in range(1, lt.rank + 1):
        expected.add(Weight.eps(lt.rank, i))
        expected.add(-Weight.eps(lt.rank, i))
    assert set(orbit) == expected
    for w in orbit:
        for i in range(1, lt.rank + 1):
            assert rs.simple_reflect(i, w) in set(orbit)


def test_lie_type_validation():
    with pytest.raises(ValueError):
        LieType("D", 1)
    with pytest.raises(ValueError):
        LieType("B", 0)
    with pytest.raises(ValueError):
        LieType("E", 2)
    assert LieType("B", 3).natural_dim == 7
    assert LieType("C", 3).natural_dim == 6
    assert LieType("D", 3).natural_dim == 6


def test_weight_exactness():
    with pytest.raises(TypeError):
        Weight((0.5, 0.5))
    assert Weight((Fraction(2, 2), 0)) == Weight((1, 0))
    assert Weight((HALF, HALF)).to_json() == ["1/2", "1/2"]
    assert Weight((1, -2)).to_json() == [1, -2]


# ---------------------------------------------------------------------------
# Weight against a plain Fraction-tuple reference

coordinates = st.one_of(
    st.integers(-12, 12),
    st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6)),  # includes e.g. 4/2 == 2
)
scalars = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def coordinate_pairs(draw):
    n = draw(st.integers(1, 4))
    vec = st.lists(coordinates, min_size=n, max_size=n)
    return draw(vec), draw(vec)


def ref_coords(values):
    """The exact coordinate tuple: ints where integral, reduced Fractions elsewhere."""
    return tuple(int(c) if Fraction(c).denominator == 1 else Fraction(c) for c in values)


def assert_matches(w, values):
    expected = ref_coords(values)
    assert w.coords == expected
    assert [type(c) for c in w.coords] == [type(c) for c in expected]
    assert w.den > 0 and math.gcd(w.den, *w.num) == 1
    assert w == Weight(expected) and hash(w) == hash(Weight(expected))
    assert w.is_integral() == all(isinstance(c, int) for c in expected)
    assert repr(w) == "Weight(%s)" % ", ".join(str(c) for c in expected)
    assert w.to_json() == [c if isinstance(c, int) else f"{c.numerator}/{c.denominator}" for c in expected]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(coordinate_pairs(), scalars)
def test_weight_matches_fraction_reference(pair, k):
    a, b = pair
    u, v = Weight(a), Weight(b)
    fa, fb = [Fraction(c) for c in a], [Fraction(c) for c in b]
    assert_matches(u, fa)
    assert_matches(u + v, [x + y for x, y in zip(fa, fb)])
    assert_matches(u - v, [x - y for x, y in zip(fa, fb)])
    assert_matches(-u, [-x for x in fa])
    assert_matches(k * u, [k * x for x in fa])
    assert_matches(u * k, [k * x for x in fa])
    dot = sum(x * y for x, y in zip(fa, fb))
    assert u.dot(v) == dot
    assert type(u.dot(v)) is (int if dot.denominator == 1 else Fraction)
    assert (u == v) == (fa == fb)
    assert (u + v) - v == u and hash((u + v) - v) == hash(u)
    assert list(u) == list(u.coords) and len(u) == len(a)
    assert [u[j] for j in range(len(a))] == list(u.coords)


def test_weight_from_numerators_reduces():
    assert Weight.from_numerators((4, -2, 0), 2) == Weight((2, -1, 0))
    assert Weight.from_numerators((0, 0), 6) == Weight.zero(2)
    w = Weight.from_numerators((3, 6), 6)
    assert (w.num, w.den) == ((1, 2), 2)
    assert w.coords == (HALF, 1)


@pytest.mark.parametrize("bad", [True, 0.5, 1.0, "1"])
def test_weight_rejects_inexact_coordinates_and_scalars(bad):
    with pytest.raises(TypeError):
        Weight((1, bad))
    with pytest.raises(TypeError):
        Weight((1, HALF)) * bad


def test_coroots_are_computed_once():
    rs = rs_of("B", 3)
    assert rs.coroot(3) is rs.coroot(3)
    for i, alpha in enumerate(rs.simple_roots, start=1):
        assert rs.coroot(i) == Fraction(2, alpha.dot(alpha)) * alpha
