import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit import pathmodel
from schurkit.decomposition import freudenthal_multiplicities, schur_dimensions, weyl_dimension
from schurkit.pathmodel import (
    Path,
    _positively_parallel,
    _raising_table,
    basis_census,
    crystal_dimensions,
    e_op,
    f_op,
    generate_crystal,
    is_integral,
    opposite_strings,
    straight_path,
    string_tuples,
)
from schurkit.rootdata import CapExceeded, InvariantError, LieType, Weight, build_root_system
from schurkit.weightsets import tensor_dominant_pi
from conftest import rebuild
HALF = Fraction(1, 2)


def rs_of(family, rank):
    return build_root_system(LieType(family, rank))


def test_straight_path_basics():
    rs = rs_of("C", 2)
    p = straight_path(rs, Weight((1, 0)))
    assert p.endpoint == Weight((1, 0))
    assert p.breakpoints[0] == (Fraction(0), Weight((0, 0)))
    with pytest.raises(ValueError):
        straight_path(rs, Weight((0, 1)))


def test_path_canonicalization():
    w = Weight
    bent = Path.from_points([w((0, 0)), w((1, 0)), w((2, 0))])
    straight = Path.from_points([w((0, 0)), w((2, 0))])
    assert bent == straight
    paused = Path.from_points([w((0, 0)), w((1, 0)), w((1, 0)), w((1, 1))])
    assert paused == Path.from_points([w((0, 0)), w((1, 0)), w((1, 1))])
    with pytest.raises(ValueError):
        Path.from_points([w((1, 0))])


def test_raising_kills_dominant_path():
    rs = rs_of("B", 2)
    p = straight_path(rs, Weight((1, 1)))
    for i in (1, 2):
        assert e_op(rs, i, p) is None


def test_lowering_shifts_endpoint_by_root():
    rs = rs_of("B", 2)
    lam = Weight((1, 1))
    p = straight_path(rs, lam)
    for i in (1, 2):
        if lam.dot(rs.coroot(i)) >= 1:
            q = f_op(rs, i, p)
            assert q is not None
            assert q.endpoint == lam - rs.simple_root(i)


def test_partial_inverse_property_across_a_crystal():
    rs = rs_of("C", 2)
    crystal = generate_crystal(rs, Weight((1, 1)))
    for p in crystal.elements:
        for i in (1, 2):
            down = f_op(rs, i, p)
            if down is not None:
                assert e_op(rs, i, down) == p
            up = e_op(rs, i, p)
            if up is not None:
                assert f_op(rs, i, up) == p


# Reference calculus on Weight breakpoints with Fraction crossings, kept
# apart from the int-numerator calculus that pathmodel runs.


def _reference_canonical(points):
    """Canonical breakpoints of a Weight polyline: pauses dropped, collinear continuations merged."""
    cleaned = [points[0]]
    for p in points[1:]:
        if p != cleaned[-1]:
            cleaned.append(p)
    merged = cleaned[:1]
    for p in cleaned[1:]:
        if len(merged) >= 2 and fraction_ratio_parallel(
            (merged[-1] - merged[-2]).coords, (p - merged[-1]).coords
        ):
            merged[-1] = p
            continue
        merged.append(p)
    return tuple(merged)


def _scaled_heights(path, coroot):
    """Heights (x_k, coroot) of the breakpoints as ints over one denominator.

    Returns (H, D) with height_k = H[k] / D and D > 0, so level l of the
    height function is the integer l * D.
    """
    points = path.points
    common = math.lcm(*(p.den for p in points))
    c = coroot.num
    heights = [sum(a * b for a, b in zip(p.num, c)) * (common // p.den) for p in points]
    return heights, common * coroot.den


def _mirror(p, k, d, alpha):
    """p - (k/d) alpha: the mirror image of p, at height k/d above a level."""
    return p - Fraction(k, d) * alpha


def _split_at_level(a, b, ha, hb, level):
    """Point on segment [a, b] where the height function crosses `level` (any common scale)."""
    return a + Fraction(level - ha, hb - ha) * (b - a)


def _reference_f_op(rs, i, path):
    """Lowering operator written out on Weight breakpoints; canonical points, or None.

    Reflects the piece between the last minimum q and the next crossing of
    level q+1, and translates the rest by -alpha.  Applies when the
    endpoint height is at least q+1.
    """
    alpha = rs.simple_root(i)
    h, d = _scaled_heights(path, rs.coroot(i))
    q = min(h)
    if h[-1] - q < d:
        return None
    top = q + d
    pts = path.points
    j = max(j for j, v in enumerate(h) if v == q)
    new_pts = list(pts[: j + 1])
    while h[j + 1] < top:  # strictly between q and q+1 after the last minimum
        new_pts.append(_mirror(pts[j + 1], h[j + 1] - q, d, alpha))
        j += 1
    if h[j + 1] == top:
        tail = pts[j + 1 :]
    else:
        tail = (_split_at_level(pts[j], pts[j + 1], h[j], h[j + 1], top),) + pts[j + 1 :]
    new_pts.extend(p - alpha for p in tail)
    return _reference_canonical(new_pts)


def _reference_e_op(rs, i, path):
    """Raising operator written out on Weight breakpoints, mirroring _reference_f_op.

    The piece between the last crossing of level q+1 and the first minimum
    q is reflected, and the rest of the path is translated by +alpha.
    Applies when q <= -1.
    """
    alpha = rs.simple_root(i)
    h, d = _scaled_heights(path, rs.coroot(i))
    q = min(h)
    if q > -d:
        return None
    top = q + d
    pts = path.points
    j2 = min(j for j, v in enumerate(h) if v == q)
    j = j2
    while h[j - 1] < top:  # strictly between q and q+1 before the first minimum
        j -= 1
    if h[j - 1] == top:
        new_pts = list(pts[:j])
    else:
        split = _split_at_level(pts[j - 1], pts[j], h[j - 1], h[j], top)
        new_pts = list(pts[:j]) + [split]
    for k in range(j, j2 + 1):
        new_pts.append(_mirror(pts[k], h[k] - top, d, alpha))
    for p in pts[j2 + 1 :]:
        new_pts.append(p + alpha)
    return _reference_canonical(new_pts)


def points_of(path):
    return None if path is None else path.points


DUALITY_CASES = [
    ("B", 1, (2,)),
    ("B", 2, (2, 1)),
    ("B", 2, (3 * HALF, HALF)),
    ("B", 3, (1, 1, 0)),
    ("B", 3, (HALF, HALF, HALF)),
    ("C", 2, (2, 1)),
    ("C", 3, (2, 1, 0)),
    ("D", 3, (1, 1, -1)),
    ("D", 3, (3 * HALF, HALF, -HALF)),
    ("D", 4, (1, 1, 0, 0)),
]


@pytest.mark.parametrize("family,rank,lam", DUALITY_CASES)
def test_raising_by_duality_matches_the_written_out_operator(family, rank, lam):
    rs = rs_of(family, rank)
    crystal = generate_crystal(rs, Weight(lam))
    for p in crystal.elements:
        for i in range(1, rank + 1):
            assert points_of(e_op(rs, i, p)) == _reference_e_op(rs, i, p)


@pytest.mark.parametrize("family,rank,lam", DUALITY_CASES)
def test_lowering_matches_the_written_out_operator(family, rank, lam):
    rs = rs_of(family, rank)
    crystal = generate_crystal(rs, Weight(lam))
    for p in crystal.elements:
        for i in range(1, rank + 1):
            assert points_of(f_op(rs, i, p)) == _reference_f_op(rs, i, p)


def test_c2_natural_orbit():
    rs = rs_of("C", 2)
    crystal = generate_crystal(rs, Weight((1, 0)))
    assert len(crystal) == 4
    assert sorted(w.coords for w in crystal.endpoint_multiset()) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_crystal_sizes_match_dimensions():
    rs = rs_of("B", 2)
    assert len(generate_crystal(rs, Weight((0, 0)))) == 1
    assert len(generate_crystal(rs, Weight((1, 0)))) == 5
    assert len(generate_crystal(rs, Weight((1, 1)))) == 10
    assert len(generate_crystal(rs, Weight((HALF, HALF)))) == 4


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2), ("D", 2), ("D", 3), ("B", 3), ("C", 3)])
@pytest.mark.parametrize("r", [1, 2])
def test_crystal_endpoints_reproduce_characters(family, rank, r):
    lt = LieType(family, rank)
    rs = build_root_system(lt)
    for lam in tensor_dominant_pi(lt, r):
        crystal = generate_crystal(rs, lam)
        assert len(crystal) == weyl_dimension(rs, lam)
        assert crystal.endpoint_multiset() == freudenthal_multiplicities(rs, lam).as_dict()


def test_crystal_paths_stay_integral():
    rs = rs_of("B", 2)
    for lam in (Weight((1, 1)), Weight((HALF, HALF))):
        for p in generate_crystal(rs, lam).elements:
            assert is_integral(rs, p)


def test_is_integral_reads_only_the_minima():
    rs = rs_of("C", 2)
    w = Weight
    third = Fraction(1, 3)
    # heights along alpha_1^vee: 0, -1/2, 1 -- a non-integral interior minimum
    assert not is_integral(rs, Path.from_points([w((0, 0)), w((-HALF, 0)), w((1, 0))]))
    # a non-integral final minimum: the path ends at height -4/3
    assert not is_integral(rs, Path.from_points([w((0, 0)), w((-1, third))]))
    # fractional breakpoints (denominators 3 and 5) away from the minima
    assert is_integral(rs, Path.from_points([w((0, 0)), w((third, Fraction(1, 5))), w((1, 1))]))


def test_crystal_cap(monkeypatch):
    # both refusals read the cap when called: the dimension check before any crystal, and the growth check
    rs = rs_of("B", 2)
    monkeypatch.setattr(pathmodel, "DEFAULT_CRYSTAL_CAP", 5)
    with pytest.raises(CapExceeded, match="exceeded 5 elements"):
        generate_crystal(rs, Weight((1, 1)))
    with pytest.raises(CapExceeded, match="would have 10 elements, its Weyl dimension, over the cap 5"):
        crystal_dimensions(rs, [Weight((1, 0)), Weight((1, 1))])
    assert crystal_dimensions(rs, [Weight((1, 0))]) == [5] and len(generate_crystal(rs, Weight((1, 0)))) == 5


def test_crystal_edges_are_lowering_steps():
    rs = rs_of("C", 2)
    crystal = generate_crystal(rs, Weight((1, 0)))
    for src, i, dst in crystal.edges:
        assert f_op(rs, i, crystal.elements[src]) == crystal.elements[dst]


def test_string_tuples_zero_weight():
    rs = rs_of("C", 2)
    word, _ = rs.longest_element()
    crystal = generate_crystal(rs, Weight((0, 0)))
    assert string_tuples(crystal, word) == ((0,) * len(word),)


def reference_string_tuple(crystal, word, path):
    """Greedy raising exponents of one element, raising letter by letter from scratch."""
    exponents = []
    current = path
    for i in word:
        count = 0
        while (raised := e_op(crystal.rs, i, current)) is not None:
            current = raised
            count += 1
        exponents.append(count)
    assert current == crystal.elements[0]
    return tuple(exponents)


def reference_string_tuples(crystal, word):
    return tuple(sorted((reference_string_tuple(crystal, word, p) for p in crystal.elements), reverse=True))


STRING_CASES = [
    ("B", 2, (1, 1)),
    ("B", 2, (HALF, HALF)),
    ("B", 3, (1, 1, 0)),
    ("B", 3, (3 * HALF, HALF, HALF)),
    ("C", 2, (2, 0)),
    ("C", 3, (1, 1, 1)),
    ("C", 3, (2, 1, 0)),
    ("D", 4, (1, 1, 0, 0)),
    ("D", 4, (HALF, HALF, HALF, HALF)),
    ("D", 4, (HALF, HALF, HALF, -HALF)),
    ("C", 4, (1, 1, 1, 1)),
    ("C", 4, (2, 2, 0, 0)),
    ("C", 4, (2, 1, 1, 0)),
    ("C", 4, (4, 0, 0, 0)),
]


@pytest.mark.parametrize("family,rank,lam", STRING_CASES)
def test_memoized_strings_match_per_element_reference(family, rank, lam):
    rs = rs_of(family, rank)
    word, _ = rs.longest_element()
    crystal = generate_crystal(rs, Weight(lam))
    assert string_tuples(crystal, word) == reference_string_tuples(crystal, word)


@pytest.mark.parametrize("lam", [(1, 1, 1), (HALF, HALF, HALF), (2, 1, 1)])
def test_memoized_strings_match_reference_on_d3_dual_pairs(lam):
    rs = rs_of("D", 3)
    word, w0 = rs.longest_element()
    lam = Weight(lam)
    dual = -w0(lam)
    assert dual != lam
    for hw in (lam, dual):
        crystal = generate_crystal(rs, hw)
        assert string_tuples(crystal, word) == reference_string_tuples(crystal, word)


@pytest.mark.parametrize("family,rank,lam", [("B", 3, (1, 1, 0)), ("D", 3, (1, 1, -1)), ("C", 4, (2, 1, 1, 0))])
def test_strings_read_raises_off_edges_without_e_op(monkeypatch, family, rank, lam):
    rs = rs_of(family, rank)
    word, _ = rs.longest_element()
    crystal = generate_crystal(rs, Weight(lam))
    expected = reference_string_tuples(crystal, word)
    calls = []

    def counting_e_op(rs, i, path):
        calls.append((i, path))
        return e_op(rs, i, path)

    monkeypatch.setattr(pathmodel, "e_op", counting_e_op)
    assert string_tuples(crystal, word) == expected
    assert calls == []


@pytest.mark.parametrize("family,rank,lam", STRING_CASES)
def test_edge_table_raise_matches_e_op(family, rank, lam):
    rs = rs_of(family, rank)
    crystal = generate_crystal(rs, Weight(lam))
    up = _raising_table(crystal)
    index = {p: x for x, p in enumerate(crystal.elements)}
    for x, p in enumerate(crystal.elements):
        for i in range(1, rank + 1):
            raised = e_op(rs, i, p)
            assert up[i].get(x) == (None if raised is None else index[raised])


@st.composite
def small_dominant_weights(draw):
    """(family, rank, lam): a dominant weight of rank <= 3 with coordinates <= 2, spin weights included."""
    family = draw(st.sampled_from("BCD"))
    rank = draw(st.integers(2 if family == "D" else 1, 3))
    half = family != "C" and draw(st.booleans())
    coords = sorted(draw(st.lists(st.integers(0, 1 if half else 2), min_size=rank, max_size=rank)), reverse=True)
    lam = [c + HALF if half else Fraction(c) for c in coords]
    if family == "D" and draw(st.booleans()):
        lam[-1] = -lam[-1]
    return family, rank, Weight(lam)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_dominant_weights())
def test_edge_strings_match_reference_on_small_dominant_weights(case):
    family, rank, lam = case
    rs = rs_of(family, rank)
    assert rs.is_dominant(lam)
    word, _ = rs.longest_element()
    crystal = generate_crystal(rs, lam)
    assert string_tuples(crystal, word) == reference_string_tuples(crystal, word)


def test_lowering_merges_at_the_tail_junction():
    # heights along alpha_1^vee of C2: 0, 1, 1/2, 3/2.  The tail leaves level 1
    # downward, parallel to the mirrored first segment, so the second junction
    # merges; on integral paths that descent would be a minimum at a half level.
    rs = rs_of("C", 2)
    w = Weight
    path = Path.from_points([w((0, 0)), w((HALF, -HALF)), w((Fraction(1, 4), Fraction(-1, 4))), w((1, -HALF))])
    expected = _reference_f_op(rs, 1, path)
    assert expected == (w((0, 0)), w((Fraction(-3, 4), Fraction(3, 4))), w((0, HALF)))
    assert f_op(rs, 1, path).points == expected


@pytest.mark.parametrize("family,rank,r", [("B", 3, 4), ("C", 3, 3), ("D", 4, 3)])
def test_lowering_checks_only_its_junctions_and_stays_canonical(family, rank, r):
    # a full rescan of every lowering result finds nothing left to merge or reduce
    lt = LieType(family, rank)
    rs = build_root_system(lt)
    for lam in tensor_dominant_pi(lt, r):
        for p in generate_crystal(rs, lam).elements:
            for i in range(1, rank + 1):
                q = f_op(rs, i, p)
                if q is not None:
                    rescanned = Path.from_points(q.points)
                    assert (q.num, q.den) == (rescanned.num, rescanned.den)


@pytest.mark.parametrize("family,rank,lam", [("B", 2, (1, 1)), ("C", 2, (2, 0)), ("D", 3, (1, 1, 1))])
def test_string_tuples_count_and_zero_tuple(family, rank, lam):
    rs = rs_of(family, rank)
    word, _ = rs.longest_element()
    crystal = generate_crystal(rs, Weight(lam))
    tuples = string_tuples(crystal, word)
    assert len(tuples) == weyl_dimension(rs, Weight(lam))
    assert (0,) * len(word) in tuples
    opp = opposite_strings(tuples)
    assert len(opp) == len(tuples)
    assert sorted(tuple(reversed(t)) for t in opp) == sorted(tuples)


def test_dual_crystals_have_equal_cardinality_d_odd():
    rs = rs_of("D", 3)
    _, w0 = rs.longest_element()
    lam = Weight((1, 1, 1))
    dual = -w0(lam)
    assert dual == Weight((1, 1, -1))
    assert rs.is_dominant(dual)
    assert len(generate_crystal(rs, dual)) == len(generate_crystal(rs, lam))


@pytest.mark.parametrize(
    "family,rank,r,total",
    [("C", 1, 2, 10), ("C", 2, 2, 126), ("B", 2, 2, 322), ("D", 2, 2, 100)],
)
def test_basis_census_totals(family, rank, r, total):
    report = basis_census(LieType(family, rank), r)
    assert report.ok
    assert report.total == total == report.expected_total
    for row in report.rows:
        assert row["product"] == row["dim"] ** 2


def test_basis_census_d3_uses_true_longest_element():
    report = basis_census(LieType("D", 3), 2)
    assert report.ok
    assert not report.w0_is_minus_identity
    assert report.note != ""
    assert report.total == schur_dimensions(LieType("D", 3), 2)[0]


def test_census_zero_weight_contributes_one():
    report = basis_census(LieType("C", 2), 2)
    zero_row = next(row for row in report.rows if row["weight"] == [0, 0])
    assert zero_row["product"] == 1


def test_path_json_roundtrip_shape():
    rs = rs_of("B", 2)
    p = f_op(rs, 2, straight_path(rs, Weight((1, 1))))
    doc = p.to_json()
    assert doc[0]["point"] == [0, 0]
    assert all(set(item) == {"t", "point"} for item in doc)


def test_basis_census_d3_r3_distinct_duals():
    report = basis_census(LieType("D", 3), 3)
    assert report.ok
    assert report.total == 6832 == schur_dimensions(LieType("D", 3), 3)[0]
    paired = {tuple(row["weight"]): tuple(row["dual_weight"]) for row in report.rows}
    assert paired[(1, 1, 1)] == (1, 1, -1)
    assert paired[(1, 1, -1)] == (1, 1, 1)
    assert paired[(2, 1, 0)] == (2, 1, 0)


def fraction_ratio_parallel(u, v):
    """The coordinate-ratio form of the test, on exact coordinate sequences."""
    uz = [c == 0 for c in u]
    if uz != [c == 0 for c in v]:
        return False
    ratio = None
    for a, b in zip(u, v):
        if a == 0:
            continue
        q = Fraction(b) / Fraction(a)
        if q <= 0 or (ratio is not None and q != ratio):
            return False
        ratio = q
    return ratio is not None


int_vectors = st.integers(1, 4).flatmap(lambda n: st.lists(st.integers(-3, 3), min_size=n, max_size=n))


@st.composite
def direction_pairs(draw):
    w = draw(int_vectors)
    kind = draw(st.sampled_from(("multiple", "perturbed", "free")))
    if kind == "free":
        return tuple(w), tuple(draw(st.lists(st.integers(-6, 6), min_size=len(w), max_size=len(w))))
    b, a = draw(st.integers(1, 5)), draw(st.integers(-5, 5))
    u, v = [b * x for x in w], [a * x for x in w]  # v = (a/b) u
    if kind == "perturbed":
        v[draw(st.integers(0, len(w) - 1))] += draw(st.integers(-1, 1))
    return tuple(u), tuple(v)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(direction_pairs())
def test_positively_parallel_matches_fraction_ratios(pair):
    u, v = pair
    assert _positively_parallel(u, v) == fraction_ratio_parallel(u, v)


small_coords = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))


@st.composite
def noisy_polylines(draw):
    """A rational polyline from the origin, and a copy with pauses and collinear midpoints inserted."""
    n = draw(st.integers(1, 4))
    coords = st.lists(small_coords, min_size=n, max_size=n)
    points = [Weight.zero(n)] + [Weight(c) for c in draw(st.lists(coords, max_size=5))]
    noisy = points[:1] * draw(st.integers(1, 2))
    for a, b in zip(points, points[1:]):
        for t in sorted(draw(st.sets(st.builds(Fraction, st.integers(1, 4), st.integers(5, 7)), max_size=2))):
            noisy.append(a + t * (b - a))
        noisy.extend([b] * draw(st.integers(1, 2)))
    return points, noisy


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(noisy_polylines())
def test_canonical_form_matches_reference_with_least_denominator(pair):
    points, noisy = pair
    path = Path.from_points(noisy)
    assert path == Path.from_points(points)
    assert path.points == _reference_canonical(noisy) == _reference_canonical(points)
    coords = [a for p in path.num for a in p]
    assert type(path.den) is int and path.den > 0
    assert all(type(a) is int for a in coords)
    assert math.gcd(path.den, *coords) == 1
    assert path.den == math.lcm(*(p.den for p in path.points))


def test_crystal_paths_hold_ints_over_reduced_denominators():
    rs = rs_of("B", 3)
    for p in generate_crystal(rs, Weight((3 * HALF, HALF, HALF))).elements:
        coords = [a for q in p.num for a in q]
        assert all(type(a) is int for a in coords)
        assert p.den > 0 and math.gcd(p.den, *coords) == 1


def half_level_path():
    """Heights along alpha_1^vee of C2 are 0, -1/2, 1: a minimum at a half level."""
    return Path.from_points([Weight((0, 0)), Weight((-HALF, 0)), Weight((1, 0))])


def test_non_integral_lowering_result_is_an_invariant_error(monkeypatch):
    rs = rs_of("C", 2)
    bad = half_level_path()
    assert not is_integral(rs, bad)
    monkeypatch.setattr(pathmodel, "_lower", lambda alpha, path, h: bad)
    with pytest.raises(InvariantError, match="integral-path regime") as info:
        generate_crystal(rs, Weight((1, 1)))
    assert info.value.label == "integral-path regime"


def test_non_integral_coroot_is_an_invariant_error():
    rs = rs_of("C", 2)
    with pytest.raises(InvariantError, match="integral simple roots"):
        rebuild(rs, coroots=(HALF * rs.coroots[0], rs.coroots[1]))
