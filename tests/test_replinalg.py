import functools
import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit import replinalg
from schurkit.decomposition import weyl_dimension
from schurkit.idempotents import annihilator_for_signed_sums, build_idempotents, p1, p2
from schurkit.replinalg import (
    CapExceeded,
    ExactMatrix,
    _place_maps,
    _RowSpan,
    _combine,
    algebra_closure,
    indices,
    natural_rep,
    natural_weights,
    orbit_rows,
    product_of_shifts,
    single_power_rep,
    tensor_lift,
    tower_rep,
)
from schurkit.rootdata import LieType, Weight, build_root_system
from schurkit.weightsets import tensor_dominant_pi, tensor_weights_Pi
from conftest import all_lie_types, dense, naive_matmul, unfused_combine


def transpose(m):
    return ExactMatrix.from_entries(m.size, [(j, i, v) for i, j, v in m.iter_entries()])


def random_matrix(rng, n):
    return [[0 if rng.random() < 0.4 else rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]


def test_matmul_against_dense_oracle():
    rng = random.Random(3)
    for _ in range(10):
        a = random_matrix(rng, 4)
        b = random_matrix(rng, 4)
        prod = ExactMatrix.from_dense(a) @ ExactMatrix.from_dense(b)
        assert prod == ExactMatrix.from_dense(naive_matmul(a, b))


def random_diagonal(rng, n):
    """A dense n x n diagonal with some absent (zero) diagonal entries."""
    diag = [0 if rng.random() < 0.4 else rng.randint(-4, 4) for _ in range(n)]
    return [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _fast_path_cases():
    rng = random.Random(11)
    cases = [
        ("diag-left-int", random_diagonal(rng, 5), random_matrix(rng, 5)),
        ("diag-right-int", random_matrix(rng, 5), random_diagonal(rng, 5)),
        ("diag-both-int", random_diagonal(rng, 5), random_diagonal(rng, 5)),
    ]
    general = random_matrix(rng, 4)
    zero = [[0] * 4 for _ in range(4)]
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    cases += [
        ("zero-left", zero, general),
        ("zero-right", general, zero),
        ("identity-left", ident, general),
        ("identity-right", general, ident),
        ("diagonal-misses-rows", [[0, 0], [0, 3]], [[1, 2], [0, 0]]),
    ]
    return [pytest.param(a, b, id=name) for name, a, b in cases]


@pytest.mark.parametrize("a,b", _fast_path_cases())
def test_diagonal_fast_paths_match_dense_oracle(a, b):
    prod = ExactMatrix.from_dense(a) @ ExactMatrix.from_dense(b)
    # equal stores: no zero entry is kept
    assert prod == ExactMatrix.from_dense(naive_matmul(a, b))


def _dense_shift_product(dense, shifts):
    n = len(dense)
    acc = [[int(i == j) for j in range(n)] for i in range(n)]
    for s in shifts:
        acc = naive_matmul(acc, [[dense[i][j] - (s if i == j else 0) for j in range(n)] for i in range(n)])
    return acc


@pytest.mark.parametrize(
    "diag,shifts",
    [
        ([2, 0, -1, 2, 1, 0], [-2, -1, 1]),
        ([2, 0, -1, 2, 1, 0], [0, 2, -1, 1, 3, -3]),  # exactly zero after the fourth factor
        ([3, 0, -3, 3], [3, 1, -1]),
        ([1, -1, 0], []),
        ([0, 0, 0], [1, 2]),
    ],
)
def test_product_of_shifts_on_a_diagonal_matches_the_general_loop(diag, shifts):
    dense = [[diag[i] if i == j else 0 for j in range(len(diag))] for i in range(len(diag))]
    # equal stores: an exactly zero product keeps no entry
    assert product_of_shifts(diag, shifts) == ExactMatrix.from_dense(_dense_shift_product(dense, shifts))


def test_basic_arithmetic_and_normalization():
    a = ExactMatrix.from_dense([[1, 0], [0, -1]])
    assert a == ExactMatrix.diag([1, -1])
    assert ExactMatrix.from_entries(2, [(0, 1, 2), (0, 1, -2)]) == ExactMatrix.zeros(2)
    assert ExactMatrix.zeros(2) != ExactMatrix.zeros(3)  # equal stores, different sizes
    assert (a - a).is_zero()
    assert (2 * a).entry(0, 0) == 2
    assert transpose(a) == a
    assert a.trace() == 0
    b = ExactMatrix.from_dense([[0, 1], [0, 0]])
    assert (a @ b).entry(0, 1) == 1
    with pytest.raises(ValueError):
        a @ ExactMatrix.zeros(3)
    assert a.max_abs_with_location() == (1, 0, 0, 1)


# Entries: zeros, small ints and magnitudes past 2**63, so int64 wrap-around would show.
_ENTRIES = st.one_of(st.just(0), st.integers(-3, 3), st.integers(2**63, 2**66), st.integers(-(2**66), -(2**63)))


def _dense_matrices(n):
    return st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def _square_triples(draw):
    n = draw(st.integers(1, 5))
    return tuple(ExactMatrix.from_dense(draw(_dense_matrices(n))) for _ in range(3))


def assert_normal_form(m):
    """Each row a nonempty tuple of (column, value) pairs with no zero value and no repeated column."""
    for i, row in m._data.items():
        assert 0 <= i < m.size and type(row) is tuple and row
        assert all(type(pair) is tuple and len(pair) == 2 for pair in row)
        assert len({j for j, _ in row}) == len(row)
        for j, v in row:
            assert 0 <= j < m.size and type(v) is int and v != 0


_KERNEL_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@_KERNEL_SETTINGS
@given(_square_triples(), st.integers(-(2**64), 2**64))
def test_products_sums_and_brackets_match_dense_oracle(mats, k):
    a, b, c = mats
    n = a.size
    for got, products, terms in (
        (a @ b, [(1, a, b)], []),
        (a + b, [], [(1, a), (1, b)]),
        (a - b, [], [(1, a), (-1, b)]),
        (-a, [], [(-1, a)]),
        (k * a, [], [(k, a)]),
        (a.bracket(b), [(1, a, b), (-1, b, a)], []),
        (a.bracket(b, c), [(1, a, b), (-1, b, a)], [(-1, c)]),
    ):
        assert_normal_form(got)
        assert got.size == n
        assert dense(got) == dense(unfused_combine(n, products, terms))


@_KERNEL_SETTINGS
@given(_square_triples(), st.data())
def test_rows_that_cancel_to_zero_are_not_stored(mats, data):
    a, b, c = mats
    n = a.size
    exact = dense(unfused_combine(n, [(1, a, b), (-1, b, a)]))
    # minus equals the exact bracket except on the drawn rows, where it is taken from c
    changed = data.draw(st.sets(st.integers(0, n - 1)))
    minus = [dense(c)[i] if i in changed else exact[i] for i in range(n)]
    res = a.bracket(b, ExactMatrix.from_dense(minus))
    assert_normal_form(res)
    assert set(res._data) == {i for i in changed if minus[i] != exact[i]}
    for zero in (a - a, a + (-a), a.bracket(a), a.bracket(b, a.bracket(b)), 0 * a, a @ ExactMatrix.zeros(n)):
        assert zero._data == {} and zero.is_zero() and zero == ExactMatrix.zeros(n)


def _dense_diagonal_bracket(diag, x, shift, rows=None):
    """[D, x] + shift * x for the diagonal D with values diag: x_ab * (d_a - d_b + shift), on `rows` only if given."""
    n = len(diag)
    kept = range(n) if rows is None else set(rows)
    return [[x[a][b] * (diag[a] - diag[b] + shift) if a in kept else 0 for b in range(n)] for a in range(n)]


@_KERNEL_SETTINGS
@given(_square_triples(), st.integers(-(2**64), 2**64), st.data())
def test_every_constructor_and_kernel_stores_pair_rows_in_normal_form(mats, k, data):
    """Each result against the dense oracle, with rows of (column, value) pairs in normal form."""
    a, b, c = mats
    n = a.size
    rows = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    diag = data.draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    shifts = data.draw(st.lists(st.integers(-3, 3), max_size=3))
    shift = data.draw(st.integers(-3, 3))
    entries = list(a.iter_entries()) + [(i, j, -v) for i, j, v in b.iter_entries()] + list(b.iter_entries())
    data.draw(st.randoms(use_true_random=False)).shuffle(entries)  # b's entries cancel, in any order
    ix = indices(n)
    d = ExactMatrix.diag(diag)
    x3 = ((1, d, a), (-1, a, d))
    diagonal = lambda values: [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
    cases = [
        (ExactMatrix.from_entries(n, entries), dense(a)),
        (ExactMatrix.from_dense(dense(a)), dense(a)),
        (ExactMatrix.zeros(n), diagonal([0] * n)),
        (ExactMatrix.identity(n), diagonal([1] * n)),
        (ExactMatrix.diag(diag), diagonal(diag)),
        (ExactMatrix._diag_at(n, ((ix[i], diag[i]) for i in rows)), diagonal([diag[i] * (i in rows) for i in range(n)])),
        (ExactMatrix.unit(n, n - 1, 0, k), dense(ExactMatrix.from_entries(n, [(n - 1, 0, k)]))),
        (a + b, dense(unfused_combine(n, [], [(1, a), (1, b)]))),
        (a - b, dense(unfused_combine(n, [], [(1, a), (-1, b)]))),
        (k * a, dense(unfused_combine(n, [], [(k, a)]))),
        (a @ b, dense(unfused_combine(n, [(1, a, b)]))),
        (a.bracket(b), dense(unfused_combine(n, [(1, a, b), (-1, b, a)]))),
        (a.bracket(b, c), dense(unfused_combine(n, [(1, a, b), (-1, b, a)], [(-1, c)]))),
        (a.bracket(b, None, rows), dense(unfused_combine(n, [(1, a, b), (-1, b, a)], rows=rows))),
        (a.bracket(b, c, rows), dense(unfused_combine(n, [(1, a, b), (-1, b, a)], [(-1, c)], rows))),
        # X3's residual [H, x] + shift * x: a bracket with a diagonal factor and a term, in one kernel pass
        (_combine(n, x3, ((shift, a),)), _dense_diagonal_bracket(diag, dense(a), shift)),
        (_combine(n, x3, ((shift, a),), rows), _dense_diagonal_bracket(diag, dense(a), shift, rows)),
        (product_of_shifts(diag, shifts), _dense_shift_product(diagonal(diag), shifts)),
    ]
    for got, expected in cases:
        assert_normal_form(got)
        assert got.size == n and dense(got) == expected
        assert list(got.iter_entries()) == [(i, j, v) for i, r in enumerate(expected) for j, v in enumerate(r) if v]
        assert got.nnz == sum(v != 0 for r in expected for v in r)
        assert got.diagonal() == [expected[i][i] for i in range(n)] and got.trace() == sum(got.diagonal())
        assert got.is_diagonal() == all(v == 0 for i, r in enumerate(expected) for j, v in enumerate(r) if i != j)
    # equal entries accumulated in different orders: the pairs of a row may be in another order, and still equal
    for left, right in ((a + b, b + a), (a.bracket(b), -b.bracket(a)), (a.bracket(b, c), -(b.bracket(a) + c))):
        assert left == right and dense(left) == dense(right)


def test_rows_with_equal_entries_in_another_order_compare_equal():
    one = ExactMatrix.from_entries(3, [(0, 1, 2), (0, 2, 3), (2, 0, 1)])
    other = ExactMatrix.from_entries(3, [(2, 0, 1), (0, 2, 3), (0, 1, 2)])
    assert one._data[0] == ((1, 2), (2, 3)) and other._data[0] == ((2, 3), (1, 2))
    assert one == other and other == one
    assert one != ExactMatrix.from_entries(3, [(0, 2, 2), (0, 1, 3), (2, 0, 1)])  # same columns, values swapped
    assert one != ExactMatrix.from_entries(3, [(0, 1, 2), (2, 0, 1)])  # a pair fewer
    assert one != ExactMatrix.from_entries(3, [(0, 1, 2), (0, 2, 3), (1, 0, 1)])  # another row


@pytest.mark.parametrize("family,rank,r", [("B", 1, 3), ("C", 2, 3), ("D", 3, 2), ("B", 3, 2)])
def test_lifted_generators_store_pair_rows_in_normal_form(family, rank, r):
    lt = LieType(family, rank)
    for rep in (tower_rep(lt, r), single_power_rep(lt, r), natural_rep(lt)):
        for g in rep.generator_lists():
            assert_normal_form(g)
    for g in natural_rep(lt).generator_lists():
        assert_normal_form(tensor_lift(g, r))


def test_shape_mismatch_raises_value_error():
    two, three = ExactMatrix.identity(2), ExactMatrix.identity(3)
    for bad in (
        lambda: three @ two,
        lambda: two @ three,
        lambda: three + two,
        lambda: two - three,
        lambda: two.bracket(three),
        lambda: two.bracket(two, three),
        lambda: three.bracket(three, two),
        lambda: algebra_closure([two, three]),
        lambda: ExactMatrix.from_dense([[1, 2, 0], [0, 1, 3]]),  # not square
        lambda: ExactMatrix.from_dense([[1, 2], [0, 1, 3]]),  # ragged
        lambda: ExactMatrix.from_dense([[1], [0]]),
    ):
        with pytest.raises(ValueError):
            bad()


def _kron(a, b):
    return ExactMatrix.from_entries(
        a.size * b.size,
        ((i * b.size + k, j * b.size + l, x * y) for i, j, x in a.iter_entries() for k, l, y in b.iter_entries()),
    )


def _kron_lift(X, degrees):
    """Block diagonal over the degrees s of sum_k I (x) X (x) I, from Kronecker products."""
    m = X.size
    entries, offset = [], 0
    for s in degrees:
        for k in range(s):
            term = _kron(_kron(ExactMatrix.identity(m**k), X), ExactMatrix.identity(m ** (s - 1 - k)))
            entries.extend((offset + i, offset + j, v) for i, j, v in term.iter_entries())
        offset += m**s
    return ExactMatrix.from_entries(offset, entries)


def test_kron_matches_blockwise_definition():
    rng = random.Random(5)
    a = ExactMatrix.from_dense(random_matrix(rng, 2))
    b = ExactMatrix.from_dense(random_matrix(rng, 3))
    k = _kron(a, b)
    for i, j in itertools.product(range(2), repeat=2):
        for p, q in itertools.product(range(3), repeat=2):
            assert k.entry(i * 3 + p, j * 3 + q) == a.entry(i, j) * b.entry(p, q)


@pytest.mark.parametrize(
    "family,rank,r", [("B", 1, 3), ("C", 1, 2), ("B", 2, 3), ("C", 2, 3), ("D", 2, 3), ("C", 3, 2), ("D", 3, 2)]
)
def test_tower_generators_match_kron_construction(family, rank, r):
    lt = LieType(family, rank)
    gens = natural_rep(lt)
    for rep in (tower_rep(lt, r), single_power_rep(lt, r)):
        degrees = [s for s, _, _ in rep.blocks]
        for g, lifted in zip(gens.e + gens.f + gens.h, rep.generator_lists()):
            assert lifted == _kron_lift(g, degrees)


def test_tensor_lift_of_a_dense_matrix_matches_kron_construction():
    rng = random.Random(11)
    X = ExactMatrix.from_dense(random_matrix(rng, 3))
    for r in (1, 2, 3):
        assert tensor_lift(X, r) == _kron_lift(X, [r])


@pytest.mark.parametrize(
    "bad",
    [Fraction(1, 2), Fraction(2, 2), 0.5, 1.0, True, False],
    ids=["fraction", "integral-fraction", "float", "integral-float", "true", "false"],
)
def test_entries_and_scalars_must_be_ints(bad):
    with pytest.raises(TypeError):
        ExactMatrix.from_entries(2, [(0, 1, bad)])
    with pytest.raises(TypeError):
        ExactMatrix.diag([1, bad])
    with pytest.raises(TypeError):
        ExactMatrix.unit(2, 0, 1, bad)
    with pytest.raises(TypeError):
        ExactMatrix.identity(2) * bad
    with pytest.raises(TypeError):
        bad * ExactMatrix.identity(2)


def test_entry_outside_the_shape_raises_even_when_zero():
    for i, j in ((5, 5), (2, 0), (0, 2), (-1, 0)):
        with pytest.raises(IndexError):
            ExactMatrix.from_entries(2, [(i, j, 0)])


def test_natural_rep_c2_cartan_diagonal():
    gens = natural_rep(LieType("C", 2))
    assert gens.h[0] == ExactMatrix.diag([1, 0, -1, 0])
    assert gens.h[1] == ExactMatrix.diag([0, 1, 0, -1])


def test_natural_rep_b2_last_commutator():
    gens = natural_rep(LieType("B", 2))
    comm = gens.e[1] @ gens.f[1] - gens.f[1] @ gens.e[1]
    assert comm == 2 * gens.h[1]


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
def test_natural_rep_commutator_targets(lt):
    gens = natural_rep(lt)
    n = lt.rank
    for i in range(n):
        comm = gens.e[i] @ gens.f[i] - gens.f[i] @ gens.e[i]
        if i < n - 1:
            assert comm == gens.h[i] - gens.h[i + 1]
        elif lt.family == "B":
            assert comm == 2 * gens.h[n - 1]
        elif lt.family == "C":
            assert comm == gens.h[n - 1]
        else:
            assert comm == gens.h[n - 2] + gens.h[n - 1]


def form_matrix(lt: LieType) -> ExactMatrix:
    """Gram matrix of the defining bilinear or symplectic form."""
    n = lt.rank
    items = [(i, n + i, 1) for i in range(n)]
    if lt.family == "C":
        items += [(n + i, i, -1) for i in range(n)]
    else:
        items += [(n + i, i, 1) for i in range(n)]
    if lt.family == "B":
        items.append((2 * n, 2 * n, 1))
    return ExactMatrix.from_entries(lt.natural_dim, items)


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
def test_natural_rep_preserves_form(lt):
    # infinitesimal invariance X^T M + M X = 0 of the form's Gram matrix M
    form = form_matrix(lt)
    for X in natural_rep(lt).generator_lists():
        assert (transpose(X) @ form + form @ X).is_zero()


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
def test_natural_rep_is_the_degree_one_power(lt):
    natural, power = natural_rep(lt), single_power_rep(lt, 1)
    for name in ("e", "f", "h", "weights", "dim", "blocks"):
        assert getattr(natural, name) == getattr(power, name), name
    assert (natural.r, natural.kind) == (1, "power")


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
def test_natural_weights_match_cartan_action(lt):
    gens = natural_rep(lt)
    base = natural_weights(lt)
    expected = {Weight.eps(lt.rank, i) for i in range(1, lt.rank + 1)}
    expected |= {-w for w in expected}
    if lt.family == "B":
        expected.add(Weight.zero(lt.rank))
    assert set(base) == expected
    for i, h in enumerate(gens.h):
        assert h == ExactMatrix.diag([w.coords[i] for w in base])


def test_tensor_lift_degree_one_is_identity_map():
    gens = natural_rep(LieType("C", 2))
    assert tensor_lift(gens.h[0], 1) == gens.h[0]
    with pytest.raises(ValueError):
        tensor_lift(gens.h[0], 0)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_tensor_lift_trace_scaling(r):
    m = 4
    h1 = natural_rep(LieType("C", 2)).h[0]
    e00 = ExactMatrix.unit(m, 0, 0)
    for X in (h1, e00):
        assert tensor_lift(X, r).trace() == r * m ** (r - 1) * X.trace()


def test_tensor_lift_eigenvalues_are_pairwise_sums():
    h1 = natural_rep(LieType("C", 2)).h[0]
    lifted = tensor_lift(h1, 2)
    assert lifted.is_diagonal()
    eig = sorted(lifted.diagonal())
    base = [1, 0, -1, 0]
    assert eig == sorted(a + b for a in base for b in base)


@pytest.mark.parametrize("lt", all_lie_types(2), ids=str)
def test_tensor_lift_commutes_with_bracket(lt):
    gens = natural_rep(lt)
    pairs = [(gens.e[0], gens.f[0]), (gens.e[-1], gens.f[-1]), (gens.e[0], gens.h[-1])]
    for X, Y in pairs:
        bracket = X @ Y - Y @ X
        lx, ly = tensor_lift(X, 2), tensor_lift(Y, 2)
        assert tensor_lift(bracket, 2) == lx @ ly - ly @ lx


@pytest.mark.parametrize("enabled", [True, False])
def test_tower_rep_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    # the lift pauses the cyclic garbage collector while it makes its rows, and restores its prior state
    seen = []
    real = replinalg.indices
    monkeypatch.setattr(replinalg, "indices", lambda n: seen.append(gc.isenabled()) or real(n))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        tower_rep(LieType("B", 2), 2)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)


def test_tower_dimensions():
    assert tower_rep(LieType("B", 2), 2).dim == 31
    assert tower_rep(LieType("C", 1), 2).dim == 5
    assert tower_rep(LieType("C", 2), 3).dim == 68
    # blocks ascend by degree
    assert tower_rep(LieType("B", 2), 2).blocks == ((0, 0, 1), (1, 1, 5), (2, 6, 25))
    assert tower_rep(LieType("C", 2), 3).blocks == ((1, 0, 4), (3, 4, 64))


@pytest.mark.parametrize("lt", all_lie_types(2), ids=str)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_tower_weights_are_sums_with_multiplicity(lt, r):
    rep = tower_rep(lt, r)
    base = natural_weights(lt)
    expected = Counter()
    for s, _, _ in rep.blocks:
        for combo in itertools.product(base, repeat=s):
            total = Weight.zero(lt.rank)
            for w in combo:
                total = total + w
            expected[total] += 1
    assert Counter(rep.weights) == expected
    assert set(rep.weights) == tensor_weights_Pi(lt, r).as_set()


@pytest.mark.parametrize("lt", all_lie_types(2), ids=str)
def test_tower_cartan_operators_are_weight_diagonals(lt):
    rep = tower_rep(lt, 2)
    for i, h in enumerate(rep.h):
        assert h == ExactMatrix.diag([w.coords[i] for w in rep.weights])


def test_single_power_rep_shape():
    rep = single_power_rep(LieType("B", 2), 2)
    assert rep.dim == 25
    assert rep.blocks == ((2, 0, 25),)


def _roots_are_minimal(M, roots):
    """True iff the monic polynomial with these distinct roots is the diagonal M's minimal polynomial.

    It must annihilate M, and no product with one root dropped may: every
    proper monic divisor of a product of distinct linear factors divides
    one of those.
    """
    assert len(set(roots)) == len(roots)
    assert M.is_diagonal()
    diagonal = M.diagonal()
    if not product_of_shifts(diagonal, roots).is_zero():
        return False
    return all(not product_of_shifts(diagonal, [s for s in roots if s != k]).is_zero() for k in roots)


def test_minimal_polynomial_examples():
    assert _roots_are_minimal(ExactMatrix.identity(3), (1,))
    h1 = tensor_lift(natural_rep(LieType("C", 2)).h[0], 2)
    assert _roots_are_minimal(h1, (-2, -1, 0, 1, 2))
    assert _roots_are_minimal(ExactMatrix.zeros(2), (0,))


def test_minimal_polynomial_of_signed_sum_divides_even_window():
    gens = natural_rep(LieType("C", 2))
    j = tensor_lift(gens.h[0] + gens.h[1], 2)
    assert _roots_are_minimal(j, (-2, 0, 2))
    assert not _roots_are_minimal(j, (-2, -1, 0, 1, 2))


def test_minimal_polynomial_degree_for_diagonal():
    d = ExactMatrix.diag([3, 3, 1, -2])
    assert _roots_are_minimal(d, (3, 1, -2))
    assert not _roots_are_minimal(d, (3, 1))  # a dropped root no longer annihilates
    assert not _roots_are_minimal(d, (3, 1, -2, 0))  # an extra root is not needed


def _dense_roots_are_minimal(M, roots):
    """`_roots_are_minimal` for any M, by the dense shift products of `_dense_shift_product`."""
    assert len(set(roots)) == len(roots)
    is_zero = lambda shifts: not any(map(any, _dense_shift_product(dense(M), shifts)))
    return is_zero(roots) and not any(is_zero([s for s in roots if s != k]) for k in roots)


def test_minimal_polynomial_non_diagonal():
    gens = natural_rep(LieType("C", 2))
    s = gens.e[0] + gens.f[0]
    assert _dense_roots_are_minimal(s, (-1, 1))
    assert _dense_roots_are_minimal(tensor_lift(s, 2), (-2, 0, 2))
    assert not _dense_roots_are_minimal(tensor_lift(s, 2), (-2, -1, 0, 1, 2))


def _criterion_1_carriers():
    for family in "BCD":
        for rank in range(2 if family == "D" else 1, 4):
            for r in (1, 2, 3):
                yield family, rank, r


@pytest.mark.parametrize("family,rank,r", list(_criterion_1_carriers()))
def test_annihilator_roots_are_minimal_on_tower_carriers(family, rank, r):
    """P1 is the minimal polynomial of every H_i, and the signed-sum roots of every J.

    The exception is C1: its H_1 is itself a signed sum, whose eigenvalues
    on the tower all have the parity of r, so P2 is minimal there instead.
    """
    rep = tower_rep(LieType(family, rank), r)
    for hi in rep.h:
        if (family, rank) == ("C", 1):
            assert not _roots_are_minimal(hi, p1(r))
            assert _roots_are_minimal(hi, p2(r))
        else:
            assert _roots_are_minimal(hi, p1(r))
    signed = annihilator_for_signed_sums(family, r)
    for signs in itertools.product((1, -1), repeat=rank):
        j = ExactMatrix.zeros(rep.dim)
        for sign, hi in zip(signs, rep.h):
            j = j + sign * hi
        assert _roots_are_minimal(j, signed), signs


def _span_of(vectors):
    """A row span with the dense integer vectors inserted in order, each stored row checked.

    A stored row holds no zero, is primitive with a positive entry at its
    pivot (its first column), and is zero at the pivots stored before it.
    """
    span, pivots = _RowSpan(), []
    for values in vectors:
        row = span.insert({j: v for j, v in enumerate(values) if v})
        if row is not None:
            pivot = min(row)
            assert 0 not in row.values() and row[pivot] > 0 and math.gcd(*row.values()) == 1, row
            assert not any(p in row for p in pivots), (row, pivots)
            pivots.append(pivot)
    assert span.dimension == len(pivots)
    return span


def test_row_span_exactness_with_huge_entries():
    span = _RowSpan()
    assert span.insert({0: 2**70, 2: 1}) == {0: 2**70, 2: 1}
    assert span.insert({1: 1}) == {1: 1}
    assert span.insert({0: 2**71, 1: 1, 2: 2}) is None  # 2*first + second: dependent
    assert span.dimension == 2


def test_row_span_canonical_form():
    a = _span_of(([1, 2, 3], [0, 0, 2]))
    b = _span_of(([1, 2, 5], [2, 4, -2]))
    assert a.canonical_rows() == b.canonical_rows() == (((0, 1), (1, 2)), ((2, 1),))


def test_algebra_closure_identity_only():
    res = algebra_closure([ExactMatrix.identity(4)])
    assert res.dimension == 1


@pytest.mark.parametrize(
    "family,rank,r",
    [("C", 1, 2), ("C", 2, 2), ("D", 2, 2), ("B", 1, 2)],
)
def test_algebra_closure_tower_dimension_matches_dimension_sums(family, rank, r):
    lt = LieType(family, rank)
    rs = build_root_system(lt)
    rep = tower_rep(lt, r)
    expected = sum(weyl_dimension(rs, lam) ** 2 for lam in tensor_dominant_pi(lt, r))
    res = algebra_closure(rep.generator_lists())
    assert res.dimension == expected


IMPORT_HYGIENE = """
import io, json, os, sys, types
import schurkit.cli

LAYERS = ("rootdata", "weightsets", "replinalg", "idempotents", "presentation", "closure", "decomposition", "pathmodel")


def executed():
    # a lazily registered module becomes a plain module when it executes
    return [name for name in LAYERS if type(sys.modules["schurkit." + name]) is types.ModuleType]


doc = {
    "machinery": [name for name in ("dataclasses", "inspect") if name in sys.modules],
    "registered": [name for name in LAYERS if "schurkit." + name in sys.modules],
    "after_import": executed(),
}
os.environ["SCHURKIT_MAX_DIM"] = "-5"
doc["bad_cap"] = schurkit.cli.run(["weights", "C", "2", "1"], stdout=io.StringIO(), stderr=io.StringIO())
del os.environ["SCHURKIT_MAX_DIM"]
doc["after_bad_cap"] = executed()
schurkit.cli.run(["compare", "C", "2", "2"], stdout=io.StringIO())
doc["after_compare"] = executed()
from schurkit.replinalg import algebra_closure, tower_rep
from schurkit.rootdata import LieType
doc["closure_dim"] = algebra_closure(tower_rep(LieType("C", 2), 2).generator_lists()).dimension
for name in schurkit.__all__:
    getattr(schurkit, name)
doc["after_all"] = executed()
doc["late"] = [name for name in ("numpy", "dataclasses", "inspect") if name in sys.modules]
print(json.dumps(doc))
"""


def test_no_module_loads_numpy():
    """A fresh interpreter: the import contract of `schurkit.cli`, then no numpy once every layer has run.

    `import schurkit.cli` registers the eight layers and executes only
    `rootdata`, without `dataclasses` or `inspect`; refusing a bad
    SCHURKIT_MAX_DIM executes no layer, and `compare C 2 2` adds only the
    layers it calls into.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_HYGIENE], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    layers = ["rootdata", "weightsets", "replinalg", "idempotents", "presentation", "closure", "decomposition", "pathmodel"]
    assert doc["machinery"] == []
    assert doc["registered"] == layers
    assert doc["after_import"] == ["rootdata"]
    assert doc["bad_cap"] == 2 and doc["after_bad_cap"] == ["rootdata"]
    assert doc["after_compare"] == ["rootdata", "weightsets", "decomposition"]
    assert doc["after_all"] == layers
    lt = LieType("C", 2)
    rs = build_root_system(lt)
    expected = sum(weyl_dimension(rs, lam) ** 2 for lam in tensor_dominant_pi(lt, 2))
    assert doc["closure_dim"] == expected
    assert doc["late"] == []


def test_algebra_closure_generator_order_invariance():
    rep = tower_rep(LieType("C", 1), 2)
    gens = rep.generator_lists()
    forward = algebra_closure(gens)
    backward = algebra_closure(list(reversed(gens)))
    assert forward.dimension == backward.dimension
    assert forward.canonical_rows() == backward.canonical_rows()


_CLOSURE_CARRIERS = [("B", 1), ("B", 2), ("C", 1), ("C", 2), ("D", 2), ("D", 3)]


@functools.lru_cache(maxsize=None)
def _closure_reference(family, rank, r):
    """The tower's generators and the canonical rows of the algebra they generate, in the generators' own order."""
    gens = tower_rep(LieType(family, rank), r).generator_lists()
    return gens, algebra_closure(gens).canonical_rows()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_CLOSURE_CARRIERS), st.integers(1, 2), st.data())
def test_algebra_closure_canonical_rows_do_not_depend_on_generator_order(carrier, r, data):
    gens, expected = _closure_reference(*carrier, r)
    shuffled = data.draw(st.permutations(gens))
    assert algebra_closure(shuffled).canonical_rows() == expected


def _flat(m):
    """Row-major entries of an exact matrix as Fractions."""
    flat = [Fraction(0)] * (m.size * m.size)
    for i, j, v in m.iter_entries():
        flat[i * m.size + j] = Fraction(v)
    return flat


def _in_span(rows, vec):
    """Exact membership of vec in the row space of sparse (index, value) rows (sympy rank)."""
    dense = []
    for row in rows:
        flat = [0] * len(vec)
        for j, v in row:
            flat[j] = v
        dense.append(flat)
    return sympy.Matrix(dense).rank() == sympy.Matrix(dense + [vec]).rank()


def test_algebra_closure_contains_products():
    rep = tower_rep(LieType("C", 1), 2)
    basis = algebra_closure(rep.generator_lists()).canonical_rows()
    word = rep.e[0] @ rep.f[0] @ rep.e[0]
    assert _in_span(basis, _flat(word))
    probe = ExactMatrix.unit(rep.dim, 0, rep.dim - 1)
    assert not _in_span(basis, _flat(probe))


# ---------------------------------------------------------------------------
# Ungraded reference closure: words in the generators, Fraction elimination,
# sympy's rref for the canonical form.  It shares no code with _RowSpan.


def _sympy_canonical_rows(vectors):
    """Nonzero rows of sympy's rref, each scaled to a primitive integer vector, as (index, value) pairs."""
    reduced, pivots = sympy.Matrix(vectors).rref()
    out = []
    for k in range(len(pivots)):
        row = [Fraction(int(x.p), int(x.q)) for x in reduced.row(k)]
        scale = math.lcm(*(x.denominator for x in row))
        ints = [int(x * scale) for x in row]
        g = math.gcd(*ints)
        out.append(tuple((j, x // g) for j, x in enumerate(ints) if x))
    return tuple(out)


def test_row_span_matches_sympy_rref():
    rng = random.Random(11)
    for _ in range(40):
        vectors = [[rng.randint(-3, 3) * rng.randint(0, 1) for _ in range(7)] for _ in range(rng.randint(1, 5))]
        vectors.append([rng.randint(-3, 3) * 2**64 + rng.randint(-3, 3) for _ in range(7)])  # entries past 2**63
        vectors.append([sum(v[j] for v in vectors) for j in range(7)])  # always one dependent vector
        expected = _sympy_canonical_rows(vectors)
        for _ in range(2):
            rng.shuffle(vectors)
            assert _span_of(vectors).canonical_rows() == expected


def _matmul(a, b):
    """Product of sparse matrices stored as {(i, j): Fraction}."""
    b_rows = {}
    for (k, j), y in b.items():
        b_rows.setdefault(k, []).append((j, y))
    out = {}
    for (i, k), x in a.items():
        for j, y in b_rows.get(k, ()):
            out[i, j] = out.get((i, j), 0) + x * y
    return {key: v for key, v in out.items() if v}


def _reference_canonical_rows(mats, rows=None):
    """The canonical rows of the algebra the matrices generate, or, given `rows`, of its restriction to those rows."""
    size = mats[0].size
    gens = [{(i, j): Fraction(v) for i, j, v in m.iter_entries()} for m in mats]
    echelon = {}  # pivot -> sparse row, 1 at the pivot and nothing before it
    accepted = []

    def independent(word):
        vec = {i * size + j: v for (i, j), v in word.items()}
        for piv in sorted(echelon):
            c = vec.get(piv)
            if c:
                for k, x in echelon[piv].items():
                    vec[k] = vec.get(k, 0) - c * x
                vec = {k: x for k, x in vec.items() if x}
        if not vec:
            return False
        piv = min(vec)
        echelon[piv] = {k: x / vec[piv] for k, x in vec.items()}
        accepted.append([word.get((k // size, k % size), 0) for k in range(size * size)])
        return True

    identity = {(i, i): Fraction(1) for i in range(size)}
    queue = [w for w in [identity] + gens if independent(w)]
    for word in queue:
        for g in gens:
            for prod in (_matmul(word, g), _matmul(g, word)):
                if independent(prod):
                    queue.append(prod)
    if rows is not None:
        kept = set(rows)
        accepted = [[x if k // size in kept else 0 for k, x in enumerate(vec)] for vec in accepted]
    return _sympy_canonical_rows(accepted)


def _no_diagonal_member():
    rep = tower_rep(LieType("C", 1), 2)
    return [rep.e[0], rep.f[0]]


def _repeated_eigenvalue():
    d = ExactMatrix.diag([1, -2, 1, 0])
    n = ExactMatrix.from_entries(4, [(0, 1, 1), (1, 2, 3), (2, 0, -1), (3, 3, 1)])
    return [d, n]


def _entries_past_int64():
    d = ExactMatrix.diag([1, 1, 2])
    n = ExactMatrix.from_entries(3, [(0, 1, 2**40), (1, 0, 3**30), (1, 2, 5), (2, 0, 1)])
    return [d, n]


def _projector_generators(family, rank, r):
    rep = tower_rep(LieType(family, rank), r)
    return list(rep.e) + list(rep.f) + list(build_idempotents(rep).table.values())


@pytest.mark.parametrize(
    "gens",
    [
        lambda: tower_rep(LieType("C", 1), 2).generator_lists(),
        lambda: tower_rep(LieType("B", 1), 2).generator_lists(),
        lambda: single_power_rep(LieType("D", 2), 2).generator_lists(),
        lambda: _projector_generators("B", 1, 2),
        _no_diagonal_member,
        _repeated_eigenvalue,
        _entries_past_int64,
    ],
    ids=[
        "C1-tower",
        "B1-tower",
        "D2-power",
        "B1-projectors",
        "no-diagonal",
        "repeated-eigenvalue",
        "past-int64",
    ],
)
def test_algebra_closure_matches_ungraded_reference(gens):
    mats = gens()
    expected = _reference_canonical_rows(mats)
    res = algebra_closure(mats)
    assert res.dimension == len(expected)
    assert res.canonical_rows() == expected
    assert all(v != 0 for row in res.canonical_rows() for _, v in row)
    assert algebra_closure(list(reversed(mats))).canonical_rows() == expected
    # seeded at a row subset: none of the first index's class, or every other row where there is one class
    diagonals = [m.diagonal() for m in mats if m.is_diagonal()]
    label = lambda i: tuple(d[i] for d in diagonals)
    rows = [i for i in range(mats[0].size) if label(i) != label(0)] or list(range(1, mats[0].size, 2))
    expected = _reference_canonical_rows(mats, rows)
    res = algebra_closure(mats, rows)
    assert 0 < res.dimension == len(expected)
    assert res.canonical_rows() == expected
    pieces = res.piece_dimensions()
    assert sum(pieces.values()) == res.dimension
    assert all(0 not in coords for coords, _ in pieces) or not diagonals
    # each piece's dimension counts the reference rows whose pivot lies in it
    size = mats[0].size
    by_pivot = Counter((label(k // size), label(k % size)) for ((k, _), *_) in expected)
    assert {(label(c[0]), label(d[0])): n for (c, d), n in pieces.items()} == dict(by_pivot)


def test_carrier_cap():
    with pytest.raises(CapExceeded):
        tower_rep(LieType("B", 2), 5)
    rep = tower_rep(LieType("B", 2), 5, max_dim=4000)
    assert rep.dim == 3906


def test_carrier_cap_env(monkeypatch):
    monkeypatch.setenv("SCHURKIT_MAX_DIM", "10")
    with pytest.raises(CapExceeded):
        tower_rep(LieType("C", 2), 2)



def _keys_shared(data):
    """Every row key and column key of a {row: {column: value}} store is the shared list's own int."""
    ix = indices(0)
    return all(ix[a] is a and all(ix[b] is b for b in row) for a, row in data.items())


def _matrix_keys_shared(m):
    """Every row key of a matrix, and the column int of each of its (column, value) pairs, is the shared int."""
    ix = indices(0)
    return all(ix[a] is a and all(ix[b] is b for b, _ in row) for a, row in m._data.items())


@pytest.mark.parametrize("family, rank", [("B", 3), ("C", 3), ("D", 3)])
def test_tower_keys_and_weights_are_shared_objects(family, rank):
    rep = tower_rep(LieType(family, rank), 4)
    ix = indices(rep.dim)
    assert all(_matrix_keys_shared(x) for x in rep.e + rep.f + rep.h + (ExactMatrix.identity(rep.dim),))
    maps = _place_maps(rep)
    assert len(maps) == 2
    assert all(a is ix[a] for p in maps for a in p)
    assert all(a is ix[a] for a in orbit_rows(rep))
    table = build_idempotents(rep).table
    assert all(_matrix_keys_shared(m) for m in table.values())
    assert sum(m.nnz for m in table.values()) == rep.dim
    # one Weight object per distinct weight of the carrier
    assert len({id(w) for w in rep.weights}) == len(set(rep.weights)) < rep.dim


def test_closure_without_diagonal_generators_grows_the_shared_list_only_to_its_columns():
    """One class of all `size` coordinates, whose local columns run row-major over size^2.

    Seeded at row 1 alone, the seed and every product lie in local columns
    below 2 * size, and the shared list grows no further.
    """
    rep = tower_rep(LieType("B", 3), 4)
    before = len(indices(0))
    res = algebra_closure(rep.e + rep.f, rows=[1])  # the first basis vector of the natural module's block
    assert res.dimension == 7  # row 1 of End(V): the natural module is simple
    assert len(indices(0)) <= max(before, 2 * rep.dim) < rep.dim**2
    for _, _, span in res._pieces:
        assert all(_keys_shared({p: row}) for p, row in span._rows.items())
