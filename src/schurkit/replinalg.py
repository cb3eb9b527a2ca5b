"""Exact integer matrices and concrete realizations on tensor powers.

Every matrix is a square operator on one carrier, the natural module or a
tower of its tensor powers, with dense semantics (one fixed size,
entrywise exact equality) over a sparse store: a dict from each nonzero
row index to the row as an immutable tuple of (column, value) pairs, in
no fixed column order, with no zero value, no repeated column and no
empty row.  The operators handled here - Chevalley generators lifted to
tensor powers, weight projectors, their products - are overwhelmingly
sparse, a row of a lifted generator holds one or two entries, and a tuple
of pairs stores such a row in well under the space of a dict.  Every
operator identity checked here has integer coefficients, so entries and
scalars are Python ints (unbounded, never floats, bools or Fractions); any
other entry or scalar raises TypeError.

Products, sums, scalar multiples and brackets run one row-wise kernel
that adds up sum c*(x @ y) + sum c*x one output row at a time, so a
residual x@y - y@x - t takes one pass and no intermediate matrix.  The
kernel and `ExactMatrix.bracket` take an optional list of rows and then
form those rows only.

Cartan operators and weight projectors are diagonal on the weight basis
of every carrier.  Two places use that.  `product_of_shifts` (and
`shift_products`, its list of values) takes the diagonal values of an
operator, which its caller has read off once, and multiplies out each
distinct value once.  `diagonal_index` lists, per index, the matrices of
a table of diagonals that hold it, and a table matrix that is not
diagonal is a failed check (ArithmeticError).  The algebra closure grades
by the diagonal generators.

The permutations of the tensor places of a tower block commute with the
lifted generators.  `orbit_rows`, the one place gate, lists one basis
index per orbit, and gives None where an operator it is given is not fixed
by those permutations (entry lookups decide): an operator built from fixed
ones is zero exactly when its orbit rows are.

The module also provides the carriers - the natural module as the
degree-1 carrier, and the tower (a direct sum of tensor powers of the
natural module on which the whole family of simple modules with dominant
weights in pi is realized) - and the span-closure computation that
measures the dimension of a generated operator algebra.

The closure is graded: the diagonal generators split the coordinates into
classes c of equal joint eigenvalue, and each piece 1_c A 1_c' of the
algebra A is spanned apart, so its canonical rows do not depend on the
grading (`algebra_closure`).  Seeded at a list of rows, it spans the
restriction of A to them, as row a of X g reads row a of X alone.
`ClosureResult.piece_dimensions(rows)` gives each piece's dimension, cut
to further rows.

The closure runs on the same ints as the matrices: its rows are
{column: int} dicts, reduced fraction-free and kept primitive, so no entry
bound is ever checked and no other number type is ever needed.

Every basis index stored here is one int object: entry i of a single
shared list, which `indices(n)` grows on demand to the largest index asked
for and never sizes from size^2.  The row keys and the columns in the row
pairs of the lifted generators, `identity` and every diagonal built here,
the orbit rows, the place maps, the projector table and the closure's
local columns all take their ints from it.  CPython caches only the ints
-5..256, so otherwise each operator would hold its own copy of every index
(1.0 of the 3.7 MiB that the B3 r=4 tower's generators would then hold),
and a lookup of one operator's row key in another's dict would compare the
two ints by value; a shared index is stored once, and the lookup matches
it by identity, the dict's fast path.  The carrier's weights are shared
the same way: one `Weight` per distinct weight.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import math

from .rootdata import CapExceeded, LieType, Weight, resolve_max_dim
from .weightsets import tensor_degrees

_INDEX = []  # _INDEX[i] is i: the one int object that every basis-index key refers to


def indices(n):
    """The shared list of basis-index ints, grown on demand to at least n entries; entry i is i."""
    if len(_INDEX) < n:
        _INDEX.extend(range(len(_INDEX), n))
    return _INDEX


def _int_entry(v):
    # type(), not isinstance: bool is an int subclass and is refused too
    if type(v) is not int:
        raise TypeError(f"ExactMatrix entries are ints, got {type(v).__name__} {v!r}")
    return v


class ExactMatrix:
    """Immutable sparse square integer matrix; equality is entrywise and exact.

    Every operator here acts on one carrier, so a matrix has a single
    `size`.  Entries are ints only: `from_entries`, `diag` and `unit` raise
    TypeError on any other value, and `*` takes only int scalars.

    `_data` maps each nonzero row index i to the row as a tuple of its
    (column, value) pairs, in no fixed column order.  Every constructor and
    kernel here keeps one normal form, which `==` and `is_zero` rely on: no
    zero value, no repeated column and no empty row.
    """

    __slots__ = ("size", "_data")

    def __init__(self, size, data):
        self.size = size
        self._data = data

    @classmethod
    def from_entries(cls, size, items):
        rows = {}
        for i, j, v in items:
            if not (0 <= i < size and 0 <= j < size):
                raise IndexError(f"entry ({i},{j}) outside {size}x{size}")
            _int_entry(v)
            row = rows.setdefault(i, {})
            row[j] = row.get(j, 0) + v
        data = {i: tuple([p for p in row.items() if p[1]]) for i, row in rows.items()}
        return cls(size, {i: row for i, row in data.items() if row})

    @classmethod
    def from_dense(cls, dense):
        size = len(dense)
        if any(len(r) != size for r in dense):
            raise ValueError(f"from_dense needs a square list of rows, got row lengths {[len(r) for r in dense]}")
        return cls.from_entries(size, ((i, j, v) for i, r in enumerate(dense) for j, v in enumerate(r)))

    @classmethod
    def zeros(cls, size):
        return cls(size, {})

    @classmethod
    def identity(cls, n):
        return cls._diag([1] * n)

    @classmethod
    def diag(cls, values):
        return cls._diag([_int_entry(v) for v in values])

    @classmethod
    def _diag(cls, values):
        """`diag` of int values the caller made itself, without checking each one again."""
        return cls._diag_at(len(values), zip(indices(len(values)), values))

    @classmethod
    def _diag_at(cls, size, items):
        """The diagonal matrix with value v at (i, i) for each (i, v) in items; zero values are not stored.

        The caller makes the ints itself, each i a distinct index below
        size (the shared int, so that the rows share their keys), and none
        is checked again.
        """
        return cls(size, {i: ((i, v),) for i, v in items if v})

    @classmethod
    def unit(cls, m, i, j, value=1):
        """The elementary matrix with a single entry at (i, j), 0-based."""
        return cls.from_entries(m, [(i, j, value)])

    def entry(self, i, j):
        for k, v in self._data.get(i, ()):
            if k == j:
                return v
        return 0

    @property
    def nnz(self):
        return sum(map(len, self._data.values()))

    def iter_entries(self):
        data = self._data
        for i in sorted(data):
            for j, v in sorted(data[i]):  # no repeated column: the pairs sort by column
                yield i, j, v

    def is_zero(self):
        return not self._data

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.size != other.size:
            return False
        mine, theirs = self._data, other._data
        if mine.keys() != theirs.keys():
            return False
        # rows in one column order compare as tuples; a row stores each column once, so dict() is entrywise
        return all(row == theirs[i] or dict(row) == dict(theirs[i]) for i, row in mine.items())

    __hash__ = None

    def __add__(self, other):
        self._check_size(other)
        return _combine(self.size, (), ((1, self), (1, other)))

    def __neg__(self):
        return -1 * self

    def __sub__(self, other):
        self._check_size(other)
        return _combine(self.size, (), ((1, self), (-1, other)))

    def __mul__(self, scalar):
        if type(scalar) is not int:
            return NotImplemented
        return _combine(self.size, (), ((scalar, self),))

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check_size(other)
        return _combine(self.size, ((1, self, other),))

    def bracket(self, other, minus=None, rows=None):
        """self @ other - other @ self - minus (minus defaults to zero), in one pass; only `rows`, if given."""
        terms = () if minus is None else ((-1, minus),)
        for _, m in ((1, other),) + terms:
            self._check_size(m)
        return _combine(self.size, ((1, self, other), (-1, other, self)), terms, rows)

    def trace(self):
        return sum(v for i, row in self._data.items() for j, v in row if j == i)

    def diagonal(self):
        out = [0] * self.size
        for i, row in self._data.items():
            for j, v in row:
                if j == i:
                    out[i] = v
                    break
        return out

    def is_diagonal(self):
        return all(len(row) == 1 and row[0][0] == i for i, row in self._data.items())

    def max_abs_with_location(self):
        """(abs value, row, col, value) of the largest-magnitude entry."""
        best = None
        for i, j, v in self.iter_entries():
            if best is None or abs(v) > best[0]:
                best = (abs(v), i, j, v)
        return best

    def _check_size(self, other):
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")

    def __repr__(self):
        return f"ExactMatrix({self.size}x{self.size}, nnz={self.nnz})"


def _combine(size, products, terms=(), rows=None):
    """sum c * (x @ y) over products (c, x, y) plus sum c * x over terms (c, x).

    Sizes are the caller's to check.  Row i draws only on the rows i of the
    left factors x.  The rows formed are those the left factors store, each
    visited once, or only the given `rows`, whose other rows are left out of
    the result.  One dict, cleared after each row, accumulates it, and its
    nonzero (column, value) pairs become the row, if there are any: no
    stored zero, no repeated column and no empty row, as `==` and `is_zero`
    need.
    """
    if rows is None:
        rows = set().union(*(x._data for _, x, _ in products), *(x._data for _, x in terms))
    products = [(c, x._data, y._data) for c, x, y in products]
    terms = [(c, x._data) for c, x in terms]
    out, acc = {}, {}
    get = acc.get
    for i in rows:
        for c, xdata, ydata in products:
            row = xdata.get(i)
            if row is not None:
                for k, a in row:
                    yrow = ydata.get(k)
                    if yrow is not None:
                        a *= c
                        for j, b in yrow:
                            acc[j] = get(j, 0) + a * b
        for c, xdata in terms:
            row = xdata.get(i)
            if row is not None:
                for j, v in row:
                    acc[j] = get(j, 0) + c * v
        if acc:
            row = tuple([p for p in acc.items() if p[1]]) if 0 in acc.values() else tuple(acc.items())
            if row:
                out[i] = row
            acc.clear()
    return ExactMatrix(size, out)


def shift_products(diagonal, shifts):
    """The values prod_s (m - s) over the diagonal values m, each distinct m multiplied out once."""
    value = {m: math.prod(m - s for s in shifts) for m in set(diagonal)}
    return [value[m] for m in diagonal]


def product_of_shifts(diagonal, shifts):
    """Product over s in shifts of (M - s*I) for the diagonal M with these diagonal values.

    The result is the diagonal of the products prod_s (m_ii - s), formed
    once per distinct diagonal value; zero products are not stored.  The
    caller reads the values off a carrier's Cartan operators, which are
    diagonal on its weight basis, and checks that they are; the values are
    then ints by construction and are not validated again.
    """
    return ExactMatrix._diag(shift_products(diagonal, shifts))


def diagonal_index(table):
    """j -> [(table position, entry at j)] over a table of diagonal matrices.

    The table holds weight projectors, which are diagonal on the weight
    basis of every carrier; a matrix that is not is a failed check and
    raises ArithmeticError naming its key.
    """
    holders = {}
    for n, (key, m) in enumerate(table.items()):
        if not m.is_diagonal():
            raise ArithmeticError(f"projector {key!r} not diagonal on the weight basis")
        for j, ((_, v),) in m._data.items():
            holders.setdefault(j, []).append((n, v))
    return holders


# ---------------------------------------------------------------------------
# Chevalley generators on the natural module


def natural_weights(lt: LieType):
    """Weight of each standard basis vector of the natural module."""
    n = lt.rank
    out = [Weight.eps(n, i + 1) for i in range(n)]
    out += [-Weight.eps(n, i + 1) for i in range(n)]
    if lt.family == "B":
        out.append(Weight.zero(n))
    return out


def natural_rep(lt: LieType) -> Representation:
    """The natural module as the degree-1 carrier: simple root vectors e_i, f_i and Cartan elements H_i.

    H_i has +1 at position i and -1 at position n+i.  For i < n the root
    vectors are shared by all three families; the last one depends on the
    family and is normalized so that [e_n, f_n] equals 2H_n in type B,
    H_n in type C, and H_{n-1} + H_n in type D.
    """
    n, m = lt.rank, lt.natural_dim
    E = lambda i, j, v=1: ExactMatrix.unit(m, i, j, v)
    es, fs = [], []
    for i in range(1, n):
        es.append(E(i - 1, i) - E(n + i, n + i - 1))
        fs.append(E(i, i - 1) - E(n + i - 1, n + i))
    if lt.family == "B":
        es.append(E(n - 1, 2 * n) - E(2 * n, 2 * n - 1))
        fs.append(E(2 * n, n - 1, 2) - E(2 * n - 1, 2 * n, 2))
    elif lt.family == "C":
        es.append(E(n - 1, 2 * n - 1))
        fs.append(E(2 * n - 1, n - 1))
    else:
        es.append(E(n - 2, 2 * n - 1) - E(n - 1, 2 * n - 2))
        fs.append(E(2 * n - 1, n - 2) - E(2 * n - 2, n - 1))
    hs = [E(i, i) - E(n + i, n + i) for i in range(n)]
    return Representation(
        lie_type=lt,
        r=1,
        e=tuple(es),
        f=tuple(fs),
        h=tuple(hs),
        dim=m,
        weights=tuple(natural_weights(lt)),
        blocks=((1, 0, m),),
        kind="power",
    )


# ---------------------------------------------------------------------------
# Tensor lifts and tower carriers


def _lift_rows(X: ExactMatrix, blocks):
    """The rows of sum_k I^(x)k (x) X (x) I^(x)(s-1-k) on each block (power s, offset, size) of a carrier.

    Basis vector b of the power has s base-m digits, the first most
    significant.  Term k acts on digit k alone, which has weight m^(s-1-k):
    X[i, j] maps each vector with digit j there to the one with digit i.
    X's entries are ints already, and every index lies in its block, so the
    entries are written into the rows as they are.  An off-diagonal entry
    changes one digit, so no two of them meet.  The diagonal terms of all
    places meet on each index: its value is the sum of X's diagonal values
    at its digits, and a zero sum is not stored.  Each row grows by one
    (column, value) pair per entry and never repeats a column.  The rows and
    pairs are tuples, which the cyclic garbage collector tracks and would run
    on once per ~700 made: it is paused while they are made and then left as
    it was found, and its next runs scan the kept ones and stop tracking
    them, as they hold only ints.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        m = X.size
        off = [(i, j, v) for i, j, v in X.iter_entries() if i != j]
        on = X.diagonal()
        ix = indices(sum(size for _, _, size in blocks))
        data = {}
        for s, offset, size in blocks:
            for k in range(s):
                stride = m ** (s - 1 - k)
                for high in range(offset, offset + size, m * stride):
                    for i, j, v in off:
                        row, col = high + i * stride, high + j * stride
                        for a, b in zip(ix[row : row + stride], ix[col : col + stride]):
                            stored = data.get(a)
                            data[a] = ((b, v),) if stored is None else stored + ((b, v),)
            if any(on):
                sums = [0]
                for _ in range(s):
                    sums = [t + v for t in sums for v in on]  # one more digit, the least significant
                for b, v in zip(ix[offset : offset + size], sums):
                    if v:
                        stored = data.get(b)
                        data[b] = ((b, v),) if stored is None else stored + ((b, v),)
        return data
    finally:
        if enabled:
            gc.enable()


def tensor_lift(X: ExactMatrix, r: int) -> ExactMatrix:
    """Derivation action of X on the r-th tensor power of its column space."""
    if r < 1:
        raise ValueError("tensor_lift needs r >= 1")
    size = X.size**r
    return ExactMatrix(size, _lift_rows(X, ((r, 0, size),)))


class Representation:
    """Generators realized on a direct sum of tensor powers, with weights.

    `blocks` lists (power s, offset, size) for each summand; `weights[b]`
    is the simultaneous H-eigenvalue vector of basis vector b.
    """

    __slots__ = ("lie_type", "r", "e", "f", "h", "dim", "weights", "blocks", "kind")

    def __init__(self, lie_type, r, e, f, h, dim, weights, blocks, kind):
        self.lie_type = lie_type
        self.r = r
        self.e = e
        self.f = f
        self.h = h
        self.dim = dim
        self.weights = weights
        self.blocks = blocks
        self.kind = kind

    @property
    def rank(self):
        return self.lie_type.rank

    def generator_lists(self):
        return list(self.e) + list(self.f) + list(self.h)


def _build_rep(lt: LieType, r: int, degrees, kind, max_dim=None):
    m = lt.natural_dim
    cap = resolve_max_dim(max_dim)
    dim = sum(m**s for s in degrees)
    if dim > cap:
        raise CapExceeded(f"carrier dimension {dim} exceeds cap {cap} for {lt}, r={r}")
    natural = natural_rep(lt)
    # layer s lists the weights of the s-th power in basis order: digit 0 is the most significant;
    # each sum w + b is formed once per distinct w, and each distinct weight is one object
    layer = [Weight.zero(lt.rank)]
    distinct = {layer[0]: layer[0]}
    weights = []
    blocks = []
    offset = 0
    for s in range(max(degrees) + 1):
        if s:
            step = {}
            for w in dict.fromkeys(layer):
                step[w] = [distinct.setdefault(v, v) for v in [w + b for b in natural.weights]]
            layer = [v for w in layer for v in step[w]]
        if s in degrees:
            blocks.append((s, offset, m**s))
            weights.extend(layer)
            offset += m**s
    lift_all = lambda mats: tuple(ExactMatrix(dim, _lift_rows(g, blocks)) for g in mats)
    return Representation(
        lie_type=lt,
        r=r,
        e=lift_all(natural.e),
        f=lift_all(natural.f),
        h=lift_all(natural.h),
        dim=dim,
        weights=tuple(weights),
        blocks=tuple(blocks),
        kind=kind,
    )


def tower_rep(lt: LieType, r: int, max_dim=None) -> Representation:
    """Block-diagonal action on the tower of tensor powers.

    Type B uses every power 0..r (the natural module has a zero weight, so
    lower degrees of both parities occur as weights); types C and D use the
    powers of matching parity.  The tower contains every simple module with
    highest weight in pi as a composition factor, which a single power does
    not guarantee in type B.
    """
    if r < 1:
        raise ValueError("tower_rep needs r >= 1")
    return _build_rep(lt, r, tensor_degrees(lt, r), "tower", max_dim)


def single_power_rep(lt: LieType, r: int, max_dim=None) -> Representation:
    """Action on the single tensor power of degree r."""
    if r < 1:
        raise ValueError("single_power_rep needs r >= 1")
    return _build_rep(lt, r, [r], "power", max_dim)


# ---------------------------------------------------------------------------
# Place permutations of the tensor powers


def orbit_rows(rep: Representation, operators=()):
    """One basis index per orbit of the tensor-place permutations, or None where a given operator is not fixed by them.

    The permutations of the s places of a block permute the s base-m digits
    of its indices, and each orbit holds exactly one index whose digits do
    not decrease: C(m+s-1, s) of the block's m^s indices.  An operator fixed
    by the place permutations is zero exactly when its rows at these indices
    are, and products, sums and brackets of fixed operators are fixed, so a
    caller passes every operator its residuals read.

    Two index maps stand for all the permutations: the swap of the first two
    places and the rotation of all places, on every block at once
    (`_place_maps`).  On a block of power s they generate S_s.  An operator x
    is fixed by a map p when, for every stored row a, the stored row p(a) has
    as many entries and holds x[a, b] at p(b) for each of them: as p is a
    bijection, the stored rows are then permuted among themselves and
    x[p(a), p(b)] = x[a, b] everywhere.  A row stores each column once, so
    the test looks each moved pair up in the short row p(a) and sorts no
    row.
    """
    maps = _place_maps(rep)
    for x in operators:
        data = x._data
        for p in maps:
            for a, row in data.items():
                moved = data.get(p[a])
                if moved is None or len(moved) != len(row):
                    return None
                for b, v in row:
                    if (p[b], v) not in moved:
                        return None
    m = rep.lie_type.natural_dim
    ix = indices(rep.dim)
    rows = []
    for s, offset, _ in rep.blocks:
        for digits in itertools.combinations_with_replacement(range(m), s):
            index = 0
            for d in digits:
                index = index * m + d
            rows.append(ix[offset + index])
    return rows


def _place_maps(rep: Representation):
    """The swap of the first two places and the rotation of all places, those that move an index.

    Only blocks with s >= 2 move an index.  The maps are lists of the shared
    index ints, so a lookup `data.get(p[a])` boxes no int and finds the
    stored key by identity.
    """
    m = rep.lie_type.natural_dim
    ix = indices(rep.dim)
    swap, rotate = ix[: rep.dim], ix[: rep.dim]
    for s, offset, size in rep.blocks:
        if s < 2:
            continue
        top, low = m ** (s - 1), m ** (s - 2)
        for x in range(size):
            first, rest = divmod(x, top)  # digit 0, and the number the other digits spell
            second, tail = divmod(rest, low)
            swap[offset + x] = ix[offset + (second * m + first) * low + tail]
            rotate[offset + x] = ix[offset + rest * m + first]
    return [p for p in (swap, rotate) if any(a != i for i, a in enumerate(p))]


# ---------------------------------------------------------------------------
# Span closure of a generated operator algebra


def _primitive(vec, pivot):
    """vec divided by the gcd of its entries, signed so that the entry at its pivot is positive."""
    g = math.gcd(*vec.values())
    if vec[pivot] < 0:
        g = -g
    return vec if g == 1 else {j: v // g for j, v in vec.items()}


def _eliminate(vec, row, pivot):
    """Clear vec at pivot by a fraction-free combination with row, in place; zeros stay in vec."""
    c, lead = vec[pivot], row[pivot]
    if lead != 1:
        g = math.gcd(c, lead)
        c, lead = c // g, lead // g
        if lead != 1:
            for j in vec:
                vec[j] *= lead
    get = vec.get
    for j, x in row.items():
        vec[j] = get(j, 0) - c * x


class _RowSpan:
    """Exact row span over Q, kept as primitive integer rows {column: int}.

    A row's pivot is its first nonzero column, where its entry is positive;
    each row is zero at the pivots of the rows stored before it (a
    semi-echelon).  Stored rows are never changed: a new vector is reduced
    fraction-free against the rows in ascending pivot order, which leaves
    it zero at every pivot, because a row touches no column before its own
    pivot.  `canonical_rows` back-substitutes once into the reduced echelon
    form, which does not depend on the insertion order.
    """

    __slots__ = ("_rows", "_pivots")

    def __init__(self):
        self._rows = {}  # pivot -> row
        self._pivots = []  # ascending

    @property
    def dimension(self):
        return len(self._pivots)

    def insert(self, vec):
        """Reduce vec (a dict this call may change); return the new stored row, or None if dependent."""
        for p in self._pivots:
            if vec.get(p):
                _eliminate(vec, self._rows[p], p)
        vec = {j: v for j, v in vec.items() if v}
        if not vec:
            return None
        pivot = min(vec)
        vec = self._rows[pivot] = _primitive(vec, pivot)
        bisect.insort(self._pivots, pivot)
        return vec

    def canonical_rows(self):
        """The reduced echelon rows in pivot order, each the tuple of its nonzero (column, value) pairs."""
        reduced = {}
        for p in reversed(self._pivots):
            row = dict(self._rows[p])
            for q, other in reduced.items():
                if row.get(q):
                    _eliminate(row, other, q)
            reduced[p] = _primitive({j: v for j, v in row.items() if v}, p)
        return tuple(tuple(sorted(reduced[p].items())) for p in self._pivots)


class ClosureResult:
    """Dimension and canonical echelon basis of a generated matrix algebra.

    The basis is stored per graded piece as (row coordinates, column
    coordinates, echelon over the piece's row-major local columns); the
    global basis is assembled only when asked for.
    """

    __slots__ = ("dimension", "size", "_pieces")

    def __init__(self, dimension, size, pieces):
        self.dimension = dimension
        self.size = size
        self._pieces = pieces

    def piece_dimensions(self, rows=None):
        """dim 1_c A 1_c' (of the seeded rows) per piece, keyed by (row class, column class) coordinates.

        Given `rows`, each piece is cut to its rows there and ranked afresh.
        """
        keep = None if rows is None else set(rows)
        dims = {}
        for coords, cols, span in self._pieces:
            if keep is not None:
                local, cut = {p for p, i in enumerate(coords) if i in keep}, _RowSpan()
                for row in span._rows.values():
                    cut.insert({k: v for k, v in row.items() if k // len(cols) in local})
                span = cut
            dims[coords, cols] = span.dimension
        return dims

    def canonical_rows(self):
        """Basis rows in pivot order, each the tuple of its nonzero (row-major index, value) pairs."""
        out = []
        for rows, cols, span in self._pieces:
            width = len(cols)
            for row in span.canonical_rows():
                out.append(tuple((rows[k // width] * self.size + cols[k % width], v) for k, v in row))
        out.sort(key=lambda row: row[0][0])  # a row's first pair holds its pivot
        return tuple(out)


def algebra_closure(mats, rows=None) -> ClosureResult:
    """Basis of the unital associative algebra generated by matrices of one size.

    Grading: label each coordinate by the tuple of its entries in the
    diagonal generators.  Interpolating over the finitely many joint
    eigenvalues writes the indicator 1_c of every label class c as a
    polynomial in those generators, so 1_c lies in the algebra A and
    A = sum over (c, c') of the pieces 1_c A 1_c'.  With Cartan or
    projector generators the classes are the weights; with no diagonal
    generator there is a single class and a single piece.

    Each piece keeps its own exact row span over its |c|*|c'| coordinates.
    The span starts from the identity blocks 1_c and is closed under right
    multiplication by the blocks 1_c g 1_c' of every non-diagonal generator
    g; each product lands in one piece and is reduced in that piece's span.
    The queue holds the stored (reduced) rows: each is a combination of the
    products and identity blocks inserted so far, and every stored row is
    queued, so the closure is the same as with the raw products.  A
    diagonal generator acts on every class as a scalar, so it only shapes
    the grading.  Every word 1_c w 1_c' is a sum of such block products, so
    the accepted blocks span A.

    Given `rows`, each 1_c is seeded at its indices in `rows` only, and a
    class with none is not seeded: the span is then E_R A, the algebra with
    every row outside R cleared, and `piece_dimensions` gives dim E_R 1_c A 1_c'
    per piece.

    The pieces have disjoint coordinate supports, and within a piece the
    local row-major order is the global one restricted.  The union of the
    per-piece reduced echelon rows, sorted by pivot, is therefore the
    reduced echelon form of A over all size*size entries: canonical, and
    independent of generator order.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one generator")
    size = mats[0].size
    if any(m.size != size for m in mats):
        raise ValueError("generators must have equal size")

    diagonals = [m.diagonal() for m in mats if m.is_diagonal()]
    by_label = {}
    for i, label in enumerate(zip(*diagonals) if diagonals else [()] * size):
        by_label.setdefault(label, []).append(i)
    classes = list(by_label.values())
    cls, pos = [0] * size, [0] * size
    for c, coords in enumerate(classes):
        for p, i in enumerate(coords):
            cls[i], pos[i] = c, p

    # Per row class b: targets[b] lists the column class d of each nonzero
    # block 1_b g 1_d of a non-diagonal generator g, and index[b][q] holds,
    # for local row q, the (block number, [(local column, value)]) of every
    # such block whose row q is nonzero.
    targets = [[] for _ in classes]
    index = [[[] for _ in coords] for coords in classes]
    for m in mats:
        if m.is_diagonal():
            continue
        numbers = {}  # (b, d) -> number of the block 1_b m 1_d in targets[b]
        for i, row in m._data.items():
            b, q = cls[i], pos[i]
            entries = {}
            for j, v in row:
                d = cls[j]
                n = numbers.get((b, d))
                if n is None:
                    n = numbers[b, d] = len(targets[b])
                    targets[b].append(d)
                entries.setdefault(n, []).append((pos[j], v))
            index[b][q].extend(entries.items())

    # local columns are keyed by the shared index ints, grown to the largest
    # column a seed or product reaches: a stored row shares its keys with
    # every product that meets it, and no table is sized from width^2
    seeded = None if rows is None else set(rows)
    pieces = {}
    queue = []
    for c, coords in enumerate(classes):
        width = len(coords)
        local = [p for p, i in enumerate(coords) if seeded is None or i in seeded]
        if local:
            ix = indices(local[-1] * (width + 1) + 1)
            span = pieces[c, c] = _RowSpan()
            queue.append((c, c, span.insert({ix[p * width + p]: 1 for p in local})))
    for a, b, row in queue:  # the queue grows while it is read
        width = len(classes[b])
        widths = [len(classes[d]) for d in targets[b]]
        ix = indices((max(row) // width + 1) * max(widths, default=0))
        prods = [{} for _ in widths]
        rows_of = index[b]
        for k, x in row.items():
            p, q = divmod(k, width)
            for n, entries in rows_of[q]:
                prod = prods[n]
                base = p * widths[n]
                for col, v in entries:
                    col = ix[base + col]
                    prod[col] = prod.get(col, 0) + x * v
        for d, prod in zip(targets[b], prods):
            if not any(prod.values()):
                continue
            span = pieces.get((a, d))
            if span is None:
                span = pieces[a, d] = _RowSpan()
            stored = span.insert(prod)
            if stored is not None:
                queue.append((a, d, stored))
    return ClosureResult(
        dimension=sum(span.dimension for span in pieces.values()),
        size=size,
        pieces=tuple((tuple(classes[a]), tuple(classes[d]), span) for (a, d), span in pieces.items()),
    )
