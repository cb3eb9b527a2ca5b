"""Path model: root operators on piecewise-linear paths, crystals, strings.

A path is a piecewise-linear map [0,1] -> h* from the origin with rational
breakpoints.  It is stored as its breakpoint polyline: one int tuple per
breakpoint in `num`, over one positive int `den`.  The form is canonical
(no stationary or collinear-continuation breakpoints, equally spaced
parameter times, gcd(den, every coordinate) == 1), so equality and hashing
are structural, and root operators read only the polyline.

The raising and lowering operators act through the height function
h(t) = (x(t), alpha^vee): when the defining threshold is met, the piece
between two critical times is reflected and the tail is translated by
the root.  This form of the operators is valid on integral paths (all
local minima of every height function at integer levels); paths generated
from a straight dominant path stay integral, which crystal generation
checks.  Only the lowering operator is written out; the raising operator
is its conjugate under path duality.

Simple roots and coroots of B, C and D are integral in the epsilon-basis
(checked once, when the RootSystem is constructed), so the calculus runs
on ints over a path's denominator d: a breakpoint p has height
(p, alpha^vee) over d, its mirror image at level q is p - (h - q) alpha,
its translate is p - d alpha, and duality is a subtraction.  A level
crossed inside a segment rescales the polyline by that segment's height
step, so the crossing lands on an integer point.  `fractions.Fraction` is
left to reading coordinates back (`points`) and to the breakpoint times of
the JSON output (`breakpoints`).

Strings are extracted greedily along a fixed reduced word for the longest
Weyl element: raise maximally letter by letter until the dominant path
returns.  The resulting exponent tuples index the crystal bijectively and
drive the basis-counting reports.  A crystal is closed under the raising
operators, and e_i(y) = x exactly when f_i(x) = y, so every raise is read
off the crystal's own lowering edges; no raising operator runs.  The
raising chains of a crystal's elements merge, so the remaining string is
memoized per element and word position.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import sub

from .decomposition import schur_dimensions, weyl_dimension
from .rootdata import CapExceeded, InvariantError, LieType, RootSystem, Weight, build_root_system
from .weightsets import tensor_dominant_pi

DEFAULT_CRYSTAL_CAP = 5000


class Path:
    """Canonical breakpoint polyline of a piecewise-linear path from 0: `num` over `den`.

    Equality and hashing are structural; the hash is computed once, since
    paths key the crystal index and the string memo.  Paths are values:
    their fields must not be reassigned after construction, or the stored
    hash goes stale while `==` reads the new fields.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den):
        self.num = num  # int tuple per breakpoint; num[0] is the origin
        self.den = den  # positive, and gcd(den, every coordinate) == 1
        self._hash = hash((num, den))

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Path(num={self.num!r}, den={self.den!r})"

    @classmethod
    def from_points(cls, points):
        """The canonical path through a sequence of Weights that starts at the origin."""
        pts = list(points)
        if not pts:
            raise ValueError("a path needs at least its starting point")
        if any(pts[0].num):
            raise ValueError("paths start at the origin")
        den = math.lcm(*(p.den for p in pts))
        return _canonical([tuple([a * (den // p.den) for a in p.num]) for p in pts], den)

    @property
    def points(self):
        """The breakpoints as Weights; points[0] is the origin."""
        return tuple([Weight.from_numerators(p, self.den) for p in self.num])

    @property
    def breakpoints(self):
        """(time, point) pairs with equally spaced rational times."""
        points = self.points
        k = len(points) - 1
        if k == 0:
            return ((Fraction(0), points[0]),)
        return tuple((Fraction(t, k), p) for t, p in enumerate(points))

    @property
    def endpoint(self):
        return Weight.from_numerators(self.num[-1], self.den)

    def to_json(self):
        return [{"t": f"{t.numerator}/{t.denominator}", "point": p.to_json()} for t, p in self.breakpoints]


def _canonical(pts, den):
    """The Path through int points over den, with pauses and collinear continuations dropped."""
    out = [pts[0]]
    u = None  # direction of out's last segment, up to a positive factor
    for p in pts[1:]:
        last = out[-1]
        if p == last:
            continue  # stationary piece: same path up to reparametrization
        v = tuple(map(sub, p, last))
        if u is not None and _positively_parallel(u, v):
            out[-1] = p  # the outgoing direction continues the incoming one
        else:
            out.append(p)
            u = v
    return _reduced(out, den)


def _reduced(pts, den):
    """The Path of a polyline without pauses or collinear continuations, over its least denominator."""
    g = math.gcd(den, *itertools.chain.from_iterable(pts))
    if g != 1:
        pts = [tuple([a // g for a in p]) for p in pts]
        den //= g
    return Path(tuple(pts), den)


def _positively_parallel(u, v):
    """True iff the int vector v is a positive scalar multiple of u (both nonzero).

    Every cross product against u's first nonzero coordinate vanishes, and
    that coordinate keeps its sign.
    """
    for a, b in zip(u, v):
        if a:
            break
    else:
        return False
    return a * b > 0 and all(x * b == y * a for x, y in zip(u, v))


def _support(coroot):
    """The (coordinate, value) pairs of an int coroot's nonzero coordinates: one or two in B, C and D."""
    return tuple((k, c) for k, c in enumerate(coroot) if c)


def _heights(path: Path, support):
    """Heights (x_k, coroot) of the breakpoints, as ints over path.den; the coroot is given by its `_support`."""
    if len(support) == 1:
        ((k, c),) = support
        return [p[k] * c for p in path.num]
    (k, c), (l, d) = support
    return [p[k] * c + p[l] * d for p in path.num]


def straight_path(rs: RootSystem, lam: Weight) -> Path:
    """The straight segment from the origin to a dominant weight."""
    if not rs.is_dominant(lam):
        raise ValueError(f"{lam!r} is not dominant for {rs.lie_type}")
    return Path.from_points([Weight.zero(len(lam)), lam])


def f_op(rs: RootSystem, i: int, path: Path):
    """Lowering root operator; None when it annihilates the path.

    With q the minimum of the height function, the operator applies when
    the endpoint height exceeds q by at least 1: the piece between the
    last minimum and the next crossing of level q+1 is reflected, and the
    rest of the path is translated by -alpha.
    """
    return _lower(rs.simple_root(i).num, path, _heights(path, _support(rs.coroot(i).num)))


def _lower(alpha, path: Path, h):
    """The body of f_op, given the int root alpha and the path's heights h.

    The image is the canonical prefix up to the last minimum, the mirror
    image of the piece up to level q+1, and the translated tail.  Mirror
    and translation are affine bijections, so each piece stays canonical
    and no two consecutive points coincide: a collinear continuation can
    only appear at the two junctions, and only those are checked.
    """
    d = path.den
    q = min(h)
    if h[-1] - q < d:
        return None
    top = q + d
    pts = path.num
    j = len(h) - 1 - h[::-1].index(q)  # the last minimum
    first = j  # the first junction: the last minimum, which the mirror fixes
    new_pts = list(pts[: j + 1])
    while h[j + 1] < top:  # strictly between q and q+1 after the last minimum: reflect at level q
        k = h[j + 1] - q
        new_pts.append(tuple([a - k * b for a, b in zip(pts[j + 1], alpha)]))
        j += 1
    tail = pts[j + 1 :]
    after = j + 2  # the original index of the tail's second point
    if h[j + 1] > top:
        # level q+1 is crossed inside the segment (j, j+1): scale the polyline
        # by the segment's height step, so that the crossing is an integer point
        s, t = h[j + 1] - h[j], top - h[j]
        crossing = tuple([s * a + t * (b - a) for a, b in zip(pts[j], pts[j + 1])])
        new_pts = [tuple([s * a for a in p]) for p in new_pts]
        tail = [crossing] + [tuple([s * a for a in p]) for p in tail]
        d *= s
        after = j + 1
    second = len(new_pts)  # the second junction: the tail's first point, at level q+1
    shift = [d * b for b in alpha]
    new_pts.extend(tuple(map(sub, p, shift)) for p in tail)
    # the mirrored piece descends from level q to q-1, so a junction can only
    # continue it straight where the neighboring segment descends as well
    if after < len(h) and h[after] < top:
        _merge_junction(new_pts, second)
    if first > 0 and h[first - 1] > q:
        _merge_junction(new_pts, first)  # first < second: its index is unchanged
    return _reduced(new_pts, d)


def _merge_junction(pts, k):
    """Drop the interior point pts[k] if the polyline continues straight through it."""
    a, b, c = pts[k - 1], pts[k], pts[k + 1]
    if _positively_parallel(tuple(map(sub, b, a)), tuple(map(sub, c, b))):
        del pts[k]


def _dual(path: Path) -> Path:
    """The path t -> path(1 - t) - path(1).

    Reversing a canonical polyline and translating it keeps it canonical:
    the origin becomes -path(1), so a common factor of d and the new
    coordinates divides the old ones too.
    """
    end = path.num[-1]
    return Path(tuple([tuple(map(sub, p, end)) for p in reversed(path.num)]), path.den)


def e_op(rs: RootSystem, i: int, path: Path):
    """Raising root operator; None when it annihilates the path.

    e_i is the lowering operator conjugated by the duality above
    (Littelmann, Paths and root operators in representation theory, 1995):
    e_i(path) = dual(f_i(dual(path))).  It applies when the minimum of the
    height function is at most -1, which is read off the path's own
    heights, so a killed call builds no dual path; the dual path's heights
    are h(1 - t) - h(1) over the same denominator, so they are not
    recomputed.
    """
    h = _heights(path, _support(rs.coroot(i).num))
    if min(h) > -path.den:
        return None
    end = h[-1]
    return _dual(_lower(rs.simple_root(i).num, _dual(path), [v - end for v in reversed(h)]))


def _minima_integral(h, d):
    """All local minima of the heights h (ints over d) sit at integer levels.

    Plateau runs are treated as single critical points; boundary runs
    count as minima when their inner neighbor is higher.  Only a point off
    the integer levels can fail, so only the plateau run of each such point
    is inspected; over d = 1 every level is an integer.
    """
    if d == 1:
        return True
    last = len(h) - 1
    for k in [k for k, v in enumerate(h) if v % d]:
        v, a, b = h[k], k, k
        while a > 0 and h[a - 1] == v:
            a -= 1
        while b < last and h[b + 1] == v:
            b += 1
        if (a == 0 or h[a - 1] > v) and (b == last or h[b + 1] > v):
            return False
    return True


def is_integral(rs: RootSystem, path: Path) -> bool:
    """All local minima of every height function sit at integer levels.

    The operator formulas above are exact precisely on such paths.
    """
    supports = [_support(rs.coroot(i).num) for i in range(1, rs.rank + 1)]
    return all(_minima_integral(_heights(path, support), path.den) for support in supports)


class Crystal:
    """Closure of a straight dominant path under the lowering operators."""

    __slots__ = ("rs", "highest", "elements", "edges")

    def __init__(self, rs, highest, elements, edges):
        self.rs = rs
        self.highest = highest
        self.elements = elements  # Paths in discovery order; elements[0] is the straight path
        self.edges = edges  # ((from_index, root_index, to_index), ...) for lowering steps

    def __len__(self):
        return len(self.elements)

    def endpoint_multiset(self):
        counts = {}
        for p in self.elements:
            counts[p.endpoint] = counts.get(p.endpoint, 0) + 1
        return counts

    def to_json(self):
        return {
            "highest": self.highest.to_json(),
            "size": len(self.elements),
            "elements": [p.to_json() for p in self.elements],
            "edges": [list(edge) for edge in self.edges],
        }


def crystal_dimensions(rs: RootSystem, weights):
    """The Weyl dimension of each dominant weight: the size its crystal must have.

    A dimension over the cap raises CapExceeded, so that an oversized
    crystal is refused before any crystal is generated, not after up to
    `DEFAULT_CRYSTAL_CAP` elements of one.
    """
    dims = [weyl_dimension(rs, w) for w in weights]
    for w, dim in zip(weights, dims):
        if dim > DEFAULT_CRYSTAL_CAP:
            raise CapExceeded(
                f"crystal of {w!r} would have {dim} elements, its Weyl dimension, over the cap {DEFAULT_CRYSTAL_CAP}"
            )
    return dims


def generate_crystal(rs: RootSystem, lam: Weight) -> Crystal:
    """Breadth-first closure of the straight path under all lowering operators.

    Each element's heights are computed once per simple root; its
    integral-path check, the kill test and its lowering steps read them.
    A crystal that would grow past `DEFAULT_CRYSTAL_CAP` elements raises
    CapExceeded.
    """
    roots = [(rs.simple_root(i).num, _support(rs.coroot(i).num)) for i in range(1, rs.rank + 1)]
    start = straight_path(rs, lam)
    elements = [start]
    index = {start: 0}
    edges = []
    qi = 0
    while qi < len(elements):
        current = elements[qi]
        for i, (alpha, support) in enumerate(roots, 1):
            h = _heights(current, support)
            if not _minima_integral(h, current.den):
                raise InvariantError("integral-path regime", f"an operator left it in the crystal of {lam!r}")
            if h[-1] - min(h) < current.den:
                continue  # f_i kills the path
            image = _lower(alpha, current, h)
            at = index.get(image)
            if at is None:
                if len(elements) >= DEFAULT_CRYSTAL_CAP:
                    raise CapExceeded(f"crystal of {lam!r} exceeded {DEFAULT_CRYSTAL_CAP} elements")
                index[image] = at = len(elements)
                elements.append(image)
            edges.append((qi, i, at))
        qi += 1
    return Crystal(rs=rs, highest=lam, elements=tuple(elements), edges=tuple(edges))


def _raising_table(crystal: Crystal):
    """up[i][y] = x for every lowering edge f_i(x) = y, so up[i].get(y) is e_i(y) by index.

    The crystal is closed under the raising operators, and e_i(y) = x
    exactly when f_i(x) = y, so the edges are all the raising steps; a
    second edge into y under one f_i breaks the crystal axiom
    (InvariantError, CLI exit 1).
    """
    up = [{} for _ in range(crystal.rs.rank + 1)]
    for x, i, y in crystal.edges:
        if up[i].setdefault(y, x) != x:
            raise InvariantError(
                "crystal axiom", f"element {y} of the crystal of {crystal.highest!r} has two preimages under f_{i}"
            )
    return up


def string_tuples(crystal: Crystal, word):
    """All greedy strings of a crystal; in bijection with its elements.

    Every raise is read off the crystal's lowering edges (`_raising_table`),
    so no raising operator runs.  The exponents of an element from word
    position k on depend only on the pair (element index, k), and the
    raising chains of different elements merge, so each pair is settled
    once: if e_{word[k]} kills the element, its string from k is 0 followed
    by its string from k + 1; otherwise it is the string of the raised
    element from k with the first exponent one higher.  Each walk follows
    raises and letters until it meets a settled pair (or the end of the
    word, where the path must be the straight path to the highest weight),
    then settles the pairs it passed in reverse.
    A path that occurs twice among the elements is walked from its first
    index, so the two copies share a string.
    """
    elements, n = crystal.elements, len(word)
    up = _raising_table(crystal)
    top = straight_path(crystal.rs, crystal.highest)
    first = {}  # path -> the first index that holds it
    for x, path in enumerate(elements):
        first.setdefault(path, x)
    memo = {}  # (element index, k) -> exponents from word position k on
    for start in first.values():
        trail = []
        x, k = start, 0
        while (x, k) not in memo:
            if k == n:
                if elements[x] != top:
                    raise InvariantError(
                        "string extraction",
                        f"greedy raising along {word} did not reach the dominant path of {crystal.highest!r}",
                    )
                memo[x, k] = ()
                break
            trail.append((x, k))
            raised = up[word[k]].get(x)
            if raised is None:
                k += 1
            else:
                x = raised
        value = memo[x, k]
        for key in reversed(trail):
            # a raise keeps the word position; a killed letter moves on to the next one
            value = (value[0] + 1,) + value[1:] if key[1] == k else (0,) + value
            memo[key] = value
            k = key[1]
    unique = sorted({memo[x, 0] for x in first.values()}, reverse=True)
    if len(unique) != len(elements):
        raise InvariantError("string injectivity", f"two elements of the crystal of {crystal.highest!r} share a string")
    return tuple(unique)


def opposite_strings(tuples):
    """Reversed exponent tuples; same cardinality by construction."""
    return tuple(sorted((tuple(reversed(t)) for t in tuples), reverse=True))


class CensusReport:
    """Per-weight string counts against squared dimensions, with the total."""

    __slots__ = (
        "lie_type",
        "r",
        "reduced_word",
        "rows",
        "total",
        "expected_total",
        "w0_is_minus_identity",
        "note",
    )

    def __init__(self, lie_type, r, reduced_word, rows, total, expected_total, w0_is_minus_identity, note):
        self.lie_type = lie_type
        self.r = r
        self.reduced_word = reduced_word
        self.rows = rows
        self.total = total
        self.expected_total = expected_total
        self.w0_is_minus_identity = w0_is_minus_identity
        self.note = note

    @property
    def ok(self):
        return self.total == self.expected_total and all(row["ok"] for row in self.rows)

    def to_json(self):
        return {
            "family": self.lie_type.family,
            "rank": self.lie_type.rank,
            "r": self.r,
            "reduced_word": list(self.reduced_word),
            "rows": self.rows,
            "total": self.total,
            "expected_total": self.expected_total,
            "w0_is_minus_identity": self.w0_is_minus_identity,
            "note": self.note,
            "ok": self.ok,
        }


def basis_census(lt: LieType, r: int) -> CensusReport:
    """Count string pairs (n, t) per dominant tensor weight and sum them.

    For each weight lam the lowering strings of lam pair with the reversed
    raising strings of the dual's highest weight -w0(lam); the product
    must equal the squared simple dimension, and the grand total must
    equal the squared-dimension sum over all of pi.  Every lam and its
    dual are checked dominant before any dimension or crystal is built:
    a weight outside the chamber here is a failed check, not bad input.
    Every dimension is computed before any crystal, and one over the
    crystal cap raises CapExceeded (`crystal_dimensions`).  Each weight's
    crystal and strings are built once, also where it is another weight's
    dual.
    """
    rs = build_root_system(lt)
    word, w0 = rs.longest_element()
    minus_identity = all(w0(Weight.eps(lt.rank, i)) == -Weight.eps(lt.rank, i) for i in range(1, lt.rank + 1))
    pairs = [(lam, -w0(lam)) for lam in tensor_dominant_pi(lt, r)]
    for lam, dual_hw in pairs:
        for w in (lam, dual_hw):
            if not rs.is_dominant(w):
                raise InvariantError("census weights", f"{w!r}, from {lam!r}, lies outside the dominant chamber of {lt}")
    pending = {}  # weight -> the strings of its crystal, kept from its first use to its second

    def strings_for(w):
        """Each weight is used twice, as a row's weight and as the dual in the row of -w0(w)."""
        if w in pending:
            return pending.pop(w)
        pending[w] = strings = string_tuples(generate_crystal(rs, w), word)
        return strings

    rows = []
    total = 0
    for (lam, dual_hw), dim in zip(pairs, crystal_dimensions(rs, [lam for lam, _ in pairs])):
        strings = strings_for(lam)
        opposite = len(strings_for(dual_hw))  # reversing the dual's strings keeps their number
        product = len(strings) * opposite
        rows.append(
            {
                "weight": lam.to_json(),
                "dim": dim,
                "strings": len(strings),
                "dual_weight": dual_hw.to_json(),
                "opposite_strings": opposite,
                "product": product,
                "expected": dim * dim,
                "ok": product == dim * dim,
            }
        )
        total += product
    expected_total = schur_dimensions(lt, r)[0]
    note = "" if minus_identity else (
        "longest element is not minus the identity here; dual highest weights "
        "use its true action"
    )
    return CensusReport(
        lie_type=lt,
        r=r,
        reduced_word=word,
        rows=rows,
        total=total,
        expected_total=expected_total,
        w0_is_minus_identity=minus_identity,
        note=note,
    )
