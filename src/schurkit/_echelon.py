"""Exact integer row echelon on numpy arrays, for the algebra closure.

It imports numpy at its top, and no other module of the package does:
`replinalg.algebra_closure` imports this module when it runs, so importing
the package, or running any command other than `closure`, never loads
numpy.
"""

from __future__ import annotations

import math

import numpy as np

_INT64_GUARD = 2**62


def _int_array(values):
    """Exact integers as an int64 array, or as an object array when they do not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _maxabs(arr):
    return int(np.abs(arr).max()) if arr.size else 0


def _primitive(vec):
    """vec divided by the gcd of its entries (unchanged when zero)."""
    g = int(np.gcd.reduce(vec)) if vec.size else 0
    return vec // g if g > 1 else vec


def _exact_matmul(a, b):
    """a @ b on int64 while the entry bound is safe, else on exact object arrays."""
    if a.dtype == np.int64 and b.dtype == np.int64 and _maxabs(a) * _maxabs(b) * a.shape[1] < _INT64_GUARD:
        return a @ b
    return a.astype(object) @ b.astype(object)


class ExactRowSpan:
    """Incremental reduced row echelon over Q with integer-normalized rows.

    Rows are primitive integer vectors (gcd 1, positive pivot) with every
    pivot column cleared from the other rows, so the stored basis is the
    canonical reduced echelon form of the row space: independent of
    insertion order.  Since each row vanishes on every other row's pivot
    column, a vector is reduced in one step, by a single combination of the
    rows whose pivots it meets.  Arithmetic runs on int64 arrays while a
    bound on the entries stays below 2**62 and on exact object (big-int)
    arrays otherwise.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self._rows = np.zeros((1, ncols), dtype=np.int64)
        self._pivots = np.zeros(1, dtype=np.intp)
        self._count = 0
        self._bound = 0  # upper bound on |entry| over the stored rows

    @property
    def dimension(self):
        return self._count

    def _reduce(self, vec):
        """The primitive positive multiple of vec minus its projection on the span."""
        pivots = self._pivots[: self._count]
        hit = np.flatnonzero(vec[pivots])
        if hit.size:
            rows = self._rows[hit]
            coeffs = vec[pivots[hit]]
            leads = rows[np.arange(hit.size), pivots[hit]].tolist()
            scale = math.lcm(*leads)
            if scale > 1:
                coeffs = _int_array([c * (scale // lead) for c, lead in zip(coeffs.tolist(), leads)])
            bound = scale * _maxabs(vec) + hit.size * _maxabs(coeffs) * self._bound
            if bound >= _INT64_GUARD:
                vec, rows, coeffs = vec.astype(object), rows.astype(object), coeffs.astype(object)
            vec = scale * vec - coeffs @ rows
        return _primitive(vec)

    def insert(self, values):
        """Reduce a vector and, if independent, add it to the basis. True iff added."""
        vec = self._reduce(_int_array(values))
        nz = np.flatnonzero(vec)
        if not nz.size:
            return False
        if vec.dtype == object:
            vec = _int_array(vec)  # back to int64 when the reduced entries fit
        pivot = int(nz[0])
        if vec[pivot] < 0:
            vec = -vec
        lead = int(vec[pivot])
        # clear the new pivot column from the existing rows
        hit = np.flatnonzero(self._rows[: self._count, pivot])
        if hit.size:
            rows = self._rows[hit]
            col = rows[:, pivot].copy()
            if lead * self._bound + _maxabs(col) * _maxabs(vec) >= _INT64_GUARD:
                self._rows = self._rows.astype(object)
                rows, col, vec = rows.astype(object), col.astype(object), vec.astype(object)
            rows = lead * rows - np.outer(col, vec)
            rows //= np.gcd.reduce(rows, axis=1)[:, None]
            self._rows[hit] = rows
            self._bound = max(self._bound, _maxabs(rows))
        self._append(vec, pivot)
        return True

    def _append(self, vec, pivot):
        k = self._count
        if k == len(self._pivots):
            grown = np.zeros((min(2 * k, self.ncols), self.ncols), dtype=self._rows.dtype)
            grown[:k] = self._rows
            self._rows = grown
            self._pivots = np.concatenate([self._pivots, np.zeros(len(grown) - k, dtype=np.intp)])
        if vec.dtype == object:
            self._rows = self._rows.astype(object)
        self._rows[k] = vec
        self._pivots[k] = pivot
        self._count = k + 1
        self._bound = max(self._bound, _maxabs(vec))

    def canonical_rows(self):
        """Basis rows in pivot order, each the tuple of its nonzero (column, value) pairs (a canonical form)."""
        out = []
        for k in np.argsort(self._pivots[: self._count]):
            nz = np.flatnonzero(self._rows[k])
            out.append(tuple(zip(nz.tolist(), map(int, self._rows[k, nz].tolist()))))
        return tuple(out)
