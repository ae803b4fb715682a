"""Exact integer linear algebra: Smith normal form, rank, kernel lines.

The package's one exact linear-algebra kernel, on arbitrary-precision
Python integers only.  It has two eliminations.  The rank of a list of
rows and the determinants behind kernel lines come from one
fraction-free (Bareiss) elimination, which never leaves the integers
and needs no invariant factors; the matrices it sees (point
differences in the Newton census and face lattice, the rays of a cone)
are small and dense.

Smith normal form takes a list of rows or a sparse mapping
``column -> {row: coeff}``; a matrix and its transpose have the same
invariant factors, so both become one list of sparse vectors.  Unit
pivots go first, always in the sparsest vector that has one, each
splitting off an invariant factor 1; a block left without unit entries
(empty or tiny for the Morse boundaries of ``sncx.homology``) goes to a
dense Euclid loop that pivots on the smallest magnitude, first in
row-major order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import DescriptorInvalid


@dataclass(frozen=True)
class SNFResult:
    invariant_factors: tuple
    rank: int


def _sparse_vectors(matrix) -> list:
    """Rows of a row-list matrix, or columns of a sparse mapping."""
    if isinstance(matrix, dict):
        return [{i: int(v) for i, v in col.items() if v}
                for col in matrix.values()]
    rows = [list(r) for r in matrix]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return [{j: int(v) for j, v in enumerate(r) if v} for r in rows]


def _eliminate_units(vecs) -> list:
    """Empty the vectors with unit pivots, in place; return the pivots.

    The pivots are indices into the vectors, in the order they are used.
    """
    occ = {}                    # index -> ids of the vectors containing it
    for v, vec in enumerate(vecs):
        for i in vec:
            occ.setdefault(i, set()).add(v)
    heap = [(len(vec), v) for v, vec in enumerate(vecs) if vec]
    heapq.heapify(heap)
    pivots = []
    while heap:
        size, v = heapq.heappop(heap)
        vec = vecs[v]
        unit = [i for i, a in vec.items() if a in (1, -1)]
        if size != len(vec) or not unit:
            continue            # stale, or requeued once an update changes it
        p = min(unit, key=lambda i: (len(occ[i]), i))
        sign = vec[p]
        for w in occ[p] - {v}:
            other = vecs[w]
            q = other[p] * sign
            for i, a in vec.items():
                b = other.get(i, 0) - q * a
                if b:
                    other[i] = b
                    occ[i].add(w)
                else:
                    del other[i]
                    occ[i].discard(w)
            heapq.heappush(heap, (len(other), w))
        for i in vec:
            occ[i].discard(v)
        vec.clear()
        pivots.append(p)
    return pivots


def _euclid_diagonal(A) -> list:
    """The invariant factors of a dense integer matrix (list of lists),
    which it consumes, in divisibility order.

    The pivot is an entry of least magnitude, first in row-major order.
    Its row and column are cleared by division with remainder.  A
    remainder left, or an entry the pivot does not divide (its row is
    added to the pivot's and that column cleared), makes some entry
    smaller than the pivot, and the next pivot is chosen; otherwise the
    pivot splits off, and it divides every factor after it.
    """
    diag = []
    while any(map(any, A)):
        _, pi, pj = min((abs(v), i, j) for i, row in enumerate(A)
                        for j, v in enumerate(row) if v)
        prow = A.pop(pi)
        p = prow[pj]

        def clear(j):           # column j minus a multiple of column pj
            q = prow[j] // p
            prow[j] -= q * p
            for row in A:
                row[j] -= q * row[pj]

        for row in A:           # each row minus a multiple of the pivot row
            q = row[pj] // p
            for j, v in enumerate(prow):
                row[j] -= q * v
        for j in range(len(prow)):
            if j != pj:
                clear(j)
        if not any(row[pj] for row in A) and prow.count(0) == len(prow) - 1:
            bad = next((row for row in A if any(v % p for v in row)), None)
            if bad is None:
                diag.append(abs(p))
                for row in A:
                    del row[pj]
                continue
            prow[:] = [a + b for a, b in zip(prow, bad)]
            clear(next(j for j, v in enumerate(bad) if v % p))
        A.insert(pi, prow)
    return diag


def _reduce(vecs) -> SNFResult:
    """SNF of a list of sparse vectors, which it consumes."""
    units = len(_eliminate_units(vecs))
    rest = [vec for vec in vecs if vec]
    cols = sorted({i for vec in rest for i in vec})
    diag = _euclid_diagonal([[vec.get(i, 0) for i in cols] for vec in rest])
    return SNFResult((1,) * units + tuple(diag), units + len(diag))


def smith_normal_form(matrix) -> SNFResult:
    """Invariant factors d1 | d2 | ... and the rank of an integer matrix."""
    return _reduce(_sparse_vectors(matrix))


def _bareiss(a) -> tuple:
    """Fraction-free (Bareiss) row echelon form of integer rows, in place.

    Columns are taken left to right, a column without a nonzero entry
    below the rows already pivoted is skipped, and every row below the
    pivot is updated by ``(a_ij * p - a_ic * a_rj) // prev``.  Each entry
    is then a minor of the input, so the division by the previous pivot
    is exact (Sylvester's identity).  Returns the rank, the sign of the
    row permutation and the last pivot, which is that sign times the
    determinant of a square matrix of full rank.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for c in range(n):
        if rank == m:
            break
        swap = next((i for i in range(rank, m) if a[i][c]), None)
        if swap is None:
            continue
        if swap != rank:
            a[rank], a[swap] = a[swap], a[rank]
            sign = -sign
        prow = a[rank]
        p = prow[c]
        for i in range(rank + 1, m):
            row = a[i]
            q = row[c]
            for j in range(c + 1, n):
                row[j] = (row[j] * p - q * prow[j]) // prev
        prev = p
        rank += 1
    return rank, sign, prev


def _integer_point(p, what: str, entry: str = "coordinate") -> tuple:
    """The entries of the input list ``p`` (a point's coordinates, a cone's
    ray indices, ...) as a tuple of ints.

    An integral float such as ``2.0`` reads as ``2``; a bool, a string,
    ``None``, a list or a float with a fractional part is the domain
    error :class:`DescriptorInvalid`, naming the ``what`` and the
    ``entry``, and so is a ``p`` that is not a list at all.
    """
    if isinstance(p, (str, dict)) or not hasattr(p, "__iter__"):
        raise DescriptorInvalid(f"{what} {p!r} is not a list")
    out = []
    for x in p:
        if isinstance(x, bool) or not isinstance(x, (int, float)) \
                or isinstance(x, float) and not x.is_integer():
            raise DescriptorInvalid(
                f"{what} {list(p)} has a non-integer {entry} {x!r}")
        out.append(int(x))
    return tuple(out)


def matrix_rank(rows) -> int:
    """Rank of an integer matrix given as a list of rows."""
    a = [[int(x) for x in r] for r in rows]
    if any(len(r) != len(a[0]) for r in a):
        raise ValueError("ragged matrix")
    return _bareiss(a)[0]


def _det(a) -> int:
    """Determinant of a square list-of-rows matrix, by Bareiss in place."""
    rank, sign, last = _bareiss(a)
    return sign * last if rank == len(a) else 0


def kernel_line(rows):
    """The primitive kernel vector of d-1 integer rows in Z^d, if a line.

    The signed maximal minors span the kernel whenever the rows are
    independent, and all vanish otherwise, when ``None`` is returned.
    The sign makes the last nonzero entry positive.
    """
    rows = [[int(x) for x in r] for r in rows]
    d = len(rows) + 1
    if any(len(r) != d for r in rows):
        raise ValueError(f"kernel_line needs {d - 1} rows of length {d}")
    w = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in rows]) for j in range(d)]
    g = math.gcd(*w)
    if not g:
        return None
    if next(x for x in reversed(w) if x) < 0:
        g = -g
    return tuple(x // g for x in w)
