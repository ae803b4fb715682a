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
(empty or tiny for boundary maps of complexes) goes to a dense Euclid
loop that pivots on the smallest magnitude, first in row-major order.

Boundary maps are reduced from the top degree down with clearing
(Chen-Kerber, "Persistent homology computation with a twist", EuroCG
2011): ``_boundary_snf`` reports the rows of its unit pivots, and the
map one degree lower skips those columns.  Over Z this is exact only
for unit pivots.  Take the vectors u_t the pivots p_t are taken from,
in order: each is a boundary, so the next map sends it to zero; it has
+-1 at p_t and 0 at every earlier pivot, which the elimination removed.
Solving that unimodular triangular system from the last pivot back
writes every cleared column as an integer combination of the kept
ones, so the image, its rank and its invariant factors do not change.
A pivot of any other size only gives a rational combination, so the
Euclid block never clears anything.
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


def _swap_pivot_to_corner(A, top, left):
    """Move the smallest-magnitude nonzero block entry to (top, left)."""
    nonzero = [(abs(A[i][j]), i, j) for i in range(top, len(A))
               for j in range(left, len(A[i])) if A[i][j]]
    if not nonzero:
        return False
    _, pi, pj = min(nonzero)
    A[top], A[pi] = A[pi], A[top]
    for row in A:
        row[left], row[pj] = row[pj], row[left]
    return True


def _euclid_diagonal(A) -> list:
    """Diagonalize a dense integer matrix (list of lists) in place."""
    m = len(A)
    n = len(A[0]) if m else 0
    diag = []
    top = 0
    left = 0
    while top < m and left < n:
        if not _swap_pivot_to_corner(A, top, left):
            break
        while True:
            p = A[top][left]
            dirty = False
            prow = A[top]
            for i in range(top + 1, m):
                v = A[i][left]
                if v:
                    q = v // p
                    row = A[i]
                    for j in range(left, n):
                        row[j] -= q * prow[j]
                    if row[left]:
                        dirty = True
            for j in range(left + 1, n):
                v = prow[j]
                if v:
                    q = v // p
                    for i in range(top, m):
                        A[i][j] -= q * A[i][left]
                    if prow[j]:
                        dirty = True
            if not dirty:
                break
            # a residue strictly smaller than |p| exists; re-pick and repeat
            _swap_pivot_to_corner(A, top, left)
        diag.append(abs(A[top][left]))
        top += 1
        left += 1
    return diag


def _reduce(vecs):
    """SNF of a list of sparse vectors, which it consumes, and unit pivots."""
    pivots = _eliminate_units(vecs)
    units = len(pivots)
    rest = [vec for vec in vecs if vec]
    cols = sorted({i for vec in rest for i in vec})
    diag = _euclid_diagonal([[vec.get(i, 0) for i in cols] for vec in rest])

    # a diagonal matrix is equivalent to its divisibility-sorted form via
    # repeated (a, b) -> (gcd, lcm) on pairs
    k = len(diag)
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a_, b_ = diag[i], diag[i + 1]
            if b_ % a_:
                g = math.gcd(a_, b_)
                diag[i], diag[i + 1] = g, a_ * b_ // g
                changed = True
    return SNFResult((1,) * units + tuple(diag), units + k), pivots


def smith_normal_form(matrix) -> SNFResult:
    """Invariant factors d1 | d2 | ... and the rank of an integer matrix."""
    return _reduce(_sparse_vectors(matrix))[0]


def _boundary_snf(columns: dict, cleared):
    """SNF of a sparse map without its ``cleared`` columns, and unit pivots.

    ``columns`` maps a column to ``{row: nonzero coeff}``.  The pivots
    are the rows of the unit pivots, the columns to clear one degree
    lower.
    """
    return _reduce([dict(col) for j, col in columns.items()
                    if j not in cleared])


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

    An integral float such as ``2.0`` reads as ``2``; a bool, a string or
    a float with a fractional part is the domain error
    :class:`DescriptorInvalid`, naming the ``what`` and the ``entry``.
    """
    out = []
    for x in p:
        if isinstance(x, (bool, str)) or isinstance(x, float) and not x.is_integer():
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
