"""Exact integral homology of combinatorial complexes.

The boundary is read through the numbering of the faces by slots
(``CombinatorialComplex._num``), where a complex keeps its faces: per
slot the facet and coface slots (and the label, level and vertex
columns, which homology does not read), and each face's slot in
canonical order; a cell's degree is read off the dimension starts of
that order.  A complex read from records is numbered as it is read,
and moves and restrictions carry the numbering, so homology numbers
nothing.  With a Delta-structure the boundary is the
alternating sum of ordered facets: a column is the list of its facet
slots in Delta order, entry j with sign (-1)^j, and a signed ``{slot:
coeff}`` dict is made only for a column whose coefficients are summed
(the Morse boundaries, and :func:`chain_complex`, which moves them to
canonical positions).  A face poset gets ``{slot: coeff}`` columns of
incidence numbers [s:t] = +-1 on its facet slots, chosen cell by cell;
on a regular CW complex these give the homology of the order complex
without building it.  Two checks guard that route: the Euler-Poincare
identity of the order complex, whose Euler characteristic is summed
from chain counts, and the choice of the incidence numbers itself (each
ridge of a cell in exactly two of its facets, the facets connected
through ridges, the signs closing).  Both are necessary for a regular
CW complex, not sufficient; a failure raises ``NotRegularCW``.

Both routes give d^2 = 0 by a check made where the boundary is made,
so homology does not compose it again: the Delta route by the facet
identity d_j d_i = d_{i-1} d_j, checked when the complex is built, the
cellular route by its signs, [f:t][t:r] + [f:u][u:r] = 0 at each ridge
r of f.  ``ChainComplex``, where a boundary comes from outside,
composes it and raises ``BoundaryNotSquareZero``.

One coreduction pass (Mrozek-Batko, "Coreduction homology algorithm")
over the facet and coface slots, the same on both routes, matches cells
along unit incidences into an acyclic matching, and the Morse complex
on its critical cells has the same homology (Forman, "Morse theory for
cell complexes").  Only its boundary between two
degrees that both keep critical cells goes to the Smith normal form of
``sncx.snf``; a subdivided sphere keeps one vertex and one top cell.
The critical counts of the same pass let :func:`wedge_certificate`
read simple connectivity off the matching.

Reduced homology convention, used uniformly: the empty complex has
reduced homology of rank one in degree -1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from collections import deque
from heapq import heapify, heappop, heappush

from .complexes import CombinatorialComplex, _compacted
from .errors import BoundaryNotSquareZero, NotRegularCW
from .presentations import (
    GroupPresentation,
    abelianization,
    fundamental_group_presentation,
    tietze_simplify,
)
from .snf import SNFResult, _reduce, smith_normal_form

__all__ = [
    "ChainComplex", "HomologyResult", "chain_complex", "homology",
    "cohomology_rank", "weight_zero_cohomology_rank", "top_weight_ranks",
    "wedge_certificate", "WedgeCertificate", "collapse_to_point",
    "smith_normal_form", "SNFResult", "fundamental_group_presentation",
    "tietze_simplify", "GroupPresentation", "abelianization",
]


class ChainComplex:
    """Sparse integer boundary maps indexed by degree, with face bases."""

    def __init__(self, bases: dict, matrices: dict):
        self.bases = bases          # degree -> tuple of basis face ids
        # degree k -> {column j of C_k: {row i of C_{k-1}: nonzero coeff}}
        self.matrices = matrices
        _check_square_zero(matrices)

    @property
    def top_degree(self) -> int:
        return max(self.bases, default=-1)

    def boundary(self, k: int) -> dict:
        """The boundary map C_k -> C_{k-1} as ``{column: {row: coeff}}``."""
        return self.matrices.get(k, {})


def chain_complex(c: CombinatorialComplex) -> ChainComplex:
    """Boundary maps of a complex, one per degree: the Delta route or the
    cellular route, moved from the slots homology uses to canonical
    positions."""
    live, column = c._num[3], _columns(c)
    pos = c._slot_key() or (lambda x: x)    # the canonical position of a slot
    starts = c._starts
    bases = {k: c.face_ids[starts[k]:starts[k + 1]]
             for k in range(len(starts) - 1)}
    matrices = {k: {j - starts[k]: {pos(i) - starts[k - 1]: a
                                    for i, a in column(live[j]).items()}
                    for j in range(starts[k], starts[k + 1])}
                for k in range(1, len(bases))}
    return ChainComplex(bases, matrices)


def _columns(c: CombinatorialComplex):
    """Signed column lookup ``slot -> {slot: coeff}`` on the numbering of
    ``c``: on the Delta route a fresh dict of the facet slots with
    alternating signs, on the cellular route the incidence numbers of
    :func:`_cellular_boundaries`, checked and chosen for every face."""
    if not c.has_delta:
        return _cellular_boundaries(c).__getitem__
    below = c._num[1]
    signs = (1, -1) * (c.dimension + 1)     # zip stops at the k+1 facets
    # the facets in a Delta-structure are distinct, so nothing cancels
    return lambda x: dict(zip(below[x], signs))


def _check_square_zero(matrices: dict):
    # compose column by column, lowest degree first: O(nnz) for bounded
    # column sizes
    for k in sorted(matrices):
        below = matrices.get(k - 1, {})
        for col in matrices[k].values():
            acc = {}
            for i, a in col.items():
                for r, b in below.get(i, {}).items():
                    acc[r] = acc.get(r, 0) + a * b
            if any(acc.values()):
                raise BoundaryNotSquareZero(
                    f"boundary squared is nonzero from degree {k}")


def _order_complex_chi(c: CombinatorialComplex) -> int:
    """Euler characteristic of the order complex, without building it.

    The chains with top element f count s(f) = 1 - sum of s(g) over the
    faces g < f, with sign (-1)^(length - 1); the order complex's Euler
    characteristic is the sum of s(f).
    """
    s = []
    for below in c._downsets():
        s.append(1 - sum(map(s.__getitem__, below)))
    return sum(s)


def _cellular_boundaries(c: CombinatorialComplex) -> dict:
    """The boundary of a face poset from incidence numbers, cell by cell:
    ``{slot: {facet slot: coeff}}`` over the live slots of its numbering.

    Raises :class:`NotRegularCW` first when the Euler-Poincare identity
    fails for the order complex, then when a cell's incidence numbers
    cannot be chosen.  An edge gets -1 on its first vertex and +1 on its
    second.  A k-cell, k >= 2, gets +1 on its first facet; its other
    facets are reached through shared ridges, each of which must lie in
    exactly two of the cell's facets, and [s:t][t:r] + [s:t'][t':r] = 0
    fixes the sign of the next facet and must hold wherever the walk
    closes (Bjorner, "Posets, regular CW complexes and Bruhat order").
    """
    # the message the order-complex route gave, from its Betti numbers
    chi = _order_complex_chi(c)
    if chi != c.euler_characteristic():
        raise NotRegularCW(
            f"the Betti numbers give Euler characteristic {chi}, "
            f"the face numbers {c.euler_characteristic()}")
    ids, below, live = c._num[0], c._num[1], c._num[3]
    inc = {}                    # cell -> {facet: incidence number}
    for x, k in zip(live, c._grades()):     # dimension-major: facets come first
        facets = below[x]
        if k < 2:               # a vertex has none, an edge two
            inc[x] = dict(zip(facets, (-1, 1)))
            continue
        at: dict = {}           # ridge -> the facets of x holding it
        for t in facets:
            for r in below[t]:
                at.setdefault(r, []).append(t)
        for r, ts in at.items():
            if len(ts) != 2:
                raise NotRegularCW(
                    f"ridge {ids[r]!r} lies in {len(ts)} facets of cell "
                    f"{ids[x]!r}, wants 2")
        sign = {facets[0]: 1}
        queue = [facets[0]]
        for t in queue:
            for r in below[t]:
                u = at[r][at[r][0] == t]    # the other facet at r
                want = -sign[t] * inc[t][r] * inc[u][r]
                if u not in sign:
                    sign[u] = want
                    queue.append(u)
                elif sign[u] != want:
                    raise NotRegularCW(
                        f"the incidence signs of cell {ids[x]!r} do not "
                        f"close at ridge {ids[r]!r}")
        if len(sign) != len(facets):
            raise NotRegularCW(
                f"the facets of cell {ids[x]!r} are not connected through ridges")
        inc[x] = sign
    return inc


def _coreduce(below: list, above: list, live) -> tuple:
    """One coreduction pass over the slots ``live`` of a numbering, with
    the facet slots ``below`` and the coface slots ``above``: an acyclic
    matching.

    A cell is queued, first in first out, when its alive boundary shrinks
    to one cell s; if still so when dequeued, t and s are matched and
    removed.  Only the facet slots are read: every incidence [t:s] is
    +-1 on both routes, by position on the Delta route and by choice on
    the cellular one, so a cellular column's keys are exactly its facet
    slots.  With the queue empty the alive cell that comes first in
    ``live``, the canonical order, is critical and removed.  A slot
    outside ``live`` is never alive, and no live cell lies above it.
    Returns the critical slots in canonical order, each matched lower
    cell's upper cell, and each cell's removal step.  Those steps
    strictly decrease along V-paths, so the matching is acyclic: an
    upper cell's other facets go before its pair.
    """
    n, m = len(below), len(live)
    # every slot starts alive unless some are dead or outside ``live``
    alive, when = [m == n] * n, [0] * n
    if m < n:
        for x in live:
            alive[x] = True
    nb = list(map(len, below))          # alive facets per cell
    fsum = list(map(sum, below))        # their slots' sum: the one left
    queue, critical, up = deque(), [], {}
    low = step = 0
    while True:
        if queue:
            t = queue.popleft()
            s = fsum[t]
            if not alive[t] or nb[t] != 1:
                continue
            up[s] = t
            removed = (s, t)
        else:
            while low < m and not alive[live[low]]:
                low += 1
            if low == m:
                return critical, up, when
            critical.append(live[low])
            removed = (live[low],)
        step += 1
        for x in removed:
            alive[x] = False
            when[x] = step
            for y in above[x]:
                nb[y] -= 1
                fsum[y] -= x
                if nb[y] == 1:
                    queue.append(y)


def _morse_boundary(column, c: int, up: dict, when: list, critical) -> dict:
    """The Morse boundary of the critical cell ``c``, a fresh dict, from
    the signed columns ``column(i)``: each matched lower cell s, latest
    removed first, becomes s - [t:s] bd(t) for its upper cell t, which
    brings in only earlier ones; the rest is projected to the
    ``critical`` cells."""
    x = dict(column(c))
    heap = [(-when[s], s) for s in x if s in up]
    heapify(heap)
    while heap:
        s = heappop(heap)[1]
        a = x.pop(s)
        if a:
            col = column(up[s])
            q = a * col[s]
            for r, b in col.items():
                if r != s:
                    if r not in x and r in up:
                        heappush(heap, (-when[r], r))
                    x[r] = x.get(r, 0) - q * b
    return {r: a for r, a in x.items() if a and r in critical}


@dataclass(frozen=True)
class HomologyResult:
    """Per-degree Betti ranks and torsion invariant factors."""

    table: tuple            # ((degree, betti, torsion-tuple), ...)
    reduced: bool = False

    def betti(self, k: int) -> int:
        return next((b for d, b, _t in self.table if d == k), 0)

    def torsion(self, k: int) -> tuple:
        return next((t for d, _b, t in self.table if d == k), ())

    def betti_vector(self) -> tuple:
        ds = [d for d, _b, _t in self.table]
        return tuple(map(self.betti, range(min([0, *ds]), max(ds, default=-1) + 1)))

    def has_torsion(self) -> bool:
        return any(t for _d, _b, t in self.table)

    def nonzero(self) -> tuple:
        """The rows with nonzero rank or torsion; dimension-independent."""
        return tuple((d, b, t) for d, b, t in self.table if b or t)

    def same_groups(self, other: "HomologyResult") -> bool:
        return self.nonzero() == other.nonzero()

    def as_json(self) -> list:
        return [{"degree": d, "betti": b, "torsion": list(t)}
                for d, b, t in self.table]

    def __str__(self):
        parts = [f"H{'~' if self.reduced else ''}_{d}=Z^{b}"
                 + ("".join(f"+Z/{q}" for q in t) if t else "")
                 for d, b, t in self.table]
        return ", ".join(parts) if parts else "0"


def homology(c: CombinatorialComplex, reduced: bool = False) -> HomologyResult:
    """Integral homology in all degrees; ``reduced`` adjusts degree 0."""
    return _homology(c, reduced)[0]


def _homology(c: CombinatorialComplex, reduced: bool = False) -> tuple:
    """``(homology(c, reduced), counts)``: ``counts[k]`` is the number of
    critical k-cells of the acyclic matching the homology was read from."""
    column = _columns(c)
    below, above, live = c._num[1:4]
    critical, up, when = _coreduce(below, above, live)
    pos, starts = c._slot_key() or (lambda x: x), c._starts
    crit = [[] for _ in range(c.dimension + 1)]
    for x in critical:
        crit[bisect_right(starts, pos(x)) - 1].append(x)
    ranks, torsions = {}, {}
    for k in range(1, len(crit)):
        if crit[k] and crit[k - 1]:
            lower = set(crit[k - 1])
            res = _reduce([_morse_boundary(column, s, up, when, lower)
                           for s in crit[k]])
            ranks[k] = res.rank
            torsions[k - 1] = tuple(d for d in res.invariant_factors if d > 1)
    table = tuple((k, len(crit[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0),
                   torsions.get(k, ())) for k in range(len(crit)))
    h = HomologyResult(table)
    return _as_reduced(h) if reduced else h, tuple(map(len, crit))


def _as_reduced(h: HomologyResult) -> HomologyResult:
    """Reduced homology from the unreduced homology ``h`` of a complex."""
    return HomologyResult(tuple((k, b - (k == 0), t) for k, b, t in h.table)
                          or ((-1, 1, ()),), True)


def cohomology_rank(c: CombinatorialComplex, k: int) -> int:
    """Rank of rational cohomology H^k, which equals the Betti number."""
    return homology(c).betti(k)


def weight_zero_cohomology_rank(c: CombinatorialComplex, k: int,
                                resolution: bool = False) -> int:
    """Rational cohomology rank of a dual complex, weight-zero relabeled.

    Plain mode returns the H^k rank of the complex.  With ``resolution``
    the reduced rank in degree k-1 is returned, labeled as the weight
    zero part of reduced degree-k cohomology of the singularity.
    """
    if resolution:
        return homology(c, reduced=True).betti(k - 1)
    return homology(c).betti(k)


def top_weight_ranks(c: CombinatorialComplex, n: int) -> dict:
    """Reduced homology ranks relabeled as the top weight graded pieces.

    Entry k holds the rank of reduced H_{k-1} of the boundary complex,
    i.e. the rank of the 2n-weight piece of cohomology in degree 2n-k.
    """
    h = homology(c, reduced=True)
    return {k: h.betti(k - 1) for k in range(0, c.dimension + 2)}


# -- collapses ---------------------------------------------------------------


def collapse_to_point(c: CombinatorialComplex, budget: int = 10000):
    """Greedy elementary collapses with backtracking.

    Returns ``(success, sequence)`` where the sequence lists the removed
    (free face, coface) pairs.  Failure is not a proof that the complex
    is not collapsible, only that the search budget ran out or no free
    pair exists.  The depth-first search is iterative, over one set of
    alive faces restored on backtrack; ``budget`` bounds the states
    expanded, each remembered by the bitmask of its alive faces.  Free
    pairs are tried from the top dimension down, then in canonical order.

    The facet and coface lists are the numbering's
    (``CombinatorialComplex._num``), read by canonical position: as they
    are where slot i sits at position i, else compacted to positions.
    Each face keeps the count of its alive cofaces and the sum of their
    positions, which is its one alive coface when it has one; a face s
    is free when the count is 1 and its coface t has none.  Removing or
    restoring a pair changes the counts of its facets only, by one each,
    so a face's free state can change only for a facet whose count
    reaches 1 or leaves it, and, below a facet whose count reaches or
    leaves 0, for a facet of that one whose count is 1.  Only those are
    looked at again.  After every step ``free`` holds the pairs a scan of
    every face would find, so which faces were looked at never changes
    the order in which pairs are tried.

    The free pairs of a state depend on its alive faces alone, and
    restoring a pair on backtrack restores those.  So a state's first
    pair is the least key of a heap of free pairs (lazily deleted: an
    entry counts while ``free`` still holds it), and the first backtrack
    into a state sorts its free keys above the one tried there, once:
    the pairs come in the order a sorted snapshot of the state gives,
    and a state the search never returns to is never sorted.  A state is
    a point when the number of pairs removed reaches (faces - 1) / 2, and
    a search that expands no more states only backtracks and tries other
    pairs one level up, which reaches no state with more pairs removed
    than the one it left.  So once ``budget`` states are expanded, the
    first backtrack ends the search: it could only try states that are
    not a point.
    """
    if c.is_empty:
        return False, ()
    faces = c.face_ids
    n = len(faces)
    dims = list(c._grades())
    num = c._num
    below, above = (num if num[3] == range(len(num[1])) else
                    _compacted(faces, num))[1:3]
    up = list(map(len, above))          # alive cofaces per face
    upsum = list(map(sum, above))       # the sum of their positions
    # a free pair (s, t): s has exactly one alive coface t, t has none
    alive = [True] * n
    free = {s: (-dims[t], t, s) for s, t in enumerate(upsum)
            if up[s] == 1 and not up[t]}    # free face s -> sort key
    heap = sorted(free.values())    # free keys, some no longer in free
    seen = set()                    # bitmasks of the states expanded

    def refresh(redo):
        for f in redo:
            t = upsum[f]
            if alive[f] and up[f] == 1 and not up[t]:
                key = (-dims[t], t, f)
                if free.get(f) != key:
                    free[f] = key
                    heappush(heap, key)
                    if len(heap) > 2 * n:   # drop the stale keys
                        heap[:] = sorted(free.values())
            else:
                free.pop(f, None)

    def kill(s, t):
        alive[s] = alive[t] = False
        redo = []
        for f in (s, t):
            for g in below[f]:
                k = up[g] = up[g] - 1
                upsum[g] -= f
                if k < 2:               # the count left 1 or reached it
                    redo.append(g)
                    if not k:   # and reached 0: recheck faces whose one coface is g
                        redo += [h for h in below[g] if up[h] == 1]
        refresh(redo)

    def restore(s, t):
        alive[s] = alive[t] = True
        redo = []
        for f in (s, t):
            for g in below[f]:
                k = up[g] = up[g] + 1
                upsum[g] += f
                if k < 3:               # the count reached 1 or left it
                    redo.append(g)
                    if k == 1:  # and left 0: recheck faces whose one coface is g
                        redo += [h for h in below[g] if up[h] == 1]
        refresh(redo)

    keys = [(1 << n) - 1]           # keys[d]: bitmask of alive after trail[:d]
    trail = []
    rest = []       # rest[d]: the untried pairs of the state after trail[:d],
                    # sorted on the first backtrack into it, None before
    while True:
        if n - 2 * len(trail) == 1 and dims[alive.index(True)] == 0:
            return True, tuple((faces[s], faces[t]) for s, t in trail)
        key = pairs = None
        if keys[-1] not in seen and len(seen) < budget:
            seen.add(keys[-1])
            while heap and free.get(heap[0][2]) != heap[0]:
                heappop(heap)
            key = heap[0] if heap else None
        while key is None:  # backtrack to the deepest state with an untried pair
            if not trail or len(seen) >= budget:
                return False, ()
            s, t = trail.pop()
            restore(s, t)
            keys.pop()
            pairs = rest.pop()
            if pairs is None:
                last = (-dims[t], t, s)
                pairs = iter(sorted(k for k in free.values() if k > last))
            key = next(pairs, None)
        s, t = key[2], key[1]
        kill(s, t)
        keys.append(keys[-1] ^ 1 << s ^ 1 << t)
        trail.append((s, t))
        rest.append(pairs)


# -- wedge certification -----------------------------------------------------


@dataclass(frozen=True)
class WedgeCertificate:
    """Four-valued verdict on being a wedge of d-spheres."""

    status: str                 # certified-wedge | rational-homology-wedge |
                                # refuted | inconclusive
    count: int | None = None
    detail: str = ""
    witness: dict = field(default_factory=dict)

    def __str__(self):
        if self.count is None:
            return self.status
        return f"{self.status}({self.count})"


def _is_wedge_homology(h: HomologyResult, d: int):
    """Check reduced homology is free and concentrated in degree d."""
    if h.has_torsion() or any(b for k, b, _t in h.table if k != d):
        return None
    return h.betti(d)


def _pi1(c, budget) -> tuple:
    """π₁ of ``c``, its edge-path presentation after Tietze moves under
    ``budget``: whether they reached the trivial group, the rank of the
    free group they left if no relator is left (else None), a witness."""
    simplified, status = tietze_simplify(fundamental_group_presentation(c), budget)
    rank = None if simplified.relators else simplified.generators
    if status == "trivial":
        return True, rank, {"generators": 0, "status": status}
    return False, rank, {"generators": simplified.generators,
                         "relators": len(simplified.relators), "status": status}


def wedge_certificate(c: CombinatorialComplex, d: int,
                      tietze_budget: int = 20000,
                      collapse_budget: int = 4000, *,
                      _reduced_homology: tuple | None = None
                      ) -> WedgeCertificate:
    """Decide whether ``c`` has the homotopy type of a wedge of d-spheres.

    ``certified-wedge(m)``: integral homology is free and concentrated in
    degree d with rank m, and simple connectivity (resp. freeness of the
    fundamental group for d=1, per-component triviality for d=0) was
    certified.  ``rational-homology-wedge(m)``: the homological conditions
    hold but the fundamental group question stayed open.  ``refuted``:
    the homology contradicts every wedge of d-spheres.  ``inconclusive``
    otherwise.

    The fundamental group is first read off the acyclic matching that
    the homology came from.  By Forman ("Morse theory for cell
    complexes"), a regular CW complex is homotopy equivalent to a CW
    complex with one k-cell per critical k-cell, and so is its 2-skeleton
    under the matching restricted to it, where a 2-cell matched with a
    3-cell is critical.  For d >= 2, one critical vertex and no critical
    edge make ``c`` simply connected; for d = 1, one critical vertex, m
    critical edges and no critical 2-cell of the 2-skeleton make its
    fundamental group free of rank m.  Only the 2-skeleton is read, the
    part of a face poset whose regularity the cellular route checks.
    Otherwise the edge-path presentation goes through Tietze moves, under
    ``tietze_budget``.  For m = 0 the collapse search runs first, since
    its sequence is the witness; the d = 0 case asks each component to
    collapse or to present the trivial group.

    A caller that already holds ``_homology(c, reduced=True)``, the
    reduced homology and the critical counts of its matching, passes it
    as ``_reduced_homology`` to save computing them again.
    """
    if d < 0:
        return WedgeCertificate("inconclusive", None, "negative sphere dimension")
    if c.is_empty:
        return WedgeCertificate("refuted", None, "empty complex")

    h, counts = _reduced_homology or _homology(c, reduced=True)
    m = _is_wedge_homology(h, d)
    if m is None:
        return WedgeCertificate(
            "refuted", None,
            "integral homology is not free and concentrated in one degree",
            {"homology": h.as_json()})

    if d == 0:
        if all(collapse_to_point(sub, collapse_budget)[0]
               or _pi1(sub, tietze_budget)[0]
               for sub in map(c._restricted, c.connected_components())):
            return WedgeCertificate("certified-wedge", m,
                                    "all components certified contractible")
        return WedgeCertificate("rational-homology-wedge", m,
                                "component contractibility not certified")

    vertices, edges = (*counts, 0)[:2]      # the critical ones
    if d == 1:
        # each k-cell is critical or matched down or up; a 2-cell of the
        # 2-skeleton is critical unless matched with an edge
        f0, f1, f2 = (*c.f_vector(), 0, 0)[:3]
        free = (vertices, edges) == (1, m) and f1 - edges - (f0 - vertices) == f2
        if free or _pi1(c, tietze_budget)[1] == m:
            return WedgeCertificate(
                "certified-wedge", m, "fundamental group free of matching rank",
                {"generators": m})
        return WedgeCertificate("rational-homology-wedge", m,
                                "fundamental group not certified free")

    # d >= 2: need simple connectivity
    if m == 0:
        collapsed, seq = collapse_to_point(c, collapse_budget)
        if collapsed:
            return WedgeCertificate("certified-wedge", 0,
                                    "collapses to a point",
                                    {"collapse": [list(p) for p in seq]})
    if (vertices, edges) == (1, 0):
        ok, info = True, {"generators": 0, "status": "trivial"}
    else:
        ok, _rank, info = _pi1(c, tietze_budget)
    if ok:
        return WedgeCertificate("certified-wedge", m,
                                "simply connected with wedge homology", info)
    return WedgeCertificate("rational-homology-wedge", m,
                            "simple connectivity not certified", info)
