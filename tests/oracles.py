"""Slow reference implementations kept as oracles for the fast paths.

Each is the straightforward version the library used before its
current implementation: integral homology that reduces each boundary
map on its own, bottom up, and one that reduces them from the top
degree down with clearing, the homology of a face poset taken through
its order complex and guarded by the Euler-Poincare identity, a dense
Euclid Smith normal form (also the oracle of the Bareiss rank), a
kernel line by elimination over exact rationals, a recursive collapse
search that rescans every alive face for free pairs in each state, a
recursive acyclicity check for Morse matchings, a facet census that
solves a kernel line for every subset of points and coordinate
directions, a face lattice that intersects every pair of faces found
as sets of point indices (both taking affine dimensions by their own
rank helper, apart from the census's), the ends of an edge found by
sorting its points along it, a poset isomorphism search that recurses
once per face, the complexes read off polyhedra and fans built by
scanning every cell for every cell, then puckered one long edge at a
time, a blowup-script replay that builds every move output and level
subcomplex with the validating constructor and computes every homology
again, a wedge built as a disjoint union and then rebuilt with the two
vertices merged, the coface table a complex built from its covering
relation beside its numbering, a case 3 check that scans the whole
attachment closure for the spans of each of its faces, and that validating
constructor itself: every check run on every face of a record list,
kept apart from the library's record reader and from the graft that
checks only the faces a move creates, a Tietze pass that
renumbers the generators after every elimination, one that scans,
substitutes into and recanonicalizes every relator on every turn, a
collapse search that sorts the free pairs of every state it expands,
a replay that checks a collapse sequence one elementary collapse at a
time, the report writer that hands every document to ``json.dumps``, a
vertex flow that finds spans by indexing every face by its vertex set,
a fundamental group presentation whose spanning tree walks sorted
adjacency lists, a wedge certificate that leaves the fundamental group
to the presentation and Tietze moves alone, and four writers of
simplicial complexes that each wrote their own records: an order
complex with its own chain frontier, a subset complex, the
all-simplicial toric link, and a realization that built the subset
complex and its order complex and enumerated the chains below every
subset again.  Last come the writers that each wrote
their own records before one re-emitter, one cone writer and one
polytope census were shared: a cone and an attached cone, a relabeling,
the records of a union, a quotient by an involution, a lattice polytope
reading its own points, the exponent vectors as the Newton polyhedron
read them, and a torus boundary complex with its own cell ids.  Then
the record reader as it was before its checks were fused into one loop,
which ran each check on every face before the next and numbered the
complex from its finished maps, and the boundary walk of a 2-cell that
kept a list of the edges at each vertex.  Then the one route the four
simplicial builders took before they assembled their complexes from
vertex tuples: records written from the tuples and read back by the
constructor, and the ordering of their subsets by one Python key each.
Last, the record writers of the moves from before they grafted slot
lists onto the numbering, a stellar subdivision's, a pucker's and a
blowup move made of them and the attached cone's, whose records the
validating constructor reads after the kept faces', and the converters
between a move's slot columns and records that the graft's fault tests
use.  Then the CLI's input reader from before it read each file once: the
document from the file opened as UTF-8 text, the digest from its bytes
read again.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from collections import Counter, deque
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations

from sncx.complexes import (
    CombinatorialComplex,
    _dedup_ids,
    _inclusion_records,
    _simplex_records,
)
from sncx.errors import (
    BadDeltaStructure,
    DanglingFace,
    DescriptorInvalid,
    DimensionTooHigh,
    DuplicateFace,
    EmptyInput,
    GradingViolation,
    HasFixedFace,
    LevelNotDownwardClosed,
    MatchingNotAcyclic,
    MissingDeltaStructure,
    NotAVertex,
    NotConnected,
    NotFullDimensional,
    NoSuchFace,
    NotInvolution,
    NotRegularCW,
    NotSubsetClosed,
    PairingIncomplete,
    PairingNotUnique,
    QuotientNotRegular,
    ScriptError,
)
from sncx.homology import (
    HomologyResult,
    chain_complex,
    homology,
    wedge_certificate,
)
from sncx.newton import (
    MAX_AMBIENT,
    PolyFace,
    PolyFacet,
    SubdividedSimplex,
    _dot,
    _face_lattice,
    _facet_census,
)
from sncx.presentations import (
    GroupPresentation,
    _canonical_relator,
    _cyclic_reduce,
    _free_reduce,
    _invert,
    _shorten_by_overlap,
)
from sncx import snf
from sncx.serialize import complex_to_dict
from sncx.snf import SNFResult, kernel_line, smith_normal_form
from sncx.transforms import (
    BlowupMove,
    ScriptLog,
    _closure,
    _validate_case3,
    blowup_move,
    pucker,
)


def per_degree_homology(c, reduced=False):
    """Homology from the Smith normal form of every boundary map in full."""
    if c.is_empty:
        table = ((-1, 1, ()),) if reduced else ()
        return HomologyResult(table, reduced)
    cx = chain_complex(c)
    top = cx.top_degree
    ranks = {}
    torsions = {}
    for k in range(1, top + 1):
        res = smith_normal_form(cx.boundary(k))
        ranks[k] = res.rank
        torsions[k - 1] = tuple(d for d in res.invariant_factors if d > 1)
    table = []
    for k in range(top + 1):
        n_k = len(cx.bases.get(k, ()))
        b = n_k - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if reduced and k == 0:
            b -= 1
        table.append((k, b, torsions.get(k, ())))
    return HomologyResult(tuple(table), reduced)


def order_complex_homology(c, reduced=False):
    """Homology of a face poset through its order complex.

    :func:`per_degree_homology` on the order complex, which has the
    homology of ``c`` when ``c`` is regular CW, guarded by the
    Euler-Poincare identity.
    """
    if c.has_delta:
        return per_degree_homology(c, reduced)
    h = per_degree_homology(c.order_complex())
    chi = sum((-1) ** k * b for k, b, _t in h.table)
    if chi != c.euler_characteristic():
        raise NotRegularCW(
            f"the Betti numbers give Euler characteristic {chi}, "
            f"the face numbers {c.euler_characteristic()}")
    if not reduced:
        return h
    return HomologyResult(tuple((k, b - (k == 0), t) for k, b, t in h.table),
                          True)


def _clearing_snf(columns, cleared):
    """SNF of a sparse map without its ``cleared`` columns, and the rows
    of its unit pivots, the columns to clear one degree lower.

    The unit elimination and the Euclid block are the library's, looked
    up on ``sncx.snf`` at each call.
    """
    vecs = [dict(col) for j, col in columns.items() if j not in cleared]
    pivots = snf._eliminate_units(vecs)
    rest = [vec for vec in vecs if vec]
    cols = sorted({i for vec in rest for i in vec})
    diag = snf._euclid_diagonal([[vec.get(i, 0) for i in cols] for vec in rest])
    units = len(pivots)
    return SNFResult((1,) * units + tuple(diag), units + len(diag)), pivots


def clearing_homology(c, reduced=False):
    """Homology in one pass from the top degree down, with clearing.

    The k-cells on which the boundary from degree k+1 has unit pivots
    are dropped from the columns of the boundary from degree k before it
    is reduced (Chen-Kerber, "Persistent homology computation with a
    twist").  The boundaries those pivots were taken from form a
    unimodular triangular system on the pivot cells, so each dropped
    column is an integer combination of the kept ones and the rank and
    torsion do not change.
    """
    if c.is_empty:
        table = ((-1, 1, ()),) if reduced else ()
        return HomologyResult(table, reduced)
    cx = chain_complex(c)
    top = cx.top_degree
    ranks = {}
    torsions = {}
    cleared = frozenset()
    for k in range(top, 0, -1):
        res, pivots = _clearing_snf(cx.boundary(k), cleared)
        cleared = frozenset(pivots)     # columns of the boundary one lower
        ranks[k] = res.rank
        torsions[k - 1] = tuple(d for d in res.invariant_factors if d > 1)
    table = tuple((k, len(cx.bases[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
                   - (reduced and k == 0), torsions.get(k, ()))
                  for k in range(top + 1))
    return HomologyResult(table, reduced)


def dense_smith_normal_form(rows):
    """(invariant factors, rank) of a list-of-rows integer matrix."""
    A = [[int(x) for x in r] for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0

    def swap_pivot_to_corner(top, left):
        piv = None
        best = None
        for i in range(top, m):
            for j in range(left, n):
                v = A[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
        if piv is None:
            return False
        pi, pj = piv
        if pi != top:
            A[top], A[pi] = A[pi], A[top]
        if pj != left:
            for row in A:
                row[left], row[pj] = row[pj], row[left]
        return True

    diag = []
    top = left = 0
    while top < m and left < n:
        if not swap_pivot_to_corner(top, left):
            break
        while True:
            p = A[top][left]
            dirty = False
            for i in range(top + 1, m):
                if A[i][left]:
                    q = A[i][left] // p
                    for j in range(left, n):
                        A[i][j] -= q * A[top][j]
                    if A[i][left]:
                        dirty = True
            for j in range(left + 1, n):
                if A[top][j]:
                    q = A[top][j] // p
                    for i in range(top, m):
                        A[i][j] -= q * A[i][left]
                    if A[top][j]:
                        dirty = True
            if not dirty:
                break
            swap_pivot_to_corner(top, left)
        diag.append(abs(A[top][left]))
        top += 1
        left += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = math.gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return tuple(diag), len(diag)


def rational_kernel_line(rows, dim):
    """A primitive integer spanning vector of the kernel, if it is a line."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(dim):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c] / pv
                for j in range(c, dim):
                    mat[i][j] -= f * mat[r][j]
        pivots.append(c)
        r += 1
    free = [c for c in range(dim) if c not in pivots]
    if len(free) != 1:
        return None
    fc = free[0]
    vec = [Fraction(0)] * dim
    vec[fc] = Fraction(1)
    for i, c in enumerate(pivots):
        vec[c] = -mat[i][fc] / mat[i][c]
    denom = 1
    for x in vec:
        denom = denom * x.denominator // math.gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    return tuple(x // g for x in ints)


def _free_pairs(c, alive, cofaces, idx):
    # free pair: sigma covered by exactly one alive face tau, tau maximal
    pairs = []
    for f in alive:
        up = [g for g in cofaces[f] if g in alive]
        if len(up) == 1 and not any(g in alive for g in cofaces[up[0]]):
            pairs.append((f, up[0]))
    # prefer collapsing from the top dimension down, then canonical order
    pairs.sort(key=lambda p: (-c.dim(p[1]), idx[p[1]], idx[p[0]]))
    return pairs


def recursive_collapse_to_point(c, budget=10000):
    """Depth-first collapse search, one frozenset per visited state."""
    if c.is_empty:
        return False, ()
    cofaces = {f: [] for f in c.face_ids}
    for f in c.face_ids:
        for g in c.facets(f):
            cofaces[g].append(f)
    idx = {f: i for i, f in enumerate(c.face_ids)}
    seen = set()
    steps = [0]

    def search(alive, trail):
        if len(alive) == 1:
            f = next(iter(alive))
            if c.dim(f) == 0:
                return tuple(trail)
        if alive in seen or steps[0] >= budget:
            return None
        seen.add(alive)
        steps[0] += 1
        for sigma, tau in _free_pairs(c, alive, cofaces, idx):
            res = search(alive - {sigma, tau}, trail + [(sigma, tau)])
            if res is not None:
                return res
        return None

    result = search(frozenset(c.face_ids), [])
    if result is None:
        return False, ()
    return True, result


def sorting_collapse_to_point(c, budget=10000, stats=None):
    """Iterative collapse search that keeps each expanded state's free
    pairs as an iterator over their sorted snapshot and finds a face's
    one alive coface by scanning its cofaces.  ``stats``, a dict, counts
    under ``"resumed"`` the pairs taken from a state after a backtrack."""
    if c.is_empty:
        return False, ()
    faces = c.face_ids
    idx = {f: i for i, f in enumerate(faces)}
    dims = [c.dim(f) for f in faces]
    below = [[idx[g] for g in c.facets(f)] for f in faces]
    above = [[] for _ in faces]
    for i, fs in enumerate(below):
        for j in fs:
            above[j].append(i)
    alive = [True] * len(faces)
    up = [len(a) for a in above]
    free = {}

    def refresh(f):
        free.pop(f, None)
        if alive[f] and up[f] == 1:
            t = next(g for g in above[f] if alive[g])
            if not up[t]:
                free[f] = (-dims[t], t, f)

    def toggle(pair, now_alive):
        s, t = pair
        alive[s] = alive[t] = now_alive
        step = 1 if now_alive else -1
        touched = {s, t}
        for f in (s, t):
            for g in below[f]:
                up[g] += step
                touched.add(g)
                touched.update(below[g])
        for f in touched:
            refresh(f)

    for f in range(len(faces)):
        refresh(f)
    keys = [(1 << len(faces)) - 1]
    trail = []
    stack = []
    seen = set()
    while True:
        if len(faces) - 2 * len(trail) == 1 and dims[alive.index(True)] == 0:
            return True, tuple((faces[s], faces[t]) for s, t in trail)
        fresh = keys[-1] not in seen and len(seen) < budget
        if fresh:
            seen.add(keys[-1])
            stack.append(iter(sorted(free.values())))
        while True:
            if len(stack) <= len(trail):
                if not trail:
                    return False, ()
                toggle(trail.pop(), True)
                keys.pop()
                fresh = False
                continue
            key = next(stack[-1], None)
            if key is not None:
                break
            stack.pop()
        if stats is not None and not fresh:
            stats["resumed"] = stats.get("resumed", 0) + 1
        pair = key[2], key[1]
        toggle(pair, False)
        keys.append(keys[-1] ^ 1 << pair[0] ^ 1 << pair[1])
        trail.append(pair)


def replay_collapse(c, seq):
    """Whether ``seq``, a list of (free face, coface) id pairs, collapses
    ``c`` to one vertex: each pair in turn an elementary collapse, s with
    exactly one alive coface, t, and t with none, read off the covering
    relation alone."""
    cofaces = {f: set() for f in c.face_ids}
    for f in c.face_ids:
        for g in c.facets(f):
            cofaces[g].add(f)
    alive = set(c.face_ids)
    for s, t in seq:
        if s not in alive or t not in alive or cofaces[s] & alive != {t} \
                or cofaces[t] & alive:
            return False
        alive -= {s, t}
    return len(alive) == 1 and c.dim(next(iter(alive))) == 0


def recursive_check_acyclic(order, succ):
    """Recursive depth-first search from each node; raise on a cycle."""
    color = {s: 0 for s in order}

    def dfs(u):
        color[u] = 1
        for w in succ[u]:
            if color[w] == 1:
                raise MatchingNotAcyclic(
                    f"V-path cycle through the pair of {u!r}")
            if color[w] == 0:
                dfs(w)
        color[u] = 2

    for s in order:
        if color[s] == 0:
            dfs(s)


def affine_dim(points, onset, recession):
    """The dimension of the affine span of the points indexed by ``onset``
    and the coordinate directions in ``recession``, -1 for no points: the
    rank of the differences to the least point and the unit rows, by
    ``snf.matrix_rank``."""
    if not onset:
        return -1
    base = points[min(onset)]
    rows = [tuple(points[i][j] - base[j] for j in range(len(base)))
            for i in sorted(onset) if i != min(onset)]
    for j in recession:
        rows.append(tuple(1 if t == j else 0 for t in range(len(base))))
    if not rows:
        return 0
    return snf.matrix_rank(rows)


def brute_force_facet_census(points, orthant: bool):
    """Every (points, directions) subset spanning a hyperplane, checked."""
    d = len(points[0])
    npts = len(points)
    found = {}
    subsets = []
    if orthant:
        for k in range(1, d + 1):
            for pts in combinations(range(npts), k):
                for rec in combinations(range(d), d - k):
                    subsets.append((pts, rec))
    else:
        for pts in combinations(range(npts), d):
            subsets.append((pts, ()))
    for pts, rec in subsets:
        base = points[pts[0]]
        rows = [tuple(points[i][j] - base[j] for j in range(d)) for i in pts[1:]]
        for j in rec:
            rows.append(tuple(1 if t == j else 0 for t in range(d)))
        if len(rows) != d - 1:
            continue
        w = kernel_line(rows)
        if w is None:
            continue
        for cand in (w, tuple(-x for x in w)):
            if orthant and any(x < 0 for x in cand):
                continue
            if cand in found:
                continue
            m = min(_dot(cand, p) for p in points)
            onset = frozenset(i for i, p in enumerate(points)
                              if _dot(cand, p) == m)
            frec = tuple(j for j in range(d) if cand[j] == 0) if orthant else ()
            if affine_dim(points, onset, frec) == d - 1:
                found[cand] = PolyFacet(cand, m, onset, all(x > 0 for x in cand)
                                        if orthant else True)
    facets = sorted(found.values(), key=lambda f: f.normal)
    return facets


def pairwise_face_lattice(points, facets, orthant: bool):
    """Intersect each queued face with every face found so far."""
    d = len(points[0])

    def saturate(pset, rec):
        s = frozenset(i for i, f in enumerate(facets)
                      if pset <= f.points and
                      all(f.normal[j] == 0 for j in rec))
        return s

    def build(pset, rec):
        s = saturate(pset, rec)
        dim = affine_dim(points, pset, rec)
        compact = not rec
        return PolyFace(tuple(sorted(pset)), tuple(rec), s, dim, compact)

    by_key = {}
    queue = []
    for i, f in enumerate(facets):
        rec = tuple(j for j in range(d) if f.normal[j] == 0) if orthant else ()
        face = build(f.points, rec)
        key = (face.points, face.recession)
        if key not in by_key:
            by_key[key] = face
            queue.append(face)
    idx = 0
    while idx < len(queue):
        a = queue[idx]
        idx += 1
        for b in list(by_key.values()):
            pset = frozenset(a.points) & frozenset(b.points)
            if not pset:
                continue
            rec = tuple(sorted(set(a.recession) & set(b.recession)))
            key = (tuple(sorted(pset)), rec)
            if key in by_key:
                continue
            face = build(pset, rec)
            key = (face.points, face.recession)
            if key not in by_key:
                by_key[key] = face
                queue.append(face)
    faces = sorted(by_key.values(), key=lambda f: (f.dim, f.points, f.recession))
    return faces


def recursive_complexes_isomorphic(a, b):
    """Poset isomorphism by a backtracking search one call deep per face."""
    if a.f_vector() != b.f_vector():
        return False

    def signatures(c):
        above = {f: [] for f in c.face_ids}
        for f in c.face_ids:
            for g in c.facets(f):
                above[g].append(f)
        sig = {f: (c.dim(f), len(c.facets(f)), len(above[f])) for f in c.face_ids}
        for _ in range(3):
            sig = {f: (sig[f],
                       tuple(sorted(sig[g] for g in c.facets(f))),
                       tuple(sorted(sig[g] for g in above[f])))
                   for f in c.face_ids}
        return sig

    siga, sigb = signatures(a), signatures(b)
    if Counter(siga.values()) != Counter(sigb.values()):
        return False

    order = sorted(a.face_ids, key=lambda f: (a.dim(f), str(siga[f])))
    cands = {f: [g for g in b.face_ids if sigb[g] == siga[f]] for f in order}

    assignment = {}
    used = set()

    def backtrack(i):
        if i == len(order):
            return True
        f = order[i]
        for g in cands[f]:
            if g in used:
                continue
            if {assignment[x] for x in a.facets(f)} != set(b.facets(g)):
                continue
            assignment[f] = g
            used.add(g)
            if backtrack(i + 1):
                return True
            del assignment[f]
            used.discard(g)
        return False

    return backtrack(0)


def pairwise_resolution_complex(np_):
    """The puckered resolution model, covering by an all-pairs scan.

    The nonmaximal interior cells of the normal fan, each covering every
    kept cell one dimension down whose carrier has a smaller facet set,
    then one ``pucker`` per interior compact edge of lattice length > 1.
    """
    keep = [c for c in SubdividedSimplex(np_).cells
            if c.interior and c.carrier.dim >= 1]
    cur = CombinatorialComplex(
        [{"id": c.id, "dim": c.dim,
          "facets": [o.id for o in keep if o.dim == c.dim - 1
                     and o.carrier.facets < c.carrier.facets]}
         for c in keep])
    lengths = {np_.faces[e.face_index]: e.length for e in np_.compact_edges}
    for c in keep:
        ell = lengths.get(c.carrier, 1)
        if ell > 1:
            cur = pucker(cur, c.id, ell)
    return cur


def pairwise_torus_boundary_complex(P, multiplicities=None):
    """The torus hypersurface boundary model, covering by an all-pairs scan."""
    d = P.ambient

    def cell_id(face):
        return "g" + ".".join(str(i) for i in face.points)

    cells = [f for f in P.faces if 1 <= f.dim < d]
    cur = CombinatorialComplex(
        [{"id": cell_id(f), "dim": d - f.dim - 1,
          "facets": [cell_id(g) for g in cells
                     if g.dim == f.dim + 1 and g.facets < f.facets]}
         for f in cells])
    for f in cells:
        if f.dim != 1:
            continue
        cid = cell_id(f)
        ell = P.edge_length(f)
        if multiplicities and cid in multiplicities:
            ell = int(multiplicities[cid])
        if ell > 1:
            cur = pucker(cur, cid, ell)
    return cur


def all_cones_toric_link(fan):
    """The link of a fan's origin, each cone scanning every cone below it."""
    cones = set()
    all_simplicial = True
    for cone in fan.cones:
        cset = frozenset(cone)
        if not cset:
            continue
        if fan.is_simplicial_cone(cset):
            idx = sorted(cset)
            for mask in range(1, 1 << len(idx)):
                cones.add(frozenset(idx[i] for i in range(len(idx))
                                    if mask >> i & 1))
        else:
            all_simplicial = False
            cones.add(cset)
    ordered = sorted(cones, key=lambda c: (len(c), tuple(sorted(c))))
    height = {}
    for c in ordered:
        height[c] = max((height[b] for b in cones if b < c), default=-1) + 1

    def cid(c):
        return "-".join(str(i) for i in sorted(c))

    recs = []
    for c in ordered:
        h = height[c]
        rec = {"id": cid(c), "dim": h,
               "facets": [cid(b) for b in cones if b < c and height[b] == h - 1]}
        if all_simplicial and h >= 1:
            idx = sorted(c)
            rec["delta_order"] = [cid(frozenset(x for x in idx if x != v))
                                  for v in idx]
        recs.append(rec)
    return CombinatorialComplex(recs)


def validating_constructor(records):
    """The complex of ``records``, every check run on every face."""
    records = [dict(r) for r in records]
    dims, labels, cov_raw, delta_raw, levels_raw = {}, {}, {}, {}, {}
    any_delta = any_level = False
    for pos, rec in enumerate(records):
        fid = rec.get("id")
        if not isinstance(fid, str) or not fid:
            raise DuplicateFace(f"face record {pos} has no usable id")
        if fid in dims:
            raise DuplicateFace(f"duplicate face id {fid!r}")
        dim = rec.get("dim")
        if not isinstance(dim, int) or dim < 0:
            raise GradingViolation(f"face {fid!r} has invalid dim {dim!r}")
        dims[fid] = dim
        label = rec.get("label")
        labels[fid] = fid if label is None else str(label)
        cov_raw[fid] = tuple(rec.get("facets", ()))
        if rec.get("delta_order") is not None:
            any_delta = True
            delta_raw[fid] = tuple(rec["delta_order"])
        if rec.get("level") is not None:
            any_level = True
            lv = rec["level"]
            if not isinstance(lv, int) or lv < 1:
                raise LevelNotDownwardClosed(
                    f"face {fid!r} has invalid level {lv!r}; levels start at 1")
            levels_raw[fid] = lv
    for fid, k in dims.items():
        for g in cov_raw[fid]:
            if g not in dims:
                raise DanglingFace(f"face {fid!r} covers unknown face {g!r}")
            if dims[g] != k - 1:
                raise GradingViolation(
                    f"face {fid!r} (dim {k}) covers {g!r} of dim {dims[g]}")
        if k >= 1 and not cov_raw[fid]:
            raise GradingViolation(
                f"face {fid!r} has dim {k} but no codimension-one faces")
        if k == 0 and cov_raw[fid]:
            raise GradingViolation(f"vertex {fid!r} covers faces")

    insertion = {f: pos for pos, f in enumerate(dims)}
    order = tuple(sorted(dims, key=lambda f: (dims[f], labels[f], insertion[f])))
    index = {f: i for i, f in enumerate(order)}
    cov = {f: tuple(sorted(set(cov_raw[f]), key=index.__getitem__))
           for f in order}

    delta = None
    if any_delta:
        for f in order:
            if dims[f] >= 1 and f not in delta_raw:
                raise BadDeltaStructure(
                    f"face {f!r} lacks delta_order while the complex claims one")
        delta = {f: delta_raw.get(f, ()) if dims[f] else () for f in order}
    elif order and all(d == 0 for d in dims.values()):
        delta = {f: () for f in order}

    levels = None
    if any_level:
        for f in order:
            if f not in levels_raw:
                raise LevelNotDownwardClosed(
                    f"face {f!r} lacks a level while the complex is filtered")
        levels = dict(levels_raw)
        for f in order:
            for g in cov[f]:
                if levels[g] > levels[f]:
                    raise LevelNotDownwardClosed(
                        f"face {f!r} at level {levels[f]} covers {g!r} "
                        f"at level {levels[g]}")

    out = CombinatorialComplex.__new__(CombinatorialComplex)
    out._order, out._index, out._is_delta = order, index, delta is not None
    verts = {}
    if delta is None:
        numbered(out, cov, dims, labels, levels)
        for f in order:
            if dims[f] == 1 and len(cov[f]) != 2:
                raise NotRegularCW(
                    f"edge {f!r} covers {len(cov[f])} vertices, wants 2")
            if dims[f] == 2:
                out.boundary_walk(f)
        return out
    for f in order:
        k, d = dims[f], delta[f]
        if k and len(d) != k + 1:
            raise BadDeltaStructure(
                f"face {f!r} of dim {k} has {len(d)} delta facets, wants {k + 1}")
        if k and len(set(d)) != k + 1:
            raise BadDeltaStructure(f"face {f!r} repeats a facet in its delta_order")
        if k and set(d) != set(cov[f]):
            raise BadDeltaStructure(
                f"face {f!r}: delta_order disagrees with its covering set")
    for f in order:
        d = delta[f]
        for i in range(dims[f] + 1 if dims[f] >= 2 else 0):
            for j in range(i):
                if delta[d[i]][j] != delta[d[j]][i - 1]:
                    raise BadDeltaStructure(
                        f"face {f!r} violates the facet identity at ({i},{j})")
    for f in order:
        vs = verts[f] = ((f,) if not dims[f] else
                         (verts[delta[f][1]][0],) + verts[delta[f][0]])
        if len(set(vs)) != len(vs):
            raise BadDeltaStructure(f"face {f!r} has repeated vertices {vs}")
    numbered(out, delta, dims, labels, levels, verts)
    return out


def numbered(out, facets, dims, labels, levels, verts=None):
    """Give ``out`` the numbering and dimension starts its maps name, slot
    i at canonical position i: per face its facet ids in slot order (the
    Delta order, or the canonical one on a face poset) from ``facets``,
    and its label, level and vertex list from the other maps (a map that
    is None gives a column that is None)."""
    order, index = out._order, out._index
    grade = [dims[f] for f in order]
    out._starts = [bisect_left(grade, k) for k in range(grade[-1] + 2 if grade else 1)]
    below = [list(map(index.__getitem__, facets[f])) for f in order]
    above = [[] for _ in below]
    for x, col in enumerate(below):
        for s in col:
            above[s].append(x)
    out._num = (order, below, above, range(len(below)),
                *[None if m is None else [m[f] for f in order]
                  for m in (labels, levels, verts)])


def table_cofaces(c):
    """Face -> the list of its cofaces in canonical order, from the
    covering relation in one pass."""
    up = {g: [] for g in c.face_ids}
    for g in c.face_ids:
        for h in c.facets(g):
            up[h].append(g)
    return up


def two_step_wedge(a, v1, b, v2):
    """The one-point union built as a disjoint union first, then rebuilt
    with ``v2``'s image merged into ``v1``."""
    def renamed(c, f, rename):
        rec = c._record(f)
        rec["id"] = rename[f]
        rec["facets"] = [rename[g] for g in rec["facets"]]
        if "delta_order" in rec:
            rec["delta_order"] = [rename[g] for g in rec["delta_order"]]
        return rec

    keep_delta = a.has_delta and b.has_delta
    keep_levels = a.has_levels and b.has_levels
    rename = dict(zip(b.face_ids, _dedup_ids(b.face_ids, set(a.face_ids))))
    recs = [a._record(f) for f in a.face_ids]
    recs += [renamed(b, f, rename) for f in b.face_ids]
    for rec in recs:
        if not keep_delta:
            rec.pop("delta_order", None)
        if not keep_levels:
            rec.pop("level", None)
    u = validating_constructor(recs)
    v2u = rename[v2]
    merge = {f: f for f in u.face_ids}
    merge[v2u] = v1
    recs = [renamed(u, f, merge) for f in u.face_ids if f != v2u]
    if u.has_levels:
        for rec in recs:
            if rec["id"] == v1:
                rec["level"] = min(u.level(v1), u.level(v2u))
    return validating_constructor(recs)


def derived_by_constructor(c, drop, fresh):
    """``c`` without the faces in ``drop`` and with the ``fresh`` records,
    read by the validating constructor: the kept faces' records first, in
    canonical order, then the fresh ones."""
    return validating_constructor(
        [c._record(f) for f in c.face_ids if f not in drop] + list(fresh))


def graft_columns(c, drop, recs):
    """The arguments of ``c._move`` that drop the faces in ``drop`` and add
    the faces of the records ``recs``: the sorted canonical positions of
    ``drop``, then the fresh faces as columns, each facet (in Delta order on
    a Delta complex) a slot of ``c`` or ``n + i`` for record i, ``n`` the
    number of slots."""
    ids, live = c._num[0], c._num[3]
    fresh = {r["id"]: len(ids) + i for i, r in enumerate(recs)}
    refs = [[fresh[g] if g in fresh else live[c._index[g]]
             for g in (r.get("delta_order") or r["facets"] if c._is_delta else r["facets"])]
            for r in recs]
    labels = [r["id"] if r.get("label") is None else str(r["label"]) for r in recs]
    return (sorted(c._index[f] for f in drop), [r["id"] for r in recs],
            [r["dim"] for r in recs], labels,
            [r.get("level") for r in recs] if c.has_levels else None, refs)


def column_records(c, fids, dims, labels, levels, refs):
    """The records of fresh faces given as ``_move`` columns on ``c``."""
    ids = c._num[0]
    recs = []
    for i, f in enumerate(fids):
        facets = [ids[r] if r < len(ids) else fids[r - len(ids)] for r in refs[i]]
        rec = {"id": f, "dim": dims[i], "facets": facets}
        if labels is not None:
            rec["label"] = labels[i]
        if c._is_delta and facets:
            rec["delta_order"] = facets
        if levels is not None:
            rec["level"] = levels[i]
        recs.append(rec)
    return recs


def stellar_records(c, sigma, new_vertex=None):
    """The star ``stellar_subdivide(c, sigma, new_vertex)`` drops and the
    records of the faces it makes, written from ids face by face."""
    star = c.upset(sigma)
    drop = set(star)
    taken = set(c.face_ids) - drop
    e = _dedup_ids([new_vertex if new_vertex is not None else f"b({sigma})"],
                   taken)[0]
    sigma_verts = sorted(c.vertices_of(sigma))
    n = len(sigma_verts)
    alphas = [frozenset(v for i, v in enumerate(sigma_verts) if mask >> i & 1)
              for mask in range((1 << n) - 1)]
    keys = [(tau, alpha) for tau in star for alpha in alphas]
    ids = dict(zip(keys, _dedup_ids(
        [e] + [f"{e}|{tau}|{'.'.join(sorted(alpha))}" for tau, alpha in keys[1:]],
        taken)))
    recs = []
    for (tau, alpha), nid in ids.items():
        tau_verts = c.vertices_of(tau)
        keep_pos = [i for i, v in enumerate(tau_verts)
                    if v in alpha or v not in sigma_verts]
        rec = {"id": nid, "dim": len(keep_pos), "facets": []}
        if keep_pos:
            delta = [c.subface(tau, keep_pos)]
            for p in keep_pos:
                v = tau_verts[p]
                delta.append(ids[(tau, alpha - {v})] if v in alpha
                             else ids[(c.delta_order(tau)[p], alpha)])
            rec["facets"] = rec["delta_order"] = delta
        if c.has_levels:
            rec["level"] = c.level(tau)
        recs.append(rec)
    return drop, recs


def pucker_records(c, sigma, d):
    """The records of the d - 1 copies ``pucker(c, sigma, d)`` makes."""
    copies = _dedup_ids([f"{sigma}+{i}" for i in range(1, d)], set(c.face_ids))
    return [{**c._record(sigma), "id": nid, "label": nid} for nid in copies]


def record_writing_blowup_move(c, move):
    """``blowup_move`` with its output read by the validating constructor
    from the records of the stellar writer above or of the attached cone's;
    a move the library refuses before it writes a face goes to it."""
    if move.case == 2 and c.has_delta and c.has_face(move.face):
        return derived_by_constructor(c, *stellar_records(c, move.face, move.new_vertex))
    if move.case == 3 and c.has_delta:
        closure = _validate_case3(c, move)
        new_vertex = f"v({move.base})" if move.new_vertex is None else move.new_vertex
        return record_writing_attach_cone(c, closure, new_vertex, move.level)
    if move.case == "attach" and move.new_vertex is not None and all(
            map(c.has_face, move.attach)) and (move.level is not None or not c.has_levels):
        return record_writing_attach_cone(c, _closure(c, move.attach), move.new_vertex,
                                          move.level)
    return blowup_move(c, move)


def counting_f_vector(c):
    """``(f_vector, euler_characteristic)`` of ``c``, counted face by face."""
    counts = Counter(c.dim(f) for f in c.face_ids)
    return (tuple(counts[k] for k in range(len(counts))),
            sum(-1 if c.dim(f) % 2 else 1 for f in c.face_ids))


def _recomputed_snapshot(c):
    h = homology(c)
    snap = {"f_vector": list(c.f_vector()),
            "homology": h.as_json(),
            "_nonzero": h.nonzero()}
    if c.has_levels:
        per = {}
        nz = {}
        top = c.max_level()
        for m in range(1, top + 1):
            # the top level subcomplex is c itself
            hm = h if m == top else homology(validating_constructor(
                [c._record(f) for f in c.face_ids if c.level(f) <= m]))
            per[str(m)] = hm.as_json()
            nz[m] = hm.nonzero()
        snap["per_level"] = per
        snap["_per_level_nonzero"] = nz
    return snap


def _levels_match(before, after):
    # compare the filtration levels the input already had; a move may
    # introduce a deeper level without breaking constancy below it
    for m in before:
        if before[m] != after.get(m, ()):
            return False
    return True


def _public(entry):
    return {k: v for k, v in entry.items() if not k.startswith("_")}


def recomputing_run_blowup_script(c, script):
    """``run_blowup_script`` computing every level's homology at every step,
    each move output read by the validating constructor from its records
    (:func:`record_writing_blowup_move`)."""
    log = ScriptLog()
    entry = {"step": 0, "move": None}
    entry.update(_recomputed_snapshot(c))
    cur = c
    prev_snap = dict(entry)
    log.steps.append(_public(entry))
    for i, move in enumerate(script, start=1):
        try:
            nxt = record_writing_blowup_move(cur, move)
        except Exception as exc:  # noqa: BLE001 - wrap with the step index
            raise ScriptError(i, exc) from exc
        entry = {"step": i, "move": move.as_json()}
        entry.update(_recomputed_snapshot(nxt))
        if move.case in (1, 2, 3):
            same = entry["_nonzero"] == prev_snap["_nonzero"]
            if "_per_level_nonzero" in entry or "_per_level_nonzero" in prev_snap:
                same = same and _levels_match(
                    prev_snap.get("_per_level_nonzero", {}),
                    entry.get("_per_level_nonzero", {}))
            entry["homology_preserved"] = same
            if not same:
                log.homology_constant = False
        log.steps.append(_public(entry))
        cur = nxt
        prev_snap = entry
    return cur, log


def scanning_validate_case3(c, move):
    """``_validate_case3`` scanning the whole attachment closure for the
    spans of each of its faces."""
    base = move.base
    if base is None or base not in c.face_ids:
        raise DescriptorInvalid(f"case 3 base face {base!r} missing")
    attach = list(move.attach)
    if base not in attach:
        raise DescriptorInvalid("case 3 attachment set must contain the base face")
    if len(set(attach)) != len(attach):
        raise DescriptorInvalid("case 3 attachment set repeats a face")
    for t in attach:
        if t not in c.face_ids:
            raise DescriptorInvalid(f"case 3 attachment face {t!r} missing")
        if not c.contains_face(t, base):
            raise DescriptorInvalid(
                f"attachment face {t!r} does not contain the base {base!r}")
    vj = move.vertex
    if vj is None:
        vj = c.vertices_of(base)[0]
    if vj not in c.vertices_of(base):
        raise DescriptorInvalid(
            f"flow vertex {vj!r} is not a vertex of the base {base!r}")
    if c.has_levels:
        if move.level is None:
            raise DescriptorInvalid("filtered complex: case 3 needs a level")
        if move.level < c.level(base):
            raise DescriptorInvalid(
                f"new vertex level {move.level} below the base level "
                f"{c.level(base)}")
    closure = _closure(c, attach)
    closure_set = set(closure)
    for g in closure:
        verts = c.vertices_of(g)
        if vj in verts:
            continue
        want = set(verts) | {vj}
        spans = [t for t in closure_set
                 if set(c.vertices_of(t)) == want and c.contains_face(t, g)]
        if len(spans) != 1:
            raise DescriptorInvalid(
                f"face {g!r} has {len(spans)} spans through {vj!r} "
                "in the attachment closure; need exactly one")
    return closure


def _substitute(word, gen, repl):
    """Replace every occurrence of +-gen in word by repl / its inverse."""
    out = []
    inv = _invert(repl)
    for x in word:
        if x == gen:
            out.extend(repl)
        elif x == -gen:
            out.extend(inv)
        else:
            out.append(x)
    return tuple(_free_reduce(out))


def _eliminate_generator(relators):
    """Remove one generator via a relator where it occurs exactly once.

    Prefers short relators (smallest substitution growth).  Returns the
    new relators and the generator removed, or None when no elimination
    applies.
    """
    best = None
    for idx, r in enumerate(relators):
        counts = {}
        for x in r:
            counts[abs(x)] = counts.get(abs(x), 0) + 1
        for g, cnt in sorted(counts.items()):
            if cnt == 1:
                key = (len(r), idx, g)
                if best is None or key < best[0]:
                    best = (key, idx, g)
    if best is None:
        return None
    _, idx, g = best
    r = relators[idx]
    pos = next(i for i, x in enumerate(r) if abs(x) == g)
    # cyclically rotate so the g-letter is first; then g = inverse of rest
    rot = r[pos:] + r[:pos]
    if rot[0] < 0:
        rot = _invert(rot)
        rot = rot[-1:] + rot[:-1]
    repl = _invert(rot[1:])
    return [_substitute(s, g, repl) for j, s in enumerate(relators) if j != idx], g


def scanning_tietze_simplify(pres, budget=20000):
    """Tietze simplification that, on every turn, canonicalizes and sorts
    every relator, scans them all for the elimination and substitutes
    into every one of them."""
    relators = [w for w in (_cyclic_reduce(r) for r in pres.relators) if w]
    live = set(range(1, pres.generators + 1))
    ops = 0
    while ops < budget:
        ops += 1
        relators = sorted({_canonical_relator(r) for r in relators} - {()})
        step = _eliminate_generator(relators)
        if step is not None:
            relators, g = step
            live.discard(g)
            continue
        relators, changed = _shorten_by_overlap(relators)
        if not changed:
            status = "reduced" if live else "trivial"
            break
    else:
        relators = sorted(w for w in (_cyclic_reduce(r) for r in relators) if w)
        status = "budget-exhausted"
    number = {g: k for k, g in enumerate(sorted(live), 1)}
    relators = tuple(tuple(number[x] if x > 0 else -number[-x] for x in r)
                     for r in relators)
    return GroupPresentation(len(live), relators), status


def _renumber(relators, generators, removed):
    remap = {}
    nxt = 1
    for g in range(1, generators + 1):
        if g != removed:
            remap[g] = nxt
            nxt += 1
    out = []
    for r in relators:
        out.append(tuple((1 if x > 0 else -1) * remap[abs(x)] for x in r))
    return out, generators - 1


def _renumbering_eliminate_generator(relators, generators):
    best = None
    for idx, r in enumerate(relators):
        counts = {}
        for x in r:
            counts[abs(x)] = counts.get(abs(x), 0) + 1
        for g, cnt in sorted(counts.items()):
            if cnt == 1:
                key = (len(r), idx, g)
                if best is None or key < best[0]:
                    best = (key, idx, g)
    if best is None:
        return None
    _, idx, g = best
    r = relators[idx]
    pos = next(i for i, x in enumerate(r) if abs(x) == g)
    rot = r[pos:] + r[:pos]
    if rot[0] < 0:
        rot = _invert(rot)
        rot = rot[-1:] + rot[:-1]
    repl = _invert(rot[1:])
    out = []
    for j, s in enumerate(relators):
        if j == idx:
            continue
        out.append(_substitute(s, g, repl))
    out, gens = _renumber(out, generators, g)
    return out, gens


def flagged_shorten_by_overlap(relators):
    """One pass of subword replacement that flags the first shortening
    and breaks out of its three loops; returns (relators, changed)."""
    rels = [tuple(r) for r in relators]
    rels.sort(key=lambda r: (len(r), r))
    changed = False
    for i, s in enumerate(rels):
        ls = len(s)
        if ls == 0:
            continue
        variants = []
        doubled_fwd = s + s
        doubled_rev = _invert(s) + _invert(s)
        for start in range(ls):
            variants.append(doubled_fwd[start:start + ls])
            variants.append(doubled_rev[start:start + ls])
        half = ls // 2 + 1
        for j in range(len(rels)):
            if j == i:
                continue
            r = rels[j]
            if len(r) < half:
                continue
            for variant in variants:
                chunk = variant[:half]
                lw = len(chunk)
                found = -1
                big = r + r
                for start in range(len(r)):
                    if big[start:start + lw] == chunk:
                        found = start
                        break
                if found < 0:
                    continue
                longest = lw
                while longest < min(ls, len(r)) and \
                        big[found + longest] == variant[longest]:
                    longest += 1
                remainder = _invert(variant[longest:])
                rotated = big[found + longest:found + len(r)]
                new_r = _cyclic_reduce(tuple(remainder) + tuple(rotated))
                if len(new_r) < len(r):
                    rels[j] = new_r
                    changed = True
                    break
            if changed:
                break
        if changed:
            break
    return rels, changed


def renumbering_tietze_simplify(pres, budget=20000):
    """Tietze simplification that renumbers the generators after every
    elimination and cyclically reduces every relator after every step."""
    relators = [w for w in (_cyclic_reduce(r) for r in pres.relators) if w]
    generators = pres.generators
    ops = 0
    while ops < budget:
        ops += 1
        relators = sorted({_canonical_relator(r) for r in relators} - {()})
        step = _renumbering_eliminate_generator(relators, generators)
        if step is not None:
            relators, generators = step
            relators = [w for w in (_cyclic_reduce(r) for r in relators) if w]
            continue
        relators, changed = flagged_shorten_by_overlap(relators)
        relators = [w for w in (_cyclic_reduce(r) for r in relators) if w]
        if not changed:
            status = "trivial" if generators == 0 else "reduced"
            return GroupPresentation(generators, tuple(relators)), status
    return (GroupPresentation(generators, tuple(sorted(relators))),
            "budget-exhausted")


def stdlib_dumps(doc) -> str:
    """The report writer as it was: the stdlib encoder, two-space indent,
    sorted keys, trailing newline.  A complex is written as the records
    ``to_records`` builds; anything else the stdlib cannot encode raises
    its own ``TypeError``."""
    def default(o):
        if isinstance(o, CombinatorialComplex):
            return complex_to_dict(o)
        return json.JSONEncoder().default(o)

    return json.dumps(doc, indent=2, sort_keys=True, default=default) + "\n"


def indexing_morse_vertex_flow(c, v_src, v_dst):
    """``morse_vertex_flow`` finding each span among the faces indexed by
    their vertex sets, each checked with ``contains_face``, and searching
    the V-paths of its matching for a cycle."""
    if not c.has_delta:
        raise MissingDeltaStructure("the vertex flow needs a delta structure")
    for v in (v_src, v_dst):
        if not c.has_face(v) or c.dim(v) != 0:
            raise NotAVertex(f"{v!r} is not a vertex")

    by_verts: dict[frozenset, list] = {}
    for f in c.face_ids:
        by_verts.setdefault(frozenset(c.vertices_of(f)), []).append(f)

    sources = []
    targets_set = set()
    matching = {}
    for f in c.face_ids:
        vs = c.vertices_of(f)
        if v_src not in vs:
            continue
        if v_dst in vs:
            targets_set.add(f)
            continue
        sources.append(f)
    if frozenset({v_src, v_dst}) not in by_verts:
        raise PairingIncomplete(
            f"no edge spans {v_src!r} and {v_dst!r}; the vertex cannot flow")

    critical = []
    for f in sources:
        want = frozenset(c.vertices_of(f)) | {v_dst}
        spans = [t for t in by_verts.get(want, ()) if c.contains_face(t, f)]
        if len(spans) > 1:
            raise PairingNotUnique(
                f"face {f!r} has {len(spans)} spans through {v_dst!r}")
        if spans:
            matching[f] = spans[0]
        else:
            critical.append(f)

    hit = list(matching.values())
    if len(set(hit)) != len(hit):
        raise PairingNotUnique("two faces share a span")

    pair_of = {s: t for s, t in matching.items()}
    order = list(matching)
    succ = {s: [g for g in c.facets(pair_of[s]) if g != s and g in pair_of]
            for s in order}
    recursive_check_acyclic(order, succ)

    removed = set(sources) | targets_set
    crit_ids = dict(zip(critical, _dedup_ids(
        [f"{f}~{v_dst}" for f in critical], set(c.face_ids) - removed)))
    image = dict(crit_ids)
    for f, t in matching.items():
        pos = [i for i, v in enumerate(c.vertices_of(t)) if v != v_src]
        image[f] = c.subface(t, pos)

    recs = []
    for f in critical:
        delta = [image.get(g, g) for g in c.delta_order(f)]
        rec = {"id": crit_ids[f], "dim": c.dim(f), "label": c.label(f),
               "facets": delta, "delta_order": delta}
        if c.has_levels:
            rec["level"] = c.level(f)
        recs.append(rec)
    reduced = derived_by_constructor(c, removed, recs)
    certificate = {
        "acyclic": True,
        "matched_pairs": len(matching),
        "critical": [crit_ids[f] for f in critical],
        "perfect": not critical,
    }
    return reduced, tuple(sorted(matching.items())), certificate


def adjacency_fundamental_group_presentation(c):
    """``fundamental_group_presentation`` with its breadth-first spanning
    tree walking adjacency lists sorted by edge index."""
    if c.is_empty:
        raise NotConnected("the empty complex has no fundamental group")
    if len(c.connected_components()) != 1:
        raise NotConnected("complex is not connected")

    verts = c.faces_of_dim(0)
    edges = c.faces_of_dim(1)
    ends = {e: c.delta_order(e)[::-1] if c.has_delta else c.facets(e)
            for e in edges}
    eindex = {e: i for i, e in enumerate(edges)}
    adj = {v: [] for v in verts}
    for e, (tail, head) in ends.items():
        adj[tail].append((head, e, +1))
        adj[head].append((tail, e, -1))
    for v in adj:
        adj[v].sort(key=lambda t: (eindex[t[1]], t[2]))

    root = verts[0]
    in_tree = set()
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w, e, _sign in adj[v]:
            if w not in seen:
                seen.add(w)
                in_tree.add(e)
                queue.append(w)

    gens = [e for e in edges if e not in in_tree]
    gen_index = {e: i + 1 for i, e in enumerate(gens)}
    relators = []
    for f in c.faces_of_dim(2):
        word = _cyclic_reduce(gen_index[e] if v == ends[e][0] else -gen_index[e]
                              for v, e in c.boundary_walk(f) if e in gen_index)
        if word:
            relators.append(word)
    return GroupPresentation(len(gens), tuple(relators))


def presentation_wedge_certificate(c, d, **budgets):
    """``wedge_certificate`` without the matching's counts: no matching
    leaves zero critical vertices, so the edge-path presentation and
    Tietze moves decide every fundamental group question."""
    h = homology(c, reduced=True)
    return wedge_certificate(c, d, _reduced_homology=(h, (0, 0)), **budgets)


def frontier_order_complex(c):
    """The order complex, from its own chain frontier and records."""
    chains: list[tuple] = []
    strict_below = {f: c.downset(f)[:-1] for f in c.face_ids}
    frontier = [(f,) for f in c.face_ids]
    chains.extend(frontier)
    while frontier:
        nxt = []
        for ch in frontier:
            for g in strict_below[ch[0]]:
                nxt.append((g,) + ch)
        chains.extend(nxt)
        frontier = nxt

    def cid(ch):
        return "<".join(ch)

    recs = []
    for ch in chains:
        k = len(ch) - 1
        rec = {"id": cid(ch), "dim": k}
        if k == 0:
            rec["facets"] = []
        else:
            d = [cid(ch[:i] + ch[i + 1:]) for i in range(k + 1)]
            rec["facets"] = d
            rec["delta_order"] = d
        if c.has_levels:
            rec["level"] = max(c.level(f) for f in ch)
        recs.append(rec)
    return CombinatorialComplex(recs)


def _frozen_subset_id(face) -> str:
    return ".".join(str(x) for x in sorted(face))


def record_writing_subsets_complex(faces):
    """A subset-closed family as a Delta-complex, from its own records."""
    sets = {frozenset(f) for f in faces}
    recs = []
    for f in sorted(sets, key=lambda s: (len(s), tuple(sorted(s)))):
        items = sorted(f)
        k = len(items) - 1
        rec = {"id": _frozen_subset_id(f), "dim": k}
        if k == 0:
            rec["facets"] = []
        else:
            d = [_frozen_subset_id(f - {v}) for v in items]
            rec["facets"] = d
            rec["delta_order"] = d
        recs.append(rec)
    return CombinatorialComplex(recs)


def record_writing_simplicial_toric_link(fan):
    """The link of a fan whose cones are all simplicial, from its own
    records (facet i drops the i-th ray of a cone)."""
    cones = set()
    for cone in fan.cones:
        if not cone:
            continue
        idx = sorted(cone)
        assert fan.is_simplicial_cone(frozenset(idx)), "not an all-simplicial fan"
        cones.update(frozenset(s) for k in range(1, len(idx) + 1)
                     for s in combinations(idx, k))
    key = {c: tuple(sorted(c)) for c in cones}
    ordered = sorted(cones, key=lambda c: (len(c), key[c]))
    ids = {c: "-".join(map(str, key[c])) for c in ordered}
    recs = []
    for c in ordered:
        d = [ids[c - {v}] for v in key[c]] if len(c) > 1 else []
        recs.append({"id": ids[c], "dim": len(c) - 1, "facets": d,
                     "delta_order": d})
    return CombinatorialComplex(recs)


def _all_chains(sets):
    sets = sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))
    chains = [(s,) for s in sets]
    frontier = list(chains)
    while frontier:
        nxt = []
        for ch in frontier:
            for s in sets:
                if s < ch[0]:
                    nxt.append((s,) + ch)
        chains.extend(nxt)
        frontier = nxt
    return chains


def subset_complex_realize_boundary(faces, n=None):
    """Realization through the subset complex and its order complex, with
    the chains below every subset enumerated again for its attachment."""
    sets = {frozenset(f) for f in faces}
    if not sets:
        return CombinatorialComplex([]), ()
    if frozenset() in sets:
        raise NotSubsetClosed("the empty set is not a face")
    ground = set()
    for f in sets:
        ground |= f
    if any(v < 0 for v in ground):
        raise NotSubsetClosed("vertices must be non-negative integers")
    if n is None:
        n = max(ground)
    elif max(ground) > n:
        raise NotSubsetClosed(f"a face uses a vertex above {n}")
    full = frozenset(range(n + 1))
    for f in sets:
        if f == full:
            raise NotSubsetClosed(
                f"face {sorted(f)} is the whole ground set, not a proper subset")
        for v in f:
            if f - {v} and f - {v} not in sets:
                raise NotSubsetClosed(
                    f"face {sorted(f)} lacks its subset {sorted(f - {v})}")

    barycentric = frontier_order_complex(record_writing_subsets_complex(sets))
    script = []
    done: list[frozenset] = []
    for f in sorted(sets, key=lambda s: (len(s), tuple(sorted(s)))):
        chains = _all_chains([g for g in done if g < f])
        attach = tuple("<".join(_frozen_subset_id(g) for g in ch) for ch in chains)
        script.append(BlowupMove(case="attach", new_vertex=_frozen_subset_id(f),
                                 attach=attach))
        done.append(f)
    return barycentric, tuple(script)


def record_route_simplices(simplices, name, level=None):
    """The complex of face-closed vertex tuples, written as records and
    read back by the constructor."""
    return CombinatorialComplex(_simplex_records(simplices, name, level))


def keyed_by_size(faces) -> list:
    """Distinct finite sets ordered by (size, sorted elements), one Python
    key per set, each as the tuple of its sorted elements as strings."""
    keys = sorted(map(sorted, {frozenset(f) for f in faces}), key=lambda t: (len(t), t))
    return [tuple(map(str, t)) for t in keys]


def record_writing_cone(c, apex=None):
    """The cone on ``c``, from its own records."""
    taken = set(c.face_ids)
    apex_id = _dedup_ids([apex if apex is not None else "c"], taken)[0]
    taken.add(apex_id)
    mixed_ids = dict(zip(c.face_ids,
                         _dedup_ids([f"{f}*{apex_id}" for f in c.face_ids], taken)))
    min_level = min(c.level(f) for f in c.face_ids) if c.has_levels else None
    apex_rec = {"id": apex_id, "dim": 0, "facets": []}
    if c.has_levels:
        apex_rec["level"] = min_level
    recs = [apex_rec]
    for f in c.face_ids:
        if c.dim(f) == 0:
            facets = [apex_id, f]
        else:
            facets = [mixed_ids[g] for g in c.facets(f)] + [f]
        rec = {"id": mixed_ids[f], "dim": c.dim(f) + 1,
               "label": f"{c.label(f)}*{apex_id}", "facets": facets}
        if c.has_delta and not c.is_empty:
            if c.dim(f) == 0:
                rec["delta_order"] = [apex_id, f]
            else:
                rec["delta_order"] = [mixed_ids[g] for g in c.delta_order(f)] + [f]
        if c.has_levels:
            rec["level"] = c.level(f)
        recs.append(rec)
    return derived_by_constructor(c, (), recs)


def record_writing_attach_cone(c, closure, new_vertex, level):
    """A vertex coned over ``closure``, a downward-closed set of faces in
    canonical order, from its own records."""
    return derived_by_constructor(c, (), attach_cone_records(c, closure, new_vertex, level))


def attach_cone_records(c, closure, new_vertex, level):
    """The records :func:`record_writing_attach_cone` reads."""
    taken = set(c.face_ids)
    e = _dedup_ids([new_vertex], taken)[0]
    taken.add(e)
    ids = dict(zip(closure, _dedup_ids([f"{g}<{e}" for g in closure], taken)))
    levels = c.has_levels
    if levels and level is None:
        raise DescriptorInvalid("filtered complex: the new vertex needs a level")
    vrec = {"id": e, "dim": 0, "facets": []}
    if levels:
        vrec["level"] = level
    recs = [vrec]
    for g in closure:
        facets = [ids[x] for x in c.facets(g)] + [g] if c.dim(g) >= 1 else [e, g]
        rec = {"id": ids[g], "dim": c.dim(g) + 1, "facets": facets}
        if c.has_delta:
            if c.dim(g) == 0:
                rec["delta_order"] = [e, g]
            else:
                rec["delta_order"] = [ids[x] for x in c.delta_order(g)] + [g]
                rec["facets"] = rec["delta_order"]
        if levels:
            rec["level"] = max(c.level(g), level)
        recs.append(rec)
    return recs


def record_writing_relabeled(c, mapping):
    """``c.relabeled(mapping)`` from its own records."""
    def m(f):
        return mapping.get(f, f)

    if len({m(f) for f in c.face_ids}) != len(c.face_ids):
        raise DuplicateFace("relabeling is not a bijection")
    recs = []
    for f in c.face_ids:
        rec = {"id": m(f), "dim": c.dim(f), "facets": [m(g) for g in c.facets(f)]}
        if c.has_delta and c.dim(f) >= 1:
            rec["delta_order"] = [m(g) for g in c.delta_order(f)]
        if c.has_levels:
            rec["level"] = c.level(f)
        recs.append(rec)
    return CombinatorialComplex(recs)


def record_writing_union_records(a, b, rename):
    """The records of ``a``, then those of ``b`` renamed by ``rename``,
    each written by ``_record`` and its Delta order or level dropped
    unless both sides, or the one that is not empty, have them."""
    keep_delta = a.has_delta and b.has_delta
    keep_levels = a.has_levels and b.has_levels
    if a.is_empty:
        keep_delta, keep_levels = b.has_delta, b.has_levels
    if b.is_empty:
        keep_delta, keep_levels = a.has_delta, a.has_levels
    recs = [a._record(f) for f in a.face_ids]
    for f in b.face_ids:
        rec = b._record(f)
        rec["id"] = rename[f]
        rec["facets"] = [rename[g] for g in rec["facets"]]
        if "delta_order" in rec:
            rec["delta_order"] = [rename[g] for g in rec["delta_order"]]
        recs.append(rec)
    for rec in recs:
        if not keep_delta:
            rec.pop("delta_order", None)
        if not keep_levels:
            rec.pop("level", None)
    return recs


def record_writing_quotient(c, phi):
    """``c.quotient_free_involution(phi)`` from its own records."""
    index = {f: i for i, f in enumerate(c.face_ids)}
    for f in c.face_ids:
        g = phi.get(f)
        if g is None or not c.has_face(g):
            raise NotInvolution(f"pairing undefined at face {f!r}")
        if g == f:
            raise HasFixedFace(f"face {f!r} is fixed")
        if phi.get(g) != f:
            raise NotInvolution(f"pairing is not an involution at {f!r}")
        if c.dim(g) != c.dim(f):
            raise NotInvolution(f"pairing does not preserve dimension at {f!r}")
        if {phi[h] for h in c.facets(f)} != set(c.facets(g)):
            raise NotInvolution(f"pairing does not preserve covering at {f!r}")

    def rep(f):
        return f if index[f] < index[phi[f]] else phi[f]

    orbit_id = {f: f"{rep(f)}|{phi[rep(f)]}" for f in c.face_ids}
    keep_levels = c.has_levels and all(c.level(f) == c.level(phi[f])
                                       for f in c.face_ids)
    keep_delta = c.has_delta and not c.is_empty and all(
        [orbit_id[x] for x in c.delta_order(f)]
        == [orbit_id[x] for x in c.delta_order(phi[f])] for f in c.face_ids)
    recs = []
    done = set()
    for f in c.face_ids:
        r = rep(f)
        if r in done:
            continue
        done.add(r)
        facets = [orbit_id[g] for g in c.facets(r)]
        if len(set(facets)) != len(facets):
            raise QuotientNotRegular(f"orbit of {r!r} would cover an orbit face twice")
        rec = {"id": orbit_id[r], "dim": c.dim(r), "label": c.label(r),
               "facets": facets}
        if keep_delta and c.dim(r) >= 1:
            rec["delta_order"] = [orbit_id[g] for g in c.delta_order(r)]
        if keep_levels:
            rec["level"] = c.level(r)
        recs.append(rec)
    try:
        return CombinatorialComplex(recs)
    except BadDeltaStructure as exc:
        raise QuotientNotRegular(str(exc)) from exc


def reading_newton_points(points):
    """The exponent vectors as ``NewtonPolyhedron`` read them on its own:
    distinct, in input order, after the checks up to the ambient cap."""
    pts = []
    seen = set()
    for p in points:
        t = snf._integer_point(p, "exponent vector")
        if any(x < 0 for x in t):
            raise DescriptorInvalid(f"exponent vector {list(t)} has a negative entry")
        if t not in seen:
            seen.add(t)
            pts.append(t)
    if not pts:
        raise EmptyInput("no exponent vectors")
    d = len(pts[0])
    for p in pts:
        if len(p) != d:
            raise DescriptorInvalid(f"exponent vector {list(p)} has {len(p)} "
                                    f"coordinates, exponent vector {list(pts[0])} has {d}")
    if d > MAX_AMBIENT:
        raise DimensionTooHigh(f"ambient dimension {d} exceeds {MAX_AMBIENT}")
    return tuple(pts)


def sorting_edge(points, face):
    """The extreme input points of a 1-dimensional face, found by sorting
    its points along the edge, and its lattice length."""
    base = points[face.points[0]]
    direction = next(tuple(q - b for q, b in zip(points[i], base))
                     for i in face.points[1:] if points[i] != base)
    keyed = sorted(face.points, key=lambda i: _dot(points[i], direction))
    lo, hi = keyed[0], keyed[-1]
    return (lo, hi), math.gcd(*(a - b for a, b in zip(points[hi], points[lo])))


class ReadingLatticePolytope:
    """Exact face census of a full-dimensional lattice polytope, reading
    its own points."""

    def __init__(self, points):
        pts = []
        seen = set()
        for p in points:
            t = snf._integer_point(p, "lattice point")
            if t not in seen:
                seen.add(t)
                pts.append(t)
        if not pts:
            raise EmptyInput("no lattice points")
        d = len(pts[0])
        for p in pts:
            if len(p) != d:
                raise DescriptorInvalid(f"lattice point {list(p)} has {len(p)} "
                                        f"coordinates, lattice point {list(pts[0])} has {d}")
        if d > MAX_AMBIENT:
            raise DimensionTooHigh(f"ambient dimension {d} exceeds {MAX_AMBIENT}")
        if d < 2:
            raise NotFullDimensional("need a polytope of dimension at least 2")
        self.points = tuple(pts)
        self.ambient = d
        self.facets = tuple(_facet_census(self.points, orthant=False))
        self.faces = tuple(_face_lattice(self.points, self.facets, orthant=False))

    def edge_length(self, face):
        return sorting_edge(self.points, face)[1]


def cell_writing_torus_boundary_complex(points, multiplicities=None):
    """The torus hypersurface boundary model with its own cell ids, on the
    polytope ``ReadingLatticePolytope`` reads."""
    P = ReadingLatticePolytope(points)
    d = P.ambient

    def cell_id(face):
        return "g" + ".".join(str(i) for i in face.points)

    cells = [f for f in P.faces if 1 <= f.dim < d]
    lengths = {}
    for f in cells:
        if f.dim == 1:
            cid = cell_id(f)
            lengths[cid] = (int(multiplicities[cid])
                            if multiplicities and cid in multiplicities
                            else P.edge_length(f))
    return CombinatorialComplex(_inclusion_records(
        ((cell_id(f), d - f.dim - 1, f.facets) for f in cells), lengths))


def _phased_id_list(rec, key, fid) -> tuple:
    ids = rec.get(key)
    if ids is None:
        return ()
    if isinstance(ids, (list, tuple)):
        try:
            "".join(ids)        # a TypeError unless every entry is a string
            return tuple(ids)
        except TypeError:
            pass
    raise DescriptorInvalid(
        f"face {fid!r} field {key!r} must be a list of face ids, got {ids!r}")


def phased_reader(records):
    """The complex of ``records`` as the reader made it before its checks
    were fused: each record checked alone and then its covering, in
    record order; the canonical order; then each of the checks below,
    on every face in canonical order, before the next.  The complex is
    numbered from its finished maps, slot i at canonical position i."""
    dims, labels, cov, delta, levels = {}, {}, {}, {}, {}
    ids = []
    any_delta = any_level = False
    for pos, rec in enumerate(records):
        if type(rec) is not dict and not isinstance(rec, Mapping):
            raise DescriptorInvalid(f"face record {pos} is not an object: {rec!r}")
        fid = rec.get("id")
        if not isinstance(fid, str) or not fid:
            raise DuplicateFace(f"face record {pos} has no usable id")
        if fid in dims:
            raise DuplicateFace(f"duplicate face id {fid!r}")
        dim = rec.get("dim")
        if type(dim) is not int or dim < 0:
            raise GradingViolation(f"face {fid!r} has invalid dim {dim!r}")
        dims[fid] = dim
        label = rec.get("label")
        labels[fid] = fid if label is None else str(label)
        cov[fid] = _phased_id_list(rec, "facets", fid)
        if rec.get("delta_order") is not None:
            any_delta = True
            delta[fid] = _phased_id_list(rec, "delta_order", fid)
        lv = rec.get("level")
        if lv is not None:
            any_level = True
            if type(lv) is not int or lv < 1:
                raise LevelNotDownwardClosed(
                    f"face {fid!r} has invalid level {lv!r}; levels start at 1")
            levels[fid] = lv
        ids.append(fid)
    for fid in ids:
        k = dims[fid]
        for g in cov[fid]:
            if g not in dims:
                raise DanglingFace(f"face {fid!r} covers unknown face {g!r}")
            if dims[g] != k - 1:
                raise GradingViolation(
                    f"face {fid!r} (dim {k}) covers {g!r} of dim {dims[g]}")
        if k >= 1 and not cov[fid]:
            raise GradingViolation(
                f"face {fid!r} has dim {k} but no codimension-one faces")

    order = tuple(sorted(ids, key=lambda f: (dims[f], labels[f])))
    index = dict(zip(order, range(len(order))))
    for f in order:
        cov[f] = tuple(sorted(set(cov[f]), key=index.__getitem__))
    if any_delta:
        for f in order:
            if dims[f] >= 1 and f not in delta:
                raise BadDeltaStructure(
                    f"face {f!r} lacks delta_order while the complex claims one")
            if dims[f] == 0:
                delta[f] = ()
    elif order and dims[order[-1]] == 0:
        delta = {f: () for f in order}
    else:
        delta = None
    if any_level:
        for f in order:
            if f not in levels:
                raise LevelNotDownwardClosed(
                    f"face {f!r} lacks a level while the complex is filtered")
        for f in order:
            for g in cov[f]:
                if levels[g] > levels[f]:
                    raise LevelNotDownwardClosed(
                        f"face {f!r} at level {levels[f]} covers {g!r} "
                        f"at level {levels[g]}")
    else:
        levels = None

    out = CombinatorialComplex.__new__(CombinatorialComplex)
    out._order, out._index, out._is_delta = order, index, delta is not None
    verts = {}
    if delta is None:
        numbered(out, cov, dims, labels, levels)
        for f in order:
            if dims[f] == 1 and len(cov[f]) != 2:
                raise NotRegularCW(
                    f"edge {f!r} covers {len(cov[f])} vertices, wants 2")
            if dims[f] == 2:
                dict_boundary_walk(out, f)
    else:
        for f in order:
            k, d = dims[f], delta[f]
            if not k:
                continue
            if len(d) != k + 1:
                raise BadDeltaStructure(
                    f"face {f!r} of dim {k} has {len(d)} delta facets, wants {k + 1}")
            if len(set(d)) != k + 1:
                raise BadDeltaStructure(
                    f"face {f!r} repeats a facet in its delta_order")
            if set(d) != set(cov[f]):
                raise BadDeltaStructure(
                    f"face {f!r}: delta_order disagrees with its covering set")
        for f in order:
            d = delta[f]
            for i in range(dims[f] + 1 if dims[f] >= 2 else 0):
                for j in range(i):
                    if delta[d[i]][j] != delta[d[j]][i - 1]:
                        raise BadDeltaStructure(
                            f"face {f!r} violates the facet identity at ({i},{j})")
        for f in order:
            vs = verts[f] = ((f,) if not dims[f] else
                             (verts[delta[f][1]][0],) + verts[delta[f][0]])
            if len(set(vs)) != len(vs):
                raise BadDeltaStructure(f"face {f!r} has repeated vertices {vs}")
        numbered(out, delta, dims, labels, levels, verts)
    return out


def dict_boundary_walk(c, f):
    """``c.boundary_walk(f)`` with a list of the edges of ``f`` at each
    vertex."""
    if not c.has_face(f):
        raise NoSuchFace(f"no face {f!r}")
    if c.dim(f) != 2:
        raise ValueError(f"face {f!r} is not a 2-face")
    cov = {g: c.facets(g) for g in (f, *c.facets(f))}
    at: dict[str, list] = {}
    for e in cov[f]:
        for v in cov[e]:
            at.setdefault(v, []).append(e)
    steps = []
    if all(len(es) == 2 for es in at.values()):
        e = cov[f][0]
        v = cov[e][0]
        for _ in cov[f]:
            steps.append((v, e))
            v = cov[e][cov[e][0] == v]      # the other end of e
            e = at[v][at[v][0] == e]        # the other edge at v
    if len({e for _v, e in steps}) != len(cov[f]):
        raise NotRegularCW(f"the edges of face {f!r} do not form one cycle")
    return tuple(steps)


def two_read_json(path):
    """The CLI's input reader as it was: the sha256 of the file's bytes,
    and the document ``json.load`` reads from the file opened again as
    UTF-8 text (universal newlines), with the CLI's errors."""
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh), digest
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DescriptorInvalid(f"input {path} is not UTF-8 JSON: {exc}") from exc
    except RecursionError as exc:
        raise DescriptorInvalid(
            f"input {path} nests too deeply to read: {exc}") from exc
