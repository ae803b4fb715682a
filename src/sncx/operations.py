"""Operations on two complexes: disjoint unions, wedges and joins, and
the isomorphism test with the face map of a vertex bijection.

A union, wedge or join builds its output through the
:class:`CombinatorialComplex` constructor from the records of its inputs.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Mapping

from .complexes import CombinatorialComplex, _dedup_ids
from .errors import MissingDeltaStructure, NoSuchFace, NotAVertex, NotInvolution


def _union_records(a: CombinatorialComplex, b: CombinatorialComplex,
                   rename: Mapping[str, str]) -> list[dict]:
    """The records of ``a``, then those of ``b`` with ids renamed by
    ``rename``; Delta orders and levels are kept when both sides, or the
    one side that is not empty, have them."""
    keep_delta = a.has_delta and b.has_delta
    keep_levels = a.has_levels and b.has_levels
    if a.is_empty:
        keep_delta, keep_levels = b.has_delta, b.has_levels
    if b.is_empty:
        keep_delta, keep_levels = a.has_delta, a.has_levels
    return (a._rewritten(a.face_ids, None, keep_delta, keep_levels)
            + b._rewritten(b.face_ids, rename, keep_delta, keep_levels))


def _renaming(a: CombinatorialComplex, b: CombinatorialComplex) -> dict:
    # b's ids, with the ones that collide with a's suffixed
    return dict(zip(b.face_ids, _dedup_ids(b.face_ids, set(a.face_ids))))


def disjoint_union(a: CombinatorialComplex,
                   b: CombinatorialComplex) -> CombinatorialComplex:
    """Disjoint union; colliding ids on the right side are renamed."""
    return CombinatorialComplex(_union_records(a, b, _renaming(a, b)))


def wedge(a: CombinatorialComplex, v1: str,
          b: CombinatorialComplex, v2: str) -> CombinatorialComplex:
    """One-point union identifying vertex ``v2`` of ``b`` with ``v1`` of ``a``.

    ``b`` is renamed as in :func:`disjoint_union`, with ``v2`` going to
    ``v1``, which takes the smaller of the two levels.
    """
    if not a.has_face(v1) or a.dim(v1) != 0:
        raise NotAVertex(f"{v1!r} is not a vertex of the left complex")
    if not b.has_face(v2) or b.dim(v2) != 0:
        raise NotAVertex(f"{v2!r} is not a vertex of the right complex")
    rename = _renaming(a, b)
    rename[v2] = v1
    recs = _union_records(a, b, rename)
    del recs[len(a.face_ids) + b._index[v2]]    # v2's record, now id v1
    v1_rec = recs[a._index[v1]]
    if "level" in v1_rec:
        v1_rec["level"] = min(v1_rec["level"], b.level(v2))
    return CombinatorialComplex(recs)


def join(a: CombinatorialComplex, b: CombinatorialComplex) -> CombinatorialComplex:
    """Join of two Delta-structured complexes.

    Faces are pairs (alpha, beta) with alpha a face of ``a`` or empty and
    beta a face of ``b`` or empty, not both empty; the vertices of ``a``
    precede those of ``b``.  Ids are ``"alpha*beta"`` with an empty slot
    for the missing side.
    """
    if not a.has_delta or not b.has_delta:
        raise MissingDeltaStructure("join needs delta structures on both sides")

    pairs = [(f, None) for f in a.face_ids] + [(None, g) for g in b.face_ids]
    pairs += [(f, g) for f in a.face_ids for g in b.face_ids]
    ids = dict(zip(pairs, _dedup_ids([f"{f or ''}*{g or ''}" for f, g in pairs])))

    def dim_of(p):
        f, g = p
        df = a.dim(f) if f else -1
        dg = b.dim(g) if g else -1
        return df + dg + 1

    keep_levels = a.has_levels and b.has_levels

    def level_of(p):
        f, g = p
        lf = a.level(f) if f else 0
        lg = b.level(g) if g else 0
        return max(lf, lg, 1)

    recs = []
    for p in pairs:
        f, g = p
        k = dim_of(p)
        d = []
        if f is not None:
            if a.dim(f) == 0:
                d.append((None, g) if g is not None else None)
            else:
                d.extend((x, g) for x in a.delta_order(f))
        if g is not None:
            if b.dim(g) == 0:
                d.append((f, None) if f is not None else None)
            else:
                d.extend((f, y) for y in b.delta_order(g))
        if None in d:
            # joining a single vertex against the empty side: no facets
            d = [x for x in d if x is not None]
        facet_ids = [ids[x] for x in d]
        la = a.label(f) if f else ""
        lb = b.label(g) if g else ""
        rec = {"id": ids[p], "dim": k, "label": f"{la}*{lb}",
               "facets": facet_ids}
        if k >= 1:
            rec["delta_order"] = facet_ids
        if keep_levels:
            rec["level"] = level_of(p)
        recs.append(rec)
    return CombinatorialComplex(recs)


def face_map_from_vertex_bijection(c: CombinatorialComplex,
                                   vmap: Mapping[str, str]) -> dict:
    """Extend a vertex bijection to a face pairing (simplicial complexes).

    Each face is sent to the unique face on the image vertex set; raises
    NoSuchFace when the image face is missing and NotInvolution when it
    is ambiguous.
    """
    by_verts: dict[frozenset, list] = {}
    for f in c.face_ids:
        by_verts.setdefault(frozenset(c.vertices_of(f)), []).append(f)
    out = {}
    for f in c.face_ids:
        img = frozenset(vmap[v] for v in c.vertices_of(f))
        hits = by_verts.get(img, [])
        if not hits:
            raise NoSuchFace(f"no face on the image vertex set of {f!r}")
        if len(hits) > 1:
            raise NotInvolution(f"image of {f!r} is ambiguous")
        out[f] = hits[0]
    return out


def complexes_isomorphic(a: CombinatorialComplex, b: CombinatorialComplex) -> bool:
    """Poset isomorphism test (covering-relation preserving bijection).

    The search assigns vertices in breadth-first order through the edges
    and each higher face right after the last of its facets, so a wrong
    vertex fails at the next face.  A face draws its candidates from the
    cofaces of its first facet's image, a vertex from the neighbours of
    its breadth-first parent's image.
    """
    if a.f_vector() != b.f_vector():
        return False

    def signatures(c):
        sig = {f: (c.dim(f), len(c.facets(f)), len(c.cofaces(f))) for f in c.face_ids}
        for _ in range(3):
            sig = {f: (sig[f],
                       tuple(sorted(sig[g] for g in c.facets(f))),
                       tuple(sorted(sig[g] for g in c.cofaces(f))))
                   for f in c.face_ids}
        return sig

    siga, sigb = signatures(a), signatures(b)
    if Counter(siga.values()) != Counter(sigb.values()):
        return False
    if a.is_empty:
        return True

    # search order: vertices breadth first, each face after its last facet
    order: list[str] = []
    parent: dict[str, str] = {}
    missing = {f: len(a.facets(f)) for f in a.face_ids}
    seen: set[str] = set()
    for root in sorted(a.faces_of_dim(0), key=lambda f: str(siga[f])):
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            ready = [v]
            while ready:
                f = ready.pop()
                order.append(f)
                for h in a.cofaces(f):
                    missing[h] -= 1
                    if not missing[h]:
                        ready.append(h)
            for e in a.cofaces(v):
                for w in a.facets(e):
                    if w not in seen:
                        seen.add(w)
                        parent[w] = v
                        queue.append(w)

    by_sig: dict[tuple, list] = {}      # b's faces by signature, in order
    for g in b.face_ids:
        by_sig.setdefault(sigb[g], []).append(g)
    below = {g: set(b.facets(g)) for g in b.face_ids}
    nbrs = {v: list(dict.fromkeys(w for e in b.cofaces(v) for w in b.facets(e)
                                  if w != v))
            for v in b.faces_of_dim(0)}
    assignment: dict[str, str] = {}

    def candidates(f):
        if a.facets(f):
            pool = b.cofaces(assignment[a.facets(f)[0]])
        elif f in parent:
            pool = nbrs[assignment[parent[f]]]
        else:
            return iter(by_sig[siga[f]])
        return (g for g in pool if sigb[g] == siga[f])

    # depth-first over order[i], one candidate iterator per assigned level
    used: set[str] = set()
    stack = [candidates(order[0])]
    while stack:
        f = order[len(stack) - 1]
        if f in assignment:
            used.discard(assignment.pop(f))
        image = {assignment[x] for x in a.facets(f)}
        for g in stack[-1]:
            if g not in used and below[g] == image:
                assignment[f] = g
                used.add(g)
                break
        else:
            stack.pop()
            continue
        if len(stack) == len(order):
            return True
        stack.append(candidates(order[len(stack)]))
    return False
