"""Shared deterministic fixture builders for the test suite."""

from __future__ import annotations

import math
import random

from sncx import (
    BlowupMove,
    CombinatorialComplex,
    Fan,
    blowup_move,
    simplicial_complex_from_subsets,
)
from sncx.errors import NotFullDimensional, SncxError
from sncx.newton import LatticePolytope

from oracles import validating_constructor


def close_under_subsets(faces):
    closed = set()
    for f in faces:
        items = sorted(f)
        for mask in range(1, 1 << len(items)):
            closed.add(frozenset(items[i] for i in range(len(items))
                                 if mask >> i & 1))
    return closed


def random_simplicial_complex(rng: random.Random, max_verts=6, max_facets=4,
                              max_dim=2) -> CombinatorialComplex:
    nv = rng.randint(2, max_verts)
    maximal = []
    for _ in range(rng.randint(1, max_facets)):
        size = rng.randint(1, min(max_dim + 1, nv))
        maximal.append(frozenset(rng.sample(range(nv), size)))
    return simplicial_complex_from_subsets(close_under_subsets(maximal))


def with_random_levels(rng: random.Random, c: CombinatorialComplex,
                       max_level=3) -> CombinatorialComplex:
    vlevel = {v: rng.randint(1, max_level) for v in c.faces_of_dim(0)}
    recs = []
    for f in c.face_ids:
        rec = c._record(f)
        rec["level"] = max(vlevel[v] for v in c.vertices_of(f))
        recs.append(rec)
    return CombinatorialComplex(recs)


def without_delta(c: CombinatorialComplex) -> CombinatorialComplex:
    """The same face poset with its Delta-structure dropped."""
    return CombinatorialComplex(
        [{k: v for k, v in c._record(f).items() if k != "delta_order"}
         for f in c.face_ids])


def assert_same_complex(x: CombinatorialComplex, y: CombinatorialComplex):
    """Equal complexes, with the same structure flags and vertex lists."""
    assert x == y
    assert (x.has_delta, x.has_levels) == (y.has_delta, y.has_levels)
    if x.has_delta:
        assert [x.vertices_of(f) for f in x.face_ids] == \
            [y.vertices_of(f) for f in y.face_ids]


def assert_rebuilds(x: CombinatorialComplex):
    """The validating constructor accepts ``x``'s records and gives ``x``."""
    assert_same_complex(x, validating_constructor(x.to_records()))


# the 8-vertex dunce hat: contractible, and every edge lies in two or
# three of its triangles, so no collapse starts on it
DUNCE_HAT = ((1, 2, 4), (1, 2, 7), (1, 2, 8), (1, 3, 4), (1, 3, 5), (1, 3, 6),
             (1, 5, 6), (1, 7, 8), (2, 3, 5), (2, 3, 7), (2, 3, 8), (2, 4, 5),
             (3, 4, 8), (3, 6, 7), (4, 5, 6), (4, 6, 8), (6, 7, 8))


def dunce_hat() -> CombinatorialComplex:
    """The dunce hat of :data:`DUNCE_HAT`, f = (8, 24, 17).  Not
    collapsible, so every acyclic matching on it with one critical vertex
    leaves a critical edge."""
    return simplicial_complex_from_subsets(
        close_under_subsets(map(frozenset, DUNCE_HAT)))


def random_subset_closed(rng: random.Random, ground=5):
    maximal = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, ground - 1)
        maximal.append(frozenset(rng.sample(range(ground), size)))
    return close_under_subsets(maximal)


def bounded_family(rng, ground, max_size=4):
    """A subset-closed family on ``range(ground)`` whose faces have at most
    ``max_size`` vertices, so that its order complex stays small."""
    return close_under_subsets(
        frozenset(rng.sample(range(ground), rng.randint(1, min(max_size, ground - 1))))
        for _ in range(rng.randint(1, 7)))


def random_support(rng: random.Random, dim=3, max_points=8, coord=6):
    k = rng.randint(1, max_points)
    pts = set()
    while len(pts) < k:
        pts.add(tuple(rng.randint(0, coord) for _ in range(dim)))
    return sorted(pts)


def random_lattice_polygon(rng: random.Random, coord=6) -> LatticePolytope:
    while True:
        k = rng.randint(3, 7)
        pts = set()
        while len(pts) < k:
            pts.add((rng.randint(0, coord), rng.randint(0, coord)))
        try:
            return LatticePolytope(sorted(pts))
        except Exception:
            continue


def random_lattice_polytope(rng: random.Random, d) -> LatticePolytope:
    while True:
        pts = [tuple(rng.randint(0, 4) for _ in range(d))
               for _ in range(rng.randint(d + 1, d + 5))]
        try:
            return LatticePolytope(pts)
        except NotFullDimensional:
            continue


def polygon_cone_fan(n) -> Fan:
    """One cone over an n-gon, listed with its rays and its 2-faces."""
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -1, 1)][:n]
    cones = [frozenset({i}) for i in range(n)]
    cones += [frozenset({i, (i + 1) % n}) for i in range(n)]
    cones.append(frozenset(range(n)))
    return Fan(tuple(rays), tuple(cones))


def random_fan(rng):
    """Random cones on random primitive rays; a cone with more rays than
    its rank is non-simplicial and brings only the faces listed with it."""
    dim = rng.choice((2, 3, 4))
    n = rng.randint(dim, dim + 4)
    rays = set()
    while len(rays) < n:
        r = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(r) and math.gcd(*r) == 1:
            rays.add(r)
    cones = [frozenset(rng.sample(range(n), rng.randint(1, min(n, dim + 1))))
             for _ in range(rng.randint(1, 5))]
    return Fan(tuple(sorted(rays)), tuple(cones))


def draw_mixed_script(rng, c, moves):
    """Seeded case 2, case 3 and ``attach`` moves, each one the library
    accepts on the complex the moves before it produced."""
    script = []
    cur = c
    for _ in range(4 * moves):
        if len(script) == moves:
            break
        faces = cur.face_ids
        level = None
        kind = rng.random()
        if kind < 0.45:
            move = BlowupMove(case=2, face=rng.choice(faces))
        elif kind < 0.8:
            base = rng.choice(faces)
            above = [f for f in cur.upset(base) if f != base]
            attach = (base,) + tuple(rng.sample(above, rng.randint(0, min(2, len(above)))))
            if cur.has_levels:
                level = cur.level(base) + rng.randint(0, 1)
            move = BlowupMove(case=3, base=base, attach=attach,
                              vertex=rng.choice(cur.vertices_of(base)), level=level)
        else:
            attach = tuple(rng.sample(faces, rng.randint(0, min(2, len(faces)))))
            if cur.has_levels:
                level = rng.randint(1, cur.max_level() + 1)
            move = BlowupMove(case="attach", attach=attach,
                              new_vertex=f"n{len(script)}", level=level)
        try:
            cur = blowup_move(cur, move)
        except SncxError:
            continue
        script.append(move)
    return tuple(script)


# faults put into face records, for the tests of the record reader
FIELDS = ("id", "dim", "facets", "delta_order", "level")
ODD_VALUES = (5, "x", True, 1.0, -1, 0, [1], [["u"]], {"a": 1}, "")
READER_FAULTS = (
    "dropped field", "retyped field", "not a record", "wrong grading",
    "duplicate id", "dangling facet", "foreign facet", "dropped facet",
    "extra facet", "short delta", "repeated delta facet",
    "delta not the facets", "identity break", "repeated vertex",
    "missing level", "low level", "high level")


def break_record(rng, kind, recs):
    """Put a fault of ``kind`` into a record drawn from ``recs``; False
    when that record has no place for it."""
    rec = rng.choice(recs)
    if not isinstance(rec, dict):
        return False
    other = rng.choice(recs)
    other = other.get("id") if isinstance(other, dict) else "ghost"
    facets, delta, level = rec.get("facets"), rec.get("delta_order"), rec.get("level")
    if kind == "dropped field":
        return rec.pop(rng.choice(FIELDS), None) is not None
    if kind == "retyped field":
        rec[rng.choice(FIELDS)] = rng.choice(ODD_VALUES)
    elif kind == "not a record":
        recs[recs.index(rec)] = rng.choice([["x"], "x", 3])
    elif kind == "wrong grading" and type(rec.get("dim")) is int:
        rec["dim"] += rng.choice([-1, 1])
    elif kind == "duplicate id":
        rec["id"] = other
    elif kind in ("missing level", "low level", "high level") and type(level) is int:
        if kind == "missing level":
            del rec["level"]
        else:
            rec["level"] = rng.choice([0, level - 1]) if kind == "low level" else level + 2
    elif kind.endswith("facet") and isinstance(facets, list) and facets:
        if kind == "dangling facet":
            facets[0] = "ghost"
        elif kind == "foreign facet":
            facets[0] = other
        elif kind == "extra facet":
            facets.append(other)
        elif len(facets) > 1:
            facets.pop()                        # a dropped facet
        else:
            return False
    elif kind in ("short delta", "repeated delta facet", "delta not the facets",
                  "identity break") and isinstance(delta, list) and len(delta) > 1:
        if kind == "short delta":
            delta.pop()
        elif kind == "repeated delta facet":
            delta[1] = delta[0]
        elif kind == "delta not the facets":
            delta[0] = other
        else:
            i, j = rng.sample(range(len(delta)), 2)
            delta[i], delta[j] = delta[j], delta[i]
    elif kind == "repeated vertex" and rec.get("dim") == 1 and isinstance(delta, list) \
            and delta:
        rec["facets"] = rec["delta_order"] = delta[:1] * 2
    else:
        return False
    return True
