"""Newton polyhedra, their normal fans, and resolution complex models.

The pipeline: a monomial support spans the polyhedron (convex hull plus
the positive orthant), whose inner normal fan subdivides the orthant and
hence the standard simplex; the interior part of that subdivision,
puckered along the cells dual to compact edges by their lattice lengths,
is the homotopy model of the resolution complex of the singularity, and
its reduced homology carries the weight-zero labels.

The model and the torus boundary complexes are read off the face
lattice in one pass: a cell covers the cells one dimension down whose
carrier's facet set is a proper subset of its own, the puckered copies
of each long edge's cell are appended as records, and the complex is
built and validated once.

All geometry is exact: integer inputs, the integer rank and kernel
lines of ``sncx.snf``, no hulls in floating point.  Facets come from a
fraction-free double-description pass over the homogenized points and
coordinate directions, whose cost follows the number of facets rather
than the number of point subsets; the face lattice is the closure of
the facets under intersection with a facet.  The ambient dimension is
at most four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .complexes import CombinatorialComplex, _inclusion_records
from .errors import (
    DimensionTooHigh,
    EmptyInput,
    NotFullDimensional,
)
from .homology import homology, wedge_certificate
from .snf import _integer_point, kernel_line, matrix_rank

MAX_AMBIENT = 4


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# -- face census ---------------------------------------------------------------

@dataclass(frozen=True)
class PolyFacet:
    normal: tuple
    offset: int
    points: frozenset       # indices of input points lying on the facet
    compact: bool


@dataclass(frozen=True)
class PolyFace:
    points: tuple           # sorted indices of input points on the face
    recession: tuple        # coordinate directions contained in the face
    facets: frozenset       # indices of facets containing the face
    dim: int
    compact: bool


def _affine_dim(points, onset, recession):
    if not onset:
        return -1
    base = points[min(onset)]
    rows = [tuple(points[i][j] - base[j] for j in range(len(base)))
            for i in sorted(onset) if i != min(onset)]
    for j in recession:
        rows.append(tuple(1 if t == j else 0 for t in range(len(base))))
    if not rows:
        return 0
    return matrix_rank(rows)


def _facet_census(points, orthant: bool):
    """The facets of conv(points), plus the orthant when ``orthant``.

    Double description in integers (Fukuda-Prodon): a facet w.x >= m is
    an extreme ray (-m, w) of the dual cone of the homogenized generators
    (1, p) and, with the orthant, (0, e_j).  Starting from the simplicial
    cone of d+1 independent generators, the other generators are added
    one at a time; each ray keeps the bitmask of generators it is tight
    on, and a (+, -) pair of rays is combined only when it spans a
    2-face, which the tight sets decide.  The ray (1, 0) is the face at
    infinity, not a facet.
    """
    d = len(points[0])
    gens = [(1,) + tuple(p) for p in points]
    if orthant:
        gens += [tuple(int(t == j) for t in range(-1, d)) for j in range(d)]
    basis = []
    for i, g in enumerate(gens):
        if matrix_rank([gens[k] for k in basis] + [g]) > len(basis):
            basis.append(i)
            if len(basis) == d + 1:
                break
    if len(basis) <= d:
        raise NotFullDimensional("the points do not span the ambient space")

    added = sum(1 << k for k in basis)
    rays = []                           # (ray, bitmask of tight generators)
    for k in basis:
        r = kernel_line([gens[i] for i in basis if i != k])
        if _dot(r, gens[k]) < 0:
            r = tuple(-x for x in r)
        rays.append((r, added & ~(1 << k)))
    for k, g in enumerate(gens):
        if added >> k & 1:
            continue
        bit = 1 << k
        pos, neg, kept = [], [], []
        for r, tight in rays:
            s = _dot(r, g)
            if s > 0:
                pos.append((r, tight, s))
                kept.append((r, tight))
            elif s < 0:
                neg.append((r, tight, s))
            else:
                kept.append((r, tight | bit))
        if neg:
            masks = [tight for _, tight in rays]
            for rp, tp, sp in pos:
                for rn, tn, sn in neg:
                    common = tp & tn
                    if common.bit_count() < d - 1 or any(
                            t & common == common and t != tp and t != tn
                            for t in masks):
                        continue
                    v = [sp * b - sn * a for a, b in zip(rp, rn)]
                    h = math.gcd(*v)
                    kept.append((tuple(x // h for x in v), common | bit))
        rays = kept

    # a ray (-m, w) is tight on exactly the generators its bitmask holds,
    # and a facet's tight points are the input points w.p = m attains
    facets = []
    for r, tight in rays:
        w = r[1:]
        if not any(w):
            continue
        m = -r[0]
        onset = frozenset(i for i in range(len(points)) if tight >> i & 1)
        frec = tuple(j for j in range(d) if w[j] == 0) if orthant else ()
        if _affine_dim(points, onset, frec) != d - 1:
            raise AssertionError(f"census ray {r} is not a facet")
        facets.append(PolyFacet(w, m, onset,
                                all(x > 0 for x in w) if orthant else True))
    facets.sort(key=lambda f: f.normal)
    return facets


def _face_lattice(points, facets, orthant: bool):
    """Every face of the polyhedron, as the meets of its facets.

    A point set is a bitmask over the input points and a recession set a
    bitmask over the coordinate directions, so a meet is one ``&`` and a
    facet contains a face when the face's masks lie inside the facet's
    point mask and the mask of its zero normal coordinates.
    """
    d = len(points[0])
    fpts = [sum(1 << i for i in f.points) for f in facets]
    frec = [sum(1 << j for j in range(d) if f.normal[j] == 0) if orthant else 0
            for f in facets]

    # every face is an intersection of facets, so meeting each queued face
    # with the facet faces alone closes the family
    facet_faces = list(dict.fromkeys(zip(fpts, frec)))
    seen = set(facet_faces)
    queue = list(facet_faces)
    for pm, rm in queue:
        for qm, sm in facet_faces:
            key = (pm & qm, rm & sm)
            if key[0] and key not in seen:
                seen.add(key)
                queue.append(key)

    faces = []
    for pm, rm in queue:
        pset = tuple(i for i in range(len(points)) if pm >> i & 1)
        rec = tuple(j for j in range(d) if rm >> j & 1)
        s = frozenset(i for i, (fp, fr) in enumerate(zip(fpts, frec))
                      if pm & fp == pm and rm & fr == rm)
        faces.append(PolyFace(pset, rec, s, _affine_dim(points, pset, rec),
                              not rec))
    faces.sort(key=lambda f: (f.dim, f.points, f.recession))
    return faces


def _edge(points, face):
    """The extreme input points of a 1-dimensional face, and its lattice length."""
    base = points[face.points[0]]
    direction = next(tuple(q - b for q, b in zip(points[i], base))
                     for i in face.points[1:] if points[i] != base)
    keyed = sorted(face.points, key=lambda i: _dot(points[i], direction))
    lo, hi = keyed[0], keyed[-1]
    return (lo, hi), math.gcd(*(a - b for a, b in zip(points[hi], points[lo])))


@dataclass(frozen=True)
class CompactEdge:
    endpoints: tuple        # two input point indices (the edge's vertices)
    length: int             # lattice length, the gcd of the differences
    face_index: int


class _Census:
    """Exact face census of conv(points), plus the positive orthant when
    the class's ``orthant`` is set.

    The points are read by the integer rule, each checked by ``_point``
    before the next is read; the distinct ones keep their input order.
    An ambient dimension above ``MAX_AMBIENT`` or below ``min_ambient``
    is rejected before the census.
    """

    orthant = False
    min_ambient = 0

    def __init__(self, points):
        pts = tuple(dict.fromkeys(map(self._point, points)))
        if not pts:
            raise EmptyInput(f"no {self.what}s")
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise ValueError(f"{self.what}s of mixed lengths")
        if d > MAX_AMBIENT:
            raise DimensionTooHigh(f"ambient dimension {d} exceeds {MAX_AMBIENT}")
        if d < self.min_ambient:
            raise NotFullDimensional(
                f"need a polytope of dimension at least {self.min_ambient}")
        self.points = pts
        self.ambient = d
        self.facets = tuple(_facet_census(pts, self.orthant))
        self.faces = tuple(_face_lattice(pts, self.facets, self.orthant))

    def _point(self, p) -> tuple:
        return _integer_point(p, self.what)

    def face_interior(self, face: PolyFace) -> bool:
        """Closed-cell interiority: every facet containing the face is compact."""
        return all(self.facets[i].compact for i in face.facets)


class NewtonPolyhedron(_Census):
    """Exact face census of conv(points) + positive orthant."""

    what = "exponent vector"
    orthant = True

    def __init__(self, points):
        super().__init__(points)
        self.vertices = tuple(f.points[0] for f in self.faces if f.dim == 0)
        self.compact_edges = tuple(CompactEdge(*_edge(self.points, f), i)
                                   for i, f in enumerate(self.faces)
                                   if f.dim == 1 and f.compact)
        self._validate()

    def _validate(self):
        d = self.ambient
        for v in self.vertices:
            on = sum(1 for f in self.facets if v in f.points)
            if on < d:
                raise NotFullDimensional(
                    f"vertex {self.points[v]} lies on {on} < {d} facets; "
                    "the polyhedron is not full-dimensional")
        # membership spot checks: the points and their orthant translates
        for p in self.points:
            for f in self.facets:
                s = _dot(f.normal, p)
                if s < f.offset:
                    raise AssertionError("facet census lost an input point")
                if any(s + w < f.offset for w in f.normal):
                    raise AssertionError("orthant recession violated")
        # the two compactness criteria must agree
        for face in self.faces:
            total = [0] * d
            for i in face.facets:
                for j in range(d):
                    total[j] += self.facets[i].normal[j]
            strict = all(x > 0 for x in total)
            if strict != face.compact:
                raise AssertionError(
                    f"compactness criteria disagree on face {face.points}")

    def _point(self, p) -> tuple:
        t = super()._point(p)
        if any(x < 0 for x in t):
            raise ValueError(f"exponent vector {t} has a negative entry")
        return t

    def vertex_interior(self, v: int) -> bool:
        return all(f.compact for f in self.facets if v in f.points)


def newton_polyhedron(points) -> NewtonPolyhedron:
    """Census the polyhedron spanned by a monomial support."""
    return NewtonPolyhedron(points)


# -- the induced subdivision of the simplex ------------------------------------

@dataclass(frozen=True)
class SimplexCell:
    """One cone of the inner normal fan, seen as a cell of the subdivision."""

    id: str
    dim: int                # cell dimension (cone dimension minus one)
    carrier: PolyFace
    interior: bool


class SubdividedSimplex:
    """The poset of nonzero cones of the inner normal fan.

    Cells correspond to proper faces of the polyhedron with reversed
    order; a cell is interior exactly when its closed cone meets the
    orthant boundary only at zero, i.e. when every facet containing the
    carrier face is compact.
    """

    def __init__(self, np_: _Census):
        self.polyhedron = np_
        d = np_.ambient
        cells = []
        for face in np_.faces:
            cid = "g" + ".".join(str(i) for i in face.points)
            if face.recession:
                cid += "|r" + ".".join(str(j) for j in face.recession)
            cells.append(SimplexCell(cid, d - face.dim - 1, face,
                                     np_.face_interior(face)))
        self.cells = tuple(cells)

    def to_complex(self) -> CombinatorialComplex:
        """The nonmaximal interior cells, covering by the facet sets of
        their carriers."""
        return CombinatorialComplex(self._interior_records())

    def _interior_records(self, multiplicity=None) -> list:
        return _inclusion_records(
            ((c.id, c.dim, c.carrier.facets) for c in self.cells
             if c.interior and c.carrier.dim >= 1), multiplicity)


def normal_fan(np_: NewtonPolyhedron) -> SubdividedSimplex:
    """The inner normal fan as a subdivision of the standard simplex."""
    ss = SubdividedSimplex(np_)
    d = np_.ambient
    full = [c for c in ss.cells if c.dim == d - 1]
    if {c.carrier.points for c in full} != {(v,) for v in np_.vertices}:
        raise AssertionError("full-dimensional cones must match the vertices")
    codim1 = [c for c in ss.cells if c.dim == d - 2]
    if len(codim1) != sum(1 for f in np_.faces if f.dim == 1):
        raise AssertionError("codimension-one cones must match the edges")
    return ss


def interior_complex(ss: SubdividedSimplex) -> CombinatorialComplex:
    """The union of the nonmaximal cells interior to the simplex."""
    return ss.to_complex()


def resolution_complex(np_: NewtonPolyhedron) -> CombinatorialComplex:
    """Homotopy model of the resolution complex of the singularity.

    The interior subdivision complex, puckered along each interior cell
    dual to a compact edge by that edge's lattice length.  Normality of
    the singularity is the caller's hypothesis.
    """
    return _resolution(np_)[1]


def _resolution(np_: NewtonPolyhedron):
    """The normal fan and the resolution complex model built on it."""
    if np_.ambient < 2:
        raise NotFullDimensional("need ambient dimension at least 2")
    ss = normal_fan(np_)
    lengths = {ss.cells[e.face_index].id: e.length for e in np_.compact_edges}
    return ss, CombinatorialComplex(ss._interior_records(lengths))


def predicted_sphere_count(np_: NewtonPolyhedron, variant: str) -> int:
    """Two readings of the sphere-count formula.

    ``literal``: vertices on no unbounded facet, plus lattice length
    minus one summed over all compact edges.  ``interior``: the same
    vertex count, plus the edge sum restricted to edges all of whose
    containing facets are compact (the edges that actually contribute a
    puckered cell to the interior complex).  The two disagree whenever a
    compact edge touches the simplex boundary.
    """
    if variant not in ("literal", "interior"):
        raise ValueError(f"unknown variant {variant!r}")
    vertex_term = sum(1 for v in np_.vertices if np_.vertex_interior(v))
    if variant == "literal":
        edge_term = sum(e.length - 1 for e in np_.compact_edges)
    else:
        edge_term = sum(e.length - 1 for e in np_.compact_edges
                        if np_.face_interior(np_.faces[e.face_index]))
    return vertex_term + edge_term


def _census(ss: SubdividedSimplex) -> dict:
    np_ = ss.polyhedron
    return {
        "points": [list(p) for p in np_.points],
        "vertices": [list(np_.points[v]) for v in np_.vertices],
        "facets": [{"normal": list(f.normal), "offset": f.offset,
                    "compact": f.compact} for f in np_.facets],
        "compact_edges": [{"endpoints": [list(np_.points[e.endpoints[0]]),
                                         list(np_.points[e.endpoints[1]])],
                           "length": e.length} for e in np_.compact_edges],
        "interior_cells": [{"id": c.id, "dim": c.dim,
                            "carrier_dim": c.carrier.dim}
                           for c in ss.cells if c.interior],
    }


def w0_report(np_: NewtonPolyhedron) -> dict:
    """Bundle the resolution homology with both predicted counts.

    The report flags when the two formula variants disagree instead of
    deciding between them, relabels the reduced cohomology ranks as the
    weight-zero pieces, and carries the intermediate censuses.
    """
    return _w0_report(np_)[0]


def _w0_report(np_: NewtonPolyhedron):
    """``w0_report`` and the resolution complex model it was computed on."""
    ss, model = _resolution(np_)
    n = np_.ambient - 1
    h = homology(model, reduced=True)
    lit = predicted_sphere_count(np_, "literal")
    intr = predicted_sphere_count(np_, "interior")
    cert = (wedge_certificate(model, n - 1, _reduced_homology=h)
            if n >= 1 else None)
    w0 = {str(k): h.betti(k - 1) for k in range(1, n + 1)}
    return {
        "dimension": n,
        "f_vector": list(model.f_vector()),
        "resolution_homology": h.as_json(),
        "predicted": {"literal": lit, "interior": intr},
        "variants_agree": lit == intr,
        "computed_top_count": h.betti(n - 1),
        "wedge_certificate": None if cert is None else
            {"status": cert.status, "count": cert.count, "detail": cert.detail},
        "weight_zero_reduced_cohomology": w0,
        "census": _census(ss),
    }, model


# -- boundary complexes of nondegenerate torus hypersurfaces -------------------

class LatticePolytope(_Census):
    """Exact face census of a full-dimensional lattice polytope."""

    what = "lattice point"
    min_ambient = 2

    def edge_length(self, face: PolyFace) -> int:
        return _edge(self.points, face)[1]


def torus_hypersurface_boundary_complex(points, multiplicities=None):
    """Boundary complex model for a nondegenerate hypersurface.

    The link of the origin in the n-skeleton of the normal fan of the
    polytope (n = dim P - 1), puckered at each maximal cell by the
    lattice length of the dual edge of P.  ``multiplicities`` overrides
    the lattice lengths per edge id for user-supplied intersection data.
    The cells are those of the Newton model's fan: every facet of P is
    compact, so every proper face of positive dimension gives a cell.
    """
    P = points if isinstance(points, LatticePolytope) else LatticePolytope(points)
    ss = SubdividedSimplex(P)
    mult = multiplicities or {}
    lengths = {c.id: int(mult[c.id]) if c.id in mult else P.edge_length(c.carrier)
               for c in ss.cells if c.carrier.dim == 1}
    return CombinatorialComplex(ss._interior_records(lengths))
