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
than the number of point subsets.  The coordinate directions go in
first, so each cone on the way is dual to the Newton polyhedron of the
points added so far, and a new point pairs only the rays that share d-1
tight generators with a ray it cuts off.

The census works on incidence bitmasks.  A face is one int, its points
above its recession directions, so the meet of two faces is one ``&``;
the face lattice is the closure of the facets under meets with a facet,
and a face is met only with the facets through one of its points, the
only ones whose meet with it is not empty.  Those meets also give the
face's facets: the ones whose meet with it is the face itself.  Face
lattices of polyhedra are graded, and a face below a facet is the meet
of a face covering it with a facet.  So the closure grades the faces
itself: a face's dimension is one less than the least dimension of the
faces it was met down from, and no rank is taken per face.  The
readers of the census (interiority, the ends of an edge, the guards)
look up each point's facet bitmask instead of scanning the facets.
The ambient dimension is at most four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .complexes import CombinatorialComplex, _inclusion_records
from .errors import (
    DescriptorInvalid,
    DimensionTooHigh,
    EmptyInput,
    NotFullDimensional,
)
from .homology import _homology, wedge_certificate
from .snf import _bareiss, _integer_point, kernel_line, matrix_rank

MAX_AMBIENT = 4


def _dot(a, b):
    return sum(map(mul, a, b))


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


def _bits(m) -> list:
    """The indices of the set bits of ``m``, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _affine_dim(points, onset, recession):
    """Dimension of the affine span of the points indexed by the sorted
    list ``onset`` and the coordinate directions in ``recession``."""
    if not onset:
        return -1
    base = points[onset[0]]
    d = len(base)
    rows = [[a - b for a, b in zip(points[i], base)] for i in onset[1:]]
    rows += [[int(t == j) for t in range(d)] for j in recession]
    return _bareiss(rows)[0] if rows else 0


def _orthant_cone(p) -> list:
    """The rays of the cone dual to the d directions (0, e_j) and (1, p),
    in that order, each tight on all of them but one and positive on that
    one: (-p_j, e_j) off direction j, (1, 0, ..., 0) off the point."""
    d = len(p)
    return [(-x,) + tuple(int(t == j) for t in range(d)) for j, x in enumerate(p)] \
        + [(1,) + (0,) * d]


def _facet_census(points, orthant: bool):
    """The facets of conv(points), plus the orthant when ``orthant``.

    Double description in integers (Fukuda-Prodon): a facet w.x >= m is
    an extreme ray (-m, w) of the dual cone of the homogenized generators
    (1, p) and, with the orthant, (0, e_j).  Starting from the simplicial
    cone of d+1 independent generators, the other generators are added
    one at a time; each ray keeps the bitmask of generators it is tight
    on, and a (+, -) pair of rays is combined only when it spans a
    2-face, which the tight sets decide.  The orthant's directions go in
    first, so every cone on the way is the dual of the Newton polyhedron
    of the points added so far, and a point cuts off fewer rays than it
    would from their hull; with the first point they span the first cone,
    whose rays are written down (:func:`_orthant_cone`).  Without the
    orthant each first ray is the kernel line of d of the first d+1
    independent generators.  The ray (1, 0) is the face at infinity, not
    a facet.
    """
    d = len(points[0])
    n = len(points)
    gens = [(1,) + tuple(p) for p in points]
    if orthant:
        gens += [tuple(int(t == j) for t in range(-1, d)) for j in range(d)]
    order = [*range(n, len(gens)), *range(n)]
    if orthant:
        basis, first = order[:d + 1], _orthant_cone(points[0])
    else:
        basis = []
        for i in order:
            if matrix_rank([gens[k] for k in basis] + [gens[i]]) > len(basis):
                basis.append(i)
                if len(basis) == d + 1:
                    break
        if len(basis) <= d:
            raise NotFullDimensional("the points do not span the ambient space")
        first = []
        for k in basis:
            r = kernel_line([gens[i] for i in basis if i != k])
            first.append(r if _dot(r, gens[k]) > 0 else tuple(-x for x in r))

    added = sum(1 << k for k in basis)
    # (ray, bitmask of tight generators)
    rays = [(r, added & ~(1 << k)) for r, k in zip(first, basis)]
    for k in order:
        if added >> k & 1:
            continue
        g = gens[k]
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
            # a pair spans a 2-face when its rays share d-1 tight generators
            # and no other ray is tight on all they share; so only the rays
            # tight on d-1 generators of the cut rays take part
            cut = 0
            for _, tn, _ in neg:
                cut |= tn
            masks = [t for _, t in rays if (t & cut).bit_count() >= d - 1]
            for rp, tp, sp in pos:
                if (tp & cut).bit_count() < d - 1:
                    continue
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
    on_points = (1 << n) - 1
    for r, tight in rays:
        w = r[1:]
        if not any(w):
            continue
        onset = _bits(tight & on_points)
        frec = [j for j in range(d) if w[j] == 0] if orthant else ()
        if _affine_dim(points, onset, frec) != d - 1:
            raise AssertionError(f"census ray {r} is not a facet")
        facets.append(PolyFacet(w, -r[0], frozenset(onset),
                                all(x > 0 for x in w) if orthant else True))
    facets.sort(key=lambda f: f.normal)
    return facets


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


def _point_facets(npoints, facets) -> list:
    """For each input point, the bitmask of the facets through it."""
    on = [0] * npoints
    for q, f in enumerate(facets):
        bit = 1 << q
        for i in f.points:
            on[i] |= bit
    return on


def _face_lattice(points, facets, orthant: bool):
    """Every face of the polyhedron, as the meets of its facets.

    A face is one int, its point bitmask over the input points shifted
    above its recession bitmask over the coordinate directions, so a meet
    is one ``&``.  Every face is an intersection of facets, so meeting
    each queued face with the facets alone closes the family, and only a
    facet through one of the face's points meets it in a face: each face
    is met with the facets through its points, from an index of the
    facets through each point.  Those facets are also every facet that
    contains the face, the ones whose meet with it is the face itself.

    The lattice is graded, and a face G below a facet is the meet of a
    facet with a face covering G.  So dim G is one less than the least
    dimension of the faces met down to G, and no rank is taken.
    """
    d = len(points[0])
    keys = [_mask(f.points) << d | (_mask(j for j in range(d) if f.normal[j] == 0)
                                    if orthant else 0)
            for f in facets]
    through = _point_facets(len(points), facets)

    # the meets strictly below a face record the face as one they were
    # met down from; a facet is met down from no face
    above = dict.fromkeys(keys, ())
    queue = list(above)
    nfacet_faces = len(queue)
    found = {}                          # face -> (its points, its facets)
    for face in queue:
        pts = _bits(face >> d)
        near = 0
        for i in pts:
            near |= through[i]
        on = []
        for q in _bits(near):
            key = face & keys[q]
            if key == face:
                on.append(q)
            elif key in above:
                above[key].append(face)
            else:
                above[key] = [face]
                queue.append(key)
        found[face] = pts, on

    # a strict superface has strictly larger masks, so visiting the faces
    # by decreasing mask size fixes every face's uppers before the face
    dims = dict.fromkeys(queue[:nfacet_faces], d - 1)
    for key in sorted(queue[nfacet_faces:], key=int.bit_count, reverse=True):
        dims[key] = min(dims[up] for up in above[key]) - 1

    low = (1 << d) - 1
    recs = [tuple(_bits(m)) for m in range(low + 1)]
    faces = []
    for key in queue:
        pts, on = found[key]
        faces.append(PolyFace(tuple(pts), recs[key & low], frozenset(on),
                              dims[key], not key & low))
    faces.sort(key=lambda f: (f.dim, f.points, f.recession))
    return faces


def _edge(points, face, on):
    """The extreme input points of a 1-dimensional face, and its lattice
    length.  ``on`` holds each point's facet bitmask: a point inside the
    edge lies on the edge's facets only, an end also on some other."""
    mask = _mask(face.facets)
    lo, hi = (i for i in face.points if on[i] != mask)
    a, b = points[face.points[0]], points[face.points[1]]
    direction = [y - x for x, y in zip(a, b)]
    if _dot(points[lo], direction) > _dot(points[hi], direction):
        lo, hi = hi, lo
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
        for p in pts:
            if len(p) != d:
                raise DescriptorInvalid(
                    f"{self.what} {list(p)} has {len(p)} coordinates, "
                    f"{self.what} {list(pts[0])} has {d}")
        if d > MAX_AMBIENT:
            raise DimensionTooHigh(f"ambient dimension {d} exceeds {MAX_AMBIENT}")
        if d < self.min_ambient:
            raise NotFullDimensional(
                f"need a polytope of dimension at least {self.min_ambient}")
        self.points = pts
        self.ambient = d
        self.facets = tuple(_facet_census(pts, self.orthant))
        self.faces = tuple(_face_lattice(pts, self.facets, self.orthant))
        # each point's facets, and the facets that are not compact
        self._on = _point_facets(len(pts), self.facets)
        self._open = _mask(q for q, f in enumerate(self.facets) if not f.compact)

    def _point(self, p) -> tuple:
        return _integer_point(p, self.what)

    def face_interior(self, face: PolyFace) -> bool:
        """Closed-cell interiority: every facet containing the face is compact."""
        return not _mask(face.facets) & self._open


class NewtonPolyhedron(_Census):
    """Exact face census of conv(points) + positive orthant."""

    what = "exponent vector"
    orthant = True

    def __init__(self, points):
        super().__init__(points)
        self.vertices = tuple(f.points[0] for f in self.faces if f.dim == 0)
        self.compact_edges = tuple(CompactEdge(*_edge(self.points, f, self._on), i)
                                   for i, f in enumerate(self.faces)
                                   if f.dim == 1 and f.compact)
        self._validate()

    def _validate(self):
        d = self.ambient
        # the masks are taken from the facets as they stand now
        on = _point_facets(len(self.points), self.facets)
        for v in self.vertices:
            k = on[v].bit_count()
            if k < d:
                raise NotFullDimensional(
                    f"vertex {self.points[v]} lies on {k} < {d} facets; "
                    "the polyhedron is not full-dimensional")
        # membership spot checks: the points and their orthant translates;
        # a translate s + w falls below the offset exactly when s falls
        # below the offset less the facet's least normal entry
        for f in self.facets:
            s = min(_dot(f.normal, p) for p in self.points)
            if s < f.offset:
                raise AssertionError("facet census lost an input point")
            if s < f.offset - min(f.normal):
                raise AssertionError("orthant recession violated")
        # the two compactness criteria must agree
        # the zero row keeps d sums on a face that lies on no facet
        normals = [f.normal for f in self.facets]
        zero = (0,) * d
        for face in self.faces:
            total = map(sum, zip(zero, *(normals[i] for i in face.facets)))
            if all(x > 0 for x in total) != face.compact:
                raise AssertionError(
                    f"compactness criteria disagree on face {face.points}")

    def _point(self, p) -> tuple:
        t = super()._point(p)
        if any(x < 0 for x in t):
            raise DescriptorInvalid(f"exponent vector {list(t)} has a negative entry")
        return t

    def vertex_interior(self, v: int) -> bool:
        return not self._on[v] & self._open


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
    h, counts = _homology(model, reduced=True)
    lit = predicted_sphere_count(np_, "literal")
    intr = predicted_sphere_count(np_, "interior")
    cert = (wedge_certificate(model, n - 1, _reduced_homology=(h, counts))
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
        return _edge(self.points, face, self._on)[1]


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
