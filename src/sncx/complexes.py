"""Finite graded face posets modeling regular CW complexes.

A :class:`CombinatorialComplex` stores faces with dimensions, the
codimension-one covering relation, an optional Delta-structure (per
k-face an ordered list of its k+1 facets, facet i omitting vertex i)
and an optional filtration by positive integer levels.

Face posets rather than vertex-set simplicial complexes: dual complexes
of divisors routinely carry several faces on one vertex set, so a face
is identified by an opaque id, never by its vertices.  All operations
are pure and return new complexes; instances are immutable by
convention and safe to share.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadDeltaStructure,
    DanglingFace,
    DescriptorInvalid,
    DuplicateFace,
    GradingViolation,
    HasFixedFace,
    LevelNotDownwardClosed,
    MissingDeltaStructure,
    NoFiltration,
    NoSuchFace,
    NotAVertex,
    NotInvolution,
    NotRegularCW,
    QuotientNotRegular,
)

FaceId = str


def _dedup_ids(proposals: Iterable[str], taken: set[str] | None = None) -> list[str]:
    """Make proposed ids unique, deterministically, by suffixing '~k'."""
    seen = set(taken) if taken else set()
    out = []
    for p in proposals:
        q = p
        k = 1
        while q in seen:
            k += 1
            q = f"{p}~{k}"
        seen.add(q)
        out.append(q)
    return out


def _inclusion_records(cells, multiplicity: Mapping | None = None) -> list[dict]:
    """Face records of cells given as ``(id, dim, key)``, by key inclusion.

    A cell covers the cells one dimension lower whose key is a proper
    subset of its own.  Each cell is filed under the least element of its
    key, so a cell tests only the lower cells filed under its own
    elements.  ``multiplicity`` maps the ids of maximal cells to m; such a
    cell gets m - 1 parallel copies ``"<id>+<i>"`` on the same facets,
    the records :func:`sncx.transforms.pucker` writes.
    """
    cells = list(cells)
    filed: dict = {}
    for cid, dim, key in cells:
        filed.setdefault((dim, min(key, default=None)), []).append((cid, key))
    recs = []
    for cid, dim, key in cells:
        covers = [b for x in (None, *key)
                  for b, bkey in filed.get((dim - 1, x), ()) if bkey < key]
        recs.append({"id": cid, "dim": dim, "facets": covers})
    multiplicity = multiplicity or {}
    recs += [{"id": f"{r['id']}+{i}", "dim": r["dim"], "facets": r["facets"]}
             for r in recs for i in range(1, multiplicity.get(r["id"], 1))]
    return recs


def _chains(items, below) -> list:
    """Every chain of a finite poset, least element first, shortest first:
    the chains ``(x,)`` for x in ``items``, then each element of
    ``below(least)`` in front of each chain one shorter."""
    frontier = [(x,) for x in items]
    chains = list(frontier)
    while frontier:
        frontier = [(y,) + ch for ch in frontier for y in below(ch[0])]
        chains += frontier
    return chains


def _simplex_records(simplices, name, level=None) -> list[dict]:
    """Delta-structured records of vertex tuples, with ids ``name(tuple)``
    and levels ``level(tuple)``; facet i drops vertex i."""
    recs = []
    for s in simplices:
        d = [name(s[:i] + s[i + 1:]) for i in range(len(s))] if len(s) > 1 else []
        rec = {"id": name(s), "dim": len(s) - 1, "facets": d}
        if d:
            rec["delta_order"] = d
        if level is not None:
            rec["level"] = level(s)
        recs.append(rec)
    return recs


def _id_list(rec, key, fid) -> tuple:
    # the ids listed under ``key``, none when the field is absent or null
    ids = rec.get(key)
    if ids is None:
        return ()
    if not isinstance(ids, (list, tuple)):
        raise DescriptorInvalid(
            f"face {fid!r} field {key!r} must be a list of face ids, got {ids!r}")
    return tuple(ids)


def _read_faces(records, dims, labels, cov, delta, levels, start=0):
    """Read face records into the given maps, checking what a record shows
    alone and the grading of its covering.

    ``dims`` may already hold faces that the records cover; ``start`` is
    the position of the first record in the errors.  Returns the ids read
    and whether any record carried a delta order, and a level.
    """
    ids = []
    any_delta = any_level = False
    for pos, rec in enumerate(records, start=start):
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
        cov[fid] = _id_list(rec, "facets", fid)
        if rec.get("delta_order") is not None:
            any_delta = True
            delta[fid] = _id_list(rec, "delta_order", fid)
        lv = rec.get("level")
        if lv is not None:
            any_level = True
            if type(lv) is not int or lv < 1:
                raise LevelNotDownwardClosed(
                    f"face {fid!r} has invalid level {lv!r}; levels start at 1")
            levels[fid] = lv
        ids.append(fid)

    # covering: existence and grading
    for fid in ids:
        k = dims[fid]
        facets = cov[fid]
        for g in facets:
            if g not in dims:
                raise DanglingFace(f"face {fid!r} covers unknown face {g!r}")
            if dims[g] != k - 1:
                raise GradingViolation(
                    f"face {fid!r} (dim {k}) covers {g!r} of dim {dims[g]}")
        if k >= 1 and not facets:
            raise GradingViolation(
                f"face {fid!r} has dim {k} but no codimension-one faces")
        if k == 0 and facets:
            raise GradingViolation(f"vertex {fid!r} covers faces")
    return ids, any_delta, any_level


class CombinatorialComplex:
    """A finite graded face poset, optionally Delta-structured and filtered.

    Construct from an iterable of face records, each a mapping with keys

    - ``id``: unique string
    - ``dim``: non-negative integer
    - ``facets``: ids of the codimension-one faces (empty for vertices)
    - ``label``: optional display string (defaults to the id)
    - ``delta_order``: optional ordered facet list (Delta-structure)
    - ``level``: optional positive integer (filtration level)

    A record that is not a mapping, or a list of ids that is not a list,
    is :class:`DescriptorInvalid`; a bool is not an integer, and a field
    set to None counts as absent.

    All invariants are checked: grading of the covering relation,
    downward closure to vertices, the simplicial facet identity and
    vertex distinctness when a Delta-structure is claimed, the regular
    CW property in dimensions 1 and 2 when none is, and downward
    closure of levels.  Faces are kept in a canonical order sorted by
    (dimension, label, insertion index), which makes every derived
    output byte-deterministic.

    One routine, :meth:`_build`, runs these checks for every complex.
    It completes a complex from a checked parent's surviving faces and
    fresh records and checks only the fresh faces.  The constructor runs
    it with no parent, a restriction (:meth:`_restricted`) with no fresh
    faces, and a move (:meth:`_derived`) with both.

    The coface table behind :meth:`cofaces`, :meth:`upset` and
    :meth:`is_maximal` is built once, on first use.  It never goes
    stale: a complex is never changed once built, and every build, the
    constructor's, a restriction's or a move's, starts without one.
    """

    __slots__ = ("_order", "_index", "_dims", "_labels", "_cov", "_delta",
                 "_levels", "_verts", "_up")

    def __init__(self, faces: Iterable[Mapping]):
        self._dims, self._labels, self._cov, self._verts = {}, {}, {}, {}
        self._delta = self._levels = self._up = None
        self._build([], list(faces))

    # -- the one build routine -------------------------------------------

    def _build(self, survivors: list, fresh: Sequence[Mapping]):
        """Complete this complex from a parent's ``survivors`` and ``fresh``
        records, checking only the fresh faces.

        The survivors are a downward-closed part of a checked parent, in its
        canonical order; the maps already hold their entries, and
        ``_delta`` and ``_levels`` are None unless the parent had them.
        Every check looks only at a face and the faces below it, so the
        survivors pass again what they passed when the parent was built; a
        survivor is looked at only for a Delta structure or levels that
        the fresh records claim and the parent lacked.  The result equals
        the complex the constructor builds from the survivors' records
        followed by the fresh ones, and a bad fresh face fails with the
        constructor's error and message.
        """
        dims, labels, cov = self._dims, self._labels, self._cov
        carried_delta = self._delta is not None and bool(survivors)
        carried_levels = self._levels is not None and bool(survivors)
        delta = self._delta if carried_delta else {}
        levels = self._levels if carried_levels else {}
        new, fresh_delta, fresh_level = _read_faces(
            fresh, dims, labels, cov, delta, levels, start=len(survivors))

        # canonical order (dim, label, insertion index): the survivors come
        # in the parent's canonical order, so a stable sort by (dim, label)
        # of the survivors followed by the fresh faces gives it
        order = tuple(sorted(survivors + new, key=lambda f: (dims[f], labels[f]))
                      if new else survivors)
        index = {f: i for i, f in enumerate(order)}
        new.sort(key=index.__getitem__)
        for f in new:
            cov[f] = tuple(sorted(set(cov[f]), key=index.__getitem__))

        if carried_delta or fresh_delta:
            for f in new if carried_delta else order:
                if dims[f] >= 1 and f not in delta:
                    raise BadDeltaStructure(
                        f"face {f!r} lacks delta_order while the complex claims one")
                if dims[f] == 0:
                    delta[f] = ()
        elif order and dims[order[-1]] == 0:
            # a set of points is trivially Delta-structured
            delta = {f: () for f in order}
        else:
            delta = None

        if carried_levels or fresh_level:
            for f in new if carried_levels else order:
                if f not in levels:
                    raise LevelNotDownwardClosed(
                        f"face {f!r} lacks a level while the complex is filtered")
            for f in new:
                for g in cov[f]:
                    if levels[g] > levels[f]:
                        raise LevelNotDownwardClosed(
                            f"face {f!r} at level {levels[f]} covers {g!r} "
                            f"at level {levels[g]}")
        else:
            levels = None

        self._order, self._index = order, index
        self._delta, self._levels = delta, levels
        if delta is None:
            self._validate_low_cells(new)
        else:
            self._validate_delta(new if carried_delta else order)

    def _carried(self, carry) -> "CombinatorialComplex":
        # a complex holding this one's maps, each passed through carry, for
        # _build to complete
        out = CombinatorialComplex.__new__(CombinatorialComplex)
        out._dims, out._labels = carry(self._dims), carry(self._labels)
        out._cov, out._verts = carry(self._cov), {}
        out._delta = out._levels = out._up = None
        if self._delta is not None:
            out._delta, out._verts = carry(self._delta), carry(self._verts)
        if self._levels is not None:
            out._levels = carry(self._levels)
        return out

    def _restricted(self, order) -> "CombinatorialComplex":
        """The subcomplex on ``order``, a downward-closed part of ``_order``:
        the build routine with no fresh faces."""
        out = self._carried(lambda m: {f: m[f] for f in order})
        out._build(list(order), ())
        return out

    def _derived(self, drop, fresh: Sequence[Mapping]) -> "CombinatorialComplex":
        """This complex without the faces in ``drop``, plus the ``fresh`` records.

        ``drop`` must be closed upward, so that the survivors are closed
        downward.  The build routine checks only the fresh faces; see
        :meth:`_build`.
        """
        def carry(m):
            m = dict(m)
            for f in drop:
                del m[f]
            return m

        out = self._carried(carry)
        out._build([f for f in self._order if f not in drop], fresh)
        return out

    # -- validation helpers --------------------------------------------

    def _validate_delta(self, faces):
        # faces in canonical order; a facet of one is checked or listed earlier
        delta = self._delta
        dims = self._dims
        for f in faces:
            k = dims[f]
            if k == 0:
                continue
            d = delta[f]
            if len(d) != k + 1:
                raise BadDeltaStructure(
                    f"face {f!r} of dim {k} has {len(d)} delta facets, wants {k + 1}")
            if len(set(d)) != k + 1:
                raise BadDeltaStructure(
                    f"face {f!r} repeats a facet in its delta_order")
            if set(d) != set(self._cov[f]):
                raise BadDeltaStructure(
                    f"face {f!r}: delta_order disagrees with its covering set")
        # simplicial facet identity, pairwise: omitting vertex i then j
        # (j < i) equals omitting j then i-1.
        for f in faces:
            k = dims[f]
            if k < 2:
                continue
            d = delta[f]
            for i in range(k + 1):
                for j in range(i):
                    if delta[d[i]][j] != delta[d[j]][i - 1]:
                        raise BadDeltaStructure(
                            f"face {f!r} violates the facet identity at ({i},{j})")
        # vertex lists, in canonical order so that facets come first: the
        # facet without vertex 1 starts with vertex 0, the one without
        # vertex 0 lists the rest
        verts = self._verts
        for f in faces:
            if dims[f] == 0:
                verts[f] = (f,)
                continue
            d = delta[f]
            vs = verts[f] = (verts[d[1]][0],) + verts[d[0]]
            if len(set(vs)) != len(vs):
                raise BadDeltaStructure(
                    f"face {f!r} has repeated vertices {vs}")

    def _validate_low_cells(self, faces):
        # exact in dimensions 1 and 2: the boundary of an edge is two
        # points, the boundary of a 2-cell one circle of edges
        dims, cov = self._dims, self._cov
        for f in faces:
            k = dims[f]
            if k == 1 and len(cov[f]) != 2:
                raise NotRegularCW(
                    f"edge {f!r} covers {len(cov[f])} vertices, wants 2")
            if k == 2:
                self.boundary_walk(f)

    def boundary_walk(self, f: FaceId) -> tuple:
        """The boundary circle of a 2-face as ``(vertex, edge)`` steps.

        The walk starts at the first vertex of the face's first edge in
        canonical order and leaves each vertex along the step's edge;
        raises :class:`NotRegularCW` unless the edges form one cycle.
        """
        self._check(f)
        if self._dims[f] != 2:
            raise ValueError(f"face {f!r} is not a 2-face")
        cov = self._cov
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

    # -- basic accessors ------------------------------------------------

    @property
    def face_ids(self) -> tuple:
        return self._order

    def has_face(self, f) -> bool:
        """Whether ``f`` is the id of a face of this complex."""
        return f in self._dims

    @property
    def has_delta(self) -> bool:
        return self._delta is not None or not self._order

    @property
    def has_levels(self) -> bool:
        return self._levels is not None

    @property
    def is_empty(self) -> bool:
        return not self._order

    @property
    def dimension(self) -> int:
        """Top face dimension, -1 for the empty complex."""
        return max(self._dims.values(), default=-1)

    def dim(self, f: FaceId) -> int:
        self._check(f)
        return self._dims[f]

    def label(self, f: FaceId) -> str:
        self._check(f)
        return self._labels[f]

    def facets(self, f: FaceId) -> tuple:
        """The codimension-one faces covered by ``f`` (canonically sorted)."""
        self._check(f)
        return self._cov[f]

    def cofaces(self, f: FaceId) -> tuple:
        """The faces that cover ``f`` (canonically sorted)."""
        self._check(f)
        return tuple(self._coface_table()[f])

    def _coface_table(self) -> dict:
        # face -> the list of its cofaces in canonical order; read, never
        # changed, by its users
        if self._up is None:
            up = {g: [] for g in self._order}
            for g in self._order:
                for h in self._cov[g]:
                    up[h].append(g)
            self._up = up
        return self._up

    def delta_order(self, f: FaceId) -> tuple:
        self._check(f)
        if self._delta is None:
            raise MissingDeltaStructure("complex has no delta structure")
        return self._delta[f]

    def level(self, f: FaceId) -> int:
        self._check(f)
        if self._levels is None:
            raise NoFiltration("complex has no filtration levels")
        return self._levels[f]

    def max_level(self) -> int:
        if self._levels is None:
            raise NoFiltration("complex has no filtration levels")
        return max(self._levels.values(), default=0)

    def _check(self, f):
        if f not in self._dims:
            raise NoSuchFace(f"no face {f!r}")

    def faces_of_dim(self, k: int) -> tuple:
        return tuple(f for f in self._order if self._dims[f] == k)

    def f_vector(self) -> tuple:
        top = self.dimension
        if top < 0:
            return ()
        counts = [0] * (top + 1)
        for f in self._order:
            counts[self._dims[f]] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        chi = 0
        for f in self._order:
            chi += -1 if self._dims[f] % 2 else 1
        return chi

    def to_records(self) -> list[dict]:
        """Face records in canonical order; inverse of the constructor."""
        return self._rewritten(self._order)

    def _rewritten(self, faces, rename=None, keep_delta=True,
                   keep_levels=True) -> list[dict]:
        """The records of ``faces``, given in canonical order, with every id
        passed through the map ``rename`` when there is one.

        A label is written only where it differs from the new id, a delta
        order only above dimension 0 and when ``keep_delta``, a level only
        when ``keep_levels``.
        """
        dims, labels, cov = self._dims, self._labels, self._cov
        delta = self._delta if keep_delta else None
        levels = self._levels if keep_levels else None
        ids = list if rename is None else (lambda fs: [rename[g] for g in fs])
        out = []
        for f in faces:
            nid = f if rename is None else rename[f]
            rec = {"id": nid, "dim": dims[f], "facets": ids(cov[f])}
            if labels[f] != nid:
                rec["label"] = labels[f]
            if delta is not None and dims[f]:
                rec["delta_order"] = ids(delta[f])
            if levels is not None:
                rec["level"] = levels[f]
            out.append(rec)
        return out

    def __eq__(self, other):
        if not isinstance(other, CombinatorialComplex):
            return NotImplemented
        return (self._order == other._order and self._dims == other._dims
                and self._labels == other._labels and self._cov == other._cov
                and self._delta == other._delta and self._levels == other._levels)

    def __hash__(self):
        return hash((self._order, tuple(sorted(self._cov.items()))))

    def __repr__(self):
        return f"CombinatorialComplex(f={self.f_vector()})"

    # -- poset navigation -------------------------------------------------

    def downset(self, f: FaceId) -> tuple:
        """All faces <= f in the face poset (f included), canonical order."""
        self._check(f)
        return self._reach(f, self._cov)

    def upset(self, f: FaceId) -> tuple:
        """All faces >= f (f included), canonical order."""
        self._check(f)
        return self._reach(f, self._coface_table())

    def _reach(self, f, step) -> tuple:
        # the faces reached from f through ``step``, in canonical order
        seen = {f}
        stack = [f]
        while stack:
            for h in step[stack.pop()]:
                if h not in seen:
                    seen.add(h)
                    stack.append(h)
        return tuple(sorted(seen, key=self._index.__getitem__))

    def is_maximal(self, f: FaceId) -> bool:
        return not self.cofaces(f)

    def connected_components(self) -> tuple:
        """Partition of the faces by connectivity through shared faces."""
        parent = {f: f for f in self._order}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for f in self._order:
            for g in self._cov[f]:
                rf, rg = find(f), find(g)
                if rf != rg:
                    parent[rf] = rg
        groups: dict[str, list] = {}
        for f in self._order:
            groups.setdefault(find(f), []).append(f)
        comps = [tuple(sorted(g, key=self._index.__getitem__))
                 for g in groups.values()]
        comps.sort(key=lambda c: self._index[c[0]])
        return tuple(comps)

    # -- Delta-structure helpers ------------------------------------------

    def vertices_of(self, f: FaceId) -> tuple:
        """Ordered vertex ids of a face (requires the Delta-structure)."""
        self._check(f)
        if self._delta is None:
            raise MissingDeltaStructure("vertex lists need a delta structure")
        return self._verts[f]

    def subface(self, f: FaceId, keep_positions: Sequence[int]) -> FaceId:
        """The face of ``f`` spanned by the vertices at the given positions."""
        self._check(f)
        if self._delta is None:
            raise MissingDeltaStructure("subfaces need a delta structure")
        keep = sorted(set(keep_positions))
        k = self._dims[f]
        if not keep:
            raise NoSuchFace("empty position set has no face")
        if keep[0] < 0 or keep[-1] > k:
            raise NoSuchFace(f"positions {keep} out of range for face {f!r}")
        cur = f
        omitted = [i for i in range(k + 1) if i not in keep]
        for i in reversed(omitted):
            cur = self._delta[cur][i]
        return cur

    def embedding_positions(self, tau: FaceId, sigma: FaceId):
        """Positions at which ``sigma`` sits inside ``tau``, or None.

        Distinct vertices per face make the embedding unique when it exists.
        """
        vt = self.vertices_of(tau)
        vs = self.vertices_of(sigma)
        lookup = {v: i for i, v in enumerate(vt)}
        try:
            pos = tuple(lookup[v] for v in vs)
        except KeyError:
            return None
        if list(pos) != sorted(pos):
            return None
        if self.subface(tau, pos) != sigma:
            return None
        return pos

    def contains_face(self, tau: FaceId, sigma: FaceId) -> bool:
        return self.embedding_positions(tau, sigma) is not None

    def star(self, f: FaceId) -> tuple:
        """All faces >= f; with a Delta-structure this equals the poset upset."""
        return self.upset(f)

    # -- structural constructions ------------------------------------------

    def skeleton(self, k: int) -> "CombinatorialComplex":
        """The subcomplex of all faces of dimension at most ``k``."""
        return self._restricted(tuple(f for f in self._order if self._dims[f] <= k))

    def _record(self, f):
        rec = {"id": f, "dim": self._dims[f], "label": self._labels[f],
               "facets": list(self._cov[f])}
        if self._delta is not None:
            rec["delta_order"] = list(self._delta[f])
        if self._levels is not None:
            rec["level"] = self._levels[f]
        return rec

    def level_subcomplex(self, m: int) -> "CombinatorialComplex":
        """All faces of level <= m (downward-closed by the level invariant)."""
        if self._levels is None:
            raise NoFiltration("complex has no filtration levels")
        return self._restricted(
            tuple(f for f in self._order if self._levels[f] <= m))

    def cone(self, apex: str | None = None) -> "CombinatorialComplex":
        """The cone: the complex plus an apex joined to every face.

        Works on any complex (a poset cone); Delta-structure and levels
        are carried along when present, the apex becoming the last
        vertex of each new face.  The input is a subcomplex of the output.
        """
        lv = self._levels
        return self._coned(self._order, "c" if apex is None else apex, "*",
                           True, min(lv.values()) if lv else None)

    def _coned(self, closure, apex: str, sep: str, labels: bool,
               level) -> "CombinatorialComplex":
        """This complex plus a vertex joined to each face of ``closure``, a
        downward-closed set of faces in canonical order.

        The new vertex takes the id ``apex`` and the join of a face g the
        id ``g<sep><apex>``, each suffixed when taken, and the label
        ``label(g)<sep><apex>`` when ``labels``; the new vertex is the last
        vertex of each new face.  On a filtered complex the new vertex gets
        ``level`` and the join of g the larger of g's level and ``level``.
        """
        taken = set(self._order)
        e = _dedup_ids([apex], taken)[0]
        taken.add(e)
        ids = dict(zip(closure, _dedup_ids([f"{g}{sep}{e}" for g in closure], taken)))
        dims, delta, levels = self._dims, self._delta, self._levels
        below = self._cov if delta is None else delta
        recs = [{"id": e, "dim": 0, "facets": []}]
        if levels is not None:
            recs[0]["level"] = level
        for g in closure:
            facets = [ids[x] for x in below[g]] + [g] if dims[g] else [e, g]
            rec = {"id": ids[g], "dim": dims[g] + 1, "facets": facets}
            if labels:
                rec["label"] = f"{self._labels[g]}{sep}{e}"
            if delta is not None:
                rec["delta_order"] = facets
            if levels is not None:
                rec["level"] = max(levels[g], level)
            recs.append(rec)
        return self._derived((), recs)

    def order_complex(self) -> "CombinatorialComplex":
        """The complex of chains of the face poset (barycentric subdivision).

        Chains are ordered by increasing face dimension; the output always
        carries a Delta-structure.
        """
        # downset is canonically sorted and ends with f itself
        below = {f: self.downset(f)[:-1] for f in self._order}
        lv = self._levels
        return CombinatorialComplex(_simplex_records(
            _chains(self._order, below.__getitem__), "<".join,
            None if lv is None else lambda ch: max(map(lv.__getitem__, ch))))

    def quotient_free_involution(self, phi: Mapping[str, str]) -> "CombinatorialComplex":
        """Quotient by a fixed-point-free involution of the face poset.

        Faces of the quotient are orbits.  Regularity is validated, not
        assumed: an orbit face whose facet orbits collide (or whose
        vertex orbits collide) is rejected.  The Delta-structure descends
        when the involution preserves per-face facet order; otherwise it
        is dropped and homology takes the cellular route, through
        incidence numbers.
        """
        for f in self._order:
            g = phi.get(f)
            if g is None or g not in self._dims:
                raise NotInvolution(f"pairing undefined at face {f!r}")
            if g == f:
                raise HasFixedFace(f"face {f!r} is fixed")
            if phi.get(g) != f:
                raise NotInvolution(f"pairing is not an involution at {f!r}")
            if self._dims[g] != self._dims[f]:
                raise NotInvolution(f"pairing does not preserve dimension at {f!r}")
            if {phi[h] for h in self._cov[f]} != set(self._cov[g]):
                raise NotInvolution(f"pairing does not preserve covering at {f!r}")

        def rep(f):
            g = phi[f]
            return f if self._index[f] < self._index[g] else g

        orbit_id = {}
        for f in self._order:
            r = rep(f)
            orbit_id[f] = f"{r}|{phi[r]}"

        keep_levels = (self._levels is not None and
                       all(self._levels[f] == self._levels[phi[f]] for f in self._order))

        keep_delta = self._delta is not None
        if keep_delta:
            for f in self._order:
                a = [orbit_id[x] for x in self._delta[f]]
                b = [orbit_id[x] for x in self._delta[phi[f]]]
                if a != b:
                    keep_delta = False
                    break

        reps = [f for f in self._order if rep(f) == f]
        recs = self._rewritten(reps, orbit_id, keep_delta, keep_levels)
        for r, rec in zip(reps, recs):
            if len(set(rec["facets"])) != len(rec["facets"]):
                raise QuotientNotRegular(
                    f"orbit of {r!r} would cover an orbit face twice")
        try:
            return CombinatorialComplex(recs)
        except BadDeltaStructure as exc:
            raise QuotientNotRegular(str(exc)) from exc

    def relabeled(self, mapping: Mapping[str, str]) -> "CombinatorialComplex":
        """Rename faces by a bijection of ids (labels follow the new ids)."""
        rename = {f: mapping.get(f, f) for f in self._order}
        if len(set(rename.values())) != len(self._order):
            raise DuplicateFace("relabeling is not a bijection")
        recs = self._rewritten(self._order, rename)
        for rec in recs:
            rec.pop("label", None)
        return CombinatorialComplex(recs)


# -- module-level constructors and binary operations ------------------------

def new_complex(faces: Iterable[Mapping]) -> CombinatorialComplex:
    """Build and validate a complex from face records (see class docs)."""
    return CombinatorialComplex(faces)


def euler_characteristic(c: CombinatorialComplex) -> int:
    return c.euler_characteristic()


def connected_components(c: CombinatorialComplex) -> tuple:
    return c.connected_components()


def skeleton(c: CombinatorialComplex, k: int) -> CombinatorialComplex:
    return c.skeleton(k)


def cone(c: CombinatorialComplex, apex: str | None = None) -> CombinatorialComplex:
    return c.cone(apex)


def order_complex(c: CombinatorialComplex) -> CombinatorialComplex:
    return c.order_complex()


def level_subcomplex(c: CombinatorialComplex, m: int) -> CombinatorialComplex:
    return c.level_subcomplex(m)


def quotient_free_involution(c: CombinatorialComplex,
                             phi: Mapping[str, str]) -> CombinatorialComplex:
    return c.quotient_free_involution(phi)


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
