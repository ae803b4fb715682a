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

from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from operator import eq, itemgetter, sub
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


def _without(seq, cuts) -> list:
    """``seq`` without the items at the sorted positions ``cuts``."""
    out, lo = [], 0
    for p in cuts:
        out += seq[lo:p]
        lo = p + 1
    out += seq[lo:]
    return out


def _interleave(seq, spots, new) -> list:
    """``seq`` with each item of ``new`` after the first ``spots[j]`` items
    of ``seq``; ``spots`` does not decrease."""
    out, lo = [], 0
    for hi, x in zip(spots, new):
        out += seq[lo:hi]
        out.append(x)
        lo = hi
    out += seq[lo:]
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


def _from_simplices(simplices: list, name, level=None) -> "CombinatorialComplex":
    """``CombinatorialComplex(_simplex_records(simplices, name, level))``,
    assembled from the vertex tuples without writing records.

    ``name`` is a ``str.join`` and ``level`` does not drop from a tuple to
    a longer one, with values at least 1.  Every label is its id, so the
    canonical order is by (dim, id), and slot i holds face i of it: the
    id list is the label column and the tuples, in that order, the vertex
    column; facet i drops vertex i.  Only what the tuples do not guarantee
    is checked: the list is not empty, ``name`` is injective on it, each
    tuple less one vertex is in it, a tuple's vertices are distinct, and
    ``name((v,))`` is ``v``, not empty.  On any failure the records go to
    the constructor, which raises its error.
    """
    try:
        ids = list(map(name, simplices))
        sizes = list(map(len, simplices))
        perm = sorted(range(len(ids)), key=ids.__getitem__)
        perm.sort(key=sizes.__getitem__)
        order = tuple(map(ids.__getitem__, perm))
        faces = list(map(simplices.__getitem__, perm))
        grade = list(map(sizes.__getitem__, perm))      # dimension + 1
        del ids, sizes, perm
        if grade[0] != 1:
            raise _Fault
        starts = [bisect_left(grade, k) for k in range(1, grade[-1] + 3)]
        vs, edges = order[:starts[1]], faces[starts[1]:starts[2]]
        # the tuples below a tuple are all in the list once the facets are,
        # so a repeated vertex shows in an edge
        if not all(vs) or faces[:len(vs)] != list(zip(vs)) or any(map(
                eq, map(itemgetter(0), edges), map(itemgetter(1), edges))):
            raise _Fault
        at = dict(zip(faces, range(len(faces))))
        below = [[] for _ in vs]
        for k in range(1, grade[-1] + 1):
            group = faces[starts[k]:starts[k + 1]]
            # per i, the tuple less vertex i, and column i its slots
            drops = [itemgetter(*[j for j in range(k + 1) if j != i])
                     for i in range(k + 1)] if k > 1 else \
                [itemgetter(slice(1, 2)), itemgetter(slice(0, 1))]
            cols = [list(map(at.__getitem__, map(drop, group))) for drop in drops]
            below += map(list, zip(*cols))
        del at                          # freed before the index and cofaces
        index = dict(zip(order, range(len(order))))
        if len(index) != len(order):
            raise _Fault
    except (_Fault, LookupError):   # a check failed, or a facet is missing
        return CombinatorialComplex(_simplex_records(simplices, name, level))
    out = CombinatorialComplex.__new__(CombinatorialComplex)
    out._order, out._index, out._starts, out._is_delta = order, index, starts[:-1], True
    slots = range(len(order))
    out._num = (order, below, _cofaces(below, [[] for _ in slots], slots), slots, order,
                None if level is None else list(map(level, faces)), faces)
    return out


def _id_list(rec, key, fid) -> tuple:
    # the ids listed under ``key``, none when the field is absent or null
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


class _Fault(Exception):
    """A face fails a check of the build."""


def _cycle(edges, ends, e, v):
    """The vertices and the edges, in step order, of the walk around
    ``edges`` from ``v`` along ``e``, ``ends[y]`` the ends of edge y;
    None unless they form one cycle."""
    one, two = {}, {}                   # the first and second edge at a vertex
    for y in edges:
        for w in ends[y]:
            if w not in one:
                one[w] = y
            elif w not in two:
                two[w] = y
            else:
                return None
    if len(two) != len(one):
        return None
    vs, es = [], []
    for _ in edges:
        vs.append(v)
        es.append(e)
        a, b = ends[e]
        v = b if a == v else a          # the other end of e
        e = two[v] if one[v] == e else one[v]
    return (vs, es) if len(set(es)) == len(edges) else None


def _identity_swap(k):
    # the facet identity of a k-face pairs entry j of facet i with entry
    # i - 1 of facet j (j < i) in its facets' facet lists laid end to end
    return itemgetter(*[b * k + a - 1 if b < a else b * k + k + a
                        for a, b in (divmod(q, k) for q in range(k * k + k))])


def _cofaces(below, above, fresh):
    # ``above`` with each slot in ``fresh`` put above its facets; an older
    # slot's list is copied first, so a parent's stays as it was
    copied, n0 = set(), fresh.start
    for x in fresh:
        for s in below[x]:
            if s < n0 and s not in copied:
                copied.add(s)
                above[s] = above[s][:]
            above[s].append(x)
    return above


def _grown(col, carried, n0, tail) -> list:
    # a column of ``n0`` parent slots, with ``col``'s values when
    # ``carried``, and then ``tail``; ``col`` itself when nothing is added
    return col if carried and not tail else (col if carried else [None] * n0) + tail


def _compacted(order, num) -> tuple:
    # ``num`` without dead slots: face i of ``order`` at slot i
    _ids, below, _above, live, *columns = num
    pos = dict(zip(live, range(len(live))))
    below = [list(map(pos.__getitem__, below[x])) for x in live]
    slots = range(len(below))
    return (order, below, _cofaces(below, [[] for _ in slots], slots), slots,
            *[None if col is None else list(map(col.__getitem__, live)) for col in columns])


class CombinatorialComplex:
    """A finite graded face poset, optionally Delta-structured and filtered.

    Construct from an iterable of face records, each a mapping with keys

    - ``id``: unique string
    - ``dim``: non-negative integer
    - ``facets``: ids of the codimension-one faces (empty for vertices)
    - ``label``: optional display string (defaults to the id)
    - ``delta_order``: optional ordered facet list (Delta-structure)
    - ``level``: optional positive integer (filtration level)

    A record that is not a mapping, or a list of ids that is not a list
    of strings, is :class:`DescriptorInvalid`; a bool is not an integer,
    and a field set to None counts as absent.

    All invariants are checked: grading of the covering relation,
    downward closure to vertices, the simplicial facet identity and
    vertex distinctness when a Delta-structure is claimed, the regular
    CW property in dimensions 1 and 2 when none is, and downward
    closure of levels.  Faces are kept in a canonical order sorted by
    (dimension, label, insertion index), which makes every derived
    output byte-deterministic.

    One routine, :meth:`_build`, runs these checks for every complex
    made from records.  It completes a complex from a checked parent's
    surviving faces and fresh records and checks only the fresh faces.
    The constructor runs it with no parent, a restriction
    (:meth:`_restricted`) with no fresh faces, and a move
    (:meth:`_derived`) with both.  The simplicial builders write no
    records: :func:`_from_simplices` assembles their complexes from
    vertex tuples and hands the records to the constructor only when a
    check fails.

    Every build numbers the faces: ``(ids, below, above, live, labels,
    levels, verts)``.  Per slot it holds the face id, the facet slots (in
    Delta order when there is one, ``_is_delta``, else in canonical
    covering order), the coface slots, the label, the level and the
    vertex list; the level column is None on a complex without levels,
    the vertex column on one without a Delta structure.  ``live`` is the
    slot of each face in canonical order.  The numbering is the one place
    a complex keeps its faces' attributes: besides it there are only the
    canonical order ``_order``, its inverse ``_index`` and the dimension
    starts ``_starts`` (the order is dimension-major, so the k-faces are
    positions ``_starts[k]`` to ``_starts[k + 1]``).  A column is read
    only at a live slot, reached from an id through ``_index``; canonical
    facet order is the slots sorted by position.  Homology reads the
    numbering too (:func:`sncx.homology.homology`).  A complex read from
    records is numbered as it is read, canonically, slot i at position i.
    A move (:meth:`_derived`) carries it: the child copies the lists, its
    fresh faces take new slots and the copied coface lists of their
    facets, and its dropped faces leave dead slots that no live face
    reaches downward; the parent's lists are never changed.  A
    restriction (:meth:`_restricted`) shares the lists and keeps fewer
    live slots.  A move whose dead slots would outnumber its live ones
    compacts every list to canonical slots.  A complex is never changed
    once built.
    """

    __slots__ = ("_order", "_index", "_starts", "_is_delta", "_num")

    def __init__(self, faces: Iterable[Mapping]):
        self._is_delta = False
        self._build([], list(faces))

    # -- the one build routine -------------------------------------------

    def _build(self, survivors: list, fresh: Sequence[Mapping],
               num: tuple = ((), [], [], (), [], None, None), sst=(0,)):
        """Complete this complex from a parent's ``survivors`` and ``fresh``
        records, checking only the fresh faces, and number it.

        The survivors are a downward-closed part of a checked parent, in its
        canonical order, and ``sst[k]`` is the number of them below
        dimension k; ``_is_delta`` is the parent's.  ``num`` is the
        parent's numbering, its ``live`` holding the survivors' slots.  The
        fresh faces take new slots, and each column grows by their values.
        Every check looks only at a face and the faces below it, so the
        survivors pass again what they passed when the parent was built; a
        survivor is looked at only for a Delta structure or levels that the
        fresh records claim and the parent lacked.  The result equals the
        complex the constructor builds from the survivors' records followed
        by the fresh ones, and a bad fresh face fails with the
        constructor's error and message.

        Each record is first checked alone.  Then one loop in canonical
        order maps a face's facet ids to slots once, runs every other check
        on those integer lists, and keeps them as the face's facet slots,
        the only copy kept.  A face that fails is read again by
        :meth:`_fault`, which runs the checks one by one on ids to name its
        first fault; the error raised is the least fault by the rank of its
        check, then by record order (covering) or canonical order, as if
        each check ran on every face in turn.
        """
        ids, below, above, kept, labels, levels, verts = num
        carried_delta = self._is_delta and bool(survivors)
        carried_levels = levels is not None and bool(survivors)
        # a first pass keeps a list of ids as it is and checks that they
        # are strings in one join after the pass; if any check fails, the
        # records are read again one by one to name the first fault
        for fast in (True, False):
            new, dims, names, marks, cov, delta = [], [], [], [], {}, {}
            taken = () if fast else set(survivors)
            try:
                for pos, rec in enumerate(fresh, start=len(survivors)):
                    if type(rec) is not dict and not isinstance(rec, Mapping):
                        raise DescriptorInvalid(
                            f"face record {pos} is not an object: {rec!r}")
                    fid = rec.get("id")
                    if not isinstance(fid, str) or not fid:
                        raise DuplicateFace(f"face record {pos} has no usable id")
                    if fid in cov or fid in taken:
                        raise DuplicateFace(f"duplicate face id {fid!r}")
                    dim = rec.get("dim")
                    if type(dim) is not int or dim < 0:
                        raise GradingViolation(f"face {fid!r} has invalid dim {dim!r}")
                    label = rec.get("label")
                    listed = rec.get("facets")
                    cov[fid] = listed if fast and type(listed) is list else \
                        _id_list(rec, "facets", fid)
                    listed = rec.get("delta_order")
                    if listed is not None:
                        delta[fid] = listed if fast and type(listed) is list else \
                            _id_list(rec, "delta_order", fid)
                    lv = rec.get("level")
                    if lv is not None and (type(lv) is not int or lv < 1):
                        raise LevelNotDownwardClosed(
                            f"face {fid!r} has invalid level {lv!r}; levels start at 1")
                    new.append(fid)
                    dims.append(dim)
                    names.append(fid if label is None else str(label))
                    marks.append(lv)
                if fast:    # a TypeError unless every id is a string
                    "".join(chain.from_iterable(cov.values()))
                    "".join(chain.from_iterable(delta.values()))
                    if cov and any(map(cov.__contains__, survivors)):
                        raise _Fault        # a fresh id is a survivor's
                break
            except Exception:   # read again: the first fault in record order
                if not fast:
                    raise

        # canonical order (dim, label, insertion index): the fresh faces
        # sorted stably, then each placed by binary search in its
        # dimension's run of survivors, which come in the parent's
        # canonical order, after the survivors it ties
        perm = sorted(range(len(new)), key=names.__getitem__)
        perm.sort(key=dims.__getitem__)
        dims.sort()
        new = list(map(new.__getitem__, perm))
        names = list(map(names.__getitem__, perm))
        marks = list(map(marks.__getitem__, perm))
        del perm
        n0, m = len(ids), len(survivors)
        slots = range(n0, n0 + len(new))
        sst = sst[:bisect_left(sst, m) + 1]     # to the survivors' top dimension
        top = len(sst) - 1                      # sst[min(k, top)] for any k
        if not survivors:
            order, live = new, slots
        else:
            spots, lo = [], 0
            for k, name in zip(dims, names):
                lo = bisect_right(kept, name, max(lo, sst[min(k, top)]),
                                  sst[min(k + 1, top)], key=labels.__getitem__)
                spots.append(lo)
            order, live = _interleave(survivors, spots, new), _interleave(kept, spots, slots)
        order = tuple(order)
        index = dict(zip(order, range(len(order))))
        starts = [sst[min(k, top)] + bisect_left(dims, k)
                  for k in range(max(top, dims[-1] + 1 if dims else 0) + 1)]

        has_delta = carried_delta or bool(delta) or len(starts) == 2
        has_levels = carried_levels or marks.count(None) < len(marks)
        self._order, self._index, self._starts = order, index, starts
        self._is_delta = has_delta
        faces = order if survivors and (has_delta, has_levels) != (
            carried_delta, carried_levels) else new

        if faces:
            below = below + [None] * len(new)
        if new:
            ids = [*ids, *new] if n0 else order
            labels = [*labels, *names] if n0 else names
        levels = _grown(levels, carried_levels, n0, marks) if has_levels else None
        verts = _grown(verts, carried_delta, n0, [None] * len(new)) if has_delta else None
        # read by the checks as they go
        self._num = ids, below, None, live, labels, levels, verts
        if faces is order:      # the survivors are checked again, on their ids
            cov.update(zip(survivors, map(self.facets, survivors)))
            if carried_delta:
                delta.update(zip(survivors, map(self.delta_order, survivors)))
        swaps = [None, None] + [_identity_swap(k) for k in range(2, len(starts) - 1)]
        ix, lvl = index.__getitem__, levels.__getitem__ if has_levels else None
        pending = at = None
        for f, k in zip(faces, dims if faces is new else self._grades()):
            p = index[f]
            x = live[p]
            try:
                if not k:
                    if cov[f]:
                        raise _Fault
                    if has_delta:
                        verts[x] = (f,)
                    xs = []
                elif has_delta:
                    ds = list(map(ix, delta[f]))
                    cs = sorted(ds)
                    ps = list(map(ix, cov[f]))
                    # a repeated facet repeats a vertex, as facet i is the
                    # face without vertex i
                    if (len(ds) != k + 1 or cs[0] < starts[k - 1] or cs[-1] >= starts[k]
                            or ps != cs and sorted(set(ps)) != cs):
                        raise _Fault
                    xs = list(map(live.__getitem__, ds)) if n0 else ds
                    if k > 1:
                        flat = sum(map(below.__getitem__, xs), [])
                        if swaps[k](flat) != tuple(flat):
                            raise _Fault
                    v, t = verts[xs[1]][0], verts[xs[0]]
                    if v in t:
                        raise _Fault
                    verts[x] = (v,) + t
                else:
                    cs = sorted(set(map(ix, cov[f])))
                    if not cs or cs[0] < starts[k - 1] or cs[-1] >= starts[k]:
                        raise _Fault
                    xs = list(map(live.__getitem__, cs)) if n0 else cs
                    if (len(xs) != 2 if k == 1 else k == 2 and _cycle(
                            xs, below, xs[0], below[xs[0]][0]) is None):
                        raise _Fault
                if has_levels and max(map(lvl, xs), default=0) > levels[x]:
                    raise _Fault
                below[x] = xs
            except (_Fault, LookupError, TypeError, ValueError):
                fault = self._fault(f, cov, delta)
                if fault is None:
                    if pending is None:
                        raise AssertionError(f"face {f!r} fails no check") from None
                    continue
                if not fault[0]:
                    at = at or {r["id"]: i for i, r in enumerate(fresh)}
                rank = fault[0], at[f] if not fault[0] else p
                if pending is None or rank < pending[0]:
                    pending = rank, fault[1]
        if pending:
            raise pending[1]
        del cov, delta                  # freed before the coface lists grow
        if new:
            above = _cofaces(below, above + [[] for _ in new], slots)
        self._num = ids, below, above, live, labels, levels, verts

    def _fault(self, f, cov, delta):
        """Rank and error of the first check of :meth:`_build` that face
        ``f`` fails, run on the records' ids in ``cov`` and ``delta``; None
        for none, or if a check cannot read a face below that failed one."""
        index, dim, slot = self._index, self.dim, self._slot
        below, live, levels, verts = self._num[1], self._num[3], self._num[5], self._num[6]

        def order(g):               # a KeyError where g has none
            return delta[g] if g in cov else self._facet_ids(g)

        k = dim(f)
        for g in cov[f]:
            if g not in index:
                return 0, DanglingFace(f"face {f!r} covers unknown face {g!r}")
            if dim(g) != k - 1:
                return 0, GradingViolation(
                    f"face {f!r} (dim {k}) covers {g!r} of dim {dim(g)}")
        if k and not cov[f]:
            return 0, GradingViolation(
                f"face {f!r} has dim {k} but no codimension-one faces")
        if k and self._is_delta and f not in delta:
            return 1, BadDeltaStructure(
                f"face {f!r} lacks delta_order while the complex claims one")
        facets = sorted(set(cov[f]), key=index.__getitem__)
        try:
            if levels is not None:
                lv = levels[slot(f)]
                if lv is None:
                    return 2, LevelNotDownwardClosed(
                        f"face {f!r} lacks a level while the complex is filtered")
                for g in facets:
                    if levels[slot(g)] > lv:
                        return 3, LevelNotDownwardClosed(
                            f"face {f!r} at level {lv} covers {g!r} "
                            f"at level {levels[slot(g)]}")
            if not self._is_delta:
                # on the facets' slots: none for a facet that failed, whose
                # own fault then ranks before any of these
                xs = list(map(slot, facets))
                if k == 1 and len(facets) != 2:
                    return 4, NotRegularCW(
                        f"edge {f!r} covers {len(facets)} vertices, wants 2")
                if k == 2 and _cycle(xs, below, xs[0], below[xs[0]][0]) is None:
                    return 4, NotRegularCW(
                        f"the edges of face {f!r} do not form one cycle")
                return None
            if not k:
                return None
            d = delta[f]
            if len(d) != k + 1:
                return 4, BadDeltaStructure(
                    f"face {f!r} of dim {k} has {len(d)} delta facets, wants {k + 1}")
            if len(set(d)) != k + 1:
                return 4, BadDeltaStructure(
                    f"face {f!r} repeats a facet in its delta_order")
            if set(d) != set(facets):
                return 4, BadDeltaStructure(
                    f"face {f!r}: delta_order disagrees with its covering set")
            # omitting vertex i then j (j < i) equals omitting j then i-1
            for i in range(k + 1 if k > 1 else 0):
                for j in range(i):
                    if order(d[i])[j] != order(d[j])[i - 1]:
                        return 5, BadDeltaStructure(
                            f"face {f!r} violates the facet identity at ({i},{j})")
            vs = (verts[slot(d[1])][0],) + verts[slot(d[0])]
            if len(set(vs)) != len(vs):
                return 6, BadDeltaStructure(
                    f"face {f!r} has repeated vertices {vs}")
        except (LookupError, TypeError, ValueError):
            pass
        return None

    def _child(self, survivors, fresh, live, sst) -> "CombinatorialComplex":
        # the build routine on this complex's numbering, ``live`` holding
        # the survivors' slots and ``sst`` their dimension starts
        out = CombinatorialComplex.__new__(CombinatorialComplex)
        out._is_delta = self._is_delta
        ids, below, above, _live, *columns = self._num
        out._build(survivors, fresh, (ids, below, above, live, *columns), sst)
        return out

    def _restricted(self, order) -> "CombinatorialComplex":
        """The subcomplex on ``order``, a downward-closed part of ``_order``:
        the build routine with no fresh faces.  It shares this complex's
        numbering, columns included, with the live slots of its own faces."""
        ps = list(map(self._index.__getitem__, order))
        return self._child(list(order), (), list(map(self._num[3].__getitem__, ps)),
                           [bisect_left(ps, s) for s in self._starts])

    def _derived(self, drop, fresh: Sequence[Mapping]) -> "CombinatorialComplex":
        """This complex without the faces in ``drop``, plus the ``fresh`` records.

        ``drop`` must be closed upward, so that the survivors are closed
        downward.  The build routine checks only the fresh faces; see
        :meth:`_build`.  The numbering is carried, each column with it;
        see the class notes.
        """
        cuts = sorted(map(self._index.__getitem__, drop))
        out = self._child(_without(self._order, cuts), fresh, _without(self._num[3], cuts),
                          [s - bisect_left(cuts, s) for s in self._starts])
        if len(out._num[0]) > 2 * len(out._order):     # more dead slots than live
            out._num = _compacted(out._order, out._num)
        return out

    def _pos(self, f) -> int:
        # the canonical position of face f; NoSuchFace unless f is a face
        try:
            return self._index[f]
        except KeyError:
            raise NoSuchFace(f"no face {f!r}") from None

    def _slot(self, f) -> int:
        # the live slot of face f; NoSuchFace unless f is a face
        return self._num[3][self._pos(f)]

    def _grades(self):
        # the dimension at each canonical position
        return chain.from_iterable(map(repeat, range(self.dimension + 1), self.f_vector()))

    def _slot_key(self):
        # the canonical position of a live slot; None where it is the slot
        ids, live, index = self._num[0], self._num[3], self._index
        return None if live == range(len(live)) else lambda x: index[ids[x]]

    def _facet_ids(self, f) -> tuple:
        # the facets of f in slot order: Delta order, or canonical on a poset
        ids, below = self._num[:2]
        return tuple([ids[x] for x in below[self._slot(f)]])

    def boundary_walk(self, f: FaceId) -> tuple:
        """The boundary circle of a 2-face as ``(vertex, edge)`` steps.

        The walk starts at the first vertex of the face's first edge in
        canonical order and leaves each vertex along the step's edge;
        raises :class:`NotRegularCW` unless the edges form one cycle.
        """
        x = self._slot(f)
        if self.dim(f) != 2:
            raise ValueError(f"face {f!r} is not a 2-face")
        ids = self._num[0]
        vs, es = self._walk(x, self._slot_key() if self._is_delta else None)
        return tuple([(ids[v], ids[e]) for v, e in zip(vs, es)])

    def _walk(self, x, key) -> tuple:
        # boundary_walk of the 2-face at slot x on slots, as the lists of
        # its vertices and edges; ``key`` is _slot_key()'s on a Delta complex
        ids, below = self._num[:2]
        es = below[x]
        e = min(es, key=key) if self._is_delta else es[0]   # a poset's are sorted
        v = min(below[e], key=key) if self._is_delta else below[e][0]
        steps = _cycle(es, below, e, v)
        if steps is None:
            raise NotRegularCW(f"the edges of face {ids[x]!r} do not form one cycle")
        return steps

    # -- basic accessors ------------------------------------------------

    @property
    def face_ids(self) -> tuple:
        return self._order

    def has_face(self, f) -> bool:
        """Whether ``f`` is the id of a face of this complex."""
        return f in self._index

    @property
    def has_delta(self) -> bool:
        return self._is_delta or not self._order

    @property
    def has_levels(self) -> bool:
        return self._num[5] is not None

    @property
    def is_empty(self) -> bool:
        return not self._order

    @property
    def dimension(self) -> int:
        """Top face dimension, -1 for the empty complex."""
        return len(self._starts) - 2

    def dim(self, f: FaceId) -> int:
        return bisect_right(self._starts, self._pos(f)) - 1

    def label(self, f: FaceId) -> str:
        return self._num[4][self._slot(f)]

    def facets(self, f: FaceId) -> tuple:
        """The codimension-one faces covered by ``f`` (canonically sorted)."""
        fs = self._facet_ids(f)             # on a face poset, canonical
        return tuple(sorted(fs, key=self._index.__getitem__)) if self._is_delta else fs

    def cofaces(self, f: FaceId) -> tuple:
        """The faces that cover ``f`` (canonically sorted)."""
        ids = self._num[0]
        return tuple(sorted(map(ids.__getitem__, self._above(self._slot(f))),
                            key=self._index.__getitem__))

    def _above(self, x) -> list:
        """The live slots above slot ``x``, read off its coface slots.

        A face's coface slots may hold dead ones, and on a restriction the
        slots of faces outside it; no live face lies above either, so they
        are skipped.  A slot is live when the face it names sits at a
        canonical position that holds that slot.
        """
        ids, _below, above, live = self._num[:4]
        index = self._index
        out = []
        for y in above[x]:
            p = index.get(ids[y])
            if p is not None and live[p] == y:
                out.append(y)
        return out

    def delta_order(self, f: FaceId) -> tuple:
        self._slot(f)
        if not self._is_delta:
            raise MissingDeltaStructure("complex has no delta structure")
        return self._facet_ids(f)

    def level(self, f: FaceId) -> int:
        x = self._slot(f)
        if self._num[5] is None:
            raise NoFiltration("complex has no filtration levels")
        return self._num[5][x]

    def max_level(self) -> int:
        levels = self._num[5]
        if levels is None:
            raise NoFiltration("complex has no filtration levels")
        return max(map(levels.__getitem__, self._num[3]), default=0)

    def faces_of_dim(self, k: int) -> tuple:
        # a slice of the canonical order, which is dimension-major
        s = self._starts
        return self._order[s[k]:s[k + 1]] if 0 <= k < len(s) - 1 else ()

    def f_vector(self) -> tuple:
        # graded, so every dimension up to the top one has a face
        s = self._starts
        return tuple(map(sub, s[1:], s))

    def euler_characteristic(self) -> int:
        return sum(n if k % 2 == 0 else -n for k, n in enumerate(self.f_vector()))

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
        index = self._index
        delta = keep_delta and self._is_delta
        ids, below, _above, live, labels, levels = self._num[:6]
        if not keep_levels:
            levels = None
        name = (ids if rename is None else list(map(rename.get, ids))).__getitem__
        key = self._slot_key()
        out = []
        for f in faces:
            nid = f if rename is None else rename[f]
            x, k = live[index[f]], self.dim(f)
            xs = below[x]                       # sorted: a poset's already are
            rec = {"id": nid, "dim": k, "facets": list(map(name, sorted(xs, key=key)))}
            if labels[x] != nid:
                rec["label"] = labels[x]
            if delta and k:
                rec["delta_order"] = list(map(name, xs))
            if levels is not None:
                rec["level"] = levels[x]
            out.append(rec)
        return out

    def __eq__(self, other):
        if not isinstance(other, CombinatorialComplex):
            return NotImplemented
        # the records name every field, and a Delta structure above vertices
        return self.to_records() == other.to_records()

    def __hash__(self):
        return hash(self._order)

    def __repr__(self):
        return f"CombinatorialComplex(f={self.f_vector()})"

    # -- poset navigation -------------------------------------------------

    def downset(self, f: FaceId) -> tuple:
        """All faces <= f in the face poset (f included), canonical order."""
        return self._reach(f, self._num[1].__getitem__)

    def upset(self, f: FaceId) -> tuple:
        """All faces >= f (f included), canonical order."""
        return self._reach(f, self._above)

    def _reach(self, f, step) -> tuple:
        # the faces reached from f through ``step`` on slots, canonically
        x = self._slot(f)
        seen = {x}
        stack = [x]
        while stack:
            for y in step(stack.pop()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return tuple(map(self._num[0].__getitem__, sorted(seen, key=self._slot_key())))

    def is_maximal(self, f: FaceId) -> bool:
        return not self.cofaces(f)

    def connected_components(self) -> tuple:
        """Partition of the faces by connectivity through shared faces."""
        below, comps, seen = self._num[1], [], set()
        for f in self._order:           # a component's least face comes first
            if f not in seen:
                comps.append(self._reach(f, lambda x: below[x] + self._above(x)))
                seen.update(comps[-1])
        return tuple(comps)

    # -- Delta-structure helpers ------------------------------------------

    def vertices_of(self, f: FaceId) -> tuple:
        """Ordered vertex ids of a face (requires the Delta-structure)."""
        x = self._slot(f)
        if not self._is_delta:
            raise MissingDeltaStructure("vertex lists need a delta structure")
        return self._num[6][x]

    def subface(self, f: FaceId, keep_positions: Sequence[int]) -> FaceId:
        """The face of ``f`` spanned by the vertices at the given positions."""
        x = self._slot(f)
        if not self._is_delta:
            raise MissingDeltaStructure("subfaces need a delta structure")
        keep = sorted(set(keep_positions))
        k = self.dim(f)
        if not keep:
            raise NoSuchFace("empty position set has no face")
        if keep[0] < 0 or keep[-1] > k:
            raise NoSuchFace(f"positions {keep} out of range for face {f!r}")
        ids, below = self._num[:2]
        omitted = [i for i in range(k + 1) if i not in keep]
        for i in reversed(omitted):
            x = below[x][i]
        return ids[x]

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
        s = self._starts
        return self._restricted(self._order[:s[max(0, min(k + 1, len(s) - 1))]])

    def _record(self, f):
        rec = {"id": f, "dim": self.dim(f), "label": self.label(f),
               "facets": list(self.facets(f))}
        if self._is_delta:
            rec["delta_order"] = list(self._facet_ids(f))
        if self.has_levels:
            rec["level"] = self.level(f)
        return rec

    def level_subcomplex(self, m: int) -> "CombinatorialComplex":
        """All faces of level <= m (downward-closed by the level invariant)."""
        levels = self._num[5]
        if levels is None:
            raise NoFiltration("complex has no filtration levels")
        return self._restricted(tuple(
            f for f, x in zip(self._order, self._num[3]) if levels[x] <= m))

    def cone(self, apex: str | None = None) -> "CombinatorialComplex":
        """The cone: the complex plus an apex joined to every face.

        Works on any complex (a poset cone); Delta-structure and levels
        are carried along when present, the apex becoming the last
        vertex of each new face.  The input is a subcomplex of the output.
        """
        live, levels = self._num[3], self._num[5]
        return self._coned(self._order, "c" if apex is None else apex, "*",
                           True, None if levels is None else min(map(levels.__getitem__, live)))

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
        index = self._index
        names, below, _above, live, label_of, levels = self._num[:6]
        recs = [{"id": e, "dim": 0, "facets": []}]
        if levels is not None:
            recs[0]["level"] = level
        for g in closure:
            x, k = live[index[g]], self.dim(g)
            facets = [ids[names[y]] for y in below[x]] + [g] if k else [e, g]
            rec = {"id": ids[g], "dim": k + 1, "facets": facets}
            if labels:
                rec["label"] = f"{label_of[x]}{sep}{e}"
            if self._is_delta:
                rec["delta_order"] = facets
            if levels is not None:
                rec["level"] = max(levels[x], level)
            recs.append(rec)
        return self._derived((), recs)

    def order_complex(self) -> "CombinatorialComplex":
        """The complex of chains of the face poset (barycentric subdivision).

        Chains are ordered by increasing face dimension; the output always
        carries a Delta-structure.
        """
        order = self._order
        below = dict(zip(order, [tuple(map(order.__getitem__, d))
                                 for d in self._downsets()]))
        levels = self._num[5]
        lv = None if levels is None else dict(zip(order, map(levels.__getitem__, self._num[3])))
        # levels do not drop up the face poset: a chain's level is its top's
        return _from_simplices(
            _chains(order, below.__getitem__), "<".join,
            None if lv is None else lambda ch: lv[ch[-1]])

    def _downsets(self) -> list:
        """Per canonical position, the sorted positions below: its facets' and theirs."""
        below, live = self._num[1], self._num[3]
        pos = dict(zip(live, range(len(live))))
        out = []
        for x in live:
            fs = list(map(pos.__getitem__, below[x]))
            out.append(tuple(sorted(set(fs).union(*map(out.__getitem__, fs)))))
        return out

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
            if g is None or g not in self._index:
                raise NotInvolution(f"pairing undefined at face {f!r}")
            if g == f:
                raise HasFixedFace(f"face {f!r} is fixed")
            if phi.get(g) != f:
                raise NotInvolution(f"pairing is not an involution at {f!r}")
            if self.dim(g) != self.dim(f):
                raise NotInvolution(f"pairing does not preserve dimension at {f!r}")
            if {phi[h] for h in self._facet_ids(f)} != set(self._facet_ids(g)):
                raise NotInvolution(f"pairing does not preserve covering at {f!r}")

        def rep(f):
            g = phi[f]
            return f if self._index[f] < self._index[g] else g

        orbit_id = {}
        for f in self._order:
            r = rep(f)
            orbit_id[f] = f"{r}|{phi[r]}"

        keep_levels = self.has_levels and all(
            self.level(f) == self.level(phi[f]) for f in self._order)

        keep_delta = self._is_delta and all(
            [orbit_id[x] for x in self._facet_ids(f)]
            == [orbit_id[x] for x in self._facet_ids(phi[f])] for f in self._order)

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


# -- module-level constructors ---------------------------------------------

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
