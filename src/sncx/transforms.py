"""Homotopy-preserving moves on Delta-structured complexes.

The three blowup-induced moves on a dual complex (identity, stellar
subdivision along a face, coning over a base face with attachments),
the discrete Morse flow that retracts a new vertex onto an old one,
puckering of a maximal cell, and sequential script replay with a
homology log.

Every move here (stellar subdivision, the vertex flow, puckering) hands
the faces it keeps and the records of the faces it creates to
``CombinatorialComplex._derived``, the complex's one build routine,
which checks only the created faces: the kept ones lie below one
another as before and were checked when their complex was built.  A
case 3 or attach move cones a new vertex over the closure of its
attachment with ``CombinatorialComplex._coned``, the writer that also
writes the cone over a whole complex, and hands its records on the same
way.  The replay computes the whole complex's homology at every step,
d^2 = 0 on it holding by the facet identities its build checked, on the
face numbering that each move carries from the step before, and
carries each level below the lowest level the move changed: the level
of the subdivided face for case 2, the new vertex's level for case 3
and attach, none for case 1.  No face below it was dropped or made, so
that level subcomplex is the one of the step before, and only the
levels at or above it are built.  The one level rebuilt unchanged is
that of a vertex subdivided under its own id whose cofaces all sit
above it.

All three moves find a span by one rule of the Delta order: the face of
``t`` without its vertex ``v`` is ``delta_order(t)[i]``, the facet
opposite ``v`` at the position ``i`` of ``v`` in ``t``.  Faces have
distinct vertices, so the vertex flow pairs each source with at most one
span and no V-path leaves a pair; its matching is acyclic by that order
and nothing searches for a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import CombinatorialComplex, _dedup_ids
from .errors import (
    BadMultiplicity,
    DescriptorInvalid,
    MissingDeltaStructure,
    NoSuchFace,
    NotAVertex,
    NotMaximal,
    PairingIncomplete,
    PairingNotUnique,
    ScriptError,
)
from .homology import homology


def stellar_subdivide(c: CombinatorialComplex, sigma: str,
                      new_vertex: str | None = None) -> CombinatorialComplex:
    """Subdivide along the face ``sigma``.

    Every face tau >= sigma is removed; writing tau = sigma * beta, the
    replacements are e * alpha * beta for every proper subface alpha of
    sigma inside tau, the barycenter vertex e itself replacing sigma with
    alpha empty.  Homology is preserved.  Levels: e takes sigma's level,
    a replacement keeps the level of the face it came from.
    """
    if not c.has_delta:
        raise MissingDeltaStructure("stellar subdivision needs a delta structure")
    if not c.has_face(sigma):
        raise NoSuchFace(f"no face {sigma!r}")

    star = c.upset(sigma)
    drop = set(star)
    taken = set(c.face_ids) - drop
    e = _dedup_ids([new_vertex if new_vertex is not None else f"b({sigma})"],
                   taken)[0]

    # the proper subsets alpha of sigma's vertices, the empty one first;
    # (sigma, empty), the first key, is e
    sigma_verts = sorted(c.vertices_of(sigma))
    n = len(sigma_verts)
    alphas = [frozenset(v for i, v in enumerate(sigma_verts) if mask >> i & 1)
              for mask in range((1 << n) - 1)]
    keys = [(tau, alpha) for tau in star for alpha in alphas]
    ids = dict(zip(keys, _dedup_ids(
        [e] + [f"{e}|{tau}|{'.'.join(sorted(alpha))}" for tau, alpha in keys[1:]],
        taken)))

    levels = c.has_levels
    recs = []
    for (tau, alpha), nid in ids.items():
        tau_verts = c.vertices_of(tau)
        keep_pos = [i for i, v in enumerate(tau_verts)
                    if v in alpha or v not in sigma_verts]
        rec = {"id": nid, "dim": len(keep_pos), "facets": []}
        if keep_pos:
            # vertex order: e first, then tau's surviving vertices in tau
            # order; facet 0 omits e, the subface alpha * beta of tau
            delta = [c.subface(tau, keep_pos)]
            for p in keep_pos:
                v = tau_verts[p]
                delta.append(ids[(tau, alpha - {v})] if v in alpha
                             else ids[(c.delta_order(tau)[p], alpha)])
            rec["facets"] = rec["delta_order"] = delta
        if levels:
            rec["level"] = c.level(tau)
        recs.append(rec)
    return c._derived(drop, recs)


@dataclass(frozen=True)
class BlowupMove:
    """One move of a blowup script.

    ``case`` 1 leaves the complex alone, case 2 subdivides along
    ``face``, case 3 adds a vertex coned over the downward closure of
    ``attach`` (every member must contain ``base``, and ``base`` must be
    listed).  ``case == "attach"`` is the unconstrained variant used to
    replay boundary constructions: a new vertex coned over an arbitrary
    downward-closed attachment region (possibly empty).
    """

    case: int | str
    face: str | None = None              # case 2
    base: str | None = None              # case 3
    attach: tuple = ()                   # cases 3 and "attach"
    vertex: str | None = None            # case 3: flow target v_j
    new_vertex: str | None = None
    level: int | None = None

    def as_json(self) -> dict:
        out = {"case": self.case}
        if self.face is not None:
            out["face"] = self.face
        if self.base is not None:
            out["base"] = self.base
        if self.attach:
            out["attach"] = list(self.attach)
        if self.vertex is not None:
            out["vertex"] = self.vertex
        if self.new_vertex is not None:
            out["new_vertex"] = self.new_vertex
        if self.level is not None:
            out["level"] = self.level
        return out

    @classmethod
    def from_json(cls, d: dict) -> "BlowupMove":
        """Read one script step; a malformed step raises DescriptorInvalid."""
        if not isinstance(d, dict):
            raise DescriptorInvalid(f"script step {d!r} is not an object")
        case = d.get("case")
        if not (case == "attach" or type(case) is int and case in (1, 2, 3)):
            raise DescriptorInvalid(f"unknown move case {case!r}")
        for key in ("face", "base", "vertex", "new_vertex"):
            if d.get(key) is not None and not isinstance(d[key], str):
                raise DescriptorInvalid(
                    f"move field {key!r} must be a face id string, got {d[key]!r}")
        attach = d.get("attach")
        if attach is None:
            attach = []
        if not (isinstance(attach, list) and all(isinstance(t, str) for t in attach)):
            raise DescriptorInvalid(
                f"move field 'attach' must be a list of face ids, got {attach!r}")
        level = d.get("level")
        if level is not None and not (type(level) is int and level >= 1):
            raise DescriptorInvalid(
                f"move field 'level' must be a positive integer, got {level!r}")
        return cls(case=case, face=d.get("face"), base=d.get("base"),
                   attach=tuple(attach), vertex=d.get("vertex"),
                   new_vertex=d.get("new_vertex"), level=level)


def _closure(c, faces):
    """The downward closure of ``faces``, in canonical order."""
    seen = set()
    for f in faces:
        seen.update(c.downset(f))
    return sorted(seen, key=c._index.__getitem__)


def _spans(c, faces, v):
    """The faces of ``faces`` that hold the vertex ``v``, each filed under
    its facet opposite ``v``, in the order of ``faces``.

    Faces have distinct vertices and facet i of a face omits its vertex
    i, so a face t holding v spans exactly one face without v: the facet
    it is filed under.
    """
    spans = {}
    for t in faces:
        vs = c.vertices_of(t)
        if c.dim(t) and v in vs:
            spans.setdefault(c.delta_order(t)[vs.index(v)], []).append(t)
    return spans


def _validate_case3(c, move):
    """Check a case 3 move; returns the closure of its attachment."""
    base = move.base
    if not c.has_face(base):
        raise DescriptorInvalid(f"case 3 base face {base!r} missing")
    attach = list(move.attach)
    if base not in attach:
        raise DescriptorInvalid("case 3 attachment set must contain the base face")
    if len(set(attach)) != len(attach):
        raise DescriptorInvalid("case 3 attachment set repeats a face")
    for t in attach:
        if not c.has_face(t):
            raise DescriptorInvalid(f"case 3 attachment face {t!r} missing")
        if base not in c.downset(t):
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
    # the cone retracts onto the base only when spans through vj are
    # unique: reject closures with ambiguous spans (e.g. duplicate top
    # cells sharing all their lower faces).  A face t holding vj spans
    # exactly one face without vj, its facet opposite vj.
    closure = _closure(c, attach)
    spans = _spans(c, closure, vj)
    for g in closure:
        n = len(spans.get(g, ()))
        if vj not in c.vertices_of(g) and n != 1:
            raise DescriptorInvalid(
                f"face {g!r} has {n} spans through {vj!r} "
                "in the attachment closure; need exactly one")
    return closure


def blowup_move(c: CombinatorialComplex, move: BlowupMove) -> CombinatorialComplex:
    """Apply one blowup move; cases 1-3 preserve homology level by level."""
    if move.case == 1:
        return c
    if move.case == 2:
        if not c.has_delta:
            raise MissingDeltaStructure("case 2 needs a delta structure")
        if not c.has_face(move.face):
            raise DescriptorInvalid(f"case 2 face {move.face!r} missing")
        return stellar_subdivide(c, move.face, move.new_vertex)
    if move.case == 3:
        if not c.has_delta:
            raise MissingDeltaStructure("case 3 needs a delta structure")
        closure = _validate_case3(c, move)
        new_vertex = move.new_vertex if move.new_vertex is not None \
            else f"v({move.base})"
        return c._coned(closure, new_vertex, "<", False, move.level)
    if move.case == "attach":
        if move.new_vertex is None:
            raise DescriptorInvalid("attach move needs new_vertex")
        for t in move.attach:
            if not c.has_face(t):
                raise DescriptorInvalid(f"attach face {t!r} missing")
        if c.has_levels and move.level is None:
            raise DescriptorInvalid(
                "filtered complex: the new vertex needs a level")
        return c._coned(_closure(c, move.attach), move.new_vertex, "<", False,
                        move.level)
    raise DescriptorInvalid(f"unknown move case {move.case!r}")


def morse_vertex_flow(c: CombinatorialComplex, v_src: str, v_dst: str):
    """Flow the vertex ``v_src`` onto ``v_dst`` by a discrete Morse matching.

    Each face containing v_src but not v_dst pairs with the unique face
    spanned by it and v_dst when that span exists; faces without a span
    flow to fresh copies with v_src renamed to v_dst.  Returns
    ``(reduced complex, matching, certificate)``.  When the matching is
    perfect the output is exactly the input minus all v_src faces.

    A span is filed under its facet opposite v_dst, so no two sources
    share one; every other facet of a span holds v_dst or lacks v_src and
    is no matched source, so the matching is acyclic by the Delta order
    alone and the certificate's ``acyclic`` needs no search.
    """
    if not c.has_delta:
        raise MissingDeltaStructure("the vertex flow needs a delta structure")
    for v in (v_src, v_dst):
        if not c.has_face(v) or c.dim(v) != 0:
            raise NotAVertex(f"{v!r} is not a vertex")
    if v_src == v_dst:
        raise PairingIncomplete(f"the vertex {v_src!r} cannot flow onto itself")

    # the star of v_src: sources lack v_dst, targets hold it, and each
    # target is the one span of its facet opposite v_dst, a source
    star = c.upset(v_src)
    spans = _spans(c, star, v_dst)
    if v_src not in spans:
        raise PairingIncomplete(
            f"no edge spans {v_src!r} and {v_dst!r}; the vertex cannot flow")

    # every other facet of a span holds v_dst or lacks v_src, so no
    # V-path leaves a pair: the matching is acyclic by the Delta order
    matching = {}
    critical = []
    for f in star:
        if v_dst in c.vertices_of(f):
            continue
        ts = spans.get(f, ())
        if len(ts) > 1:
            raise PairingNotUnique(
                f"face {f!r} has {len(ts)} spans through {v_dst!r}")
        if ts:
            matching[f] = ts[0]
        else:
            critical.append(f)

    # build the flowed complex: the removed faces are the star of v_src;
    # critical (like c.face_ids) is sorted by dimension
    removed = set(star)
    crit_ids = dict(zip(critical, _dedup_ids(
        [f"{f}~{v_dst}" for f in critical], set(c.face_ids) - removed)))
    image = dict(crit_ids)
    for f, t in matching.items():
        # image of a matched source: the facet of its span opposite v_src
        image[f] = c.delta_order(t)[c.vertices_of(t).index(v_src)]

    recs = []
    for f in critical:
        delta = [image.get(g, g) for g in c.delta_order(f)]
        recs.append({**c._record(f), "id": crit_ids[f], "facets": delta, "delta_order": delta})
    reduced = c._derived(removed, recs)
    certificate = {
        "acyclic": True,
        "matched_pairs": len(matching),
        "critical": [crit_ids[f] for f in critical],
        "perfect": not critical,
    }
    return reduced, tuple(sorted(matching.items())), certificate


def pucker(c: CombinatorialComplex, sigma: str, d: int) -> CombinatorialComplex:
    """Attach d-1 parallel copies of the maximal cell ``sigma``.

    Each copy shares the full attaching data (covering and delta order)
    of the original, raising the top reduced Betti number by exactly d-1.
    """
    if not c.has_face(sigma):
        raise NoSuchFace(f"no face {sigma!r}")
    if d < 1:
        raise BadMultiplicity(f"multiplicity {d} must be at least 1")
    if not c.is_maximal(sigma):
        raise NotMaximal(f"face {sigma!r} is not maximal")
    copies = _dedup_ids([f"{sigma}+{i}" for i in range(1, d)], set(c.face_ids))
    return c._derived((), [{**c._record(sigma), "id": nid, "label": nid}
                           for nid in copies])


@dataclass
class ScriptLog:
    """Per-step f-vectors and homology during script replay."""

    steps: list = field(default_factory=list)
    homology_constant: bool = True

    def as_json(self) -> dict:
        return {"steps": self.steps, "homology_constant": self.homology_constant}


def _lowest_level(c, move):
    """The lowest level ``move`` changes on ``c``; None when it changes no
    level, or ``c`` has none.

    A stellar subdivision drops the star of its face, none of which sits
    below the face because levels close downward; a cone adds faces at or
    above the new vertex's level; case 1 changes nothing.
    """
    if move.case == 1 or not c.has_levels:
        return None
    return c.level(move.face) if move.case == 2 else move.level


def _snapshot(c, carried, below):
    """The log fields of ``c``, its homology, and the homology of each of
    its levels.

    ``carried`` maps each level of the step before to its homology.  Level
    m keeps it when m is below ``below``, the lowest level the move
    changed (None: no level), since the faces of level at most m are then
    those of the step before; any other level below the top is built and
    its homology computed.  The top level subcomplex is ``c`` itself.
    """
    h = homology(c)
    snap = {"f_vector": list(c.f_vector()), "homology": h.as_json()}
    levels = {}
    if c.has_levels:
        top = c.max_level()
        for m in range(1, top + 1):
            if m == top:
                levels[m] = h
            elif m in carried and (below is None or m < below):
                levels[m] = carried[m]
            else:
                levels[m] = homology(c.level_subcomplex(m))
        snap["per_level"] = {str(m): hm.as_json() for m, hm in levels.items()}
    return snap, h, levels


def run_blowup_script(c: CombinatorialComplex, script):
    """Replay a move sequence, logging homology after every step.

    Blowup cases 1-3 must keep total and per-level homology constant;
    the log records whether they did.  Plain ``attach`` moves are
    construction steps and exempt from the constancy check.  The first
    failing step raises :class:`ScriptError` with its index.  A level
    below the lowest level a move changes keeps the homology of the step
    before.
    """
    log = ScriptLog()
    snap, h, levels = _snapshot(c, {}, None)
    log.steps.append({"step": 0, "move": None, **snap})
    cur = c
    for i, move in enumerate(script, start=1):
        try:
            nxt = blowup_move(cur, move)
        except Exception as exc:  # noqa: BLE001 - wrap with the step index
            raise ScriptError(i, exc) from exc
        snap, h_next, levels_next = _snapshot(nxt, levels,
                                              _lowest_level(cur, move))
        entry = {"step": i, "move": move.as_json(), **snap}
        if move.case in (1, 2, 3):
            # a move keeps every level and may add a deeper one without
            # breaking constancy below it: compare the levels it had
            same = h_next.same_groups(h) and all(
                levels_next[m].same_groups(hm) for m, hm in levels.items())
            entry["homology_preserved"] = same
            if not same:
                log.homology_constant = False
        log.steps.append(entry)
        cur, h, levels = nxt, h_next, levels_next
    return cur, log
