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
way.  The replay carries each level forward: a level subcomplex equal
to the one of the step before keeps its homology, while the whole
complex's homology, and with it the d^2 = 0 check, is computed at every
step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .complexes import CombinatorialComplex, _dedup_ids
from .errors import (
    BadMultiplicity,
    DescriptorInvalid,
    MatchingNotAcyclic,
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
    sigma inside tau, plus the barycenter vertex e itself.  Homology is
    preserved.  Levels: e inherits the smallest level among the removed
    faces, a replacement keeps the level of the face it came from.
    """
    if not c.has_delta:
        raise MissingDeltaStructure("stellar subdivision needs a delta structure")
    if not c.has_face(sigma):
        raise NoSuchFace(f"no face {sigma!r}")

    star = c.upset(sigma)
    star_set = set(star)
    taken = set(c.face_ids) - star_set
    e = _dedup_ids([new_vertex if new_vertex is not None else f"b({sigma})"],
                   taken)[0]
    taken.add(e)

    sigma_verts = set(c.vertices_of(sigma))

    # key: (tau, frozenset of alpha vertex ids); value: replacement id
    def subsets_proper(vs):
        out = [frozenset()]
        items = sorted(vs)
        n = len(items)
        for mask in range(1, (1 << n) - 1):
            out.append(frozenset(items[i] for i in range(n) if mask >> i & 1))
        return out

    keys = []
    for tau in star:
        for alpha in subsets_proper(sigma_verts):
            keys.append((tau, alpha))

    proposals = []
    for tau, alpha in keys:
        beta_count = c.dim(tau) + 1 - len(sigma_verts)
        if not alpha and beta_count == 0:
            proposals.append(e)
        else:
            proposals.append(f"{e}|{tau}|{'.'.join(sorted(alpha))}")
    ids = dict(zip(keys, _dedup_ids(proposals, taken - {e})))

    levels = c.has_levels
    e_level = min((c.level(t) for t in star), default=1) if levels else None

    new_recs = {}
    for tau, alpha in keys:
        tau_verts = c.vertices_of(tau)
        keep_pos = [i for i, v in enumerate(tau_verts)
                    if v in alpha or v not in sigma_verts]
        nid = ids[(tau, alpha)]
        k = len(keep_pos)   # new face dim: 1 + k - 1 = k
        if k == 0:
            rec = {"id": e, "dim": 0, "facets": []}
            if levels:
                rec["level"] = e_level
            new_recs[e] = rec
            continue
        # vertex order: e first, then tau's surviving vertices in tau order
        delta = []
        # facet 0: omit e -> the subface alpha * beta of tau (a survivor)
        delta.append(c.subface(tau, keep_pos))
        for i, p in enumerate(keep_pos):
            v = tau_verts[p]
            if v in alpha:
                delta.append(ids[(tau, alpha - {v})])
            else:
                all_but_p = [q for q in range(len(tau_verts)) if q != p]
                tau2 = c.subface(tau, all_but_p)
                delta.append(ids[(tau2, alpha)])
        rec = {"id": nid, "dim": k, "facets": delta, "delta_order": delta,
               "label": nid}
        if levels:
            rec["level"] = c.level(tau)
        new_recs[nid] = rec
    return c._derived(star_set, list(new_recs.values()))


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
    # the cone retracts onto the base only when spans through vj are
    # unique: reject closures with ambiguous spans (e.g. duplicate top
    # cells sharing all their lower faces).  A face t holding vj spans
    # exactly one face without vj, its facet opposite vj.
    closure = _closure(c, attach)
    spans = Counter(c.delta_order(t)[c.vertices_of(t).index(vj)]
                    for t in closure if c.dim(t) and vj in c.vertices_of(t))
    for g in closure:
        if vj not in c.vertices_of(g) and spans[g] != 1:
            raise DescriptorInvalid(
                f"face {g!r} has {spans[g]} spans through {vj!r} "
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


def _check_acyclic(order, succ):
    """Depth-first search from each node in ``order``; raise on a cycle."""
    color = {s: 0 for s in order}   # 0 new, 1 on the DFS path, 2 done
    for s in order:
        if color[s]:
            continue
        color[s] = 1
        path = [(s, iter(succ[s]))]
        while path:
            u, rest = path[-1]
            for w in rest:
                if color[w] == 1:
                    raise MatchingNotAcyclic(
                        f"V-path cycle through the pair of {u!r}")
                if color[w] == 0:
                    color[w] = 1
                    path.append((w, iter(succ[w])))
                    break
            else:
                color[u] = 2
                path.pop()


def morse_vertex_flow(c: CombinatorialComplex, v_src: str, v_dst: str):
    """Flow the vertex ``v_src`` onto ``v_dst`` by a discrete Morse matching.

    Each face containing v_src but not v_dst pairs with the unique face
    spanned by it and v_dst when that span exists; faces without a span
    flow to fresh copies with v_src renamed to v_dst.  Returns
    ``(reduced complex, matching, certificate)``.  When the matching is
    perfect the output is exactly the input minus all v_src faces.
    """
    if not c.has_delta:
        raise MissingDeltaStructure("the vertex flow needs a delta structure")
    for v in (v_src, v_dst):
        if not c.has_face(v) or c.dim(v) != 0:
            raise NotAVertex(f"{v!r} is not a vertex")
    if v_src == v_dst:
        raise PairingIncomplete(f"the vertex {v_src!r} cannot flow onto itself")

    # the star of v_src: sources lack v_dst, targets hold it
    sources = []
    targets_set = set()
    matching = {}
    for f in c.upset(v_src):
        if v_dst in c.vertices_of(f):
            targets_set.add(f)
        else:
            sources.append(f)
    if not any(c.dim(t) == 1 for t in targets_set):
        raise PairingIncomplete(
            f"no edge spans {v_src!r} and {v_dst!r}; the vertex cannot flow")

    # a coface of a source holding v_dst is spanned by it and v_dst
    critical = []
    for f in sources:
        spans = [t for t in c.cofaces(f) if v_dst in c.vertices_of(t)]
        if len(spans) > 1:
            raise PairingNotUnique(
                f"face {f!r} has {len(spans)} spans through {v_dst!r}")
        if spans:
            matching[f] = spans[0]
        else:
            critical.append(f)

    # matched targets must be hit exactly once and cover all targets for
    # a perfect pairing; unmatched targets cannot occur (their facet
    # omitting v_dst is a source with that exact span)
    hit = list(matching.values())
    if len(set(hit)) != len(hit):
        raise PairingNotUnique("two faces share a span")

    # acyclicity of the matching digraph: from a pair (s, t), a V-path
    # descends to another matched source among the facets of t
    pair_of = {s: t for s, t in matching.items()}
    order = list(matching)
    succ = {s: [g for g in c.facets(pair_of[s]) if g != s and g in pair_of]
            for s in order}
    _check_acyclic(order, succ)

    # build the flowed complex: the removed faces are the star of v_src;
    # critical (like c.face_ids) is sorted by dimension
    removed = set(sources) | targets_set
    crit_ids = dict(zip(critical, _dedup_ids(
        [f"{f}~{v_dst}" for f in critical], set(c.face_ids) - removed)))
    image = dict(crit_ids)
    for f, t in matching.items():
        # image of a matched source: the facet of its span omitting v_src
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


def _snapshot(c, carried):
    """The log fields of ``c``, and its levels to carry to the next step.

    ``carried`` maps each level of the previous step to its ``(level
    subcomplex, homology)``; a level subcomplex equal to the one carried
    keeps its homology instead of computing it again.
    """
    h = homology(c)
    snap = {"f_vector": list(c.f_vector()),
            "homology": h.as_json(),
            "_nonzero": h.nonzero()}
    levels = {}
    if c.has_levels:
        per = {}
        nz = {}
        top = c.max_level()
        for m in range(1, top + 1):
            # the top level subcomplex is c itself
            sub, hm = c, h
            if m < top:
                sub = c.level_subcomplex(m)
                old = carried.get(m)
                hm = old[1] if old is not None and old[0] == sub else homology(sub)
            levels[m] = (sub, hm)
            per[str(m)] = hm.as_json()
            nz[m] = hm.nonzero()
        snap["per_level"] = per
        snap["_per_level_nonzero"] = nz
    return snap, levels


def run_blowup_script(c: CombinatorialComplex, script):
    """Replay a move sequence, logging homology after every step.

    Blowup cases 1-3 must keep total and per-level homology constant;
    the log records whether they did.  Plain ``attach`` moves are
    construction steps and exempt from the constancy check.  The first
    failing step raises :class:`ScriptError` with its index.  A level
    that a move leaves unchanged keeps the homology of the step before.
    """
    log = ScriptLog()
    entry = {"step": 0, "move": None}
    snap, carried = _snapshot(c, {})
    entry.update(snap)
    cur = c
    prev_snap = dict(entry)
    log.steps.append(_public(entry))
    for i, move in enumerate(script, start=1):
        try:
            nxt = blowup_move(cur, move)
        except Exception as exc:  # noqa: BLE001 - wrap with the step index
            raise ScriptError(i, exc) from exc
        entry = {"step": i, "move": move.as_json()}
        snap, carried = _snapshot(nxt, carried)
        entry.update(snap)
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


def _levels_match(before, after):
    # compare the filtration levels the input already had; a move may
    # introduce a deeper level without breaking constancy below it
    for m in before:
        if before[m] != after.get(m, ()):
            return False
    return True


def _public(entry):
    return {k: v for k, v in entry.items() if not k.startswith("_")}
