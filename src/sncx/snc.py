"""Builders for dual complexes.

Three sources: declarative strata descriptions of a normal crossing
divisor, toric fans (the link of the origin), and the realization of an
arbitrary subset-closed complex as a boundary complex together with the
blowup script that replays the construction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import chain, combinations, groupby, repeat
from operator import itemgetter

from .complexes import (
    CombinatorialComplex,
    _chains,
    _from_simplices,
    _inclusion_records,
)
from .errors import (
    DescriptorInvalid,
    MissingParent,
    NonPrimitiveRay,
    NotSubsetClosed,
    ParentIncoherent,
)
from .snf import _integer_point, matrix_rank
from .transforms import BlowupMove


# -- strata descriptions -----------------------------------------------------

@dataclass(frozen=True)
class Component:
    label: str
    level: int | None = None


@dataclass(frozen=True)
class Stratum:
    indices: tuple          # sorted component indices, |indices| >= 2
    label: str
    parents: dict = field(default_factory=dict)   # index -> stratum/component label


@dataclass(frozen=True)
class StrataDescription:
    """Components of a divisor plus the poset of intersection strata.

    Strata carry explicit parent pointers (for every i in the index set,
    the stratum of the smaller index set containing this one) because
    distinct strata may share their vertex set; coherence of the
    pointers is validated, never inferred.
    """

    components: tuple
    strata: tuple

    def __post_init__(self):
        labels = [c.label for c in self.components]
        if len(set(labels)) != len(labels):
            raise ParentIncoherent("component labels are not unique")
        lv = [c.level for c in self.components]
        if any(x is not None for x in lv) and any(x is None for x in lv):
            raise ParentIncoherent("either all components carry levels or none")

        slabels = set(labels)
        for s in self.strata:
            idx = tuple(sorted(set(s.indices)))
            if idx != tuple(s.indices) or len(idx) < 2:
                raise ParentIncoherent(
                    f"stratum {s.label!r} needs sorted distinct indices of size >= 2")
            if any(i < 0 or i >= len(self.components) for i in idx):
                raise MissingParent(f"stratum {s.label!r} uses an unknown component")
            if s.label in slabels:
                raise ParentIncoherent(f"stratum label {s.label!r} is not unique")
            slabels.add(s.label)

        lookup: dict[str, Stratum] = {}
        for s in self.strata:
            lookup[s.label] = s
        comp_index = {c.label: i for i, c in enumerate(self.components)}

        def indices_of(label):
            if label in comp_index:
                return (comp_index[label],)
            if label not in lookup:
                raise MissingParent(f"parent {label!r} does not exist")
            return tuple(lookup[label].indices)

        for s in self.strata:
            idx = tuple(s.indices)
            if set(s.parents) != set(idx):
                raise MissingParent(
                    f"stratum {s.label!r} needs exactly one parent per index")
            for i in idx:
                want = tuple(x for x in idx if x != i)
                got = indices_of(s.parents[i])
                if got != want:
                    raise MissingParent(
                        f"parent {s.parents[i]!r} of {s.label!r} has index set "
                        f"{got}, wanted {want}")
            # both omission orders must agree on the grandparent
            for i in idx:
                for j in idx:
                    if i == j:
                        continue
                    pi = s.parents[i]
                    pj = s.parents[j]
                    gi = self._grandparent(lookup, comp_index, pi, j)
                    gj = self._grandparent(lookup, comp_index, pj, i)
                    if gi != gj:
                        raise ParentIncoherent(
                            f"stratum {s.label!r}: omitting {i} then {j} gives "
                            f"{gi!r}, the other order gives {gj!r}")

    @staticmethod
    def _grandparent(lookup, comp_index, parent_label, drop):
        if parent_label in comp_index:
            return None     # omitting below a component leaves nothing
        p = lookup[parent_label]
        return p.parents[drop]


def dual_complex(desc: StrataDescription) -> CombinatorialComplex:
    """One vertex per component, one (|I|-1)-face per stratum of D_I."""
    levels = any(c.level is not None for c in desc.components)
    recs = []
    for c in desc.components:
        rec = {"id": c.label, "dim": 0, "facets": []}
        if levels:
            rec["level"] = c.level
        recs.append(rec)
    for s in desc.strata:
        idx = tuple(s.indices)
        delta = [s.parents[i] for i in idx]
        rec = {"id": s.label, "dim": len(idx) - 1, "facets": delta,
               "delta_order": delta}
        if levels:
            rec["level"] = max(desc.components[i].level for i in idx)
        recs.append(rec)
    return CombinatorialComplex(recs)


def strata_from_json(doc: dict) -> StrataDescription:
    if not isinstance(doc, dict):
        raise DescriptorInvalid("a strata description is an object")
    comps = tuple(Component(c["label"], _level(c))
                  for c in _records(doc, "components", "component"))
    strata = tuple(
        Stratum(_integer_point(s.get("indices"), f"stratum {s['label']!r} indices",
                               "index"),
                s["label"], _parents(s))
        for s in _records(doc, "strata", "stratum"))
    return StrataDescription(comps, strata)


def _records(doc: dict, key: str, what: str) -> list:
    # an absent field is an empty list; anything else must be a list of
    # objects, each with a string label
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise DescriptorInvalid(
            f"strata description field {key!r} must be a list, got {items!r}")
    for r in items:
        if not (isinstance(r, dict) and isinstance(r.get("label"), str)):
            raise DescriptorInvalid(
                f"{what} record {r!r} must be an object with a string 'label'")
    return items


def _level(c: dict):
    # an integer or absent; a bool or an integer below 1 is read, and
    # rejected where the complex is built
    level = c.get("level")
    if level is not None and not isinstance(level, int):
        raise DescriptorInvalid(
            f"component {c['label']!r} level must be an integer, got {level!r}")
    return level


def _parents(s: dict) -> dict:
    # a key is an index as json.dumps writes one: "1.0" and "01" are not
    parents = s.get("parents", {})
    if not (isinstance(parents, dict)
            and all(isinstance(v, str) for v in parents.values())):
        raise DescriptorInvalid(
            f"stratum {s['label']!r} parents must be an object whose values "
            f"are labels, got {parents!r}")
    for k in parents:
        if not re.fullmatch(r"0|-?[1-9][0-9]*", k):
            raise DescriptorInvalid(f"stratum {s['label']!r} parents {list(parents)} "
                                    f"has a non-integer key {k!r}")
    return {int(k): v for k, v in parents.items()}


# -- toric fans ---------------------------------------------------------------

@dataclass(frozen=True)
class Fan:
    """Rays as primitive integer vectors and cones as ray index sets.

    Cones must come with their faces; subsets of simplicial cones are
    taken as faces implicitly, non-simplicial cones contribute exactly
    the subsets that are listed.  Completeness is never inferred.
    """

    rays: tuple
    cones: tuple

    def __post_init__(self):
        for r in self.rays:
            if not r or all(x == 0 for x in r):
                raise NonPrimitiveRay(f"zero ray {r!r}")
            g = 0
            for x in r:
                g = math.gcd(g, abs(x))
            if g != 1:
                raise NonPrimitiveRay(f"ray {r!r} is not primitive")
        if len(set(self.rays)) != len(self.rays):
            raise NonPrimitiveRay("duplicate rays")
        for cone in self.cones:
            for i in cone:
                if i < 0 or i >= len(self.rays):
                    raise DescriptorInvalid(f"cone {sorted(cone)} uses unknown ray {i}")

    def is_simplicial_cone(self, cone) -> bool:
        idx = sorted(cone)
        return matrix_rank([list(self.rays[i]) for i in idx]) == len(idx)


def fan_from_json(doc: dict) -> Fan:
    for key in ("rays", "cones"):
        if not (isinstance(doc, dict) and isinstance(doc.get(key), list)):
            raise DescriptorInvalid(
                f"a fan is an object whose {key!r} is a list of integer lists")
    rays = tuple(_integer_point(r, "ray") for r in doc["rays"])
    for i, r in enumerate(rays):
        if len(r) != len(rays[0]):
            raise DescriptorInvalid(
                f"ray {i} {list(r)} has {len(r)} coordinates, ray 0 has "
                f"{len(rays[0])}")
    cones = (_integer_point(c, "cone", "index") for c in doc["cones"])
    return Fan(rays, tuple(map(frozenset, cones)))


def _cone_id(cone) -> str:
    return "-".join(map(str, sorted(cone)))


def _by_size(faces) -> list:
    """Distinct finite sets ordered by (size, sorted elements), each as the
    tuple of its sorted elements written as strings."""
    # sorted size by size, so that sets of two sizes are never compared
    by_len = groupby(sorted(map(sorted, set(map(frozenset, faces))), key=len), key=len)
    keys = chain.from_iterable(map(sorted, map(itemgetter(1), by_len)))
    return list(map(tuple, map(map, repeat(str), keys)))


def toric_link(fan: Fan) -> CombinatorialComplex:
    """The link of the origin: nonzero cones ordered by the face relation.

    Carries a Delta-structure exactly when every cone is simplicial, in
    which case the vertex order of a face follows the ray indices.
    """
    cones = set()
    all_simplicial = True
    for cone in fan.cones:
        cset = frozenset(cone)
        if not cset:
            continue
        if fan.is_simplicial_cone(cset):
            idx = sorted(cset)
            cones.update(frozenset(s) for k in range(1, len(idx) + 1)
                         for s in combinations(idx, k))
        else:
            all_simplicial = False
            cones.add(cset)

    if all_simplicial:
        # every subset of a cone is a cone: a cone covers those with one
        # ray less, and its height is its number of rays less one
        return _from_simplices(_by_size(cones), "-".join)
    key = {c: tuple(sorted(c)) for c in cones}
    ordered = sorted(cones, key=lambda c: (len(c), key[c]))

    # a cone below c has its least ray in c, and fewer rays, so it is
    # filed under that ray before c is reached
    filed: dict[int, list] = {}
    height: dict[frozenset, int] = {}
    for c in ordered:
        height[c] = max((height[b] for x in c for b in filed.get(x, ()) if b < c),
                        default=-1) + 1
        filed.setdefault(key[c][0], []).append(c)
    return CombinatorialComplex(
        _inclusion_records((_cone_id(c), height[c], c) for c in ordered))


def fan_ray_involution(fan: Fan, ray_map: dict) -> dict:
    """Face pairing of the link induced by a permutation of ray indices."""
    link = toric_link(fan)
    out = {}
    for f in link.face_ids:
        img = _cone_id({ray_map[int(x)] for x in f.split("-")})
        if not link.has_face(img):
            raise DescriptorInvalid(f"image of cone {f!r} is not in the fan")
        out[f] = img
    return out


def antipodal_ray_map(fan: Fan) -> dict:
    """Index map sending each ray to its negative (must exist in the fan)."""
    index = {r: i for i, r in enumerate(fan.rays)}
    out = {}
    for i, r in enumerate(fan.rays):
        neg = tuple(-x for x in r)
        if neg not in index:
            raise DescriptorInvalid(f"ray {r!r} has no antipode in the fan")
        out[i] = index[neg]
    return out


# -- boundary realization -----------------------------------------------------

def simplicial_complex_from_subsets(faces) -> CombinatorialComplex:
    """A subset-closed family of finite sets as a Delta-complex."""
    sets = _by_size(faces)
    if sets and not sets[0]:
        raise NotSubsetClosed("the empty set is not a face")
    return _from_simplices(sets, ".".join)


def realize_boundary(faces, n: int | None = None):
    """Realize a subset-closed complex on {0..n} as a boundary complex.

    Returns ``(complex, script)``: the barycentric subdivision the
    construction produces, and the dimension-ordered script of vertex
    attachments (one per blown-up subspace) whose replay from the empty
    complex rebuilds it face for face.  ``n`` defaults to the largest
    vertex used; pass it explicitly when the ambient set is larger.
    """
    sets = {frozenset(_integer_point(f, "face", "vertex")) for f in faces}
    if n is not None:
        (n,) = _integer_point([n], "ground set bound n", "value")
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

    # the family is subset-closed, so the faces below t are all its
    # nonempty proper subsets; faces and chains are written by their ids
    below = {".".join(t): [".".join(s) for k in range(1, len(t))
                           for s in combinations(t, k)] for t in _by_size(sets)}
    chains = _chains(list(below), below.__getitem__)
    barycentric = _from_simplices(chains, "<".join)

    # subset f attaches along the chains whose top is below it, in the
    # order of the one enumeration
    tops: dict[str, list] = {}
    for pos, ch in enumerate(chains):
        tops.setdefault(ch[-1], []).append(pos)
    script = []
    for f, smaller in below.items():
        positions = sorted(pos for g in smaller for pos in tops[g])
        script.append(BlowupMove(case="attach", new_vertex=f,
                                 attach=tuple("<".join(chains[p]) for p in positions)))
    return barycentric, tuple(script)
