"""Fundamental group presentations and Tietze simplification.

The edge-path presentation is read off the complex's own vertices,
edges and 2-cells, with or without a Delta structure: a spanning tree
plus one relator per 2-cell, the walk around its boundary circle.

Words are tuples of nonzero integers: letter ``+k`` is generator k-1,
``-k`` its inverse.  Every transformation applied here is a Tietze move,
so the presented group never changes.

Tietze simplification keeps the input's generator numbers while it
works: eliminating generator g leaves a gap at g, and the survivors are
renumbered 1, 2, ... once, on return.  Closing the gaps is an odd map,
increasing on positive letters, so it keeps every comparison the pass
makes (signed letters, tuples, least rotations, the relator sort and
the elimination choice), and numbering at the end makes the same moves
as numbering after each elimination would.

Each elimination is found in a heap and substituted only into the
relators that hold the generator, so a turn costs what it changes.  It
makes the moves of the plain pass, which sorts the canonical relators
on every turn and takes the least ``(len r, rank of r, g)``: the rank
follows the word, so that choice is the least ``(len r, r, g)``, the
heap's key, and a relator without g is left as it is by substitution.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .complexes import CombinatorialComplex
from .errors import NotConnected
from .snf import smith_normal_form


def _free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _cyclic_reduce(word):
    w = _free_reduce(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def _invert(word):
    return tuple(-x for x in reversed(word))


def _canonical_relator(word):
    """Least rotation among all rotations of the word and its inverse."""
    w = _cyclic_reduce(word)
    if not w:
        return w
    return min(cand[s:] + cand[:s] for cand in (w, _invert(w))
               for s in range(len(cand)))


@dataclass(frozen=True)
class GroupPresentation:
    """A finite presentation: ``generators`` counts them, relators are words."""

    generators: int
    relators: tuple

    def __post_init__(self):
        for r in self.relators:
            for x in r:
                if x == 0 or abs(x) > self.generators:
                    raise ValueError(f"relator letter {x} out of range")

    def describe(self) -> str:
        def spell(word):
            return "*".join(f"g{abs(x)}" + ("" if x > 0 else "^-1")
                            for x in word) or "1"

        rels = ", ".join(spell(r) for r in self.relators)
        return f"<{self.generators} generators | {rels or 'no relators'}>"


def abelianization(pres: GroupPresentation):
    """(rank, invariant factors > 1) of the abelianized group."""
    n = pres.generators
    if n == 0:
        return 0, ()
    rows = []
    for r in pres.relators:
        row = [0] * n
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    if not rows:
        return n, ()
    res = smith_normal_form(rows)
    torsion = tuple(d for d in res.invariant_factors if d > 1)
    return n - res.rank, torsion


def fundamental_group_presentation(c: CombinatorialComplex) -> GroupPresentation:
    """Edge-path presentation read off the complex's own 2-skeleton.

    Spanning tree by breadth-first search in canonical order; generators
    are the non-tree edges, oriented by the delta order when there is one
    (facet 0 omits the tail) and otherwise from the canonically first end
    to the other.  Each 2-cell gives one relator: its boundary walk with
    the tree edges elided.  For a regular CW complex this presents the
    fundamental group.
    """
    if c.is_empty:
        raise NotConnected("the empty complex has no fundamental group")

    edges = c.faces_of_dim(1)

    # oriented edge (tail, head): facet 0 of the delta order omits the tail
    ends = {e: c.delta_order(e)[::-1] if c.has_delta else c.facets(e)
            for e in edges}

    root = c.face_ids[0]       # the canonical order starts with the vertices
    in_tree = set()
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for e in c.cofaces(v):     # the edges at v, in canonical order
            tail, head = ends[e]
            w = head if v == tail else tail
            if w not in seen:
                seen.add(w)
                in_tree.add(e)
                queue.append(w)
    if len(seen) != len(c.faces_of_dim(0)):
        # every face lies above a vertex, so the complex is connected
        # exactly when the search reaches every vertex
        raise NotConnected("complex is not connected")

    gens = [e for e in edges if e not in in_tree]
    gen_index = {e: i + 1 for i, e in enumerate(gens)}

    relators = []
    for f in c.faces_of_dim(2):
        word = _cyclic_reduce(gen_index[e] if v == ends[e][0] else -gen_index[e]
                              for v, e in c.boundary_walk(f) if e in gen_index)
        if word:
            relators.append(word)
    return GroupPresentation(len(gens), tuple(relators))


def _shorten_by_overlap(relators):
    """Relator-vs-relator subword replacement, at the first place it shortens.

    If more than half of a (shorter) relator appears inside another,
    rewriting through the shorter relator reduces total length.  Returns
    the relators sorted by (length, word), with that one rewrite applied,
    and whether there was one.
    """
    rels = sorted(relators, key=lambda r: (len(r), r))
    for i, s in enumerate(rels):
        ls = len(s)
        doubled_fwd = s + s
        doubled_rev = _invert(s) * 2
        variants = [v for start in range(ls)
                    for v in (doubled_fwd[start:start + ls],
                              doubled_rev[start:start + ls])]
        half = ls // 2 + 1
        for j, r in enumerate(rels):
            if j == i or len(r) < half:
                continue
            big = r + r
            for variant in variants:
                chunk = variant[:half]
                found = next((t for t in range(len(r))
                              if big[t:t + half] == chunk), -1)
                if found < 0:
                    continue
                # r contains the first `half` letters of `variant`; replace
                # them by the inverse of the remainder of `variant`
                longest = half
                while longest < min(ls, len(r)) and \
                        big[found + longest] == variant[longest]:
                    longest += 1
                new_r = _cyclic_reduce(_invert(variant[longest:])
                                       + big[found + longest:found + len(r)])
                if len(new_r) < len(r):
                    rels[j] = new_r
                    return rels, True
    return rels, False


def tietze_simplify(pres: GroupPresentation, budget: int = 20000):
    """Deterministic simplification; returns (presentation, status).

    Status is ``"trivial"`` when no generators remain, ``"reduced"`` when
    a fixpoint was reached, ``"budget-exhausted"`` otherwise.  The budget
    counts loop turns: one elimination, or one overlap search.

    Each turn eliminates a generator g through a relator r, the pair
    that minimizes ``(len r, r, g)`` over the canonical relators r and
    the generators g occurring once in r (see the module docstring).  When
    no generator occurs once, one overlap search runs on the sorted
    relators and the index is rebuilt from its output.  A
    budget-exhausted exit returns what the plain pass holds at that
    point: the relators the last turn left alone and the raw words it
    made, cyclically reduced, duplicates kept, sorted.
    """
    rels = set()        # the canonical relators
    holding = {}        # generator -> the relators in rels holding it
    heap = []           # (len r, r, least generator once in r), r maybe stale

    def file(w):
        if w in rels:
            return False
        rels.add(w)
        counts = Counter(map(abs, w))
        for g in counts:
            holding.setdefault(g, set()).add(w)
        once = [g for g, n in counts.items() if n == 1]
        if once:
            heappush(heap, (len(w), w, min(once)))
        return True

    def refile(words):
        """File the canonical forms of ``words``; return those filed anew."""
        return {w for w in map(_canonical_relator, words) if w and file(w)}

    raw = [w for w in map(_cyclic_reduce, pres.relators) if w]
    fresh = refile(raw)     # the relators the last turn's raw words added
    live = set(range(1, pres.generators + 1))
    ops = 0
    while ops < budget:
        ops += 1
        while heap and heap[0][1] not in rels:
            heappop(heap)
        if heap:
            _, r, g = heappop(heap)
            pos = next(i for i, x in enumerate(r) if abs(x) == g)
            # cyclically rotate so the g-letter is first; then g = inverse of rest
            rot = r[pos:] + r[:pos]
            if rot[0] < 0:
                rot = _invert(rot)
                rot = rot[-1:] + rot[:-1]
            repl, inv = _invert(rot[1:]), rot[1:]
            hit = [s for s in holding[g] if s != r]
            for s in (r, *hit):
                rels.remove(s)
                for x in s:
                    holding[abs(x)].discard(s)
            raw = [_free_reduce(y for x in s for y in
                                (repl if x == g else inv if x == -g else (x,)))
                   for s in hit]
            fresh = refile(raw)
            live.discard(g)
            continue
        relators, changed = _shorten_by_overlap(sorted(rels))
        if not changed:
            status = "reduced" if live else "trivial"
            break
        rels.clear()
        holding.clear()
        heap.clear()
        raw = relators
        fresh = refile(raw)
    else:
        relators = sorted([*(rels - fresh),
                           *(w for w in map(_cyclic_reduce, raw) if w)])
        status = "budget-exhausted"
    number = {g: k for k, g in enumerate(sorted(live), 1)}
    relators = tuple(tuple(number[x] if x > 0 else -number[-x] for x in r)
                     for r in relators)
    return GroupPresentation(len(live), relators), status
