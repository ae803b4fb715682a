"""Input generation for the sncx benchmark.

Each workload is a fixed list of items.  An item is one ``sncx`` CLI
invocation on generated input files, plus a reference answer that does
not come from the code under test (closed-form homology of spheres and
projective spaces, wedge counts of skeleta, lattice lengths of boxes
and simplices, the paper's sphere-count identity).

Run as a script, this module is the benchmark's set-up step: it imports
``sncx.cli``, writes every input file and a ``manifest.json`` into the
work directory, and prints as one JSON line the seconds that took and
the time of the reference loop around it (``worker.reference_s``).

    python3 perfbench/gen.py --workload blowup-replay --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys
import time

# Seeded workloads draw from this many input variants; the seed picks one
# (seed mod VARIANTS), so every report has a recorded byte digest.
VARIANTS = 32

# Per-item deadlines, each far from the time of every item decided at the
# seed commit (largest decided items, 2 cores: sd1(S^3) homology 10 s,
# simplex(9) certificate 1.4 s, ambient-4 support 2.2 s, filtered blowup
# script 1.2 s), so that which items miss them does not vary.
DEADLINE_S = {
    "subdivision-homology": 60.0,
    "certify-skeleta": 5.0,
    "newton-supports": 30.0,
    "blowup-replay": 30.0,
}

WORKLOADS = tuple(DEADLINE_S)

# reduced=False homology rows (degree, betti, torsion) with nonzero groups
SPHERE2 = [[0, 1, []], [2, 1, []]]
RP2 = [[0, 1, []], [1, 0, [2]]]
SPHERE3 = [[0, 1, []], [3, 1, []]]
RP3 = [[0, 1, []], [1, 0, [2]], [3, 1, []]]


def _fixed_rng(workload):
    """The generator of a workload's largest item, the same for every seed."""
    return random.Random(f"{workload}/largest")


def _item(name, argv, ref, **extra):
    return {"name": name, "argv": argv, "ref": ref, **extra}


class _Writer:
    """Writes input files under one work directory, by relative path."""

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def put(self, name, doc) -> str:
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path


def _subdivide(c, k):
    for _ in range(k):
        c = c.order_complex()
    return c


def _rp3(G):
    s3 = G.cross_polytope_boundary(4)
    return s3.quotient_free_involution(G.antipodal_involution(s3))


def subdivision_homology(S, G, w, rng, smallest):
    """sd^k of S^2, RP^2 (k <= 2) and of S^3, RP^3 (k <= 1): homology."""
    from sncx.serialize import complex_to_dict
    bases = [("octahedron", G.octahedron_boundary, SPHERE2, (0, 1, 2)),
             ("rp2", G.real_projective_plane, RP2, (0, 1, 2)),
             ("s3", lambda: G.cross_polytope_boundary(4), SPHERE3, (0, 1)),
             ("rp3", lambda: _rp3(G), RP3, (0, 1))]
    items = []
    for base, build, ref, ks in bases:
        c = build()
        for k in ks:
            name = f"sd{k}-{base}"
            if smallest and name != "sd0-rp2":
                continue
            path = w.put(f"{name}.json", complex_to_dict(_subdivide(c, k)))
            items.append(_item(name, ["homology", path],
                               {"kind": "homology", "nonzero": ref}))
    return items, "sd1-s3"


def _skeleton(S, n, k):
    """The k-skeleton of the n-simplex, built from its vertex subsets."""
    faces = [s for size in range(1, k + 2)
             for s in itertools.combinations(range(n + 1), size)]
    return S.simplicial_complex_from_subsets(faces)


def certify_skeleta(S, G, w, rng, smallest):
    """Wedge-of-spheres certificates on skeleta of simplices and friends."""
    from sncx.serialize import complex_to_dict
    specs = [
        ("skel-d4-2", lambda: _skeleton(S, 4, 2), 2, "certified-wedge", 4),
        ("skel-d5-3", lambda: _skeleton(S, 5, 3), 3, "certified-wedge", 5),
        ("simplex-d6", lambda: _skeleton(S, 6, 6), 2, "certified-wedge", 0),
        ("simplex-d8", lambda: _skeleton(S, 8, 8), 2, "certified-wedge", 0),
        ("simplex-d9", lambda: _skeleton(S, 9, 9), 2, "certified-wedge", 0),
        ("octahedron", G.octahedron_boundary, 2, "certified-wedge", 1),
        ("sd1-octahedron", lambda: _subdivide(G.octahedron_boundary(), 1), 2,
         "certified-wedge", 1),
        ("sd1-rp2", lambda: _subdivide(G.real_projective_plane(), 1), 1,
         "refuted", None),
        ("cycle-40", lambda: G.cycle_complex(40), 1, "certified-wedge", 1),
        ("skel-d12-1", lambda: _skeleton(S, 12, 1), 1, "certified-wedge", 66),
        # undecided at the seed commit: Tietze on the order complex of the
        # 4-skeleton takes about 33 s, and the collapse search on the
        # 10-simplex hits the recursion limit
        ("skel-d6-4", lambda: _skeleton(S, 6, 4), 4, "certified-wedge", 6),
        ("simplex-d10", lambda: _skeleton(S, 10, 10), 2, "certified-wedge", 0),
    ]
    undecided = {"skel-d6-4", "simplex-d10"}
    items = []
    for name, build, d, status, count in specs:
        if smallest and name != "skel-d4-2":
            continue
        path = w.put(f"{name}.json", complex_to_dict(build()))
        items.append(_item(name, ["certify", path, "--sphere-dim", str(d)],
                           {"kind": "certify", "status": status, "count": count},
                           may_be_undecided=name in undecided))
    return items, "skel-d5-3"


def bowl_support(rng, ambient, npts):
    """Axis points plus lattice points on a convex decreasing graph.

    The points are (c, sum(g(c_i))) for the npts - ambient cells c of a
    staircase in the grid, with g strictly convex and decreasing, so no
    point dominates another.  The axis points sit far enough out not to
    cut the graph off, so all points but one axis point are vertices of
    the Newton polyhedron.
    """
    k = ambient - 1
    side = 2
    while side ** k < npts - ambient:
        side += 1
    cells = sorted(itertools.product(range(side), repeat=k),
                   key=lambda c: (sum(c), c))[:npts - ambient]
    steps = sorted(rng.sample(range(1, 3 * side + 1), side), reverse=True)
    g = [sum(steps[i:]) for i in range(side)]
    pts = [list(c) + [sum(g[x] for x in c)] for c in cells]
    far = (2 * k * side + 2, 2 * max(p[-1] for p in pts) + 2)
    for i in range(ambient):
        pts.append([far[i == k] if j == i else 0 for j in range(ambient)])
    return pts


def box_polytope(rng, npts):
    """A lattice box with extra lattice points; b~1 = 4(a+b+c) - 5."""
    a, b, c = (rng.randint(3, 5) for _ in range(3))
    corners = [(x, y, z) for x in (0, a) for y in (0, b) for z in (0, c)]
    rest = [p for p in itertools.product(range(a + 1), range(b + 1), range(c + 1))
            if p not in corners]
    pts = sorted(corners + rng.sample(rest, npts - 8))
    return [list(p) for p in pts], 4 * (a + b + c) - 5


def simplex_polytope(rng, npts):
    """conv(0, a e1, b e2, c e3) with extra lattice points inside.

    Edge lattice lengths a, b, c, gcd(a, b), gcd(a, c), gcd(b, c) on four
    facets give b~1 = (sum of lengths) - 4 + 1.
    """
    a, b, c = (rng.randint(5, 9) for _ in range(3))
    corners = [(0, 0, 0), (a, 0, 0), (0, b, 0), (0, 0, c)]
    rest = [p for p in itertools.product(range(a + 1), range(b + 1), range(c + 1))
            if p not in corners and p[0] * b * c + p[1] * a * c + p[2] * a * b <= a * b * c]
    pts = sorted(corners + rng.sample(rest, npts - 4))
    g = math.gcd
    return [list(p) for p in pts], a + b + c + g(a, b) + g(a, c) + g(b, c) - 3


def newton_supports(S, G, w, rng, smallest):
    """Newton pipeline on bowl supports, torus boundaries on polytopes.

    The largest item is the same for every seed, so that its time does
    not depend on which convex function the seed drew.
    """
    items = []
    for ambient, sizes in ((3, (12, 18, 24, 30)), (4, (12, 16, 20))):
        for n in sizes:
            name = f"bowl{ambient}-{n}"
            pts = bowl_support(_fixed_rng("newton-supports") if name == "bowl4-20"
                               else rng, ambient, n)
            if smallest and name != "bowl3-12":
                continue
            path = w.put(f"{name}.json", pts)
            items.append(_item(name, ["newton", path],
                               {"kind": "newton"}))
    for name, make, n in (("box-14", box_polytope, 14),
                          ("simplex-20", simplex_polytope, 20),
                          ("box-28", box_polytope, 28)):
        pts, b1 = make(rng, n)
        if smallest:
            continue
        path = w.put(f"{name}.json", pts)
        items.append(_item(name, ["torus-boundary", path],
                           {"kind": "torus", "reduced_nonzero": [[1, b1, []]]}))
    return items, "bowl4-20"


def _with_levels(S, rng, c, top):
    """Seeded vertex levels 1..top; a face sits at its vertices' maximum."""
    vlevel = {v: rng.randint(1, top) for v in c.faces_of_dim(0)}
    recs = []
    for f in c.face_ids:
        rec = c._record(f)
        rec["level"] = max(vlevel[v] for v in c.vertices_of(f))
        recs.append(rec)
    return S.CombinatorialComplex(recs)


def draw_script(S, rng, c, moves):
    """A mixed blowup script, each move drawn on the current complex.

    About 60% case 2 (stellar subdivision of a face of dimension >= 1)
    and 40% case 3 (a vertex coned over a base face and up to three faces
    above it, all below the top dimension, so that the dimension and the
    cost of a script stay alike across seeds).  A move is kept only if
    the library accepts it on the complex the earlier moves produced.
    """
    from sncx.errors import SncxError
    script = []
    cur = c
    while len(script) < moves:
        faces = cur.face_ids
        if rng.random() < 0.6:
            face = rng.choice([f for f in faces if cur.dim(f) >= 1])
            move = S.BlowupMove(case=2, face=face)
        else:
            top = cur.dimension
            base = rng.choice([f for f in faces if cur.dim(f) < top])
            above = [t for t in cur.upset(base) if t != base and cur.dim(t) < top]
            attach = [base] + rng.sample(above, rng.randint(0, min(3, len(above))))
            level = (rng.randint(cur.level(base), cur.max_level())
                     if cur.has_levels else None)
            move = S.BlowupMove(case=3, base=base, attach=tuple(attach),
                                level=level)
        try:
            cur = S.blowup_move(cur, move)
        except SncxError:
            continue
        script.append(move)
    return script


def blowup_replay(S, G, w, rng, smallest):
    """Blowup-script replay, and realize + replay of a subset complex.

    The largest item is the same for every seed; two seeded scripts per
    starting complex average out how hard the drawn moves are.
    """
    from sncx.serialize import complex_to_dict, script_to_list
    sd_oct = _subdivide(G.octahedron_boundary(), 1)
    s3 = G.cross_polytope_boundary(4)
    fixed = _fixed_rng("blowup-replay")
    starts = [("sdoct-levels-20", _with_levels(S, fixed, sd_oct, 3), 20, SPHERE2, fixed)]
    for tag in "ab":
        starts += [(f"sdoct-levels-12{tag}", _with_levels(S, rng, sd_oct, 3), 12,
                    SPHERE2, rng),
                   (f"sdoct-20{tag}", sd_oct, 20, SPHERE2, rng),
                   (f"s3-levels-8{tag}", _with_levels(S, rng, s3, 3), 8, SPHERE3, rng)]
    items = []
    for name, start, n, ref, r in starts:
        script = draw_script(S, r, start, n)
        if smallest:
            continue
        cpath = w.put(f"{name}-complex.json", complex_to_dict(start))
        spath = w.put(f"{name}-script.json", script_to_list(script))
        items.append(_item(name, ["transform", cpath, spath],
                           {"kind": "transform", "nonzero": ref}))
    # the 2-skeleton of the 5-simplex: a wedge of C(5, 3) = 10 two-spheres
    subsets = [list(s) for k in (1, 2, 3) for s in itertools.combinations(range(6), k)]
    ref = {"kind": "realize", "nonzero": [[0, 1, []], [2, 10, []]]}
    items.append(_item("realize-subsets", ["realize", w.put("subsets.json", subsets)],
                       ref))
    # the replay's script is the one realize printed, written at run time
    items.append(_item("realize-replay",
                       ["transform", w.put("empty.json", {"faces": []}),
                        os.path.join(w.out_dir, "realize-script.json")],
                       {"kind": "realize-replay"},
                       script_from="realize-subsets"))
    return items, "sdoct-levels-20"


FAMILIES = {
    "subdivision-homology": subdivision_homology,
    "certify-skeleta": certify_skeleta,
    "newton-supports": newton_supports,
    "blowup-replay": blowup_replay,
}
SEEDED = {"newton-supports", "blowup-replay"}


def variant_of(workload: str, seed: int) -> int | None:
    return seed % VARIANTS if workload in SEEDED else None


def generate(workload: str, seed: int, out_dir: str, smallest: bool = False) -> dict:
    """Write the inputs of one workload; return its manifest."""
    import sncx as S
    from sncx import gallery as G
    variant = variant_of(workload, seed)
    rng = random.Random(f"{workload}/{variant}")
    os.makedirs(out_dir, exist_ok=True)
    items, largest = FAMILIES[workload](S, G, _Writer(out_dir), rng, smallest)
    manifest = {"workload": workload, "seed": seed, "variant": variant,
                "deadline_s": DEADLINE_S[workload],
                "largest": None if smallest else largest, "items": items}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smallest", action="store_true")
    args = p.parse_args(argv)
    from worker import reference_s
    ref_before = reference_s()
    t0 = time.perf_counter()
    import sncx.cli  # noqa: F401  (set-up time includes the CLI import)
    generate(args.workload, args.seed, args.out, args.smallest)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "ref_s": (ref_before + reference_s()) / 2}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    sys.exit(main())
