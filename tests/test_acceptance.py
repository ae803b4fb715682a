"""Acceptance suite.

One test per criterion; each prints a single pass line on success (run
with ``pytest -s tests/test_acceptance.py`` to see them).  All checks
are exact: integer homology, zero tolerance.
"""

import io
import json
import math
import random
from contextlib import redirect_stdout

import sncx as S
from sncx import gallery as G
from sncx.cli import main as cli_main
from sncx.serialize import dumps_complex
from sncx.snc import antipodal_ray_map, fan_ray_involution

from conftest import (
    random_lattice_polygon,
    random_simplicial_complex,
    random_subset_closed,
    random_support,
)


def announce(n, message):
    print(f"[criterion {n:2d}] PASS: {message}")


def three_lines_strata():
    return S.StrataDescription(
        (S.Component("L1"), S.Component("L2"), S.Component("L3")),
        (S.Stratum((0, 1), "P12", {0: "L2", 1: "L1"}),
         S.Stratum((0, 2), "P13", {0: "L3", 2: "L1"}),
         S.Stratum((1, 2), "P23", {1: "L3", 2: "L2"})))


def test_criterion_1_triangle_and_its_blowups():
    tri = S.dual_complex(three_lines_strata())
    h = S.homology(tri)
    assert h.betti_vector() == (1, 1) and not h.has_torsion()

    subdivided = S.stellar_subdivide(tri, "P12")
    assert subdivided.f_vector() == (4, 4)
    assert S.homology(subdivided).betti_vector() == (1, 1)

    pendant = S.blowup_move(tri, S.BlowupMove(
        case=3, base="L3", attach=("L3",), vertex="L3"))
    assert pendant.f_vector() == (4, 4)
    assert S.homology(pendant).betti_vector() == (1, 1)
    announce(1, "coordinate-line triangle and both blowup figures check out")


def test_criterion_2_conic_pair_subdivision():
    desc = S.StrataDescription(
        (S.Component("C1"), S.Component("C2")),
        tuple(S.Stratum((0, 1), f"Q{i}", {0: "C2", 1: "C1"})
              for i in range(4)))
    c = S.dual_complex(desc)
    assert c.f_vector() == (2, 4)
    assert S.homology(c).betti_vector() == (1, 3)
    cur = c
    for e in ("Q0", "Q1", "Q2", "Q3"):
        cur = S.stellar_subdivide(cur, e)
    assert cur.f_vector() == (6, 8)
    assert S.homology(cur).betti_vector() == (1, 3)
    announce(2, "conic-pair complex is (2,4)/(1,3), simplicial after subdivision")


def test_criterion_3_route_invariance_and_filtered_logs():
    tri = S.dual_complex(three_lines_strata())
    route_a, log_a = S.run_blowup_script(
        tri, (S.BlowupMove(case=2, face="P12"),))
    route_b, log_b = S.run_blowup_script(
        tri, (S.BlowupMove(case=3, base="L3", attach=("L3",), vertex="L3"),))
    assert log_a.homology_constant and log_b.homology_constant
    assert S.homology(route_a).same_groups(S.homology(route_b))
    for log in (log_a, log_b):
        for step in log.steps[1:]:
            assert step["homology_preserved"]

    # filtered: levels on the components, then three filtered moves
    desc = S.StrataDescription(
        (S.Component("L1", 1), S.Component("L2", 1), S.Component("L3", 1)),
        (S.Stratum((0, 1), "P12", {0: "L2", 1: "L1"}),
         S.Stratum((0, 2), "P13", {0: "L3", 2: "L1"}),
         S.Stratum((1, 2), "P23", {1: "L3", 2: "L2"})))
    filt = S.dual_complex(desc)
    script = (S.BlowupMove(case=3, base="L3", attach=("L3",), vertex="L3",
                           level=2),
              S.BlowupMove(case=2, face="P12"),
              S.BlowupMove(case=1),)
    _final, log = S.run_blowup_script(filt, script)
    assert log.homology_constant
    assert all(step["homology_preserved"] for step in log.steps[1:])
    assert all("per_level" in step for step in log.steps)
    announce(3, "both blowup routes agree; scripts log constant (per-level) homology")


def test_criterion_4_morse_flow_round_trips():
    rng = random.Random(404)
    done = 0
    while done < 20:
        c = random_simplicial_complex(rng, max_verts=6, max_facets=4, max_dim=3)
        base = c.face_ids[rng.randrange(len(c.face_ids))]
        above = [f for f in c.star(base) if f != base]
        rng.shuffle(above)
        attach = (base,) + tuple(above[:rng.randint(0, len(above))])
        vj = rng.choice(list(c.vertices_of(base)))
        move = S.BlowupMove(case=3, base=base, attach=attach, vertex=vj,
                            new_vertex="E!")
        blown = S.blowup_move(c, move)
        reduced, matching, cert = S.morse_vertex_flow(blown, "E!", vj)
        assert cert["perfect"] and cert["acyclic"]
        assert len(matching) >= 1
        assert reduced == c
        done += 1
    announce(4, f"case-3 then flow restored the input on {done} random fixtures")


def test_criterion_5_join_pucker_skeleton_lemmas():
    spheres = {d: G.sphere_complex(d) for d in range(3)}
    for a in range(3):
        for b in range(3):
            j = S.join(spheres[a], spheres[b])
            h = S.homology(j, reduced=True)
            assert h.nonzero() == ((a + b + 1, 1, ()),), (a, b)

    rng = random.Random(55)
    for _ in range(10):
        c = random_simplicial_complex(rng, max_dim=2)
        sigma = rng.choice([f for f in c.face_ids if c.is_maximal(f)])
        d = rng.randint(2, 5)
        before = S.homology(c, reduced=True)
        after = S.homology(S.pucker(c, sigma, d), reduced=True)
        k = c.dim(sigma)
        assert after.betti(k) == before.betti(k) + d - 1
        for deg in range(c.dimension + 1):
            if deg != k:
                assert after.betti(deg) == before.betti(deg)

    for big_n in range(2, 6):
        full = G.full_simplex(big_n)
        for skel_dim in range(big_n):
            cert = S.wedge_certificate(S.skeleton(full, skel_dim), skel_dim)
            want = math.comb(big_n, skel_dim + 1)
            assert (cert.status, cert.count) == ("certified-wedge", want), \
                (big_n, skel_dim, str(cert))
    announce(5, "join/puckering/skeleton behaviors verified, including "
                "wedge counts C(N, n+1) for N <= 5")


def test_criterion_6_projective_plane_pipeline():
    fan = G.product_of_lines_fan(3)
    link = S.toric_link(fan)
    assert link.f_vector() == (6, 12, 8)
    assert S.homology(link).betti_vector() == (1, 0, 1)
    phi = fan_ray_involution(fan, antipodal_ray_map(fan))
    q = link.quotient_free_involution(phi)
    h = S.homology(q)
    assert h.betti(0) == 1 and h.torsion(0) == ()
    assert h.betti(1) == 0 and h.torsion(1) == (2,)
    assert h.betti(2) == 0 and h.torsion(2) == ()
    assert S.wedge_certificate(q, 1).status == "refuted"
    announce(6, "octahedral link quotients to the projective plane; wedge refuted")


def test_criterion_7_realize_boundary_homology():
    rng = random.Random(700)
    for _ in range(50):
        K = random_subset_closed(rng, ground=5)
        kcx = S.simplicial_complex_from_subsets(K)
        c, script = S.realize_boundary([sorted(f) for f in K], n=4)
        assert S.homology(c).same_groups(S.homology(kcx))
        replay, _log = S.run_blowup_script(S.CombinatorialComplex([]), script)
        assert dumps_complex(replay) == dumps_complex(c)
    announce(7, "50 random subset-closed complexes realize with matching homology")


def test_criterion_8_newton_fixtures_and_random_supports():
    quadric = S.newton_polyhedron([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    rep = S.w0_report(quadric)
    assert rep["f_vector"] == [1]
    assert rep["weight_zero_reduced_cohomology"]["2"] == 0
    assert rep["predicted"]["literal"] == 3
    assert rep["predicted"]["interior"] == 0
    assert rep["variants_agree"] is False   # the disagreement is reported

    cusp = S.newton_polyhedron([(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)])
    rep = S.w0_report(cusp)
    model = S.resolution_complex(cusp)
    assert S.homology(model).betti_vector() == (1, 1)
    assert rep["weight_zero_reduced_cohomology"]["2"] == 1
    assert rep["wedge_certificate"]["status"] == "certified-wedge"
    assert rep["wedge_certificate"]["count"] == 1

    brieskorn = S.newton_polyhedron([(2, 0, 0), (0, 3, 0), (0, 0, 5)])
    assert S.resolution_complex(brieskorn).f_vector() == (1,)
    assert S.predicted_sphere_count(brieskorn, "interior") == 0

    rng = random.Random(800)
    for _ in range(100):
        np_ = S.newton_polyhedron(random_support(rng, dim=3))
        got = S.homology(S.resolution_complex(np_), reduced=True).betti(1)
        assert got == S.predicted_sphere_count(np_, "interior")
    announce(8, "quadric/cusp/Brieskorn models and 100 random supports match "
                "the interior counts; quadric literal-vs-interior 3 vs 0 reported")


def test_criterion_9_torus_boundary_counts():
    c = S.torus_hypersurface_boundary_complex([(0, 0), (2, 0), (0, 2), (2, 2)])
    assert c.f_vector() == (8,)
    assert S.homology(c, reduced=True).betti(0) == 7
    cert = S.wedge_certificate(c, 0)
    assert (cert.status, cert.count) == ("certified-wedge", 7)

    rng = random.Random(900)
    for _ in range(20):
        P = random_lattice_polygon(rng)
        total = sum(P.edge_length(f) for f in P.faces if f.dim == 1)
        boundary = S.torus_hypersurface_boundary_complex(P)
        assert S.homology(boundary, reduced=True).betti(0) == total - 1
    announce(9, "doubled square gives 8 boundary points; the length-sum "
                "identity held on 20 random polygons")


def test_criterion_10_determinism(tmp_path):
    files = {}
    files["triangle"] = tmp_path / "triangle.json"
    files["triangle"].write_text(dumps_complex(G.triangle_boundary()))
    files["rp2"] = tmp_path / "rp2.json"
    files["rp2"].write_text(dumps_complex(G.real_projective_plane()))
    files["quadric"] = tmp_path / "quadric.json"
    files["quadric"].write_text(json.dumps([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        assert code == 0
        return buf.getvalue()

    batteries = [
        ["homology", str(files["triangle"]), str(files["rp2"])],
        ["homology", str(files["triangle"]), str(files["rp2"]),
         str(files["triangle"])],
        ["newton", str(files["quadric"])],
        ["certify", str(files["rp2"]), "--sphere-dim", "1"],
    ]
    for argv in batteries:
        outs = {run(argv) for _ in range(5)}
        assert len(outs) == 1
    announce(10, "golden reports byte-identical over 5 runs, "
                 "three-input homology batch included")
