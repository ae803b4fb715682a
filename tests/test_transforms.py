import copy
import random

import pytest

import sncx as S
from sncx import complexes as C
from sncx import gallery as G
from sncx.errors import (
    BadMultiplicity,
    DescriptorInvalid,
    MatchingNotAcyclic,
    MissingDeltaStructure,
    NoSuchFace,
    NotMaximal,
    NotRegularCW,
    PairingIncomplete,
    ScriptError,
    SncxError,
)
from sncx.serialize import dumps_complex
from sncx.transforms import _spans, _validate_case3

from conftest import (
    READER_FAULTS,
    assert_rebuilds,
    assert_same_complex,
    break_record,
    draw_mixed_script,
    random_simplicial_complex,
    random_subset_closed,
    with_random_levels,
    without_delta,
)
from oracles import (
    clearing_homology,
    derived_by_constructor,
    indexing_morse_vertex_flow,
    phased_reader,
    recomputing_run_blowup_script,
    scanning_validate_case3,
    table_cofaces,
    validating_constructor,
)


def homology_tables_equal(a, b):
    return S.homology(a).same_groups(S.homology(b))


class TestStellar:
    def test_triangle_edge(self):
        st = S.stellar_subdivide(G.triangle_boundary(), "e0")
        assert st.f_vector() == (4, 4)
        assert S.homology(st).betti_vector() == (1, 1)

    def test_all_four_edges(self):
        cur = G.multi_edge_complex(4)
        for e in ("e0", "e1", "e2", "e3"):
            cur = S.stellar_subdivide(cur, e)
        assert cur.f_vector() == (6, 8)
        assert S.homology(cur).betti_vector() == (1, 3)

    def test_vertex_relabels(self):
        tri = G.triangle_boundary()
        st = S.stellar_subdivide(tri, "v0")
        assert st.f_vector() == tri.f_vector()
        assert S.complexes_isomorphic(st, tri)

    def test_solid_triangle_edge(self):
        full = G.full_simplex(2)
        st = S.stellar_subdivide(full, "0.1")
        assert st.f_vector() == (4, 5, 2)
        h = S.homology(st, reduced=True)
        assert all(b == 0 for _d, b, _t in h.table)

    def test_missing_inputs(self):
        with pytest.raises(S.SncxError):
            S.stellar_subdivide(G.triangle_boundary(), "nope")
        poset = S.new_complex([
            {"id": "a", "dim": 0, "facets": []},
            {"id": "b", "dim": 0, "facets": []},
            {"id": "e", "dim": 1, "facets": ["a", "b"]}])
        with pytest.raises(MissingDeltaStructure):
            S.stellar_subdivide(poset, "e")

    def test_homology_preserved_randomized(self):
        rng = random.Random(21)
        for _ in range(30):
            c = random_simplicial_complex(rng, max_verts=6, max_facets=4,
                                          max_dim=3)
            if sum(c.f_vector()) > 30:
                continue
            sigma = c.face_ids[rng.randrange(len(c.face_ids))]
            st = S.stellar_subdivide(c, sigma)
            assert homology_tables_equal(c, st)

    def test_per_level_homology_preserved(self):
        rng = random.Random(22)
        for _ in range(10):
            c = with_random_levels(rng, random_simplicial_complex(rng))
            sigma = c.face_ids[rng.randrange(len(c.face_ids))]
            st = S.stellar_subdivide(c, sigma)
            for m in range(1, c.max_level() + 1):
                assert homology_tables_equal(c.level_subcomplex(m),
                                             st.level_subcomplex(m))

    def test_commutes_with_relabeling(self):
        tri = G.triangle_boundary()
        ren = {f: f"x_{f}" for f in tri.face_ids}
        a = S.stellar_subdivide(tri, "e0").relabeled({})
        b = S.stellar_subdivide(tri.relabeled(ren), "x_e0")
        assert S.complexes_isomorphic(a, b)

    def test_star_is_the_upset(self):
        # the subdivided star: on a Delta complex the faces containing
        # sigma are exactly the faces above it, in the same canonical order
        rng = random.Random(24)
        fixtures = [G.real_projective_plane(), G.multi_edge_complex(3),
                    G.octahedron_boundary()]
        while len(fixtures) < 40:
            c = random_simplicial_complex(rng, max_verts=7, max_facets=5,
                                          max_dim=3)
            if rng.random() < 0.5:
                c = S.stellar_subdivide(c, rng.choice(c.face_ids))
            fixtures.append(c)
        for c in fixtures:
            assert c.has_delta
            for sigma in c.face_ids:
                assert c.upset(sigma) == tuple(
                    t for t in c.face_ids if c.contains_face(t, sigma))


class TestRelabelCommutes:
    REN = staticmethod(lambda c: {f: f"x_{f}" for f in c.face_ids})

    def test_blowup_move(self):
        tri = G.triangle_boundary()
        move = S.BlowupMove(case=3, base="v2", attach=("v2", "e1"), vertex="v2")
        a = S.blowup_move(tri, move)
        move_r = S.BlowupMove(case=3, base="x_v2", attach=("x_v2", "x_e1"),
                              vertex="x_v2")
        b = S.blowup_move(tri.relabeled(self.REN(tri)), move_r)
        assert S.complexes_isomorphic(a, b)

    def test_pucker(self):
        iv = G.interval()
        a = S.pucker(iv, "ab", 3)
        b = S.pucker(iv.relabeled(self.REN(iv)), "x_ab", 3)
        assert S.complexes_isomorphic(a, b)

    def test_morse_flow(self):
        st = S.stellar_subdivide(G.triangle_boundary(), "e0", new_vertex="E")
        a, _m, _c = S.morse_vertex_flow(st, "E", "v0")
        ren = self.REN(st)
        b, _m, _c = S.morse_vertex_flow(st.relabeled(ren), "x_E", "x_v0")
        assert S.complexes_isomorphic(a, b)


class TestBlowupMoves:
    def test_case1_identity(self):
        tri = G.triangle_boundary()
        out = S.blowup_move(tri, S.BlowupMove(case=1))
        assert dumps_complex(out) == dumps_complex(tri)

    def test_case3_pendant(self):
        tri = G.triangle_boundary()
        out = S.blowup_move(tri, S.BlowupMove(case=3, base="v2",
                                              attach=("v2",), vertex="v2"))
        assert out.f_vector() == (4, 4)
        assert S.homology(out).betti_vector() == (1, 1)

    def test_case3_with_two_face(self):
        full = G.full_simplex(2)
        move = S.BlowupMove(case=3, base="0", attach=("0", "0.1.2"), vertex="0")
        out = S.blowup_move(full, move)
        assert "0.1.2<v(0)" in out.face_ids
        assert S.homology(full).same_groups(S.homology(out))

    def test_case3_validation(self):
        tri = G.triangle_boundary()
        with pytest.raises(DescriptorInvalid):
            S.blowup_move(tri, S.BlowupMove(case=3, base="v2", attach=("v2",),
                                            vertex="v0"))
        with pytest.raises(DescriptorInvalid):
            S.blowup_move(tri, S.BlowupMove(case=3, base="v2", attach=("e0",),
                                            vertex="v2"))
        with pytest.raises(DescriptorInvalid):
            S.blowup_move(tri, S.BlowupMove(case=3, base="v2",
                                            attach=("v2", "nope"), vertex="v2"))

    def test_case3_duplicate_spans_rejected(self):
        c = G.multi_edge_complex(2)
        move = S.BlowupMove(case=3, base="u", attach=("u", "e0", "e1"),
                            vertex="u")
        with pytest.raises(DescriptorInvalid):
            S.blowup_move(c, move)

    def test_case3_filtered_level_required(self):
        rng = random.Random(5)
        c = with_random_levels(rng, G.triangle_boundary())
        with pytest.raises(DescriptorInvalid):
            S.blowup_move(c, S.BlowupMove(case=3, base="v2", attach=("v2",),
                                          vertex="v2"))
        lv = c.level("v2")
        out = S.blowup_move(c, S.BlowupMove(case=3, base="v2", attach=("v2",),
                                            vertex="v2", level=lv))
        assert out.has_levels

    def test_unknown_case(self):
        with pytest.raises(DescriptorInvalid):
            S.blowup_move(G.triangle_boundary(), S.BlowupMove(case=9))


class TestMorseFlow:
    def test_case3_roundtrip_exact(self):
        tri = G.triangle_boundary()
        out = S.blowup_move(tri, S.BlowupMove(case=3, base="v2",
                                              attach=("v2",), vertex="v2"))
        red, matching, cert = S.morse_vertex_flow(out, "v(v2)", "v2")
        assert red == tri
        assert cert["perfect"] and cert["acyclic"]
        assert len(matching) == 1

    def test_stellar_inverse_up_to_iso(self):
        tri = G.triangle_boundary()
        st = S.stellar_subdivide(tri, "e0", new_vertex="E")
        red, _m, cert = S.morse_vertex_flow(st, "E", "v0")
        assert red.f_vector() == (3, 3)
        assert S.complexes_isomorphic(red, tri)
        assert not cert["perfect"]
        assert homology_tables_equal(st, red)

    def test_not_adjacent(self):
        c = S.disjoint_union(G.triangle_boundary(), G.point_complex())
        with pytest.raises(PairingIncomplete):
            S.morse_vertex_flow(c, "p", "v0")

    def test_square_flow(self):
        c4 = G.cycle_complex(4)
        red, _m, _cert = S.morse_vertex_flow(c4, "v0", "v1")
        assert red.f_vector() == (3, 3)
        assert S.homology(red).betti_vector() == (1, 1)

    def test_ambiguous_span_rejected(self):
        from sncx.errors import PairingNotUnique
        c = G.multi_edge_complex(2)
        with pytest.raises(PairingNotUnique):
            S.morse_vertex_flow(c, "u", "w")

    def test_vertex_onto_itself_rejected(self):
        # flowing v onto v would drop v's star and call the pairing perfect
        for c in (G.triangle_boundary(), G.point_complex()):
            for v in c.faces_of_dim(0):
                with pytest.raises(PairingIncomplete, match="onto itself"):
                    S.morse_vertex_flow(c, v, v)

    def test_fuzz_flow_preserves_homology_when_it_applies(self):
        from sncx.errors import PairingIncomplete, PairingNotUnique
        rng = random.Random(99)
        applied = 0
        for _ in range(60):
            c = random_simplicial_complex(rng, max_verts=6, max_facets=5,
                                          max_dim=3)
            verts = c.faces_of_dim(0)
            if len(verts) < 2:
                continue
            src, dst = rng.sample(verts, 2)
            try:
                red, _m, cert = S.morse_vertex_flow(c, src, dst)
            except (PairingIncomplete, PairingNotUnique):
                continue
            assert cert["acyclic"]
            assert homology_tables_equal(c, red)
            assert src not in red.face_ids
            applied += 1
        assert applied >= 20

    def test_random_case3_roundtrips(self):
        rng = random.Random(33)
        done = 0
        while done < 25:
            c = random_simplicial_complex(rng, max_verts=6, max_facets=4,
                                          max_dim=3)
            base = c.face_ids[rng.randrange(len(c.face_ids))]
            up = c.star(base)
            extra = [f for f in up if f != base]
            rng.shuffle(extra)
            attach = (base,) + tuple(extra[:rng.randint(0, len(extra))])
            vj = rng.choice(list(c.vertices_of(base)))
            move = S.BlowupMove(case=3, base=base, attach=attach, vertex=vj,
                                new_vertex="E*")
            out = S.blowup_move(c, move)
            red, _m, cert = S.morse_vertex_flow(out, "E*", vj)
            assert cert["perfect"] and cert["acyclic"]
            assert red == c
            assert homology_tables_equal(out, c)
            done += 1


class TestCase3Check:
    """The spans looked up by vertex set against the scan of the closure."""

    @staticmethod
    def outcome(check, c, move):
        try:
            return check(c, move)
        except SncxError as exc:
            return type(exc), str(exc)

    def test_agrees_with_scanning_oracle(self):
        rng = random.Random(34)
        rejected = accepted = 0
        for _ in range(300):
            c = random_simplicial_complex(rng, max_verts=6, max_facets=4,
                                          max_dim=3)
            if rng.random() < 0.3:
                c = with_random_levels(rng, c)
            if rng.random() < 0.4:
                # parallel copies of a top cell make spans ambiguous
                top = [f for f in c.face_ids if c.is_maximal(f)]
                c = S.pucker(c, rng.choice(top), rng.randint(2, 3))
            faces = list(c.face_ids)
            base = rng.choice(faces + ["nope"])
            pool = c.star(base) if base in faces and rng.random() < 0.8 \
                else faces
            attach = rng.sample(pool, rng.randint(0, len(pool)))
            if base in faces and rng.random() < 0.8:
                attach = [base] + [f for f in attach if f != base]
            vertex = rng.choice([None] + list(c.faces_of_dim(0)))
            level = rng.choice([None, 1, 2, 3])
            move = S.BlowupMove(case=3, base=base, attach=tuple(attach),
                                vertex=vertex, level=level)
            got = self.outcome(_validate_case3, c, move)
            assert got == self.outcome(scanning_validate_case3, c, move)
            if isinstance(got, list):
                accepted += 1
            else:
                rejected += 1
        assert accepted >= 30 and rejected >= 30

    def test_ambiguous_span_counts(self):
        c = S.pucker(G.full_simplex(2), "0.1.2", 3)
        move = S.BlowupMove(case=3, base="0", attach=("0", "0.1", "0.2"),
                            vertex="0")
        assert _validate_case3(c, move) == scanning_validate_case3(c, move)
        move = S.BlowupMove(case=3, base="0", vertex="0",
                            attach=("0", "0.1.2", "0.1.2+1", "0.1.2+2"))
        with pytest.raises(DescriptorInvalid, match="face '1.2' has 3 spans"):
            _validate_case3(c, move)


class TestFlowAgreesWithOracle:
    """Spans found among the cofaces of each source, against the index of
    every face by its vertex set."""

    @staticmethod
    def outcome(flow, c, src, dst):
        try:
            red, matching, cert = flow(c, src, dst)
        except SncxError as exc:
            return type(exc), str(exc)
        return red.to_records(), matching, cert

    def test_every_ordered_vertex_pair(self):
        rng = random.Random(36)
        calls = errors = 0
        for i in range(300):
            c = random_simplicial_complex(rng, max_verts=8, max_facets=6,
                                          max_dim=3)
            if i % 3 == 1:
                c = with_random_levels(rng, c)
            if i % 3 == 2:
                c = S.stellar_subdivide(c, rng.choice(c.face_ids))
            if i % 5 == 4:
                # parallel copies of a top cell make spans ambiguous
                c = S.pucker(c, rng.choice([f for f in c.face_ids
                                            if c.is_maximal(f)]), 2)
            verts = c.faces_of_dim(0)
            for src in verts:
                for dst in verts:
                    if src == dst:
                        continue
                    got = self.outcome(S.morse_vertex_flow, c, src, dst)
                    assert got == self.outcome(indexing_morse_vertex_flow,
                                               c, src, dst)
                    calls += 1
                    errors += isinstance(got[0], type)
        assert calls > 4000 and 1500 < errors < calls - 1500


class TestMatchingAcyclicity:
    """The Delta order makes the vertex flow's matching acyclic: no V-path
    leaves a pair, so the flow searches for no cycle."""

    def test_spans_leave_no_v_path(self):
        rng = random.Random(38)
        pairs = spans_seen = 0
        for i in range(120):
            c = random_simplicial_complex(rng, max_verts=7, max_facets=5,
                                          max_dim=3)
            if i % 4 == 1:
                c = with_random_levels(rng, c)
            if i % 4 == 2:
                c = S.stellar_subdivide(c, rng.choice(c.face_ids))
            if i % 4 == 3:
                c = S.pucker(c, rng.choice([f for f in c.face_ids
                                            if c.is_maximal(f)]), 2)
            verts = c.faces_of_dim(0)
            for src in verts:
                for dst in verts:
                    if src == dst:
                        continue
                    star = c.upset(src)
                    sources = {f for f in star if dst not in c.vertices_of(f)}
                    targets = [t for t in star if dst in c.vertices_of(t)]
                    # each target spans exactly one source
                    for t in targets:
                        assert len(sources.intersection(c.facets(t))) == 1
                    # V-path successors: the other facets of a span that are
                    # sources, for every span of every source; there are none
                    for f in sources:
                        for t in c.cofaces(f):
                            if dst in c.vertices_of(t):
                                assert not [g for g in c.facets(t)
                                            if g != f and g in sources]
                                spans_seen += 1
                    filed = _spans(c, star, dst)
                    assert set(filed) <= sources
                    assert sorted(t for ts in filed.values() for t in ts) \
                        == sorted(targets)
                    pairs += 1
        assert pairs > 1000 and spans_seen > 1000

    def test_flow_runs_no_cycle_search(self, monkeypatch):
        import oracles

        def searched(order, succ):
            raise MatchingNotAcyclic("searched for a V-path cycle")

        monkeypatch.setattr(oracles, "recursive_check_acyclic", searched)
        c = G.cycle_complex(4)
        with pytest.raises(MatchingNotAcyclic):
            indexing_morse_vertex_flow(c, "v0", "v1")
        red, matching, cert = S.morse_vertex_flow(c, "v0", "v1")
        assert red.f_vector() == (3, 3) and len(matching) == 1
        assert cert["acyclic"]


class TestPucker:
    def test_not_maximal(self):
        with pytest.raises(NotMaximal):
            S.pucker(G.full_simplex(2), "0.1", 2)

    def test_interval_theta(self):
        pk = S.pucker(G.interval(), "ab", 3)
        assert pk.f_vector() == (2, 3)
        assert S.homology(pk).betti_vector() == (1, 2)

    def test_identity_multiplicity(self):
        iv = G.interval()
        assert S.pucker(iv, "ab", 1) == iv

    def test_bad_multiplicity(self):
        with pytest.raises(BadMultiplicity):
            S.pucker(G.interval(), "ab", 0)

    def test_top_betti_increment_only(self):
        rng = random.Random(12)
        for _ in range(15):
            c = random_simplicial_complex(rng, max_dim=2)
            maximal = [f for f in c.face_ids if c.is_maximal(f)]
            sigma = rng.choice(maximal)
            d = rng.randint(2, 4)
            pk = S.pucker(c, sigma, d)
            hb, ha = S.homology(c, reduced=True), S.homology(pk, reduced=True)
            dim = c.dim(sigma)
            for k in range(c.dimension + 1):
                want = hb.betti(k) + (d - 1 if k == dim else 0)
                assert ha.betti(k) == want
                assert ha.torsion(k) == hb.torsion(k)


class TestScripts:
    def test_empty_script_identity(self):
        tri = G.triangle_boundary()
        final, log = S.run_blowup_script(tri, ())
        assert final == tri
        assert log.homology_constant
        assert len(log.steps) == 1

    def test_two_routes_equal_homology(self):
        tri = G.triangle_boundary()
        route_a, log_a = S.run_blowup_script(
            tri, (S.BlowupMove(case=2, face="e0"),))
        route_b, log_b = S.run_blowup_script(
            tri, (S.BlowupMove(case=3, base="v2", attach=("v2",), vertex="v2"),))
        assert log_a.homology_constant and log_b.homology_constant
        assert S.homology(route_a).table == S.homology(route_b).table
        assert route_a.f_vector() == route_b.f_vector() == (4, 4)

    def test_failing_step_index(self):
        tri = G.triangle_boundary()
        script = (S.BlowupMove(case=2, face="e0"),
                  S.BlowupMove(case=2, face="e0"))
        with pytest.raises(ScriptError) as err:
            S.run_blowup_script(tri, script)
        assert err.value.index == 2

    def test_random_mixed_scripts_stay_constant(self):
        rng = random.Random(271)
        for _ in range(15):
            c = with_random_levels(rng, random_simplicial_complex(
                rng, max_verts=5, max_facets=3, max_dim=2))
            cur = c
            moves = []
            for _step in range(3):
                if rng.random() < 0.5:
                    face = cur.face_ids[rng.randrange(len(cur.face_ids))]
                    move = S.BlowupMove(case=2, face=face)
                else:
                    base = cur.face_ids[rng.randrange(len(cur.face_ids))]
                    above = [f for f in cur.star(base) if f != base]
                    rng.shuffle(above)
                    attach = (base,) + tuple(above[:rng.randint(0, len(above))])
                    move = S.BlowupMove(
                        case=3, base=base, attach=attach,
                        vertex=rng.choice(list(cur.vertices_of(base))),
                        level=cur.level(base) + rng.randint(0, 1))
                try:
                    cur = S.blowup_move(cur, move)
                except S.SncxError:
                    continue
                moves.append(move)
            _final, log = S.run_blowup_script(c, tuple(moves))
            assert log.homology_constant, moves

    def test_filtered_script_per_level_log(self):
        recs = [
            {"id": "v0", "dim": 0, "facets": [], "level": 1},
            {"id": "v1", "dim": 0, "facets": [], "level": 1},
            {"id": "v2", "dim": 0, "facets": [], "level": 1},
            {"id": "e0", "dim": 1, "facets": ["v0", "v1"],
             "delta_order": ["v1", "v0"], "level": 1},
            {"id": "e1", "dim": 1, "facets": ["v1", "v2"],
             "delta_order": ["v2", "v1"], "level": 1},
            {"id": "e2", "dim": 1, "facets": ["v2", "v0"],
             "delta_order": ["v0", "v2"], "level": 1},
        ]
        c = S.new_complex(recs)
        script = (S.BlowupMove(case=3, base="v2", attach=("v2",), vertex="v2",
                               level=2),
                  S.BlowupMove(case=2, face="e0", new_vertex="B"))
        final, log = S.run_blowup_script(c, script)
        assert log.homology_constant
        assert final.has_levels
        for step in log.steps:
            assert "per_level" in step


class TestIncrementalReplay:
    """Moves that check only the faces they create, and a replay that
    carries unchanged levels forward, against the recomputing replay."""

    @staticmethod
    def inputs():
        rng = random.Random(8080)
        out = []
        for i in range(48):
            c = random_simplicial_complex(rng, max_verts=6, max_facets=4, max_dim=2)
            if i % 2:
                c = with_random_levels(rng, c)
            out.append((c, draw_mixed_script(rng, c, rng.randint(3, 6))))
        for _ in range(8):
            _k, script = S.realize_boundary(random_subset_closed(rng, ground=4))
            out.append((S.CombinatorialComplex([]), script))
        return out

    def test_agrees_with_recomputing_replay(self, monkeypatch):
        runs = self.inputs()
        kinds = {(c.has_levels, m.case) for c, script in runs for m in script}
        assert kinds >= {(lv, case) for lv in (False, True)
                         for case in (2, 3, "attach")}
        got = [S.run_blowup_script(c, script) for c, script in runs]
        monkeypatch.setattr(S.CombinatorialComplex, "_derived",
                            derived_by_constructor)
        for (c, script), (final, log) in zip(runs, got):
            want_final, want_log = recomputing_run_blowup_script(c, script)
            assert log.as_json() == want_log.as_json(), script
            assert final == want_final
            assert [final.vertices_of(f) for f in final.face_ids] == \
                [want_final.vertices_of(f) for f in want_final.face_ids]

    @staticmethod
    def reusing_script(rng, c, n):
        """Seeded case 2 and case 3 moves on the filtered ``c``; most
        stellar moves name the face they subdivide as the new vertex, so
        the new vertex takes the id of a face it replaces."""
        script, cur = [], c
        for _ in range(6 * n):
            if len(script) == n:
                break
            f = rng.choice(cur.face_ids)
            if rng.random() < 0.7:
                move = S.BlowupMove(case=2, face=f,
                                    new_vertex=f if rng.random() < 0.8 else None)
            else:
                above = [t for t in cur.upset(f) if t != f]
                attach = (f,) + tuple(rng.sample(above, min(1, len(above))))
                move = S.BlowupMove(case=3, base=f, attach=attach,
                                    level=cur.level(f) + rng.randint(0, 1))
            try:
                cur = S.blowup_move(cur, move)
            except SncxError:
                continue
            script.append(move)
        return tuple(script)

    def test_reused_ids_agree_with_recomputing_replay(self, monkeypatch):
        # a fresh face that takes a dropped face's id below the top level,
        # where the replay carries unchanged levels; among them a vertex
        # subdivided under its own id, whose level is unchanged
        rng = random.Random(2020)
        runs = []
        for i in range(60):
            c = random_simplicial_complex(rng, max_verts=6, max_facets=4, max_dim=2)
            if i % 4 == 0:
                c = G.octahedron_boundary()
            c = with_random_levels(rng, c)
            runs.append((c, self.reusing_script(rng, c, rng.randint(3, 7))))
        reused = kept = 0
        for c, script in runs:
            cur = c
            for move in script:
                nxt = S.blowup_move(cur, move)
                if move.case == 2 and move.new_vertex == move.face:
                    m = nxt.level(move.face)
                    if m < nxt.max_level():
                        reused += 1
                        kept += (cur.level_subcomplex(m) == nxt.level_subcomplex(m))
                cur = nxt
        assert reused > 20 and kept > 4
        got = [S.run_blowup_script(c, script) for c, script in runs]
        monkeypatch.setattr(S.CombinatorialComplex, "_derived",
                            derived_by_constructor)
        for (c, script), (final, log) in zip(runs, got):
            want_final, want_log = recomputing_run_blowup_script(c, script)
            assert log.as_json() == want_log.as_json(), script
            assert final == want_final

    def test_levels_below_the_move_are_kept(self):
        # the carry rule: each level below the lowest level a move changes
        # is the level subcomplex of the step before; at or above it, a
        # level below the top is unchanged only where a vertex was
        # subdivided under its own id
        rng = random.Random(2121)
        seen = {"below": 0, "changed": 0, "own id": 0}
        for i in range(40):
            c = G.octahedron_boundary() if i % 4 == 0 else random_simplicial_complex(
                rng, max_verts=6, max_facets=4, max_dim=2)
            c = with_random_levels(rng, c)
            draw = self.reusing_script if i % 2 else draw_mixed_script
            cur = c
            for move in draw(rng, c, rng.randint(3, 6)):
                nxt = S.blowup_move(cur, move)
                below = cur.level(move.face) if move.case == 2 else move.level
                for m in range(1, below):
                    assert cur.level_subcomplex(m) == nxt.level_subcomplex(m), move
                    seen["below"] += 1
                for m in range(below, nxt.max_level()):
                    if cur.level_subcomplex(m) != nxt.level_subcomplex(m):
                        seen["changed"] += 1
                        continue
                    assert move.case == 2 and move.new_vertex == move.face \
                        and cur.dim(move.face) == 0, move
                    seen["own id"] += 1
                cur = nxt
        assert min(seen.values()) > 3, seen

    def test_outputs_and_restrictions_rebuild(self):
        for c, script in self.inputs():
            cur = c
            for move in script:
                cur = S.blowup_move(cur, move)
                assert_rebuilds(cur)
                for k in range(-1, cur.dimension + 1):
                    assert_rebuilds(cur.skeleton(k))
                if cur.has_levels:
                    for m in range(cur.max_level() + 1):
                        assert_rebuilds(cur.level_subcomplex(m))

    def test_replay_counts(self, monkeypatch):
        # sd(octahedron) with three levels and a 20-move script: no move
        # output or level subcomplex goes through the constructor, and
        # homology is computed for every complex and every level a move
        # changed, and for no other
        rng = random.Random(20)
        c = with_random_levels(rng, G.octahedron_boundary().order_complex())
        moves = []
        cur = c
        while len(moves) < 20:
            if rng.random() < 0.6:
                move = S.BlowupMove(case=2, face=rng.choice(
                    [f for f in cur.face_ids if cur.dim(f) >= 1]))
            else:
                base = rng.choice([f for f in cur.face_ids if cur.dim(f) < 2])
                above = [t for t in cur.upset(base) if t != base and cur.dim(t) < 2]
                move = S.BlowupMove(
                    case=3, base=base,
                    attach=(base,) + tuple(rng.sample(above, min(1, len(above)))),
                    level=rng.randint(cur.level(base), cur.max_level()))
            try:
                cur = S.blowup_move(cur, move)
            except S.SncxError:
                continue
            moves.append(move)

        expected = 0
        prev = {}
        cur = c
        for step in range(len(moves) + 1):
            if step:
                cur = S.blowup_move(cur, moves[step - 1])
            levels = {m: cur.level_subcomplex(m).to_records()
                      for m in range(1, cur.max_level())}
            expected += 1 + sum(prev.get(m) != recs for m, recs in levels.items())
            prev = levels
        assert expected < 3 * (len(moves) + 1)

        calls = {"homology": 0, "constructor": 0}
        homology, init = S.transforms.homology, S.CombinatorialComplex.__init__

        def counting_homology(*args, **kw):
            calls["homology"] += 1
            return homology(*args, **kw)

        def counting_init(self, *args, **kw):
            calls["constructor"] += 1
            init(self, *args, **kw)

        monkeypatch.setattr(S.transforms, "homology", counting_homology)
        monkeypatch.setattr(S.CombinatorialComplex, "__init__", counting_init)
        _final, log = S.run_blowup_script(c, tuple(moves))
        assert log.homology_constant
        assert calls == {"homology": expected, "constructor": 0}


def assert_numbering(c):
    """The numbering of ``c`` names, for each face, its facets (in Delta
    order, or the covering slots in canonical order on a face poset) and,
    among the live slots, exactly the cofaces of its covering relation."""
    ids, below, above, live = c._num[:4]
    slot = dict(zip(c.face_ids, live))
    up = table_cofaces(c)
    assert [ids[x] for x in live] == list(c.face_ids)
    for f, x in slot.items():
        assert [ids[s] for s in below[x]] == list(
            c.delta_order(f) if c.has_delta and c.dim(f) else c.facets(f))
        assert sorted(ids[y] for y in above[x] if slot.get(ids[y]) == y) == \
            sorted(up[f])


@pytest.fixture
def compactions(monkeypatch):
    """The numberings a move compacted, as ``(ids, live)`` before."""
    calls = []
    real = C._compacted

    def counted(order, num):
        calls.append((num[0], num[3]))
        return real(order, num)

    monkeypatch.setattr(C, "_compacted", counted)
    return calls


class TestCarriedNumbering:
    """The homology numbering that moves and restrictions carry, against
    complexes rebuilt from their records and numbered afresh."""

    @staticmethod
    def runs():
        # case 2, 3 and attach scripts on plain and levelled complexes;
        # reusing scripts subdivide a face under its own id, so a fresh
        # face takes a dropped face's id; attach scripts from realize
        rng = random.Random(2323)
        out = []
        for i in range(40):
            c = G.octahedron_boundary() if i % 5 == 0 else random_simplicial_complex(
                rng, max_verts=6, max_facets=4, max_dim=2)
            if i % 2:
                c = with_random_levels(rng, c)
            draw = TestIncrementalReplay.reusing_script if i % 4 == 1 else draw_mixed_script
            out.append((c, draw(rng, c, rng.randint(3, 7))))
        for _ in range(8):
            _k, script = S.realize_boundary(random_subset_closed(rng, ground=4), n=3)
            out.append((S.CombinatorialComplex([]), script))
        return out

    def test_homology_agrees_with_fresh_builds(self, compactions):
        seen = {"carried": 0, "compacted": 0, "reused id": 0, "levels": 0,
                "moved restriction": 0}
        for c, script in self.runs():
            cur = c
            S.homology(cur)
            for move in script:
                before, h = copy.deepcopy(cur._num), S.homology(cur)
                compacted = len(compactions)
                nxt = S.blowup_move(cur, move)
                # the parent's lists and homology are as they were
                assert cur._num == before and S.homology(cur) == h
                seen["carried" if len(compactions) == compacted else "compacted"] += 1
                seen["reused id"] += move.case == 2 and move.new_vertex == move.face
                subs = [nxt]
                if nxt.has_levels:
                    subs += [nxt.level_subcomplex(m) for m in range(1, nxt.max_level())]
                    seen["levels"] += len(subs) - 1
                for sub in subs:
                    want = clearing_homology(validating_constructor(sub.to_records()))
                    assert S.homology(sub) == want, move
                    assert_numbering(sub)
                sub = subs[-1]
                if len(subs) > 1 and sub.face_ids:
                    # a move on a restriction, which shares nxt's lists
                    moved = S.stellar_subdivide(sub, sub.face_ids[-1])
                    assert S.homology(moved) == clearing_homology(
                        validating_constructor(moved.to_records()))
                    seen["moved restriction"] += 1
                cur = nxt
        assert min(seen.values()) > 5 and seen["carried"] > 5 * seen["compacted"], seen

    def test_cofaces_and_upsets_agree_with_the_table_oracle(self):
        # cofaces, upset, star and is_maximal read the numbering's live
        # coface slots; the table is built from the covering relation
        seen = {"fresh": 0, "move": 0, "reused id": 0, "restriction": 0,
                "poset": 0}
        checked = 0

        def agrees(c, kind):
            nonlocal checked
            up = table_cofaces(c)
            for f in c.face_ids:
                reach, stack = {f}, [f]
                while stack:
                    for g in up[stack.pop()]:
                        if g not in reach:
                            reach.add(g)
                            stack.append(g)
                want = tuple(g for g in c.face_ids if g in reach)
                assert c.cofaces(f) == tuple(up[f])
                assert c.upset(f) == c.star(f) == want
                assert c.is_maximal(f) == (not up[f])
            seen[kind] += 1
            checked += len(c.face_ids)

        for c, script in self.runs():
            agrees(c, "fresh")
            agrees(without_delta(c), "poset")
            cur = c
            S.homology(cur)
            for move in script:
                cur = S.blowup_move(cur, move)
                agrees(cur, "move")
                seen["reused id"] += move.case == 2 and move.new_vertex == move.face
                if cur.face_ids:
                    agrees(cur.skeleton(cur.dimension - 1), "restriction")
                    agrees(without_delta(cur), "poset")
                if cur.has_levels:
                    agrees(cur.level_subcomplex(1), "restriction")
        assert min(seen.values()) > 5 and checked > 2000, (seen, checked)

    def test_face_posets_carry_their_numbering(self):
        # a numbered face poset through cone, pucker, skeleton and level
        # subcomplex: each output is numbered by the carried lists, and its
        # cellular homology is that of a fresh build
        rng = random.Random(2526)
        carried = posets = 0
        for i in range(30):
            c = random_simplicial_complex(rng, max_verts=7, max_facets=5,
                                          max_dim=3)
            if i % 2:
                c = with_random_levels(rng, c)
            cur = without_delta(c)
            S.homology(cur)
            for step in range(4):
                top = [f for f in cur.face_ids if cur.is_maximal(f)]
                cur = (S.cone(cur, f"a{step}") if step % 2 == 0
                       else S.pucker(cur, rng.choice(top), rng.randint(2, 3)))
                posets += not cur.has_delta
                subs = [cur, cur.skeleton(rng.randint(0, cur.dimension))]
                if cur.has_levels:
                    subs += [cur.level_subcomplex(m)
                             for m in range(1, cur.max_level() + 1)]
                for sub in subs:
                    carried += type(sub._num[3]) is not range
                    assert_numbering(sub)
                    for reduced in (False, True):
                        assert S.homology(sub, reduced) == clearing_homology(
                            validating_constructor(sub.to_records()), reduced)
        assert carried > 200 and posets > 100, (carried, posets)

    def test_replay_numbers_once(self, compactions):
        # the whole complex is numbered when it is read, and its lists are
        # compacted only after a move whose dead slots would outnumber its
        # live ones; the replays run on fresh copies read from records
        runs = self.runs()
        expected = []
        for c, script in runs:
            builds, slots, cur = 0, len(c.face_ids), c
            for move in script:
                drop = cur.upset(move.face) if move.case == 2 else ()
                nxt = S.blowup_move(cur, move)
                slots += len(nxt.face_ids) - len(cur.face_ids) + len(drop)
                if slots > 2 * len(nxt.face_ids):
                    builds, slots = builds + 1, len(nxt.face_ids)
                cur = nxt
            expected.append(builds)
        assert expected.count(0) > len(runs) // 2 and max(expected) > 0

        for (c, script), want in zip(runs, expected):
            fresh = S.new_complex(c.to_records())
            compactions.clear()
            S.run_blowup_script(fresh, script)
            assert len(compactions) == want, script

    def test_dead_slots_never_outnumber_live_ones(self, compactions):
        # the octahedron's vertex subdivided again and again under its own
        # id: each move leaves the 9 faces of its star as dead slots
        cur = G.octahedron_boundary()
        v = cur.face_ids[0]
        S.homology(cur)
        compacted = 0
        for _ in range(8):
            nxt = S.stellar_subdivide(cur, v, new_vertex=v)
            ids, _below, _above, live = nxt._num[:4]
            if len(compactions) > compacted:
                assert len(cur._num[0]) + 9 > 2 * len(nxt.face_ids)
                assert len(compactions[-1][0]) == len(cur._num[0]) + 9
                assert (ids, live) == (nxt.face_ids, range(len(nxt.face_ids)))
                compacted += 1
            assert S.homology(nxt) == S.homology(G.octahedron_boundary())
            assert len(ids) - len(live) <= len(live)
            assert_numbering(nxt)
            cur = nxt
        assert compacted == 2


def permuted_labels(rng, c):
    """``c`` with every face labeled from a seeded permutation of label
    strings, about one in five a copy of another face's label, so that
    canonical order follows labels, ties included, and not ids."""
    names = [f"L{i:04d}" for i in range(len(c.face_ids))]
    rng.shuffle(names)
    recs = c.to_records()
    for rec, name in zip(recs, names):
        rec["label"] = rng.choice(names) if rng.random() < 0.2 else name
    return S.CombinatorialComplex(recs)


def in_id_order(c):
    return list(c.face_ids) == sorted(c.face_ids, key=lambda f: (c.dim(f), f))


class TestSlotsAgainstRecords:
    """The complex keeps its facets and every face attribute only on the
    numbering's slots: after every move and restriction, each accessor
    that reads them agrees with the complex the validating constructor
    reads from the records, a face of the parent outside the child is no
    face of it, and a move never leaves more dead slots than live ones.
    The scripts run long enough that moves compact the lists, and run
    again on inputs whose labels are not in id order."""

    @staticmethod
    def agrees(c, parent=None) -> int:
        """Check ``c``; the number of ``parent``'s faces outside it."""
        want = validating_constructor(c.to_records())
        assert_same_complex(c, want)
        assert c.to_records() == want.to_records()
        assert dumps_complex(c) == dumps_complex(want)
        assert (c.dimension, c.f_vector()) == (want.dimension, want.f_vector())
        for k in range(-1, c.dimension + 2):
            assert c.faces_of_dim(k) == want.faces_of_dim(k)
        if c.has_levels:
            assert c.max_level() == want.max_level()
        for f in c.face_ids:
            assert (c.dim(f), c.label(f)) == (want.dim(f), want.label(f))
            assert c.facets(f) == want.facets(f)
            assert c.cofaces(f) == want.cofaces(f)
            if c.has_levels:
                assert c.level(f) == want.level(f)
            if c.has_delta:
                assert c.delta_order(f) == want.delta_order(f)
                assert c.vertices_of(f) == want.vertices_of(f)
        assert S.homology(c) == clearing_homology(want)
        outside = [f for f in parent.face_ids if not want.has_face(f)] if parent else []
        for f in outside:
            assert not c.has_face(f)
            for read in (c.dim, c.label, c.level, c.vertices_of):
                with pytest.raises(NoSuchFace):
                    read(f)
        return len(outside)

    def agrees_below(self, rng, c, parent=None) -> int:
        # c, then a skeleton and a level subcomplex of it, each against the
        # faces of the complex it came from
        outside = self.agrees(c, parent)
        if c.face_ids:
            outside += self.agrees(c.skeleton(rng.randint(0, c.dimension)), c)
        if c.has_levels:
            outside += self.agrees(c.level_subcomplex(rng.randint(1, c.max_level())), c)
        return outside

    def test_long_scripts_on_delta_complexes(self, compactions):
        self.long_scripts(compactions, relabel=False)

    def test_long_scripts_on_relabeled_delta_complexes(self, compactions):
        self.long_scripts(compactions, relabel=True)

    def long_scripts(self, compactions, relabel):
        # a vertex subdivided under its own id drops its star and keeps the
        # size of the complex, so dead slots pile up until a move compacts
        # them; every fifth move is a mixed one
        rng = random.Random(3101)
        moves = outside = shuffled = 0
        for i in range(10):
            c = G.octahedron_boundary() if i % 4 == 0 else random_simplicial_complex(
                rng, max_verts=6, max_facets=4, max_dim=3)
            cur = with_random_levels(rng, c) if i % 2 else c
            if relabel:
                cur = permuted_labels(rng, cur)
                shuffled += not in_id_order(cur)
            self.agrees_below(rng, cur)
            for n in range(40):
                v = rng.choice(cur.faces_of_dim(0))
                script = (draw_mixed_script(rng, cur, 1) if n % 5 == 4 else
                          [S.BlowupMove(case=2, face=v, new_vertex=v)])
                for move in script:
                    prev, cur = cur, S.blowup_move(cur, move)
                    ids = cur._num[0]
                    assert len(ids) <= 2 * len(cur.face_ids)
                    outside += self.agrees_below(rng, cur, prev)
                    moves += 1
        assert moves > 350 and len(compactions) > 30, (moves, len(compactions))
        assert outside > 3000, outside
        assert not relabel or shuffled > 5, shuffled      # most of the 10 inputs

    def test_face_posets(self):
        self.face_posets(relabel=False)

    def test_relabeled_face_posets(self):
        self.face_posets(relabel=True)

    def face_posets(self, relabel):
        # no move drops a face of a face poset, so its lists only grow
        rng = random.Random(3102)
        posets = outside = shuffled = 0
        for i in range(16):
            c = random_simplicial_complex(rng, max_verts=7, max_facets=5, max_dim=3)
            cur = without_delta(with_random_levels(rng, c) if i % 2 else c)
            if relabel:
                cur = permuted_labels(rng, cur)
                shuffled += not in_id_order(cur)
            self.agrees_below(rng, cur)
            for step in range(5):
                top = [f for f in cur.face_ids if cur.is_maximal(f)]
                cur = (S.cone(cur, f"a{step}") if step % 2 == 0
                       else S.pucker(cur, rng.choice(top), rng.randint(2, 3)))
                ids = cur._num[0]
                assert len(ids) <= 2 * len(cur.face_ids)
                outside += self.agrees_below(rng, cur)
                posets += not cur.has_delta
        assert posets > 60 and outside > 200, (posets, outside)
        assert not relabel or shuffled > 8, shuffled      # most of the 16 inputs


def filtered_disk():
    """The 2-simplex, with the faces on its vertex 2 at level 2."""
    c = G.full_simplex(2)
    recs = []
    for f in c.face_ids:
        rec = c._record(f)
        rec["level"] = 2 if "2" in c.vertices_of(f) else 1
        recs.append(rec)
    return S.new_complex(recs)


def captured_derivation(monkeypatch, c, move):
    """The (parent, drop, fresh) arguments of the move's ``_derived`` call."""
    seen = []
    derived = S.CombinatorialComplex._derived

    def capture(self, drop, fresh):
        seen.append((self, drop, [dict(r) for r in fresh]))
        return derived(self, drop, fresh)

    monkeypatch.setattr(S.CombinatorialComplex, "_derived", capture)
    S.blowup_move(c, move)
    monkeypatch.undo()
    (parent, drop, fresh), = seen
    return parent, drop, fresh


def _first_of_dim(k):
    return lambda fresh: next(r for r in fresh if r["dim"] == k)


def _set(pick, key, value):
    def mutate(fresh):
        pick(fresh)[key] = value
    return mutate


def _edit(pick, key, edit):
    def mutate(fresh):
        rec = pick(fresh)
        rec[key] = edit(rec[key])
    return mutate


def _drop(pick, key):
    def mutate(fresh):
        del pick(fresh)[key]
    return mutate


def _both(*mutations):
    def mutate(fresh):
        for m in mutations:
            m(fresh)
    return mutate


# each mutation breaks one check of the constructor in one created face
MUTATIONS = {
    "id-not-str": _set(_first_of_dim(1), "id", 7),
    "id-empty": _set(_first_of_dim(0), "id", ""),
    "id-of-a-survivor": _set(_first_of_dim(2), "id", "0"),
    "dim-negative": _set(_first_of_dim(0), "dim", -1),
    "dim-wrong-for-facets": _set(_first_of_dim(2), "dim", 3),
    "facet-unknown": _edit(_first_of_dim(1), "facets", lambda d: d[:1] + ["ghost"]),
    "no-facets": _both(_set(_first_of_dim(1), "facets", []),
                       _set(_first_of_dim(1), "delta_order", [])),
    "vertex-covers": _set(_first_of_dim(0), "facets", ["0"]),
    "delta-missing": _drop(_first_of_dim(2), "delta_order"),
    "delta-short": _edit(_first_of_dim(2), "delta_order", lambda d: d[:-1]),
    "delta-repeats": _edit(_first_of_dim(2), "delta_order", lambda d: [d[0], d[0], d[2]]),
    "delta-not-the-facets": _edit(_first_of_dim(2), "delta_order",
                                  lambda d: d[:-1] + ["1.2"]),
    "delta-identity": _edit(_first_of_dim(2), "delta_order",
                            lambda d: [d[1], d[0], d[2]]),
    "repeated-vertex": _both(
        _edit(_first_of_dim(1), "delta_order", lambda d: [d[0], d[0]]),
        _edit(_first_of_dim(1), "facets", lambda d: [d[0], d[0]])),
    "level-below-facet": _set(_first_of_dim(0), "level", 3),
    "level-zero": _set(_first_of_dim(1), "level", 0),
    "level-missing": _drop(_first_of_dim(1), "level"),
}


class TestDerivedChecks:
    """A created face that breaks a check fails as in the constructor."""

    MOVES = (S.BlowupMove(case=2, face="0.1.2", new_vertex="B"),
             S.BlowupMove(case=3, base="0.1", attach=("0.1", "0.1.2"),
                          vertex="0", level=2))

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    @pytest.mark.parametrize("move", MOVES, ids=("stellar", "cone"))
    def test_same_error_as_constructor(self, monkeypatch, name, move):
        c = filtered_disk()
        parent, drop, fresh = captured_derivation(monkeypatch, c, move)
        assert_rebuilds(parent._derived(drop, fresh))
        MUTATIONS[name](fresh)
        with pytest.raises(S.SncxError) as want:
            derived_by_constructor(parent, drop, fresh)
        with pytest.raises(S.SncxError) as got:
            parent._derived(drop, fresh)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_random_faults_same_outcome_as_the_frozen_reader(self, monkeypatch):
        # the fresh records of the moves of random scripts, on Delta and
        # filtered complexes and on posets, with one or two faults put in:
        # the move's build gives the frozen reader's complex or error on
        # the survivors' records followed by the fresh ones
        seen = []
        derived = S.CombinatorialComplex._derived

        def capture(self, drop, fresh):
            seen.append((self, set(drop), copy.deepcopy(list(fresh))))
            return derived(self, drop, fresh)

        monkeypatch.setattr(S.CombinatorialComplex, "_derived", capture)
        rng = random.Random(2605)
        for i in range(24):
            c = random_simplicial_complex(rng, max_verts=6, max_facets=4, max_dim=3)
            if i % 2:
                c = with_random_levels(rng, c)
            S.run_blowup_script(c, draw_mixed_script(rng, c, 3))
            if i % 3 == 0:
                S.cone(without_delta(c), "z")
        monkeypatch.undo()

        def outcome(build, *args):
            try:
                return build(*args)
            except S.SncxError as exc:
                return type(exc), str(exc)

        errors = 0
        for parent, drop, fresh in seen:
            for _ in range(3):
                recs = copy.deepcopy(fresh)
                if not any(break_record(rng, kind, recs) for kind in
                           rng.sample(READER_FAULTS, rng.choice([1, 2]))):
                    continue
                got = outcome(parent._derived, drop, copy.deepcopy(recs))
                want = outcome(phased_reader, [parent._record(f) for f in parent.face_ids
                                               if f not in drop] + recs)
                if isinstance(want, tuple):
                    assert got == want
                    errors += 1
                else:
                    assert_same_complex(got, want)
        assert errors > 150, errors

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    @pytest.mark.parametrize("move", MOVES, ids=("stellar", "cone"))
    def test_whole_records_same_error_as_oracle(self, monkeypatch, name, move):
        # the constructor, given the survivors' records and the mutated
        # fresh ones as one list, fails as the frozen validating constructor
        parent, drop, fresh = captured_derivation(monkeypatch, filtered_disk(), move)
        MUTATIONS[name](fresh)
        records = [parent._record(f) for f in parent.face_ids if f not in drop] + fresh
        with pytest.raises(S.SncxError) as want:
            validating_constructor(records)
        with pytest.raises(S.SncxError) as got:
            S.CombinatorialComplex(records)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def _put(fid, key, value):
    def mutate(fresh):
        next(r for r in fresh if r["id"] == fid)[key] = value
    return mutate


# faces of the cone over a 5-cycle without a Delta structure, apex "c"
POSET_MUTATIONS = {
    "edge-on-three-vertices": _put("v0*c", "facets", ["c", "v0", "v1"]),
    "two-cell-on-a-path": _put("e0*c", "facets", ["v0*c", "v1*c", "e1"]),
    "two-cell-on-a-figure-eight": _put(
        "e0*c", "facets", ["v0*c", "v1*c", "e0", "v2*c", "v3*c", "e2"]),
}
def _levels_on_all(fresh):
    for r in fresh:
        r["level"] = 1


# a structure the fresh faces claim and the survivors lack, and the first
# survivor in canonical order it fails on
POSET_CLAIMS = {
    "delta-order": (_put("e0*c", "delta_order", ["v0*c", "v1*c", "e0"]), "e0"),
    "level": (_levels_on_all, "v0"),
}


class TestDerivedChecksWithoutDelta:
    """The cone of a parent without a Delta structure checks its fresh
    faces as regular CW cells, as the constructor does."""

    @staticmethod
    def captured_cone(monkeypatch):
        seen = []
        derived = S.CombinatorialComplex._derived

        def capture(self, drop, fresh):
            seen.append((self, drop, [dict(r) for r in fresh]))
            return derived(self, drop, fresh)

        monkeypatch.setattr(S.CombinatorialComplex, "_derived", capture)
        out = without_delta(G.cycle_complex(5)).cone("c")
        monkeypatch.undo()
        (parent, drop, fresh), = seen
        assert not parent.has_delta and drop == ()
        assert_rebuilds(out)
        return parent, drop, fresh

    @pytest.mark.parametrize("name", sorted(POSET_MUTATIONS))
    def test_same_error_as_oracle(self, monkeypatch, name):
        parent, drop, fresh = self.captured_cone(monkeypatch)
        POSET_MUTATIONS[name](fresh)
        with pytest.raises(NotRegularCW) as want:
            derived_by_constructor(parent, drop, fresh)
        with pytest.raises(NotRegularCW) as got:
            parent._derived(drop, fresh)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("name", sorted(POSET_CLAIMS))
    def test_claim_checks_the_survivors(self, monkeypatch, name):
        parent, drop, fresh = self.captured_cone(monkeypatch)
        mutate, survivor = POSET_CLAIMS[name]
        mutate(fresh)
        with pytest.raises(S.SncxError) as want:
            derived_by_constructor(parent, drop, fresh)
        with pytest.raises(S.SncxError) as got:
            parent._derived(drop, fresh)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"face {survivor!r} lacks")

