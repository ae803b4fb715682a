import copy
import itertools
import random
import re
import time
from collections import Counter

import pytest

import sncx as S
import sncx.complexes as C
import sncx.operations as O
import sncx.transforms as T
from sncx import gallery as G
from sncx.complexes import _chains, _from_simplices
from sncx.errors import (
    BadDeltaStructure,
    DanglingFace,
    DescriptorInvalid,
    DuplicateFace,
    GradingViolation,
    HasFixedFace,
    LevelNotDownwardClosed,
    NoFiltration,
    NotAVertex,
    NotInvolution,
    NotRegularCW,
    NotSubsetClosed,
    QuotientNotRegular,
    SncxError,
)
from sncx.serialize import dumps_complex
from sncx.snc import _by_size

from conftest import (
    READER_FAULTS,
    assert_rebuilds,
    assert_same_complex,
    bounded_family,
    break_record,
    polygon_cone_fan,
    random_fan,
    random_lattice_polytope,
    random_subset_closed,
    random_support,
    random_simplicial_complex,
    with_random_levels,
    without_delta,
)
from oracles import (
    counting_f_vector,
    derived_by_constructor,
    _all_chains,
    _frozen_subset_id,
    dict_boundary_walk,
    frontier_order_complex,
    keyed_by_size,
    order_complex_homology,
    phased_reader,
    record_writing_attach_cone,
    record_writing_cone,
    record_writing_quotient,
    record_writing_relabeled,
    record_writing_union_records,
    record_route_simplices,
    recursive_complexes_isomorphic,
    two_step_wedge,
    validating_constructor,
)


def filtered_triangle_with_pendant():
    """Triangle at level 1, pendant edge and vertex at level 2."""
    recs = [
        {"id": "v0", "dim": 0, "facets": [], "level": 1},
        {"id": "v1", "dim": 0, "facets": [], "level": 1},
        {"id": "v2", "dim": 0, "facets": [], "level": 1},
        {"id": "w", "dim": 0, "facets": [], "level": 2},
        {"id": "e0", "dim": 1, "facets": ["v0", "v1"], "delta_order": ["v1", "v0"], "level": 1},
        {"id": "e1", "dim": 1, "facets": ["v1", "v2"], "delta_order": ["v2", "v1"], "level": 1},
        {"id": "e2", "dim": 1, "facets": ["v2", "v0"], "delta_order": ["v0", "v2"], "level": 1},
        {"id": "p", "dim": 1, "facets": ["v2", "w"], "delta_order": ["w", "v2"], "level": 2},
    ]
    return S.new_complex(recs)


class TestConstruction:
    def test_triangle_f_vector(self):
        tri = G.triangle_boundary()
        assert tri.f_vector() == (3, 3)
        assert tri.has_delta

    def test_single_vertex(self):
        c = G.point_complex()
        assert c.f_vector() == (1,)

    def test_edge_with_repeated_vertex_rejected(self):
        recs = [{"id": "v", "dim": 0, "facets": []},
                {"id": "e", "dim": 1, "facets": ["v"], "delta_order": ["v", "v"]}]
        with pytest.raises(BadDeltaStructure):
            S.new_complex(recs)

    def test_dangling_facet(self):
        with pytest.raises(DanglingFace):
            S.new_complex([{"id": "e", "dim": 1, "facets": ["ghost"]}])

    @pytest.mark.parametrize("key, ids", [
        ("facets", [["u"], "u"]), ("facets", ["u", 1]), ("facets", [None]),
        ("delta_order", ["v", 0]), ("delta_order", [["v"], "u"])])
    def test_id_lists_hold_strings(self, key, ids):
        # an int used to be DanglingFace, a list Python's TypeError
        recs = [{"id": "u", "dim": 0}, {"id": "v", "dim": 0},
                {"id": "e", "dim": 1, "facets": ["u", "v"], key: ids}]
        with pytest.raises(DescriptorInvalid) as info:
            S.new_complex(recs)
        assert str(info.value) == \
            f"face 'e' field {key!r} must be a list of face ids, got {ids!r}"

    @pytest.mark.parametrize("key", ["facets", "delta_order"])
    @pytest.mark.parametrize("later", [
        {"id": "e", "dim": 1}, {"id": "w", "dim": -1}, {"id": ""}, 7,
        {"id": "w", "dim": 0, "level": 0}, {"id": "w", "dim": 0, "facets": "u"}])
    def test_id_list_fault_comes_first_in_record_order(self, key, later):
        # the ids are checked to be strings after the whole pass; a fault
        # found there is still named before a bad level in its own record
        # and before any fault of a later record
        ids = ["u", 1]
        recs = [{"id": "u", "dim": 0, "level": 1}, {"id": "v", "dim": 0, "level": 1},
                {"id": "e", "dim": 1, "facets": ["u", "v"], key: ids, "level": 0},
                later]
        clean = recs[:2] + [{**recs[2], "level": 1}, {"id": "w", "dim": 0, "level": 1}]
        for bad in (recs, clean):
            with pytest.raises(DescriptorInvalid) as info:
                S.new_complex(bad)
            assert str(info.value) == \
                f"face 'e' field {key!r} must be a list of face ids, got {ids!r}"
        with pytest.raises(LevelNotDownwardClosed) as info:
            S.new_complex(recs[:2] + [{**recs[2], key: ["u", "v"]}])
        assert str(info.value) == "face 'e' has invalid level 0; levels start at 1"

    def test_grading_violation(self):
        recs = [{"id": "v", "dim": 0, "facets": []},
                {"id": "t", "dim": 2, "facets": ["v"]}]
        with pytest.raises(GradingViolation):
            S.new_complex(recs)

    @pytest.mark.parametrize("facet, error, message", [
        ("ghost", DanglingFace, "face 'v' covers unknown face 'ghost'"),
        ("w", GradingViolation, "face 'v' (dim 0) covers 'w' of dim 0")])
    def test_vertex_with_facets(self, facet, error, message):
        # a vertex's facet is unknown or not of dimension -1, so these two
        # are the only errors a vertex that covers faces can get
        recs = [{"id": "w", "dim": 0}, {"id": "v", "dim": 0, "facets": [facet]}]
        with pytest.raises(error) as info:
            S.new_complex(recs)
        assert str(info.value) == message

    def test_positive_dim_needs_facets(self):
        with pytest.raises(GradingViolation):
            S.new_complex([{"id": "e", "dim": 1, "facets": []}])

    def test_level_downward_closure(self):
        recs = [{"id": "a", "dim": 0, "facets": [], "level": 2},
                {"id": "b", "dim": 0, "facets": [], "level": 1},
                {"id": "e", "dim": 1, "facets": ["a", "b"],
                 "delta_order": ["b", "a"], "level": 1}]
        with pytest.raises(LevelNotDownwardClosed):
            S.new_complex(recs)

    def test_duplicate_and_malformed_ids(self):
        from sncx.errors import DuplicateFace
        with pytest.raises(DuplicateFace):
            S.new_complex([{"id": "v", "dim": 0, "facets": []},
                           {"id": "v", "dim": 0, "facets": []}])
        with pytest.raises(DuplicateFace):
            S.new_complex([{"id": "", "dim": 0, "facets": []}])
        with pytest.raises(GradingViolation):
            S.new_complex([{"id": "v", "dim": -1, "facets": []}])
        with pytest.raises(LevelNotDownwardClosed):
            S.new_complex([{"id": "v", "dim": 0, "facets": [], "level": 0}])

    def test_relabel_must_be_bijective(self):
        from sncx.errors import DuplicateFace
        tri = G.triangle_boundary()
        with pytest.raises(DuplicateFace):
            tri.relabeled({"v0": "v1"})

    def test_subface_bounds(self):
        from sncx.errors import NoSuchFace
        tri = G.triangle_boundary()
        with pytest.raises(NoSuchFace):
            tri.subface("e0", [])
        with pytest.raises(NoSuchFace):
            tri.subface("e0", [0, 5])

    def test_join_requires_delta(self):
        from sncx.errors import MissingDeltaStructure
        poset = S.new_complex([
            {"id": "a", "dim": 0, "facets": []},
            {"id": "b", "dim": 0, "facets": []},
            {"id": "e", "dim": 1, "facets": ["a", "b"]}])
        with pytest.raises(MissingDeltaStructure):
            S.join(poset, G.point_complex())

    def test_wedge_of_filtered_complexes(self):
        import random as _r
        from conftest import with_random_levels
        rng = _r.Random(3)
        a = with_random_levels(rng, G.triangle_boundary())
        b = with_random_levels(rng, G.triangle_boundary())
        w = S.wedge(a, "v0", b, "v0")
        assert w.has_levels
        assert w.f_vector() == (5, 6)

    def test_facet_identity_checked(self):
        # a 2-face whose delta lists scramble the shared vertices
        recs = [
            {"id": v, "dim": 0, "facets": []} for v in "abc"
        ] + [
            {"id": "ab", "dim": 1, "facets": ["a", "b"], "delta_order": ["b", "a"]},
            {"id": "bc", "dim": 1, "facets": ["b", "c"], "delta_order": ["c", "b"]},
            {"id": "ac", "dim": 1, "facets": ["a", "c"], "delta_order": ["c", "a"]},
            {"id": "t", "dim": 2, "facets": ["ab", "bc", "ac"],
             "delta_order": ["ab", "bc", "ac"]},
        ]
        with pytest.raises(BadDeltaStructure):
            S.new_complex(recs)


class TestRegularCW:
    @staticmethod
    def poset(recs):
        return S.new_complex([{"id": f, "dim": d, "facets": list(fs)}
                              for f, d, fs in recs])

    def test_loop_edge_rejected(self):
        # f-vector chi = 0 but the order complex is a point (chi = 1)
        with pytest.raises(NotRegularCW, match="'e'"):
            self.poset([("v", 0, ()), ("e", 1, ("v",))])

    def test_edge_on_three_vertices_rejected(self):
        with pytest.raises(NotRegularCW):
            self.poset([("a", 0, ()), ("b", 0, ()), ("c", 0, ()),
                        ("e", 1, ("a", "b", "c"))])

    def test_two_cell_on_a_path_rejected(self):
        with pytest.raises(NotRegularCW, match="'t'"):
            self.poset([("a", 0, ()), ("b", 0, ()), ("c", 0, ()),
                        ("ab", 1, ("a", "b")), ("bc", 1, ("b", "c")),
                        ("t", 2, ("ab", "bc"))])

    def test_two_cell_on_a_figure_eight_rejected(self):
        verts = [(v, 0, ()) for v in "abcde"]
        edges = [(x + y, 1, (x, y))
                 for x, y in ("ab", "bc", "ac", "cd", "de", "ce")]
        with pytest.raises(NotRegularCW):
            self.poset(verts + edges
                       + [("t", 2, tuple(e for e, _d, _f in edges))])

    def test_two_cell_on_two_circles_rejected(self):
        # every vertex lies on two of its edges, but the walk from the
        # first edge closes after three of the six
        verts = [(v, 0, ()) for v in "abcdef"]
        edges = [(x + y, 1, (x, y))
                 for x, y in ("ab", "bc", "ac", "de", "ef", "df")]
        recs = verts + edges + [("t", 2, tuple(e for e, _d, _f in edges))]
        with pytest.raises(NotRegularCW) as info:
            self.poset(recs)
        assert str(info.value) == "the edges of face 't' do not form one cycle"
        with pytest.raises(NotRegularCW, match=str(info.value)):
            phased_reader([{"id": f, "dim": d, "facets": list(fs)}
                           for f, d, fs in recs])

    def test_bigon_disk_accepted(self):
        c = self.poset([("a", 0, ()), ("b", 0, ()),
                        ("e0", 1, ("a", "b")), ("e1", 1, ("a", "b")),
                        ("t", 2, ("e0", "e1"))])
        assert not c.has_delta
        assert S.homology(c, reduced=True).nonzero() == ()

    def test_euler_poincare_guard(self):
        # a 3-cell on the projective plane: dimensions 1 and 2 pass, but
        # the open interval below the 3-cell is no sphere
        rp2 = G.real_projective_plane()
        recs = without_delta(rp2).to_records()
        recs.append({"id": "ball", "dim": 3,
                     "facets": list(rp2.faces_of_dim(2))})
        c = S.new_complex(recs)
        assert c.euler_characteristic() == 0
        with pytest.raises(NotRegularCW, match="Euler characteristic 1"):
            S.homology(c)
        with pytest.raises(NotRegularCW):
            S.homology(c, reduced=True)

    # cells the Euler-Poincare guard lets through: the order complex
    # route answers them, the incidence numbers cannot be chosen

    @staticmethod
    def rp2_records(tag):
        rp2 = without_delta(G.real_projective_plane())
        return [{"id": tag + f, "dim": rp2.dim(f),
                 "facets": [tag + g for g in rp2.facets(f)]}
                for f in rp2.face_ids], [tag + f for f in rp2.faces_of_dim(2)]

    @staticmethod
    def bigons(tag, n):
        """Two vertices, two edges between them, and n bigons on those."""
        return [(tag + "a", 0, ()), (tag + "b", 0, ()),
                (tag + "e0", 1, (tag + "a", tag + "b")),
                (tag + "e1", 1, (tag + "a", tag + "b"))] + \
            [(f"{tag}t{i}", 2, (tag + "e0", tag + "e1")) for i in range(n)]

    @staticmethod
    def assert_guard_passes(c):
        assert c.order_complex().euler_characteristic() == \
            c.euler_characteristic()
        order_complex_homology(c)

    def test_incidence_signs_that_do_not_close_rejected(self):
        # a 3-cell on two disjoint projective planes: chi 2, as a 2-sphere
        left, left2 = self.rp2_records("p")
        right, right2 = self.rp2_records("q")
        c = S.new_complex(left + right + [
            {"id": "ball", "dim": 3, "facets": left2 + right2}])
        self.assert_guard_passes(c)
        for reduced in (False, True):
            with pytest.raises(NotRegularCW, match="signs of cell 'ball' do "
                               "not close at ridge"):
                S.homology(c, reduced)

    def test_facets_not_connected_through_ridges_rejected(self):
        # a 3-cell on a 2-sphere (two bigons) and a disjoint 3 x 3 torus
        n = 3

        def v(i, j):
            return f"v{i % n}{j % n}"

        torus = [(v(i, j), 0, ()) for i in range(n) for j in range(n)]
        torus += [(f"h{i}{j}", 1, (v(i, j), v(i, j + 1)))
                  for i in range(n) for j in range(n)]
        torus += [(f"w{i}{j}", 1, (v(i, j), v(i + 1, j)))
                  for i in range(n) for j in range(n)]
        squares = [f"s{i}{j}" for i in range(n) for j in range(n)]
        torus += [(f"s{i}{j}", 2, (f"h{i}{j}", f"h{(i + 1) % n}{j}",
                                   f"w{i}{j}", f"w{i}{(j + 1) % n}"))
                  for i in range(n) for j in range(n)]
        c = self.poset(self.bigons("x", 2) + torus
                       + [("ball", 3, ["xt0", "xt1"] + squares)])
        self.assert_guard_passes(c)
        with pytest.raises(NotRegularCW, match="facets of cell 'ball' are "
                           "not connected through ridges"):
            S.homology(c)

    def test_ridge_in_other_than_two_facets_rejected(self):
        # a 3-cell on three bigons sharing their two edges (chi 3) and one
        # on a single bigon (a disk, chi 1): the excess and the deficit
        # cancel in the Euler characteristic
        # B1 is checked first, on either side of the pair
        for theta, disk, count in (("B1", "B2", 3), ("B2", "B1", 1)):
            c = self.poset(self.bigons("", 3) + [(theta, 3, ("t0", "t1", "t2")),
                                                 (disk, 3, ("t0",))])
            self.assert_guard_passes(c)
            with pytest.raises(NotRegularCW, match=f"ridge 'e0' lies in {count} "
                               "facets of cell 'B1', wants 2"):
                S.homology(c)


class TestBoundaryWalk:
    def assert_circle(self, c, f):
        steps = c.boundary_walk(f)
        assert sorted(e for _v, e in steps) == sorted(c.facets(f))
        assert steps[0] == (c.facets(c.facets(f)[0])[0], c.facets(f)[0])
        for i, (v, e) in enumerate(steps):
            w = steps[(i + 1) % len(steps)][0]
            assert v != w and {v, w} == set(c.facets(e))
        return steps

    def test_triangle(self):
        c = G.full_simplex(2)
        steps = self.assert_circle(c, c.faces_of_dim(2)[0])
        assert len(steps) == 3

    def test_bigon(self):
        c = TestRegularCW.poset([("a", 0, ()), ("b", 0, ()),
                                 ("e0", 1, ("a", "b")), ("e1", 1, ("a", "b")),
                                 ("t", 2, ("e0", "e1"))])
        assert self.assert_circle(c, "t") == (("a", "e0"), ("b", "e1"))

    def test_square(self):
        # edges listed out of cyclic order; the walk still goes round
        c = TestRegularCW.poset(
            [(v, 0, ()) for v in "abcd"]
            + [("ab", 1, ("a", "b")), ("cd", 1, ("c", "d")),
               ("bc", 1, ("b", "c")), ("ad", 1, ("a", "d")),
               ("q", 2, ("ab", "cd", "bc", "ad"))])
        steps = self.assert_circle(c, "q")
        assert [v for v, _e in steps] == ["a", "b", "c", "d"]

    def test_not_a_two_face(self):
        with pytest.raises(ValueError):
            G.full_simplex(2).boundary_walk("0")

    def test_walk_agrees_with_the_frozen_walk(self):
        # every 2-cell of random complexes and posets read from records,
        # and of their cones, puckers, skeleta and subdivisions
        rng = random.Random(2603)
        walks = moved = 0
        for c in reader_sources(rng, 40):
            outs = [c]
            if c.dimension >= 2:
                top = [f for f in c.face_ids if c.is_maximal(f)]
                outs += [S.cone(c, "a"), S.pucker(c, rng.choice(top), 2),
                         c.skeleton(2)]
                if c.has_delta:
                    outs.append(S.stellar_subdivide(c, rng.choice(c.faces_of_dim(1))))
            for i, out in enumerate(outs):
                for f in out.faces_of_dim(2):
                    assert out.boundary_walk(f) == dict_boundary_walk(out, f)
                    walks += 1
                    moved += i > 0
        assert walks > 600 and moved > 400, (walks, moved)


class TestBasicOps:
    def test_euler(self):
        assert S.euler_characteristic(G.triangle_boundary()) == 0
        assert S.euler_characteristic(G.octahedron_boundary()) == 2
        assert S.euler_characteristic(G.multi_edge_complex(4)) == -2
        assert S.euler_characteristic(S.CombinatorialComplex([])) == 0

    def test_f_vector_agrees_with_counting(self):
        # the f-vector cut from the dimension-major canonical order, and the
        # Euler characteristic summed from it, against counting every face
        rng = random.Random(2323)
        fixtures = [S.CombinatorialComplex([]), G.point_complex(),
                    G.multi_edge_complex(3), G.real_projective_plane(),
                    without_delta(G.octahedron_boundary())]
        while len(fixtures) < 80:
            c = random_simplicial_complex(rng, max_verts=7, max_facets=5, max_dim=3)
            if rng.random() < 0.5:
                c = with_random_levels(rng, c)
                c = c.level_subcomplex(rng.randint(0, c.max_level()))
            if c.face_ids and rng.random() < 0.5:
                c = S.stellar_subdivide(c, rng.choice(c.face_ids))
            fixtures += [c, c.skeleton(rng.randint(-1, 2))]
        for c in fixtures:
            assert (c.f_vector(), c.euler_characteristic()) == counting_f_vector(c)
        assert S.CombinatorialComplex([]).f_vector() == ()

    def test_components(self):
        tri = G.triangle_boundary()
        both = S.disjoint_union(tri, G.point_complex())
        assert len(both.connected_components()) == 2
        assert len(tri.connected_components()) == 1
        assert S.CombinatorialComplex([]).connected_components() == ()

    def test_skeleton_counts(self):
        k4 = S.skeleton(G.full_simplex(3), 1)
        assert k4.f_vector() == (4, 6)

    def test_skeleton_identity(self):
        tri = G.triangle_boundary()
        assert S.skeleton(tri, tri.dimension) == tri

    def test_skeleton_low_degree_homology(self):
        full = G.full_simplex(4)
        for k in range(1, 4):
            sk = S.skeleton(full, k)
            hk = S.homology(sk)
            hf = S.homology(full)
            for d in range(k):
                assert hk.betti(d) == hf.betti(d)
                assert hk.torsion(d) == hf.torsion(d)


class TestConeJoin:
    def test_cone_counts_and_containment(self):
        tri = G.triangle_boundary()
        c = S.cone(tri)
        assert c.f_vector() == (4, 6, 3)
        for f in tri.face_ids:
            assert f in c.face_ids

    def test_cone_acyclic(self):
        for c in (G.triangle_boundary(), G.multi_edge_complex(3),
                  G.octahedron_boundary(), G.point_complex()):
            h = S.homology(S.cone(c), reduced=True)
            assert all(b == 0 for _d, b, _t in h.table)
            assert not h.has_torsion()

    def test_cone_of_empty_is_point(self):
        c = S.cone(S.CombinatorialComplex([]))
        assert c.f_vector() == (1,)

    def test_join_of_point_pairs(self):
        j = S.join(G.two_point_sphere("0"), G.two_point_sphere("1"))
        assert j.f_vector() == (4, 4)

    def test_join_octahedron(self):
        j = S.join(G.two_point_sphere("0"),
                   S.join(G.two_point_sphere("1"), G.two_point_sphere("2")))
        assert j.f_vector() == (6, 12, 8)

    def test_join_f_vector_convolution(self):
        a = G.triangle_boundary()
        b = G.multi_edge_complex(2)
        j = S.join(a, b)
        fa, fb = a.f_vector(), b.f_vector()
        fj = j.f_vector()
        for k in range(len(fj)):
            total = 0
            if k < len(fa):
                total += fa[k]
            if k < len(fb):
                total += fb[k]
            for i in range(k):
                jdx = k - 1 - i
                if i < len(fa) and jdx < len(fb):
                    total += fa[i] * fb[jdx]
            assert fj[k] == total

    def test_join_betti_identity(self):
        pairs = [(G.triangle_boundary(), G.multi_edge_complex(2)),
                 (G.two_point_sphere(), G.triangle_boundary()),
                 (G.multi_edge_complex(3), G.multi_edge_complex(4))]
        for a, b in pairs:
            ha = S.homology(a, reduced=True)
            hb = S.homology(b, reduced=True)
            hj = S.homology(S.join(a, b), reduced=True)
            top = a.dimension + b.dimension + 2
            for k in range(top + 1):
                lhs = hj.betti(k)
                rhs = sum(ha.betti(i) * hb.betti(k - 1 - i)
                          for i in range(-1, k + 1))
                assert lhs == rhs, (k, lhs, rhs)


class TestUnionWedge:
    def test_wedge_counts(self):
        w = S.wedge(G.triangle_boundary(), "v0", G.triangle_boundary(), "v0")
        assert w.f_vector() == (5, 6)
        assert S.homology(w).betti(1) == 2

    def test_disjoint_union_counts(self):
        u = S.disjoint_union(G.point_complex(), G.triangle_boundary())
        assert u.f_vector() == (4, 3)
        assert len(u.connected_components()) == 2

    def test_wedge_not_a_vertex(self):
        tri = G.triangle_boundary()
        with pytest.raises(NotAVertex):
            S.wedge(tri, "e0", tri, "v0")


class TestOrderComplex:
    def test_interval(self):
        oc = S.order_complex(G.interval())
        assert oc.f_vector() == (3, 2)

    def test_triangle_hexagon(self):
        oc = S.order_complex(G.triangle_boundary())
        assert oc.f_vector() == (6, 6)

    def test_multi_edge(self):
        oc = S.order_complex(G.multi_edge_complex(4))
        assert oc.f_vector() == (6, 8)

    def test_homology_preserved_exactly(self):
        for c in (G.triangle_boundary(), G.multi_edge_complex(4),
                  G.octahedron_boundary(), G.real_projective_plane()):
            h1 = S.homology(c)
            h2 = S.homology(S.order_complex(c))
            assert h1.table == h2.table


def with_poset_levels(rng, c):
    """``c`` filtered by random vertex levels, without needing a Delta
    structure: a face's level is the largest of its vertices'."""
    vlevel = {v: rng.randint(1, 3) for v in c.faces_of_dim(0)}
    recs = []
    for f in c.face_ids:
        rec = c._record(f)
        rec["level"] = max(vlevel[v] for v in c.downset(f) if c.dim(v) == 0)
        recs.append(rec)
    return S.CombinatorialComplex(recs)


class TestOrderComplexAgreement:
    """The one chain enumeration and simplex assembler against the order
    complex that wrote its own chain frontier and records."""

    @staticmethod
    def agree(c):
        got = c.order_complex()
        want = frontier_order_complex(c)
        assert_same_complex(got, want)
        assert dumps_complex(got) == dumps_complex(want)

    def test_delta_complexes_filtered_and_not(self):
        rng = random.Random(150)
        for _ in range(40):
            c = random_simplicial_complex(rng, max_verts=8, max_dim=3)
            self.agree(c)
            self.agree(with_random_levels(rng, c))

    def test_posets_without_delta(self):
        rng = random.Random(151)
        oct_ = G.octahedron_boundary()
        s3 = G.cross_polytope_boundary(4)
        cases = [S.CombinatorialComplex([]), G.point_complex(), G.multi_edge_complex(4),
                 G.real_projective_plane(),
                 oct_.quotient_free_involution(G.antipodal_involution(oct_)),
                 s3.quotient_free_involution(G.antipodal_involution(s3))]
        cases += [S.toric_link(polygon_cone_fan(4)), S.toric_link(polygon_cone_fan(5))]
        for _ in range(15):
            support = random_support(rng, max_points=10)
            cases.append(S.resolution_complex(S.newton_polyhedron(support)))
        for _ in range(6):
            polytope = random_lattice_polytope(rng, 3)
            cases.append(S.torus_hypersurface_boundary_complex(polytope.points))
        for _ in range(10):
            c = without_delta(random_simplicial_complex(rng, max_verts=7, max_dim=3))
            cases += [c, with_poset_levels(rng, c)]
        assert sum(not c.has_delta and c.dimension >= 1 for c in cases) >= 25
        for c in cases:
            self.agree(c)


def assembly(c):
    """The canonical order, its index and dimension starts, and the
    numbering of ``c`` with every column, for comparing build routes."""
    ids, below, above, live, labels, levels, verts = c._num
    return (c._order, c._index, c._starts, c._is_delta,
            (ids, below, above, list(live), list(labels), levels, verts))


def assembled(build, *args):
    """``build(*args)`` as its assembly, or the class and message it raised."""
    try:
        return assembly(build(*args))
    except SncxError as exc:
        return type(exc), str(exc)


@pytest.fixture
def no_records(monkeypatch):
    """The simplicial builders may not fall back to writing records."""
    def refuse(*args):
        raise AssertionError("the assembler fell back to records")

    monkeypatch.setattr(C, "_simplex_records", refuse)


@pytest.fixture
def fallbacks(monkeypatch):
    """The number of times the assembler fell back to records."""
    calls = []
    real = C._simplex_records

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(C, "_simplex_records", counted)
    return calls


def poset_chains(c):
    return _chains(c.face_ids, {f: c.downset(f)[:-1] for f in c.face_ids}.__getitem__)


def chain_level(c):
    # the level of a chain as the record route wrote it: its largest
    return None if not c.has_levels else lambda ch: max(map(c.level, ch))


class TestSimplexAssembler:
    """The four simplicial builders assemble their complexes from vertex
    tuples; the constructor on the same tuples' records is the oracle, on
    every map and the numbering, and it still names every fault."""

    def test_random_subset_families(self, no_records):
        rng = random.Random(160)
        for _ in range(60):
            family = (random_subset_closed(rng, ground=rng.randint(2, 6)) if _ % 2
                      else bounded_family(rng, rng.randint(2, 14)))
            want = assembly(record_route_simplices(keyed_by_size(family), ".".join))
            assert assembly(_from_simplices(_by_size(family), ".".join)) == want
            assert assembly(S.simplicial_complex_from_subsets(family)) == want

    def test_order_complexes(self, no_records):
        rng = random.Random(161)
        cases = [G.point_complex(), G.multi_edge_complex(3), G.real_projective_plane(),
                 G.octahedron_boundary().order_complex(),
                 S.toric_link(polygon_cone_fan(5))]
        for _ in range(20):
            c = random_simplicial_complex(rng, max_verts=8, max_dim=3)
            p = without_delta(random_simplicial_complex(rng, max_verts=7, max_dim=3))
            cases += [c, with_random_levels(rng, c), p, with_poset_levels(rng, p)]
        assert sum(c.has_levels for c in cases) >= 40
        assert sum(not c.has_delta for c in cases) >= 30
        for c in cases:
            want = record_route_simplices(poset_chains(c), "<".join, chain_level(c))
            assert assembly(c.order_complex()) == assembly(want)

    def test_simplicial_fans(self, no_records):
        fans = [G.product_of_lines_fan(n) for n in range(1, 5)]
        fans += [G.projective_space_fan(n) for n in range(1, 5)]
        rng = random.Random(162)
        while len(fans) < 40:
            fan = random_fan(rng)
            if all(fan.is_simplicial_cone(c) for c in fan.cones):
                fans.append(fan)
        for fan in fans:
            cones = {frozenset(s) for c in fan.cones for k in range(1, len(c) + 1)
                     for s in itertools.combinations(sorted(c), k)}
            want = record_route_simplices(keyed_by_size(cones), "-".join)
            assert assembly(S.toric_link(fan)) == assembly(want)

    def test_realize_inputs(self, no_records):
        # the chains enumerated apart, through the subsets below each one
        rng = random.Random(163)
        for _ in range(40):
            sets = (random_subset_closed(rng, ground=rng.randint(2, 5)) if _ % 2
                    else bounded_family(rng, rng.randint(2, 14)))
            chains = [tuple(map(_frozen_subset_id, ch)) for ch in _all_chains(sets)]
            got, _script = S.realize_boundary([sorted(f) for f in sets], 14)
            assert assembly(got) == assembly(record_route_simplices(chains, "<".join))

    def test_by_size_order(self):
        rng = random.Random(164)
        for _ in range(60):
            family = [rng.sample(range(14), rng.randint(0, 4)) for _ in range(rng.randint(0, 12))]
            family += [list(f) for f in family[:2]]
            assert _by_size(family) == keyed_by_size(family)
        words = [["b", "a"], ["a"], ["c", "a", "b"], ["b"], ["a", "b"]]
        assert _by_size(words) == keyed_by_size(words)

    def test_colliding_chain_ids(self, fallbacks):
        # the chain (a, b) and the face "a<b" both take the id "a<b"
        c = S.CombinatorialComplex([
            {"id": "a", "dim": 0, "facets": []}, {"id": "c", "dim": 0, "facets": []},
            {"id": "x", "dim": 0, "facets": []},
            {"id": "b", "dim": 1, "facets": ["a", "c"]},
            {"id": "a<b", "dim": 1, "facets": ["a", "x"]}])
        want = assembled(record_route_simplices, poset_chains(c), "<".join)
        assert want == (DuplicateFace, "duplicate face id 'a<b'")
        assert assembled(c.order_complex) == want
        assert len(fallbacks) == 1

    def test_family_not_closed_under_subsets(self, fallbacks):
        for family in ([[0], [0, 1]], [[0], [1], [2], [0, 1, 2]],
                       [[3], [3, 4], [10], [3, 10]]):
            want = assembled(record_route_simplices, keyed_by_size(family), ".".join)
            assert want[0] is DanglingFace
            assert assembled(S.simplicial_complex_from_subsets, family) == want
        assert len(fallbacks) == 3

    def test_vertices_whose_str_repeats(self, fallbacks):
        class Tagged:
            # distinct, ordered vertices that all print as "x"
            def __init__(self, k):
                self.k = k

            def __lt__(self, other):
                return self.k < other.k

            def __str__(self):
                return "x"

        a, b = Tagged(0), Tagged(1)
        family = [[a], [b], [a, b]]
        want = assembled(record_route_simplices, keyed_by_size(family), ".".join)
        assert want == (DuplicateFace, "duplicate face id 'x'")
        assert assembled(S.simplicial_complex_from_subsets, family) == want
        # one vertex twice in a tuple, every id distinct
        tuples = [("x",), ("x", "x")]
        want = assembled(record_route_simplices, tuples, ".".join)
        assert want[0] is BadDeltaStructure
        assert assembled(_from_simplices, tuples, ".".join) == want
        assert len(fallbacks) == 2

    def test_fan_cone_listed_without_its_faces(self, fallbacks):
        # the link takes a simplicial cone's faces as listed; the tuples
        # of the listed cones alone are not closed
        fan = S.Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (frozenset({0, 1, 2}),))
        listed = [("0", "1", "2")]
        want = assembled(record_route_simplices, listed, "-".join)
        assert want == (DanglingFace, "face '0-1-2' covers unknown face '1-2'")
        assert assembled(_from_simplices, listed, "-".join) == want
        closure = keyed_by_size(itertools.chain.from_iterable(
            itertools.combinations(range(3), k) for k in (1, 2, 3)))
        assert assembly(S.toric_link(fan)) == \
            assembly(record_route_simplices(closure, "-".join))
        assert len(fallbacks) == 1

    def test_every_check_falls_back(self, fallbacks):
        # the empty list, an empty id, a name that is not injective, a
        # missing facet, a repeated vertex, a vertex not named by itself
        cases = [([], ".".join), ([("",)], ".".join), ([(), ("a",)], ".".join),
                 ([("a",), ("b",), ("a", "b"), ("ab",)], "".join),
                 ([("a",), ("a", "b")], ".".join), ([("a",), ("a", "a")], ".".join),
                 ([("a",), ("b",), ("a", "b")], lambda t: "v" + "<".join(t))]
        for tuples, name in cases:
            assert assembled(_from_simplices, tuples, name) == \
                assembled(record_route_simplices, tuples, name)
        assert len(fallbacks) == len(cases)

    def test_empty_set_is_not_a_face(self):
        for family in ([[1], [2], [1, 2], []], [[]], [(), (0,)]):
            with pytest.raises(NotSubsetClosed) as exc:
                S.simplicial_complex_from_subsets(family)
            assert str(exc.value) == "the empty set is not a face"


class TestQuotient:
    def test_octahedron_antipodal(self):
        oct_ = G.octahedron_boundary()
        q = oct_.quotient_free_involution(G.antipodal_involution(oct_))
        assert q.f_vector() == (3, 6, 4)
        assert q.euler_characteristic() == 1

    def test_halves_f_vector(self):
        oct_ = G.octahedron_boundary()
        q = oct_.quotient_free_involution(G.antipodal_involution(oct_))
        assert tuple(2 * x for x in q.f_vector()) == oct_.f_vector()

    def test_four_cycle_antipodal(self):
        c4 = G.cycle_complex(4)
        phi = {"v0": "v2", "v2": "v0", "v1": "v3", "v3": "v1",
               "e0": "e2", "e2": "e0", "e1": "e3", "e3": "e1"}
        q = c4.quotient_free_involution(phi)
        assert q.f_vector() == (2, 2)
        assert q.euler_characteristic() == 0

    def test_fixed_face_rejected(self):
        c4 = G.cycle_complex(4)
        phi = {"v0": "v0", "v2": "v2", "v1": "v3", "v3": "v1",
               "e0": "e2", "e2": "e0", "e1": "e3", "e3": "e1"}
        with pytest.raises(HasFixedFace):
            c4.quotient_free_involution(phi)

    def test_non_involution_rejected(self):
        c4 = G.cycle_complex(4)
        phi = {"v0": "v1", "v1": "v2", "v2": "v3", "v3": "v0",
               "e0": "e2", "e2": "e0", "e1": "e3", "e3": "e1"}
        with pytest.raises(NotInvolution):
            c4.quotient_free_involution(phi)

    def test_collapsing_quotient_rejected(self):
        c = G.multi_edge_complex(2)
        phi = {"u": "w", "w": "u", "e0": "e1", "e1": "e0"}
        with pytest.raises(QuotientNotRegular):
            c.quotient_free_involution(phi)


class TestFiltration:
    def test_level_subcomplex(self):
        c = filtered_triangle_with_pendant()
        assert c.level_subcomplex(2) == c
        assert c.level_subcomplex(1).f_vector() == (3, 3)
        assert c.level_subcomplex(0).is_empty

    def test_no_filtration(self):
        with pytest.raises(NoFiltration):
            G.triangle_boundary().level_subcomplex(1)

    def test_restrictions_equal_the_constructors_output(self):
        # skeleta and level subcomplexes filter the parent without a record
        # round trip; the constructor builds the same complex from their
        # records, also where a poset's restriction is a set of points
        rng = random.Random(404)
        inputs = [filtered_triangle_with_pendant(), S.CombinatorialComplex([])]
        for _ in range(30):
            c = random_simplicial_complex(rng, max_verts=6, max_facets=4, max_dim=3)
            inputs += [c, without_delta(c), with_random_levels(rng, c),
                       without_delta(with_random_levels(rng, c))]
        for c in inputs:
            subs = [(c.skeleton(k), [f for f in c.face_ids if c.dim(f) <= k])
                    for k in range(-1, c.dimension + 2)]
            if c.has_levels:
                subs += [(c.level_subcomplex(m),
                          [f for f in c.face_ids if c.level(f) <= m])
                         for m in range(c.max_level() + 1)]
            for sub, kept in subs:
                assert_rebuilds(sub)
                assert_same_complex(
                    sub, validating_constructor([c._record(f) for f in kept]))
        assert not without_delta(G.triangle_boundary()).has_delta
        assert without_delta(G.triangle_boundary()).skeleton(0).has_delta


def agreement_inputs(seed, n):
    """Random Delta, non-Delta and filtered complexes, and a few posets."""
    rng = random.Random(seed)
    out = [filtered_triangle_with_pendant(), S.CombinatorialComplex([]),
           without_delta(G.cycle_complex(4)), without_delta(G.real_projective_plane())]
    for i in range(n):
        c = random_simplicial_complex(rng, max_verts=6, max_facets=4, max_dim=3)
        if i % 2:
            c = with_random_levels(rng, c)
        out.append(without_delta(c) if i % 4 >= 2 else c)
    return rng, out


class TestOneBuildRoutine:
    """The constructor and every move output agree with the validating
    constructor frozen in the oracles (the restrictions are checked in
    TestFiltration)."""

    def test_constructor(self):
        rng, inputs = agreement_inputs(909, 40)
        for c in inputs:
            recs = c.to_records()
            rng.shuffle(recs)
            assert_same_complex(S.CombinatorialComplex(recs),
                                validating_constructor(recs))

    def test_moves(self, monkeypatch):
        # every _derived call a move makes equals the oracle on the
        # survivors' records followed by the fresh ones
        derived = S.CombinatorialComplex._derived
        calls = []

        def checked(self, drop, fresh):
            got = derived(self, drop, fresh)
            assert_same_complex(got, derived_by_constructor(self, drop, fresh))
            calls.append(self.has_delta)
            return got

        monkeypatch.setattr(S.CombinatorialComplex, "_derived", checked)
        rng, inputs = agreement_inputs(911, 40)
        flows = 0
        for c in inputs:
            assert_rebuilds(c.cone())
            assert_rebuilds(c.cone("0"))
            top = [f for f in c.face_ids if c.is_maximal(f)]
            for sigma in rng.sample(top, min(2, len(top))):
                assert_rebuilds(S.pucker(c, sigma, rng.randint(1, 3)))
            if not c.has_delta:
                continue
            for e in c.faces_of_dim(1)[:3]:
                try:
                    out, _m, _cert = S.morse_vertex_flow(c, *c.vertices_of(e))
                except S.SncxError:
                    continue
                assert_rebuilds(out)
                flows += 1
        assert flows > 20
        assert {True, False} <= set(calls)

    def test_fresh_faces_tie_on_dim_and_label(self):
        # fresh faces whose (dim, label) equals a survivor's and another
        # fresh face's go after the survivors they tie and in record order,
        # as the constructor orders them; the subdivided octahedra have
        # few fresh faces for their survivors, so binary search places them
        rng, inputs = agreement_inputs(913, 40)
        sd = G.octahedron_boundary().order_complex()
        inputs += [sd, with_random_levels(rng, sd), without_delta(sd),
                   sd.order_complex()]
        ties = 0
        for c in inputs:
            if c.is_empty:
                continue
            sigma = rng.choice(c.face_ids)
            drop = set(c.upset(sigma)) if rng.random() < 0.5 else set()
            kept = [f for f in c.face_ids if f not in drop]
            top = [f for f in kept if c.is_maximal(f)]
            fresh = []
            for i, v in enumerate(rng.sample(kept, min(3, len(kept)))
                                  + [c.face_ids[0]] * 2):
                if c.dim(v) == 0:
                    rec = {"id": f"new{i}", "dim": 0, "facets": [],
                           "label": c.label(v)}
                    if c.has_levels:
                        rec["level"] = rng.randint(1, 3)
                    fresh.append(rec)
            for i, t in enumerate(rng.sample(top, min(2, len(top))) * 2):
                fresh.append({**c._record(t), "id": f"copy{i}"})
            rng.shuffle(fresh)
            keys = [(r["dim"], r["label"]) for r in fresh]
            ties += len(keys) - len(set(keys))
            got = c._derived(drop, fresh)
            assert_same_complex(got, derived_by_constructor(c, drop, fresh))
            assert_rebuilds(got)
        assert ties > 40

    def test_wedge_agrees_with_two_step(self):
        rng, inputs = agreement_inputs(912, 30)
        inputs = [c for c in inputs if not c.is_empty]
        for _ in range(60):
            a, b = rng.choice(inputs), rng.choice(inputs)
            v1 = rng.choice(a.faces_of_dim(0))
            v2 = rng.choice(b.faces_of_dim(0))
            assert_same_complex(S.wedge(a, v1, b, v2), two_step_wedge(a, v1, b, v2))
        c = filtered_triangle_with_pendant()
        assert_same_complex(S.wedge(c, "v0", c, "v0"), two_step_wedge(c, "v0", c, "v0"))


def reader_sources(rng, n):
    """Complexes whose records the reader tests scramble and break: Delta
    complexes, some filtered, some as face posets, some with parallel
    top cells, and a subdivided octahedron and RP^2 as a face poset."""
    out = [G.octahedron_boundary().order_complex(),
           without_delta(G.real_projective_plane()), S.CombinatorialComplex([])]
    for i in range(n):
        c = random_simplicial_complex(rng, max_verts=6, max_facets=4, max_dim=3)
        if i % 3 == 1:
            c = with_random_levels(rng, c)
        if i % 5 == 0:
            c = S.pucker(c, c.face_ids[-1], 2)
        out.append(without_delta(c) if i % 4 >= 2 else c)
    return out


def scrambled(rng, c):
    """``c``'s records shuffled, each facet list shuffled and sometimes
    with a facet repeated, some labels set (tying often) or null."""
    recs = c.to_records()
    for rec in recs:
        rng.shuffle(rec["facets"])
        if rec["facets"] and rng.random() < 0.2:
            rec["facets"].append(rng.choice(rec["facets"]))
        u = rng.random()
        if u < 0.3:
            rec["label"] = rng.choice("ab")
        elif u < 0.4:
            rec["label"] = None
    rng.shuffle(recs)
    return recs


def read_outcome(build, recs):
    """The complex ``build`` reads from a copy of ``recs``, with its
    numbering, or the class and message of the error it raises."""
    try:
        c = build(copy.deepcopy(recs))
    except S.SncxError as exc:
        return type(exc), str(exc)
    return c, c._num


class TestFusedReader:
    """The constructor, whose checks run in one loop, against the reader
    that ran each check on every face before the next (frozen in the
    oracles): the same complex and numbering, or the same error."""

    def test_valid_documents(self):
        rng = random.Random(2601)
        seen = 0
        for c in reader_sources(rng, 60):
            for _ in range(3):
                recs = scrambled(rng, c)
                got, got_num = read_outcome(S.CombinatorialComplex, recs)
                want, want_num = read_outcome(phased_reader, recs)
                assert_same_complex(got, want)
                assert got_num == want_num
                seen += 1
        assert seen > 150

    def test_mutated_documents(self):
        rng = random.Random(2602)
        sources = [c for c in reader_sources(rng, 60) if not c.is_empty]
        errors = Counter()
        twice = 0
        for _ in range(1500):
            recs = scrambled(rng, rng.choice(sources))
            # one fault, or two of different kinds, often in different phases
            hit = [kind for kind in rng.sample(READER_FAULTS, rng.choice([1, 2]))
                   if break_record(rng, kind, recs)]
            if not hit:
                continue
            got = read_outcome(S.CombinatorialComplex, recs)
            want = read_outcome(phased_reader, recs)
            if isinstance(want[0], S.CombinatorialComplex):
                assert_same_complex(got[0], want[0])
                assert got[1] == want[1]
                continue
            assert got == want, (hit, recs)
            # the message with its ids, numbers and values taken out
            errors[re.sub(r"'[^']*'|\[.*\]|\(.*\)|-?\d+|\w+=", "", want[1])] += 1
            twice += len(hit) == 2
        assert len(errors) >= 20 and twice > 150, (errors, twice)

    def test_fault_names_repeated_vertices(self):
        # records cannot repeat a vertex without failing an earlier check,
        # so the last check of the fault reader runs on a vertex table made
        # to disagree with the edge e0 = [v0, v1], delta order (v1, v0)
        c = G.triangle_boundary()
        ids = {"e0": c.facets("e0")}, {"e0": c.delta_order("e0")}
        assert c._fault("e0", *ids) is None
        c._num[6][c._slot("v0")] = ("v1",)
        rank, err = c._fault("e0", *ids)
        assert (rank, type(err), str(err)) == (
            6, BadDeltaStructure, "face 'e0' has repeated vertices ('v1', 'v1')")


def outcome(build, *args):
    """The complex ``build`` returns, with its records, or the error it raises."""
    try:
        c = build(*args)
    except S.SncxError as exc:
        return type(exc), str(exc)
    return c, c.to_records(), c.has_delta, c.has_levels


def with_custom_labels(rng, c):
    """``c`` with some labels changed: to fresh names, and to the ids and
    labels of other faces."""
    names = list(c.face_ids) + [f"L{i}" for i in range(4)]
    recs = c.to_records()
    for rec in recs:
        if rng.random() < 0.4:
            rec["label"] = rng.choice(names)
    return S.CombinatorialComplex(recs)


def writer_inputs(seed, n):
    """The agreement inputs, some relabeled, with point sets and complexes
    whose ids collide with the ids a cone or an attachment proposes."""
    rng, out = agreement_inputs(seed, n)
    out = [with_custom_labels(rng, c) if i % 3 == 1 else c for i, c in enumerate(out)]
    points = S.disjoint_union(G.point_complex("a"), G.point_complex("b"))
    out += [points, with_random_levels(rng, points), without_delta(points),
            G.point_complex("c"), G.triangle_boundary().relabeled({"v1": "c"}),
            G.triangle_boundary().relabeled({"e0": "v0*c", "e1": "v2<n"}),
            G.triangle_boundary().relabeled({"v2": "n", "e2": "v0<n~2"}),
            filtered_triangle_with_pendant().relabeled({"w": "c", "p": "v0*c"})]
    return rng, out


def two_copies(faces, n, reverse):
    """The subset complex of ``faces`` (subsets of range(n)) beside its
    image under v -> v + n, or under v -> 2n - 1 - v with ``reverse``, and
    the involution swapping the two; the reversed image lists every Delta
    order the other way round, so no Delta order descends."""
    def sigma(v):
        return 2 * n - 1 - v if reverse else v + n

    u = S.simplicial_complex_from_subsets(
        list(faces) + [[sigma(v) for v in f] for f in faces])
    swap = {str(v): str(sigma(v)) for v in range(n)}
    swap.update({w: v for v, w in swap.items()})
    return u, S.face_map_from_vertex_bijection(u, swap)


class TestOneFaceWriter:
    """The re-emitter and the cone writer against the record writers each
    construction had before they were shared."""

    def test_to_records_reads_back(self):
        rng, inputs = writer_inputs(920, 40)
        for c in inputs:
            assert_rebuilds(c)
            for rec in c.to_records():
                assert rec.get("label") != rec["id"]
                assert ("delta_order" in rec) == (c.has_delta and rec["dim"] > 0)

    def test_cone(self):
        rng, inputs = writer_inputs(921, 40)
        for c in inputs:
            for apex in (None, "c", "0", "n", rng.choice(c.face_ids or ("q",))):
                got = outcome(c.cone, apex)
                assert got == outcome(record_writing_cone, c, apex)
                assert_rebuilds(got[0])

    def test_attached_cone(self):
        rng, inputs = writer_inputs(922, 40)
        above = 0
        for c in inputs:
            for _ in range(4):
                faces = rng.sample(c.face_ids, min(len(c.face_ids), rng.randint(0, 3)))
                closure = T._closure(c, faces)
                level = None
                if c.has_levels:
                    level = rng.randint(1, c.max_level() + 1)
                    above += all(c.level(g) < level for g in closure)
                nv = rng.choice(["n", "v0", "c", "b"])
                got = outcome(c._coned, closure, nv, "<", False, level)
                assert got == outcome(record_writing_attach_cone, c, closure, nv, level)
                move = S.BlowupMove(case="attach", attach=tuple(faces),
                                    new_vertex=nv, level=level)
                assert outcome(S.blowup_move, c, move) == got
                if c.has_levels:
                    move = S.BlowupMove(case="attach", attach=tuple(faces),
                                        new_vertex=nv)
                    assert outcome(S.blowup_move, c, move) == outcome(
                        record_writing_attach_cone, c, closure, nv, None)
        assert above > 20

    def test_relabeled(self):
        rng, inputs = writer_inputs(923, 40)
        refused = 0
        for c in inputs:
            ids = list(c.face_ids)
            for _ in range(4):
                mapping = {}
                for f in rng.sample(ids, min(len(ids), 3)):
                    mapping[f] = rng.choice(ids + [c.label(f), f"{f}'", "x"])
                got = outcome(c.relabeled, mapping)
                assert got == outcome(record_writing_relabeled, c, mapping)
                refused += len(got) == 2
            swap = dict(zip(ids, reversed(ids)))
            assert outcome(c.relabeled, swap) == outcome(record_writing_relabeled, c, swap)
        assert refused > 10

    def test_union_records(self):
        rng, inputs = writer_inputs(924, 30)
        for _ in range(80):
            a, b = rng.choice(inputs), rng.choice(inputs)
            rename = O._renaming(a, b)
            got = O._union_records(a, b, rename)
            want = record_writing_union_records(a, b, rename)
            assert outcome(S.CombinatorialComplex, got) == \
                outcome(S.CombinatorialComplex, want)
            assert outcome(S.disjoint_union, a, b) == \
                outcome(S.CombinatorialComplex, want)
            if a.is_empty or b.is_empty:
                continue
            v1, v2 = rng.choice(a.faces_of_dim(0)), rng.choice(b.faces_of_dim(0))
            assert outcome(S.wedge, a, v1, b, v2) == \
                outcome(two_step_wedge, a, v1, b, v2)

    def test_quotient(self):
        rng = random.Random(925)
        cases = []
        for i in range(30):
            n = rng.randint(2, 5)
            faces = random_subset_closed(rng, ground=n) if n > 2 else [[0], [1], [0, 1]]
            u, phi = two_copies(faces, n, reverse=i % 2 == 1)
            vlevel = {v: rng.randint(1, 3) for v in u.faces_of_dim(0)}
            if i % 3:
                vlevel.update({phi[v]: vlevel[v] for v in u.faces_of_dim(0)
                               if int(v) < n})
            recs = u.to_records()
            for rec in recs:
                rec["level"] = max(vlevel[v] for v in u.vertices_of(rec["id"]))
            for x in (u, S.CombinatorialComplex(recs)):
                cases += [(x, phi), (without_delta(x), phi),
                          (with_custom_labels(rng, x), phi)]
        for n in (3, 4):
            s = G.cross_polytope_boundary(n)
            cases.append((s, G.antipodal_involution(s)))
        c4 = G.cycle_complex(4)
        cases.append((c4, {"v0": "v2", "v2": "v0", "v1": "v3", "v3": "v1",
                           "e0": "e2", "e2": "e0", "e1": "e3", "e3": "e1"}))
        cases.append((G.multi_edge_complex(2),
                      {"u": "w", "w": "u", "e0": "e1", "e1": "e0"}))
        kept = Counter()
        for c, phi in cases:
            got = outcome(c.quotient_free_involution, phi)
            assert got == outcome(record_writing_quotient, c, phi)
            if len(got) == 4:
                kept[c.has_delta, got[2], c.has_levels, got[3]] += 1
        # Delta orders and levels both descend and are dropped
        assert kept[True, True, True, True] and kept[True, False, True, False]
        assert kept[True, True, False, False] and kept[False, False, True, True]


def scanned_cofaces(c, f):
    return tuple(g for g in c.face_ids if f in c.facets(g))


class TestCofaces:
    def test_mirror_of_facets(self):
        c = G.octahedron_boundary()
        for f in c.face_ids:
            assert c.cofaces(f) == scanned_cofaces(c, f)
            assert all(f in c.facets(g) for g in c.cofaces(f))
            assert c.is_maximal(f) == (c.dim(f) == 2)
        with pytest.raises(S.SncxError):
            c.cofaces("nope")
        with pytest.raises(S.SncxError):
            c.is_maximal("nope")

    def test_every_build_starts_without_a_table(self):
        # each parent's table is built before the complexes derived from it;
        # a table carried over would hold the parent's faces, or miss the
        # ones a move creates
        rng, inputs = agreement_inputs(915, 40)
        checked = 0
        for c in inputs:
            for f in c.face_ids:
                c.cofaces(f)
            outs = [c.skeleton(k) for k in range(-1, c.dimension + 1)]
            outs.append(c.cone())
            if c.has_levels:
                outs += [c.level_subcomplex(m) for m in range(c.max_level() + 1)]
            if c.is_empty:
                continue
            f = rng.choice(c.face_ids)
            outs.append(c._derived(set(c.upset(f)), ()))
            top = [g for g in c.face_ids if c.is_maximal(g)]
            outs.append(S.pucker(c, rng.choice(top), 2))
            if c.has_delta:
                outs.append(S.stellar_subdivide(c, f))
                vj = c.vertices_of(f)[0]
                move = S.BlowupMove(case=3, base=f, attach=(f,), vertex=vj,
                                    new_vertex="E*", level=c.max_level()
                                    if c.has_levels else None)
                outs.append(S.blowup_move(c, move))
                outs.append(S.morse_vertex_flow(outs[-1], "E*", vj)[0])
            for out in outs:
                assert all(out.cofaces(g) == scanned_cofaces(out, g)
                           for g in out.face_ids)
                checked += 1
        assert checked > 300

    def test_is_maximal_reads_the_table(self):
        # 5,186 faces: a scan of the whole poset per face took about 2 s
        c = G.octahedron_boundary().order_complex().order_complex().order_complex()
        start = time.perf_counter()
        top = [f for f in c.face_ids if c.is_maximal(f)]
        assert time.perf_counter() - start < 1.0
        assert top == list(c.faces_of_dim(2))


class TestRelabel:
    def test_relabel_isomorphic(self):
        tri = G.triangle_boundary()
        ren = tri.relabeled({"v0": "x", "e0": "y"})
        assert S.complexes_isomorphic(tri, ren)
        assert "x" in ren.face_ids

    def test_isomorphism_rejects_different(self):
        assert not S.complexes_isomorphic(G.triangle_boundary(),
                                          G.multi_edge_complex(3))
        assert not S.complexes_isomorphic(G.cycle_complex(4),
                                          G.multi_edge_complex(2))


def shuffled_copy(c, rng, keep_labels=True):
    """The complex under a random permutation of its ids and records."""
    ids = list(c.face_ids)
    perm = ids[:]
    rng.shuffle(perm)
    new = {f: "n" + g for f, g in zip(ids, perm)}
    recs = []
    for f in ids:
        rec = c._record(f)
        rec["id"] = new[f]
        rec["facets"] = [new[g] for g in rec["facets"]]
        if "delta_order" in rec:
            rec["delta_order"] = [new[g] for g in rec["delta_order"]]
        if not keep_labels:
            rec.pop("label", None)
        recs.append(rec)
    rng.shuffle(recs)
    return S.CombinatorialComplex(recs)


class TestIsomorphismSearch:
    def test_relabeled_long_cycle(self):
        # the search is one level per face: 1200 levels here
        a = G.cycle_complex(600)
        assert S.complexes_isomorphic(a, shuffled_copy(a, random.Random(3)))

    def test_label_free_cycle_is_fast(self):
        # labels do not follow the isomorphism: every wrong vertex choice
        # must fail at the next edge, not after all twelve vertices
        a = G.cycle_complex(12)
        b = shuffled_copy(a, random.Random(5), keep_labels=False)
        start = time.perf_counter()
        assert S.complexes_isomorphic(a, b)
        assert time.perf_counter() - start < 1.0

    def test_non_isomorphic_same_size(self):
        # a 599-cycle with a pendant edge: f-vector (600, 600) like the 600-cycle
        recs = [c._record(f) for c in [G.cycle_complex(599)] for f in c.face_ids]
        recs += [{"id": "v599", "dim": 0, "facets": []},
                 {"id": "e599", "dim": 1, "facets": ["v0", "v599"],
                  "delta_order": ["v599", "v0"]}]
        lollipop = S.CombinatorialComplex(recs)
        assert lollipop.f_vector() == G.cycle_complex(600).f_vector()
        assert not S.complexes_isomorphic(G.cycle_complex(600), lollipop)

    def test_agrees_with_recursive_oracle(self):
        rng = random.Random(29)
        for _ in range(60):
            a = random_simplicial_complex(rng)
            others = [shuffled_copy(a, rng, keep_labels=rng.random() < 0.5),
                      random_simplicial_complex(rng)]
            for b in others:
                assert S.complexes_isomorphic(a, b) == \
                    recursive_complexes_isomorphic(a, b)
        # without labels the first vertex assignment is wrong: backtracking
        cyc = G.cycle_complex(7)
        relabeled = shuffled_copy(cyc, random.Random(5), keep_labels=False)
        assert S.complexes_isomorphic(cyc, relabeled)
        for a, b in ((cyc, relabeled),
                     (G.triangle_boundary(), G.multi_edge_complex(3)),
                     (G.cycle_complex(4), G.multi_edge_complex(2)),
                     (G.cycle_complex(6), S.disjoint_union(G.cycle_complex(3),
                                                          G.cycle_complex(3)))):
            assert S.complexes_isomorphic(a, b) == \
                recursive_complexes_isomorphic(a, b)


def test_random_complexes_validate():
    rng = random.Random(7)
    for _ in range(25):
        c = random_simplicial_complex(rng)
        assert c.has_delta
        chi = c.euler_characteristic()
        h = S.homology(c)
        assert chi == sum((-1) ** d * b for d, b, _t in h.table)
