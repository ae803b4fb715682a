import json
import math
import random
import time
from itertools import combinations

import pytest

import sncx as S
from sncx import gallery as G
from sncx.errors import (
    DescriptorInvalid,
    MissingParent,
    NonPrimitiveRay,
    NotSubsetClosed,
    ParentIncoherent,
    SncxError,
)
from sncx.serialize import complex_from_dict, dumps_complex, script_to_list
from sncx.snc import antipodal_ray_map, fan_from_json, fan_ray_involution

from conftest import (
    bounded_family,
    polygon_cone_fan,
    random_fan,
    random_subset_closed,
)
from oracles import (
    all_cones_toric_link,
    record_writing_simplicial_toric_link,
    record_writing_subsets_complex,
    subset_complex_realize_boundary,
)


def coordinate_lines_strata(levels=None):
    lv = levels or {}
    comps = tuple(S.Component(f"L{i}", lv.get(f"L{i}")) for i in (1, 2, 3))
    strata = (S.Stratum((0, 1), "P12", {0: "L2", 1: "L1"}),
              S.Stratum((0, 2), "P13", {0: "L3", 2: "L1"}),
              S.Stratum((1, 2), "P23", {1: "L3", 2: "L2"}))
    return S.StrataDescription(comps, strata)


class TestDualComplex:
    def test_three_lines_triangle(self):
        dc = S.dual_complex(coordinate_lines_strata())
        assert dc.f_vector() == (3, 3)
        assert S.homology(dc).betti_vector() == (1, 1)
        assert dc.has_delta

    def test_conic_pair(self):
        desc = S.StrataDescription(
            (S.Component("C1"), S.Component("C2")),
            tuple(S.Stratum((0, 1), f"Q{i}", {0: "C2", 1: "C1"})
                  for i in range(4)))
        dc = S.dual_complex(desc)
        assert dc.f_vector() == (2, 4)
        assert S.homology(dc).betti_vector() == (1, 3)

    def test_single_component_point(self):
        dc = S.dual_complex(S.StrataDescription((S.Component("D"),), ()))
        assert dc.f_vector() == (1,)

    def test_vertex_set_cardinality(self):
        dc = S.dual_complex(coordinate_lines_strata())
        for f in dc.face_ids:
            assert len(set(dc.vertices_of(f))) == dc.dim(f) + 1

    def test_levels_inherited(self):
        desc = coordinate_lines_strata({"L1": 1, "L2": 1, "L3": 2})
        dc = S.dual_complex(desc)
        assert dc.level("P12") == 1
        assert dc.level("P13") == 2
        sub = dc.level_subcomplex(1)
        assert sub.f_vector() == (2, 1)

    def test_levels_all_or_none(self):
        with pytest.raises(ParentIncoherent):
            S.StrataDescription(
                (S.Component("A", 1), S.Component("B")), ())

    def test_indices_sorted_distinct(self):
        with pytest.raises(ParentIncoherent):
            S.StrataDescription(
                (S.Component("A"), S.Component("B")),
                (S.Stratum((1, 0), "P", {0: "B", 1: "A"}),))

    def test_missing_parent(self):
        with pytest.raises(MissingParent):
            S.StrataDescription(
                (S.Component("A"), S.Component("B")),
                (S.Stratum((0, 1), "P", {0: "nope", 1: "A"}),))

    def test_wrong_parent_indices(self):
        with pytest.raises(MissingParent):
            S.StrataDescription(
                (S.Component("A"), S.Component("B")),
                (S.Stratum((0, 1), "P", {0: "A", 1: "A"}),))

    def test_parent_incoherence(self):
        # two strata X, Y on the pair (2,3); a 4-fold stratum whose two
        # omission orders land on different ones is incoherent
        comps = tuple(S.Component(x) for x in "ABCD")

        def base_strata(t_parent_0, t_parent_1):
            return (
                S.Stratum((2, 3), "X", {2: "D", 3: "C"}),
                S.Stratum((2, 3), "Y", {2: "D", 3: "C"}),
                S.Stratum((0, 1), "AB", {0: "B", 1: "A"}),
                S.Stratum((0, 2), "AC", {0: "C", 2: "A"}),
                S.Stratum((0, 3), "AD", {0: "D", 3: "A"}),
                S.Stratum((1, 2), "BC", {1: "C", 2: "B"}),
                S.Stratum((1, 3), "BD", {1: "D", 3: "B"}),
                S.Stratum((1, 2, 3), "P", {1: "X", 2: "BD", 3: "BC"}),
                S.Stratum((0, 2, 3), "Q", {0: t_parent_1, 2: "AD", 3: "AC"}),
                S.Stratum((0, 1, 3), "R", {0: "BD", 1: "AD", 3: "AB"}),
                S.Stratum((0, 1, 2), "W", {0: "BC", 1: "AC", 2: "AB"}),
                S.Stratum((0, 1, 2, 3), "T",
                          {0: "P", 1: "Q", 2: "R", 3: "W"}),
            )

        S.StrataDescription(comps, base_strata("X", "X"))  # coherent
        with pytest.raises(ParentIncoherent):
            S.StrataDescription(comps, base_strata("X", "Y"))


class TestToricLink:
    def test_product_of_lines_octahedron(self):
        link = S.toric_link(G.product_of_lines_fan(3))
        assert link.f_vector() == (6, 12, 8)
        assert S.homology(link).betti_vector() == (1, 0, 1)
        assert link.has_delta

    def test_projective_plane_triangle(self):
        link = S.toric_link(G.projective_space_fan(2))
        assert link.f_vector() == (3, 3)
        assert S.homology(link).betti_vector() == (1, 1)

    def test_single_ray(self):
        fan = S.Fan(((1, 0),), (frozenset({0}),))
        link = S.toric_link(fan)
        assert link.f_vector() == (1,)

    def test_non_integer_ray_rejected(self):
        for bad in (1.9, True, "1"):
            with pytest.raises(DescriptorInvalid, match="ray .* coordinate"):
                fan_from_json({"rays": [[bad, 0], [0, 1]], "cones": [[0], [1]]})
        fan = fan_from_json({"rays": [[1.0, 0], [0, 1]], "cones": [[0], [1], [0, 1]]})
        assert fan.rays == ((1, 0), (0, 1))

    def test_non_primitive_ray(self):
        with pytest.raises(NonPrimitiveRay):
            S.Fan(((2, 0),), (frozenset({0}),))

    def test_complete_fans_have_sphere_links(self):
        for n in range(1, 5):
            link = S.toric_link(G.product_of_lines_fan(n))
            h = S.homology(link, reduced=True)
            assert h.nonzero() == (((n - 1), 1, ()),) if n > 0 else ()
        for n in range(2, 5):
            link = S.toric_link(G.projective_space_fan(n))
            h = S.homology(link, reduced=True)
            assert h.nonzero() == (((n - 1), 1, ()),)

    def test_non_simplicial_cone_poset(self):
        # a single 3-dim cone over a square: the link is the square poset
        rays = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
        cones = (frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3}),
                 frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}),
                 frozenset({0, 3}), frozenset({0, 1, 2, 3}))
        link = S.toric_link(S.Fan(rays, cones))
        assert link.f_vector() == (4, 4, 1)
        assert not link.has_delta
        h = S.homology(link, reduced=True)
        assert all(b == 0 for _d, b, _t in h.table)

    def test_antipodal_quotient_projective_plane(self):
        fan = G.product_of_lines_fan(3)
        link = S.toric_link(fan)
        phi = fan_ray_involution(fan, antipodal_ray_map(fan))
        q = link.quotient_free_involution(phi)
        h = S.homology(q)
        assert h.betti_vector() == (1, 0, 0)
        assert h.torsion(1) == (2,)


def link_outcome(build, fan):
    try:
        c = build(fan)
    except SncxError as exc:
        return type(exc), str(exc)
    return c, c.to_records()


def square_pyramid_fan():
    """A cone over a square pyramid in R^4, listed with its square base and
    its four triangles; the base and the pyramid are not simplicial."""
    rays = ((1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0), (0, 0, 1, 1))
    cones = [frozenset(range(5)), frozenset(range(4))]
    cones += [frozenset({i, (i + 1) % 4, 4}) for i in range(4)]
    return S.Fan(rays, tuple(cones))


class TestToricLinkAgreement:
    """The one inclusion pass against the scan over all cones."""

    def test_gallery_fans(self):
        fans = [G.product_of_lines_fan(n) for n in range(1, 6)]
        fans += [G.projective_space_fan(n) for n in range(1, 5)]
        fans += [polygon_cone_fan(4), polygon_cone_fan(5), square_pyramid_fan()]
        for fan in fans:
            got = link_outcome(S.toric_link, fan)
            assert isinstance(got[0], S.CombinatorialComplex)
            assert got == link_outcome(all_cones_toric_link, fan)

    def test_random_fans(self):
        rng = random.Random(64)
        kinds = set()
        for _ in range(80):
            fan = random_fan(rng)
            got = link_outcome(S.toric_link, fan)
            assert got == link_outcome(all_cones_toric_link, fan)
            if isinstance(got[0], S.CombinatorialComplex):
                kinds.add(got[0].has_delta)
        assert kinds == {True, False}

    def test_square_pyramid_heights(self):
        link = S.toric_link(square_pyramid_fan())
        assert link.f_vector() == (5, 8, 5, 1)
        assert link.dim("0-1-2-3") == 2 and link.dim("0-1-2-3-4") == 3
        assert not link.has_delta

    def test_large_fan_is_fast(self):
        # 6,560 cones: the scan over all cones took seconds here
        fan = G.product_of_lines_fan(8)
        t0 = time.perf_counter()
        link = S.toric_link(fan)
        assert time.perf_counter() - t0 < 2.0
        assert link.f_vector() == tuple(math.comb(8, k + 1) * 2 ** (k + 1)
                                        for k in range(8))


class TestRealizeBoundary:
    def test_triangle_boundary_hexagon(self):
        K = [[0], [1], [2], [0, 1], [0, 2], [1, 2]]
        c, script = S.realize_boundary(K)
        assert c.f_vector() == (6, 6)
        assert S.homology(c).betti_vector() == (1, 1)
        assert len(script) == 6

    def test_two_vertices(self):
        c, _script = S.realize_boundary([[0], [1]])
        assert c.f_vector() == (2,)

    def test_hexagon_plus_point(self):
        K = [[0], [1], [2], [3], [0, 1], [0, 2], [1, 2]]
        c, _script = S.realize_boundary(K)
        assert c.f_vector() == (7, 6)
        assert len(c.connected_components()) == 2

    def test_not_subset_closed(self):
        with pytest.raises(NotSubsetClosed):
            S.realize_boundary([[0, 1]])

    def test_full_set_rejected(self):
        with pytest.raises(NotSubsetClosed):
            S.realize_boundary([[0], [1], [0, 1]])

    def test_explicit_ground_set(self):
        c, _script = S.realize_boundary([[0]], n=1)
        assert c.f_vector() == (1,)

    def test_script_replays_byte_identically(self):
        K = [[0], [1], [2], [0, 1], [0, 2], [1, 2]]
        c, script = S.realize_boundary(K)
        replay, _log = S.run_blowup_script(S.CombinatorialComplex([]), script)
        assert dumps_complex(replay) == dumps_complex(c)

    def test_homology_matches_input_randomized(self):
        rng = random.Random(40)
        for _ in range(15):
            K = random_subset_closed(rng, ground=5)
            kcx = S.simplicial_complex_from_subsets(K)
            c, _script = S.realize_boundary([sorted(f) for f in K], n=4)
            assert S.homology(c).same_groups(S.homology(kcx))


def realize_outcome(realize, faces, n=None):
    try:
        c, script = realize(faces, n)
    except SncxError as exc:
        return type(exc), str(exc)
    return dumps_complex(c), json.dumps(script_to_list(script))


class TestOneSimplexWriter:
    """Subset complexes, all-simplicial toric links and realize, each
    assembled through the one chain enumeration and simplex assembler, against
    the routines that wrote their own records."""

    def test_subset_complexes_above_nine_vertices(self):
        rng = random.Random(152)
        for _ in range(40):
            family = bounded_family(rng, rng.randint(10, 14))
            assert dumps_complex(S.simplicial_complex_from_subsets(family)) == \
                dumps_complex(record_writing_subsets_complex(family))

    def test_realize_above_nine_vertices(self):
        # ids "10" < "2" as strings: the enumeration order of the chains
        # differs from the canonical order of the faces they span
        rng = random.Random(153)
        mixed = 0
        for _ in range(40):
            ground = rng.randint(10, 14)
            faces = [sorted(f) for f in bounded_family(rng, ground)]
            rng.shuffle(faces)
            mixed += any(max(f) >= 10 for f in faces) and any(min(f) < 2 for f in faces)
            for n in (None, ground):
                got = realize_outcome(S.realize_boundary, faces, n)
                assert isinstance(got[0], str)
                assert got == realize_outcome(subset_complex_realize_boundary, faces, n)
        assert mixed >= 20

    def test_rejected_families_same_errors(self):
        rng = random.Random(154)
        kinds = set()
        for _ in range(40):
            ground = rng.randint(3, 12)
            family = sorted(bounded_family(rng, ground), key=sorted)
            bad = rng.choice(["drop", "empty", "full", "negative", "above"])
            if bad == "drop":
                family.pop(rng.randrange(len(family)))
            elif bad == "empty":
                family.append(frozenset())
            elif bad == "full":
                family = [frozenset(range(3))] + [frozenset(s) for k in (1, 2)
                                                  for s in combinations(range(3), k)]
            elif bad == "negative":
                family.append(frozenset({-1}))
            faces = [sorted(f) for f in family]
            n = ground - 2 if bad == "above" else None
            want = realize_outcome(subset_complex_realize_boundary, faces, n)
            assert realize_outcome(S.realize_boundary, faces, n) == want
            if not isinstance(want[0], str):
                kinds.add(want[1].split(" ")[0])
        assert len(kinds) >= 4

    def test_all_simplicial_fans(self):
        fans = [G.product_of_lines_fan(n) for n in range(1, 6)]
        fans += [G.projective_space_fan(n) for n in range(1, 5)]
        rng = random.Random(155)
        while len(fans) < 40:
            fan = random_fan(rng)
            if all(fan.is_simplicial_cone(c) for c in fan.cones):
                fans.append(fan)
        for fan in fans:
            got = S.toric_link(fan)
            assert got.has_delta
            assert dumps_complex(got) == \
                dumps_complex(record_writing_simplicial_toric_link(fan))

    def test_realize_and_replay_above_nine_vertices(self):
        # the 1-skeleton of the 11-simplex: 12 vertices, 66 edges
        faces = [[v] for v in range(12)] + [list(e) for e in combinations(range(12), 2)]
        c, script = S.realize_boundary(faces)
        replay, _log = S.run_blowup_script(complex_from_dict({"faces": []}), script)
        assert dumps_complex(replay) == dumps_complex(c)
        assert S.homology(c).betti_vector() == (1, 55)
