import random
import time

import pytest

import sncx as S
from sncx import gallery as G
from sncx.errors import NotConnected
from sncx.presentations import GroupPresentation, _canonical_relator, _shorten_by_overlap

from conftest import random_simplicial_complex, without_delta
from oracles import (
    adjacency_fundamental_group_presentation,
    flagged_shorten_by_overlap,
    renumbering_tietze_simplify,
    scanning_tietze_simplify,
)
from test_newton import staircase_support


class TestEdgePathGroups:
    def test_circle(self):
        p = S.fundamental_group_presentation(G.triangle_boundary())
        assert p.generators == 1
        assert p.relators == ()

    def test_sphere_trivializes(self):
        p = S.fundamental_group_presentation(G.octahedron_boundary())
        simp, status = S.tietze_simplify(p)
        assert status == "trivial"
        assert simp.generators == 0

    def test_rp2_square_relator(self):
        p = S.fundamental_group_presentation(G.real_projective_plane())
        simp, status = S.tietze_simplify(p)
        assert status == "reduced"
        assert simp.generators == 1
        assert len(simp.relators) == 1
        assert sorted(abs(x) for x in simp.relators[0]) == [1, 1]

    def test_not_connected(self):
        c = S.disjoint_union(G.triangle_boundary(), G.point_complex())
        with pytest.raises(NotConnected):
            S.fundamental_group_presentation(c)

    def test_abelianization_matches_h1(self):
        for c in (G.triangle_boundary(), G.multi_edge_complex(4),
                  G.real_projective_plane(), G.octahedron_boundary()):
            p = S.fundamental_group_presentation(c)
            rank, torsion = S.abelianization(p)
            h = S.homology(c)
            assert rank == h.betti(1)
            assert torsion == h.torsion(1)


class TestDeltaRoute:
    def test_agrees_with_order_complex_route(self):
        rng = random.Random(17)
        fixtures = [G.real_projective_plane(), G.octahedron_boundary(),
                    G.multi_edge_complex(4), S.cone(G.triangle_boundary()),
                    S.order_complex(G.octahedron_boundary()),
                    S.order_complex(G.real_projective_plane()),
                    S.order_complex(G.multi_edge_complex(3)),
                    S.skeleton(G.full_simplex(5), 3)]
        while len(fixtures) < 48:
            c = random_simplicial_complex(rng, max_verts=7, max_facets=6,
                                          max_dim=3)
            if len(c.connected_components()) == 1:
                fixtures.append(c)
        for c in fixtures:
            assert c.has_delta
            fast = S.fundamental_group_presentation(c)
            slow = S.fundamental_group_presentation(c.order_complex())
            assert S.abelianization(fast) == S.abelianization(slow)
            assert fast.generators <= slow.generators

    def test_delta_route_skips_the_order_complex(self, monkeypatch):
        def refuse(self, top_dim=None):
            raise AssertionError("order complex built on the Delta route")

        monkeypatch.setattr(S.CombinatorialComplex, "order_complex", refuse)
        p = S.fundamental_group_presentation(S.skeleton(G.full_simplex(5), 3))
        assert p.generators == 10
        assert S.tietze_simplify(p)[1] == "trivial"



def newton_models(rng, count):
    """Connected resolution complexes of staircase supports: one in four
    from ambient 3 (a graph), the others from ambient 4 with 2-cells."""
    models = []
    while len(models) < count:
        ambient = 3 if len(models) % 4 == 0 else 4
        m = S.resolution_complex(S.newton_polyhedron(
            staircase_support(rng, ambient, rng.randint(ambient + 2, 16))))
        if m.dimension == ambient - 2 and len(m.connected_components()) == 1:
            models.append(m)
    return models


def square_cone_link():
    rays = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
    cones = [frozenset({i}) for i in range(4)]
    cones += [frozenset({i, (i + 1) % 4}) for i in range(4)]
    cones.append(frozenset(range(4)))
    return S.toric_link(S.Fan(rays, tuple(cones)))


def bigon_disk():
    return S.new_complex([
        {"id": "a", "dim": 0, "facets": []}, {"id": "b", "dim": 0, "facets": []},
        {"id": "e0", "dim": 1, "facets": ["a", "b"]},
        {"id": "e1", "dim": 1, "facets": ["a", "b"]},
        {"id": "t", "dim": 2, "facets": ["e0", "e1"]}])


class TestPosetRoute:
    """Complexes without a Delta structure: the boundary walk of each
    2-cell against the order-complex oracle."""

    def test_agrees_with_order_complex(self):
        rng = random.Random(23)
        fixtures = newton_models(rng, 16)
        fixtures += [S.torus_hypersurface_boundary_complex(
            [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]),
            bigon_disk(), square_cone_link(),
            without_delta(G.real_projective_plane())]
        while len(fixtures) < 60:
            c = random_simplicial_complex(rng, max_verts=7, max_facets=6,
                                          max_dim=3)
            if c.dimension >= 1 and len(c.connected_components()) == 1:
                fixtures.append(without_delta(c))
        for c in fixtures:
            assert not c.has_delta
            cells = S.fundamental_group_presentation(c)
            oracle = S.fundamental_group_presentation(c.order_complex())
            assert S.abelianization(cells) == S.abelianization(oracle)
            assert cells.generators <= oracle.generators
            assert (S.tietze_simplify(cells)[1] == "trivial") == \
                (S.tietze_simplify(oracle)[1] == "trivial")

    def test_spanning_tree_agrees_with_adjacency_oracle(self):
        # the breadth-first tree walks each vertex's cofaces, which come in
        # the edge order the sorted adjacency lists had
        def outcome(present, c):
            try:
                return present(c)
            except NotConnected as exc:
                return str(exc)

        rng = random.Random(37)
        fixtures = newton_models(rng, 8) + [bigon_disk(), square_cone_link()]
        while len(fixtures) < 160:
            c = random_simplicial_complex(rng, max_verts=8, max_facets=6,
                                          max_dim=3)
            if len(fixtures) % 3 == 0:
                c = S.stellar_subdivide(c, rng.choice(c.face_ids))
            fixtures.append(without_delta(c) if len(fixtures) % 2 else c)
        presented = 0
        for c in fixtures:
            got = outcome(S.fundamental_group_presentation, c)
            assert got == outcome(adjacency_fundamental_group_presentation, c)
            presented += isinstance(got, GroupPresentation) and got.generators > 0
        assert presented > 80

    def test_poset_route_skips_the_order_complex(self, monkeypatch):
        model = max(newton_models(random.Random(29), 4),
                    key=lambda m: len(m.face_ids))

        def refuse(self):
            raise AssertionError("order complex built for a presentation")

        monkeypatch.setattr(S.CombinatorialComplex, "order_complex", refuse)
        rp2 = S.fundamental_group_presentation(
            without_delta(G.real_projective_plane()))
        assert S.abelianization(rp2) == (0, (2,))
        assert S.tietze_simplify(rp2)[1] == "reduced"
        p = S.fundamental_group_presentation(model)
        assert S.abelianization(p) == (0, ())


class TestTietze:
    def test_single_relator_kills_generator(self):
        p, status = S.tietze_simplify(GroupPresentation(1, ((1,),)))
        assert status == "trivial" and p.generators == 0

    def test_two_step_elimination(self):
        p, status = S.tietze_simplify(GroupPresentation(2, ((1, 2), (2,))))
        assert status == "trivial"

    def test_z2_is_reduced_not_trivial(self):
        p, status = S.tietze_simplify(GroupPresentation(1, ((1, 1),)))
        assert status == "reduced"
        assert p.generators == 1

    def test_free_group_reduced(self):
        p, status = S.tietze_simplify(GroupPresentation(3, ()))
        assert status == "reduced"
        assert p.generators == 3 and p.relators == ()

    def test_budget_exhaustion_reported(self):
        pres = GroupPresentation(2, ((1, 2, -1, -2, 1, 2),))
        _p, status = S.tietze_simplify(pres, budget=1)
        assert status in ("budget-exhausted", "reduced")

    def test_never_changes_group(self):
        # abelianization is a group invariant; simplification must keep it
        pres = GroupPresentation(3, ((1, 2, -3, 2), (2, 2, 3), (1, -2)))
        before = S.abelianization(pres)
        simp, _status = S.tietze_simplify(pres)
        assert S.abelianization(simp) == before

    def test_deterministic(self):
        pres = GroupPresentation(3, ((1, 2, -3, 2), (2, 2, 3), (1, -2)))
        a = S.tietze_simplify(pres)
        b = S.tietze_simplify(pres)
        assert a == b

    def test_letters_validated(self):
        with pytest.raises(ValueError):
            GroupPresentation(1, ((2,),))

    def test_overlap_replacement_fires(self):
        # no generator occurs exactly once anywhere, so only subword
        # replacement can shorten: (abab, ababab) -> ab = 1 -> Z
        pres = GroupPresentation(2, ((1, 2, 1, 2), (1, 2, 1, 2, 1, 2)))
        before = S.abelianization(pres)
        simp, status = S.tietze_simplify(pres)
        assert S.abelianization(simp) == before == (1, ())
        assert status == "reduced"
        assert simp.generators == 1
        assert simp.relators == ()

    def test_overlap_with_inverse_occurrence(self):
        # the long relator contains the inverse of most of the short one
        pres = GroupPresentation(2, ((1, 2, 1, 2), (-2, -1, -2, -1, 1, 2)))
        before = S.abelianization(pres)
        simp, _status = S.tietze_simplify(pres)
        assert S.abelianization(simp) == before


def random_word(rng, generators, max_len):
    return tuple(rng.choice((1, -1)) * rng.randint(1, generators)
                 for _ in range(rng.randint(0, max_len)))


class TestAgainstRenumberingOracle:
    """The pass numbers generators once, on return; the oracle renumbers
    after every elimination.  Both must make the same moves."""

    def test_random_presentations(self):
        rng = random.Random(41)
        statuses = set()
        for _ in range(3000):
            n = rng.randint(0, 7)
            rels = tuple(random_word(rng, n, 8 if n else 0)
                         for _ in range(rng.randint(0, 7)))
            pres = GroupPresentation(n, rels)
            for budget in (0, 1, 2, 3, 20000):
                got = S.tietze_simplify(pres, budget)
                assert got == renumbering_tietze_simplify(pres, budget), pres
                statuses.add(got[1])
        assert statuses == {"trivial", "reduced", "budget-exhausted"}

    def test_fixture_presentations(self):
        octahedron = G.octahedron_boundary()
        rp2 = G.real_projective_plane()
        for c in (octahedron, rp2, S.skeleton(G.full_simplex(5), 3),
                  S.skeleton(G.full_simplex(6), 2), octahedron.order_complex(),
                  rp2.order_complex(), G.cross_polytope_boundary(4)):
            pres = S.fundamental_group_presentation(c)
            for budget in (1, 2, 5, 20000):
                assert S.tietze_simplify(pres, budget) == \
                    renumbering_tietze_simplify(pres, budget)

    def test_overlap_shortening(self):
        # eliminations dominate whole runs, so call the overlap step alone
        # on sets with no generator to eliminate as often as not
        rng = random.Random(43)
        shortened = 0
        for _ in range(5000):
            n = rng.randint(1, 3)
            rels = sorted({_canonical_relator(random_word(rng, n, 8))
                           for _ in range(rng.randint(1, 6))} - {()})
            got = _shorten_by_overlap(rels)
            assert got == flagged_shorten_by_overlap(rels), rels
            shortened += got[1]
        assert shortened >= 3000


def random_presentation(rng):
    n = rng.randint(0, 7)
    return GroupPresentation(n, tuple(random_word(rng, n, 8 if n else 0)
                                      for _ in range(rng.randint(0, 7))))


class TestAgainstScanningOracle:
    """The pass finds each elimination in a heap and substitutes only into
    the relators an index lists; the oracle scans, substitutes into and
    recanonicalizes every relator on every turn.  Both must make the same
    moves, and a budget-exhausted exit must hold the same raw words."""

    def test_random_presentations(self):
        rng = random.Random(47)
        statuses = set()
        for _ in range(3000):
            pres = random_presentation(rng)
            for budget in (0, 1, 2, 3, 20000):
                got = S.tietze_simplify(pres, budget)
                assert got == scanning_tietze_simplify(pres, budget), pres
                statuses.add(got[1])
        assert statuses == {"trivial", "reduced", "budget-exhausted"}

    def test_fixture_presentations(self):
        octahedron = G.octahedron_boundary()
        rp2 = G.real_projective_plane()
        for c in (octahedron, rp2, S.skeleton(G.full_simplex(5), 3),
                  S.skeleton(G.full_simplex(6), 2), octahedron.order_complex(),
                  rp2.order_complex(), G.cross_polytope_boundary(4),
                  octahedron.order_complex().order_complex(),
                  rp2.order_complex().order_complex()):
            pres = S.fundamental_group_presentation(c)
            for budget in (1, 2, 5, 40, 20000):
                assert S.tietze_simplify(pres, budget) == \
                    scanning_tietze_simplify(pres, budget)

    def test_exit_keeps_equal_raw_words(self):
        # b = 1 by the relator b^-1; then c^-1 b^-1 and c^-1 b both become
        # c^-1, and the budget ends the pass right after that elimination
        pres = GroupPresentation(3, ((-3, -2), (-3, 2), (-2,)))
        want = GroupPresentation(2, ((-2,), (-2,))), "budget-exhausted"
        assert S.tietze_simplify(pres, 1) == want
        assert scanning_tietze_simplify(pres, 1) == want
        # the next turn removes c through either copy
        assert S.tietze_simplify(pres, 2) == (GroupPresentation(1, ()),
                                              "budget-exhausted")

    def test_sd3_octahedron_is_fast(self):
        # the scanning pass takes about 10 s on these 1,727 generators
        c = G.octahedron_boundary().order_complex().order_complex().order_complex()
        pres = S.fundamental_group_presentation(c)
        start = time.perf_counter()
        out, status = S.tietze_simplify(pres)
        assert time.perf_counter() - start < 2.0
        assert status == "trivial" and out == GroupPresentation(0, ())
