import random

import pytest

import sncx as S
from sncx import gallery as G
from sncx.errors import NotConnected
from sncx.presentations import GroupPresentation

from conftest import random_simplicial_complex, without_delta


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
            slow = S.fundamental_group_presentation(c.order_complex(top_dim=2))
            assert S.abelianization(fast) == S.abelianization(slow)
            assert fast.generators <= slow.generators

    def test_delta_route_skips_the_order_complex(self, monkeypatch):
        def refuse(self, top_dim=None):
            raise AssertionError("order complex built on the Delta route")

        monkeypatch.setattr(S.CombinatorialComplex, "order_complex", refuse)
        p = S.fundamental_group_presentation(S.skeleton(G.full_simplex(5), 3))
        assert p.generators == 10
        assert S.tietze_simplify(p)[1] == "trivial"

    def test_poset_route_unchanged(self):
        # without a Delta structure the order complex is still the model
        rp2 = G.real_projective_plane()
        poset = without_delta(rp2)
        assert not poset.has_delta
        assert S.fundamental_group_presentation(poset) == \
            S.fundamental_group_presentation(rp2.order_complex(top_dim=2))


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
