import dataclasses
import importlib
import itertools
import math
import random
from collections import Counter

import pytest

import sncx as S
import sncx.newton as N
from sncx.complexes import CombinatorialComplex
from sncx.errors import (
    DescriptorInvalid,
    DimensionTooHigh,
    EmptyInput,
    NotFullDimensional,
)
from sncx.newton import MAX_AMBIENT, LatticePolytope
from sncx.snf import kernel_line

from conftest import random_lattice_polygon, random_lattice_polytope, random_support
from oracles import (
    ReadingLatticePolytope,
    affine_dim,
    brute_force_facet_census,
    cell_writing_torus_boundary_complex,
    order_complex_homology,
    pairwise_face_lattice,
    pairwise_resolution_complex,
    pairwise_torus_boundary_complex,
    reading_newton_points,
    sorting_edge,
)

QUADRIC = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
CUSP = [(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)]
BRIESKORN = [(2, 0, 0), (0, 3, 0), (0, 0, 5)]


class TestCensus:
    def test_quadric(self):
        np_ = S.newton_polyhedron(QUADRIC)
        compact = [f for f in np_.facets if f.compact]
        assert len(compact) == 1
        assert compact[0].normal == (1, 1, 1)
        assert len(np_.vertices) == 3
        assert all(not np_.vertex_interior(v) for v in np_.vertices)
        assert sorted(e.length for e in np_.compact_edges) == [2, 2, 2]

    def test_weighted_plane(self):
        np_ = S.newton_polyhedron(BRIESKORN)
        compact = [f for f in np_.facets if f.compact]
        assert [f.normal for f in compact] == [(15, 10, 6)]
        assert all(e.length == 1 for e in np_.compact_edges)

    def test_cusp(self):
        np_ = S.newton_polyhedron(CUSP)
        compact = sorted(f.normal for f in np_.facets if f.compact)
        assert compact == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
        inner = [v for v in np_.vertices if np_.vertex_interior(v)]
        assert [np_.points[v] for v in inner] == [(1, 1, 1)]
        lengths = sorted(e.length for e in np_.compact_edges)
        assert lengths == [1, 1, 1, 4, 4, 4]
        # the length-4 edges join the coordinate vertices
        for e in np_.compact_edges:
            pts = {np_.points[i] for i in e.endpoints}
            if e.length == 4:
                assert (1, 1, 1) not in pts

    def test_census_idempotent_on_vertices(self):
        for pts in (QUADRIC, CUSP, BRIESKORN):
            np_ = S.newton_polyhedron(pts)
            verts = [np_.points[v] for v in np_.vertices]
            again = S.newton_polyhedron(verts)
            assert {(f.normal, f.offset) for f in np_.facets} == \
                   {(f.normal, f.offset) for f in again.facets}

    def test_input_validation(self):
        with pytest.raises(EmptyInput):
            S.newton_polyhedron([])
        with pytest.raises(DimensionTooHigh):
            S.newton_polyhedron([(1, 0, 0, 0, 0)])
        with pytest.raises(DescriptorInvalid):
            S.newton_polyhedron([(-1, 0)])

    def test_non_integer_coordinates_rejected(self):
        for bad in (2.7, True, "2", float("inf")):
            with pytest.raises(DescriptorInvalid, match="^exponent vector"):
                S.newton_polyhedron([(bad, 0, 0), (0, 2, 0), (0, 0, 2)])
            with pytest.raises(DescriptorInvalid, match="^lattice point"):
                LatticePolytope([(0, 0), (2, 0), (0, bad)])
        triangle = [(0, 0), (2, 0), (0, 2)]
        assert S.newton_polyhedron([(2.0, 0, 0), (0, 2, 0), (0, 0, 2.0)]).points == \
            ((2, 0, 0), (0, 2, 0), (0, 0, 2))
        assert LatticePolytope([(0, 0), (2.0, 0), (0, 2)]).points == tuple(triangle)

    def test_every_vertex_on_enough_facets(self):
        rng = random.Random(17)
        for _ in range(20):
            np_ = S.newton_polyhedron(random_support(rng))
            for v in np_.vertices:
                assert sum(1 for f in np_.facets if v in f.points) >= 3


class TestValidateGuards:
    """One facet of a built polyhedron tampered with: the spot checks fire."""

    def tampered(self, np_, **changes):
        facets = list(np_.facets)
        facets[0] = dataclasses.replace(facets[0], **changes)
        np_.facets = tuple(facets)

    def test_raised_offset_loses_a_point(self):
        np_ = S.newton_polyhedron(CUSP)
        self.tampered(np_, offset=np_.facets[0].offset + 1)
        with pytest.raises(AssertionError) as exc:
            np_._validate()
        assert str(exc.value) == "facet census lost an input point"

    def test_negative_normal_entry_breaks_the_orthant(self):
        # the offset drops to the new minimum, so every point stays on or
        # above the tampered facet and only the orthant translates fall off
        np_ = S.newton_polyhedron(CUSP)
        normal = (-1,) + np_.facets[0].normal[1:]
        self.tampered(np_, normal=normal,
                      offset=min(N._dot(normal, p) for p in np_.points))
        with pytest.raises(AssertionError) as exc:
            np_._validate()
        assert str(exc.value) == "orthant recession violated"

    def test_vertex_on_too_few_facets(self):
        # the interior vertex of the cusp lies on its three compact facets;
        # dropped from one of them, it lies on two
        np_ = S.newton_polyhedron(CUSP)
        v = np_.points.index((1, 1, 1))
        i = next(i for i, f in enumerate(np_.facets) if v in f.points)
        facets = list(np_.facets)
        facets[i] = dataclasses.replace(facets[i], points=facets[i].points - {v})
        np_.facets = tuple(facets)
        with pytest.raises(NotFullDimensional) as exc:
            np_._validate()
        assert str(exc.value) == ("vertex (1, 1, 1) lies on 2 < 3 facets; "
                                  "the polyhedron is not full-dimensional")

    def test_flipped_compact_flag(self):
        for pts in (QUADRIC, CUSP):
            np_ = S.newton_polyhedron(pts)
            faces = list(np_.faces)
            i = next(i for i, f in enumerate(faces) if f.dim == 1)
            faces[i] = dataclasses.replace(faces[i], compact=not faces[i].compact)
            np_.faces = tuple(faces)
            with pytest.raises(AssertionError) as exc:
                np_._validate()
            assert str(exc.value) == \
                f"compactness criteria disagree on face {faces[i].points}"


class TestCensusGuards:
    """A tight mask of the double description, or a vertex or cone of a
    built census, tampered with: the census's and the fan's guards fire."""

    def test_a_point_called_tight_makes_a_ray_no_facet(self, monkeypatch):
        # the sign test of the last point inserted calls one ray tight on
        # that point, which lies strictly above it; the ray's tight points
        # then span the space, not a hyperplane
        pts = [(0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 5), (1, 1, 1),
               (2, 1, 3), (4, 1, 0)]
        real = N._dot
        seen = []

        def recording(r, g):
            s = real(r, g)
            seen.append((r, g, s))
            return s

        monkeypatch.setattr(N, "_dot", recording)
        N._facet_census(pts, False)
        k = max(k for k, (r, g, s) in enumerate(seen)
                if len(r) == 4 and g[0] == 1 and s > 0 and any(r[1:]))
        ray = seen[k][0]
        calls = iter(range(len(seen) + 1))

        def lying(r, g):
            return 0 if next(calls) == k else real(r, g)

        monkeypatch.setattr(N, "_dot", lying)
        with pytest.raises(AssertionError) as exc:
            N._facet_census(pts, False)
        assert str(exc.value) == f"census ray {ray} is not a facet"

    def test_a_vertex_without_a_full_cone(self):
        np_ = S.newton_polyhedron(CUSP)
        np_.vertices = np_.vertices[1:]
        with pytest.raises(AssertionError) as exc:
            S.normal_fan(np_)
        assert str(exc.value) == "full-dimensional cones must match the vertices"

    def test_an_edge_without_a_codimension_one_cone(self, monkeypatch):
        class Tampered(N.SubdividedSimplex):
            def __init__(self, np_):
                super().__init__(np_)
                cells = list(self.cells)
                i = next(i for i, c in enumerate(cells) if c.dim == np_.ambient - 2)
                cells[i] = dataclasses.replace(cells[i], dim=cells[i].dim - 1)
                self.cells = tuple(cells)

        monkeypatch.setattr(N, "SubdividedSimplex", Tampered)
        with pytest.raises(AssertionError) as exc:
            S.normal_fan(S.newton_polyhedron(CUSP))
        assert str(exc.value) == "codimension-one cones must match the edges"


class TestNormalFan:
    def test_quadric_interior(self):
        ss = S.normal_fan(S.newton_polyhedron(QUADRIC))
        interior = [c for c in ss.cells if c.interior]
        assert len(interior) == 1
        assert interior[0].dim == 0
        assert interior[0].carrier.dim == 2

    def test_cusp_interior_cells(self):
        ss = S.normal_fan(S.newton_polyhedron(CUSP))
        interior = [c for c in ss.cells if c.interior and c.carrier.dim >= 1]
        rays = [c for c in interior if c.dim == 0]
        segs = [c for c in interior if c.dim == 1]
        assert len(rays) == 3 and len(segs) == 3

    def test_brieskorn_single_ray(self):
        ss = S.normal_fan(S.newton_polyhedron(BRIESKORN))
        interior = [c for c in ss.cells if c.interior and c.carrier.dim >= 1]
        assert len(interior) == 1 and interior[0].dim == 0


class TestInteriorComplex:
    def test_quadric_point(self):
        s0 = S.interior_complex(S.normal_fan(S.newton_polyhedron(QUADRIC)))
        assert s0.f_vector() == (1,)

    def test_cusp_circle(self):
        s0 = S.interior_complex(S.normal_fan(S.newton_polyhedron(CUSP)))
        assert s0.f_vector() == (3, 3)
        assert S.homology(s0).betti_vector() == (1, 1)

    def test_brieskorn_point(self):
        s0 = S.interior_complex(S.normal_fan(S.newton_polyhedron(BRIESKORN)))
        assert s0.f_vector() == (1,)


class TestResolutionComplex:
    def test_fixture_models(self):
        assert S.resolution_complex(S.newton_polyhedron(QUADRIC)).f_vector() == (1,)
        cusp = S.resolution_complex(S.newton_polyhedron(CUSP))
        assert S.homology(cusp).betti_vector() == (1, 1)
        assert S.resolution_complex(S.newton_polyhedron(BRIESKORN)).f_vector() == (1,)

    def test_predicted_counts(self):
        np_ = S.newton_polyhedron(QUADRIC)
        assert S.predicted_sphere_count(np_, "literal") == 3
        assert S.predicted_sphere_count(np_, "interior") == 0
        np_ = S.newton_polyhedron(CUSP)
        assert S.predicted_sphere_count(np_, "literal") == 10
        assert S.predicted_sphere_count(np_, "interior") == 1
        np_ = S.newton_polyhedron(BRIESKORN)
        assert S.predicted_sphere_count(np_, "literal") == 0
        assert S.predicted_sphere_count(np_, "interior") == 0

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            S.predicted_sphere_count(S.newton_polyhedron(QUADRIC), "guess")

    def test_interior_count_matches_model_randomized(self):
        rng = random.Random(77)
        for _ in range(30):
            np_ = S.newton_polyhedron(random_support(rng))
            model = S.resolution_complex(np_)
            got = S.homology(model, reduced=True).betti(1)
            assert got == S.predicted_sphere_count(np_, "interior")

    def test_connected_when_interior_connected(self):
        rng = random.Random(78)
        for _ in range(20):
            np_ = S.newton_polyhedron(random_support(rng))
            s0 = S.interior_complex(S.normal_fan(np_))
            if s0.is_empty or len(s0.connected_components()) != 1:
                continue
            model = S.resolution_complex(np_)
            assert len(model.connected_components()) == 1

    def test_puckering_multiplicities_are_edge_lengths(self):
        np_ = S.newton_polyhedron([(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])
        interior_edges = [e for e in np_.compact_edges
                          if np_.face_interior(np_.faces[e.face_index])]
        model = S.resolution_complex(np_)
        s0 = S.interior_complex(S.normal_fan(np_))
        extra = sum(model.f_vector()) - sum(s0.f_vector())
        assert extra == sum(e.length - 1 for e in interior_edges)


class TestW0Report:
    def test_quadric(self):
        rep = S.w0_report(S.newton_polyhedron(QUADRIC))
        assert rep["weight_zero_reduced_cohomology"]["2"] == 0
        assert rep["wedge_certificate"]["status"] == "certified-wedge"
        assert rep["wedge_certificate"]["count"] == 0
        assert rep["predicted"] == {"literal": 3, "interior": 0}
        assert rep["variants_agree"] is False

    def test_cusp(self):
        rep = S.w0_report(S.newton_polyhedron(CUSP))
        assert rep["weight_zero_reduced_cohomology"]["2"] == 1
        assert rep["wedge_certificate"]["count"] == 1

    def test_brieskorn(self):
        rep = S.w0_report(S.newton_polyhedron(BRIESKORN))
        assert rep["weight_zero_reduced_cohomology"]["2"] == 0
        assert rep["variants_agree"] is True

    def test_model_homology_computed_once(self, monkeypatch):
        # one coreduction gives the homology and the certificate's critical
        # counts; the package's ``homology`` function hides its module of
        # that name
        H = importlib.import_module("sncx.homology")
        calls = []
        real = H._coreduce

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(H, "_coreduce", counted)
        rep = S.w0_report(S.newton_polyhedron(CUSP))
        assert len(calls) == 1
        assert rep["wedge_certificate"]["count"] == 1


class TestTorusBoundary:
    def test_doubled_square(self):
        c = S.torus_hypersurface_boundary_complex([(0, 0), (2, 0), (0, 2), (2, 2)])
        assert c.f_vector() == (8,)
        assert S.homology(c, reduced=True).betti(0) == 7
        cert = S.wedge_certificate(c, 0)
        assert (cert.status, cert.count) == ("certified-wedge", 7)

    def test_unit_square(self):
        c = S.torus_hypersurface_boundary_complex([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert c.f_vector() == (4,)
        assert S.homology(c, reduced=True).betti(0) == 3

    def test_doubled_cube(self):
        cube = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        c = S.torus_hypersurface_boundary_complex(cube)
        assert c.f_vector() == (6, 24)
        # chi pins the count: connected graph, so b1 = 1 - chi = 19
        assert c.euler_characteristic() == -18
        cert = S.wedge_certificate(c, 1)
        assert (cert.status, cert.count) == ("certified-wedge", 19)

    def test_octahedron_polytope_gives_cube_skeleton(self):
        # polar duality: the link of the octahedron's normal fan 2-skeleton
        # is the cube's edge graph, chi = 8 - 12 = -4, so b1 = 5
        octa = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                (0, 0, 1), (0, 0, -1)]
        c = S.torus_hypersurface_boundary_complex(octa)
        assert c.f_vector() == (8, 12)
        cert = S.wedge_certificate(c, 1)
        assert (cert.status, cert.count) == ("certified-wedge", 5)

    def test_multiplicity_override(self):
        square = [(0, 0), (1, 0), (0, 1), (1, 1)]
        P = LatticePolytope(square)
        edges = ["g" + ".".join(str(i) for i in f.points)
                 for f in P.faces if f.dim == 1]
        c = S.torus_hypersurface_boundary_complex(
            P, multiplicities={e: 3 for e in edges})
        assert c.f_vector() == (12,)

    def test_not_full_dimensional(self):
        with pytest.raises(NotFullDimensional):
            S.torus_hypersurface_boundary_complex([(0, 0), (1, 1), (2, 2)])

    def test_segment_rejected(self):
        with pytest.raises(NotFullDimensional):
            S.torus_hypersurface_boundary_complex([(0,), (3,)])

    def test_edge_length_sum_identity(self):
        rng = random.Random(55)
        for _ in range(10):
            P = random_lattice_polygon(rng)
            total = sum(P.edge_length(f) for f in P.faces if f.dim == 1)
            c = S.torus_hypersurface_boundary_complex(P)
            assert S.homology(c, reduced=True).betti(0) == total - 1


def staircase_support(rng, ambient, npts):
    """Lattice points on a convex decreasing graph over a staircase of
    cells, plus one far point on each axis; no point dominates another."""
    k = ambient - 1
    side = 2
    while side ** k < npts - ambient:
        side += 1
    cells = sorted(itertools.product(range(side), repeat=k),
                   key=lambda c: (sum(c), c))[:npts - ambient]
    steps = sorted(rng.sample(range(1, 3 * side + 1), side), reverse=True)
    g = [sum(steps[i:]) for i in range(side)]
    pts = [c + (sum(g[x] for x in c),) for c in cells]
    far = (2 * k * side + 2, 2 * max(p[-1] for p in pts) + 2)
    pts += [tuple(far[i == k] if j == i else 0 for j in range(ambient))
            for i in range(ambient)]
    return pts


def shaped_support(rng, d, shape):
    """Small supports that stress the census: flat, repeated, dominated."""
    def vec(lo, hi):
        return tuple(rng.randint(lo, hi) for _ in range(d))

    base = vec(0, 4)
    if shape == "point":
        return [base]
    if shape == "collinear":
        step = vec(0, 2)
        return [tuple(b + t * s for b, s in zip(base, step))
                for t in range(rng.randint(1, 4))]
    if shape == "coplanar":
        u, v = vec(0, 2), vec(0, 2)
        return [tuple(b + s * x + t * y for b, x, y in zip(base, u, v))
                for s in range(3) for t in range(3) if rng.random() < 0.6] or [base]
    if shape == "repeated":
        pts = [vec(0, 5) for _ in range(rng.randint(1, 5))]
        return pts + [rng.choice(pts) for _ in range(rng.randint(1, 3))]
    if shape == "dominated":
        pts = [vec(0, 4) for _ in range(rng.randint(1, 4))]
        return pts + [tuple(x + rng.randint(0, 3) for x in rng.choice(pts))
                      for _ in range(rng.randint(1, 4))]
    return [vec(0, 6) for _ in range(rng.randint(1, 8 if d < 4 else 6))]


SHAPES = ("point", "collinear", "coplanar", "repeated", "dominated", "random")


def full_dimensional(pts):
    return affine_dim(pts, frozenset(range(len(pts))), ()) == len(pts[0])


class TestCensusAgreement:
    """The double-description census against the brute-force oracle."""

    def assert_agree(self, pts, orthant):
        facets = N._facet_census(pts, orthant)
        assert facets == brute_force_facet_census(pts, orthant)
        assert N._face_lattice(pts, facets, orthant) == \
            pairwise_face_lattice(pts, facets, orthant)

    def assert_lattice_agrees(self, pts, orthant):
        # at workload size the brute-force facet oracle costs seconds
        facets = N._facet_census(pts, orthant)
        assert N._face_lattice(pts, facets, orthant) == \
            pairwise_face_lattice(pts, facets, orthant)
        return facets

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_orthant_shapes(self, d):
        rng = random.Random(100 + d)
        for _ in range(12):
            for shape in SHAPES:
                self.assert_agree(shaped_support(rng, d, shape), True)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_polytope_shapes(self, d):
        # flat shapes are completed to full dimension by a few random points
        rng = random.Random(200 + d)
        checked = 0
        while checked < 40:
            shape = SHAPES[checked % len(SHAPES)]
            pts = shaped_support(rng, d, shape)
            pts += [tuple(rng.randint(0, 6) for _ in range(d))
                    for _ in range(rng.randint(0, d + 1))]
            if full_dimensional(pts):
                self.assert_agree(pts, False)
                checked += 1

    def test_staircases(self):
        rng = random.Random(31)
        for ambient, npts in ((2, 6), (3, 9), (3, 12), (4, 9), (4, 11)):
            pts = staircase_support(rng, ambient, npts)
            self.assert_agree(pts, True)
            self.assert_agree(pts + [(0,) * ambient], False)

    def test_more_points_than_a_machine_word(self):
        # point masks beyond 64 bits: staircases, a grid cube whose faces
        # hold many points, and a simplex face holding all of them; the
        # staircases have more than 64 facets, so facet masks are wide too
        rng = random.Random(32)
        cases = [(staircase_support(rng, 3, 70), True),
                 (staircase_support(rng, 4, 70), True),
                 ([(x, y, z) for x in range(5) for y in range(5)
                   for z in range(5)], False),
                 ([(x, y, 10 - x - y) for x in range(11)
                   for y in range(11 - x)], True)]
        nfacets = []
        for pts, orthant in cases:
            assert len(pts) > 64
            nfacets.append(len(self.assert_lattice_agrees(pts, orthant)))
        assert nfacets[0] > 64 and nfacets[1] > 64, nfacets

    @pytest.mark.parametrize("ambient, sizes", [(3, (12, 18, 24, 30)),
                                                (4, (12, 16, 20))])
    def test_bowls_at_workload_size(self, ambient, sizes):
        # the benchmark's bowl supports, and bowls with four more points:
        # lattice midpoints of two bowl points and dominated translates
        rng = random.Random(300 + ambient)
        for n in sizes:
            for _ in range(3):
                pts = staircase_support(rng, ambient, n)
                self.assert_lattice_agrees(pts, True)
                self.assert_lattice_agrees(pts + [(0,) * ambient], False)
                pts = staircase_support(rng, ambient, n - 4)
                extra = []
                while len(extra) < 4:
                    p, q = rng.sample(pts, 2)
                    if rng.random() < 0.5:
                        m = tuple(a + b for a, b in zip(p, q))
                        if all(x % 2 == 0 for x in m):
                            extra.append(tuple(x // 2 for x in m))
                    else:
                        extra.append(tuple(x + rng.randint(0, 2) for x in p))
                self.assert_lattice_agrees(pts + extra, True)

    @pytest.mark.parametrize("ambient", [3, 4])
    def test_boxes_and_simplices_with_interior_points(self, ambient):
        rng = random.Random(310 + ambient)
        for npts in (20, 24, 28):
            sides = [rng.randint(3, 5) for _ in range(ambient)]
            box = list(itertools.product(*[range(a + 1) for a in sides]))
            corners = [p for p in box if all(x in (0, a) for x, a in zip(p, sides))]
            rest = [p for p in box if p not in corners]
            self.assert_lattice_agrees(
                corners + rng.sample(rest, npts - len(corners)), False)
            sides = [rng.randint(5, 9) for _ in range(ambient)]
            vol = math.prod(sides)
            corners = [(0,) * ambient] + [
                tuple(a if j == i else 0 for j in range(ambient))
                for i, a in enumerate(sides)]
            rest = [p for p in itertools.product(*[range(a + 1) for a in sides])
                    if p not in corners and
                    sum(x * (vol // a) for x, a in zip(p, sides)) <= vol]
            self.assert_lattice_agrees(
                corners + rng.sample(rest, npts - len(corners)), False)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_census_does_not_follow_the_point_order(self, d):
        # a shuffled support has the same facets and faces once its point
        # indices are mapped back; random supports, with and without the
        # orthant, and bowls, where the orthant's directions cut most
        rng = random.Random(400 + d)
        cases = []
        while len(cases) < 24:
            pts = list(dict.fromkeys(shaped_support(rng, d, SHAPES[len(cases) % 6])
                                     + [tuple(rng.randint(0, 6) for _ in range(d))
                                        for _ in range(rng.randint(1, d + 2))]))
            orthant = len(cases) % 2 == 0
            if orthant or full_dimensional(pts):
                cases.append((pts, orthant))
        for n in (d + 3, 12, 20):
            cases.append((staircase_support(rng, d, n), True))
        for pts, orthant in cases:
            perm = list(range(len(pts)))
            rng.shuffle(perm)
            shuffled = [pts[i] for i in perm]
            facets = N._facet_census(shuffled, orthant)
            faces = N._face_lattice(shuffled, facets, orthant)
            assert faces == pairwise_face_lattice(shuffled, facets, orthant)
            want = N._facet_census(pts, orthant)
            assert [dataclasses.replace(f, points=frozenset(perm[i] for i in f.points))
                    for f in facets] == want
            assert sorted((dataclasses.replace(f, points=tuple(sorted(perm[i] for i in f.points)))
                           for f in faces), key=lambda f: (f.dim, f.points, f.recession)) == \
                N._face_lattice(pts, want, orthant)

    def test_face_lattice_takes_no_rank(self, monkeypatch):
        # the dimensions come from the lattice's grading, not eliminations
        def refuse(rows):
            raise AssertionError("a rank was taken")

        rng = random.Random(47)
        cases = [(staircase_support(rng, 3, 30), True),
                 (staircase_support(rng, 4, 20), True),
                 (staircase_support(rng, 4, 20) + [(0, 0, 0, 0)], False),
                 ([(x, y, z) for x in (0, 3) for y in (0, 4) for z in (0, 5)]
                  + [(1, 2, 3), (3, 1, 1), (0, 2, 5)], False)]
        for pts, orthant in cases:
            facets = N._facet_census(pts, orthant)
            want = pairwise_face_lattice(pts, facets, orthant)
            with monkeypatch.context() as m:
                m.setattr(N, "matrix_rank", refuse)
                m.setattr(N, "_bareiss", refuse)
                got = N._face_lattice(pts, facets, orthant)
            assert got == want

    def test_orthant_goes_in_first(self, monkeypatch):
        # the first cone is spanned by the d directions and the first
        # point, so each cone on the way is a Newton polyhedron's; its
        # rays are written down, and the second point is the first one
        # tested against them
        def refuse(rows):
            raise AssertionError("the first cone was solved for")

        seen, real = [], N._dot

        def recorded(r, g):
            seen.append((r, g))
            return real(r, g)

        monkeypatch.setattr(N, "kernel_line", refuse)
        monkeypatch.setattr(N, "matrix_rank", refuse)
        monkeypatch.setattr(N, "_dot", recorded)
        rng = random.Random(42)
        for ambient in (2, 3, 4):
            pts = staircase_support(rng, ambient, 12)
            seen.clear()
            N._facet_census(pts, True)
            first = seen[:ambient + 1]
            assert [r for r, _ in first] == N._orthant_cone(pts[0])
            assert {g for _, g in first} == {(1,) + pts[1]}

    def test_orthant_cone_is_the_kernel_lines(self):
        # each closed-form ray is the kernel line of the other d basis
        # generators, signed positive on its own
        rng = random.Random(43)
        for ambient in (2, 3, 4):
            units = [tuple(int(t == j) for t in range(-1, ambient))
                     for j in range(ambient)]
            for _ in range(25):
                p = tuple(rng.randint(0, 9) for _ in range(ambient))
                gens = units + [(1,) + p]
                want = []
                for k, g in enumerate(gens):
                    r = kernel_line(gens[:k] + gens[k + 1:])
                    want.append(r if N._dot(r, g) > 0 else tuple(-x for x in r))
                assert N._orthant_cone(p) == want

    def test_flat_polytope_rejected(self):
        for pts in ([(1, 2)], [(0, 0), (1, 1), (3, 3)],
                    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 0)]):
            with pytest.raises(NotFullDimensional):
                N._facet_census(pts, orthant=False)

    def test_kernel_solves_bounded_by_dimension(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return kernel_line(rows)

        monkeypatch.setattr(N, "kernel_line", counted)
        rng = random.Random(41)
        for ambient, npts in ((3, 30), (4, 20), (4, 33)):
            calls.clear()
            N._facet_census(staircase_support(rng, ambient, npts), True)
            assert not calls
        calls.clear()
        LatticePolytope([(x, y, z) for x in (0, 2) for y in (0, 3)
                         for z in (0, 1)] + [(1, 1, 1)])
        assert 0 < len(calls) <= 4


class TestMaskReaders:
    """Interiority and the ends of an edge, read off each point's facet
    bitmask, against the scans of every facet and the sort along the edge
    they replace."""

    def supports(self, rng):
        # random supports and polytopes, and ones whose edges hold lattice
        # points between their ends: scaled staircases and boxes
        for d in (2, 3, 4):
            for _ in range(6):
                yield S.newton_polyhedron(random_support(rng, dim=d))
                yield random_lattice_polytope(rng, d)
                k = rng.randint(2, 3)
                pts = staircase_support(rng, d, rng.randint(d + 1, 12))
                yield S.newton_polyhedron(
                    [tuple(k * x for x in p) for p in pts]
                    + [tuple(k * x - (k - 1) * y for x, y in zip(p, q))
                       for p, q in zip(pts, pts[1:])
                       if all(k * x >= (k - 1) * y for x, y in zip(p, q))])
            sides = [rng.randint(2, 4) for _ in range(d)]
            yield LatticePolytope(list(itertools.product(*[range(a + 1) for a in sides])))

    def test_against_the_scans(self):
        rng = random.Random(81)
        long_edges = 0
        for P in self.supports(rng):
            for f in P.faces:
                assert P.face_interior(f) == all(P.facets[i].compact for i in f.facets)
                if f.dim == 1 and f.compact:
                    assert N._edge(P.points, f, P._on) == sorting_edge(P.points, f)
                    long_edges += len(f.points) > 2
            if isinstance(P, N.NewtonPolyhedron):
                for v in P.vertices:
                    assert P.vertex_interior(v) == \
                        all(f.compact for f in P.facets if v in f.points)
        assert long_edges > 50


def assert_same_complex(got, want):
    assert got == want
    assert got.to_records() == want.to_records()


class TestModelAgreement:
    """One inclusion pass and one construction against the all-pairs
    scan followed by one ``pucker`` per long edge."""

    def test_staircase_resolution_models(self):
        # scaling a support by k multiplies every lattice length by k
        rng = random.Random(61)
        for ambient in (2, 3, 4):
            for _ in range(8):
                k = rng.randint(1, 3)
                np_ = S.newton_polyhedron(
                    [tuple(k * x for x in p) for p in staircase_support(
                        rng, ambient, rng.randint(ambient + 1, 14))])
                assert_same_complex(S.resolution_complex(np_),
                                    pairwise_resolution_complex(np_))

    def test_random_support_resolution_models(self):
        rng = random.Random(62)
        for d in (2, 3, 4):
            for _ in range(10):
                np_ = S.newton_polyhedron(random_support(rng, dim=d))
                assert_same_complex(S.resolution_complex(np_),
                                    pairwise_resolution_complex(np_))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_torus_boundary_models(self, d):
        rng = random.Random(63 + d)
        for _ in range(10):
            P = random_lattice_polytope(rng, d)
            assert_same_complex(S.torus_hypersurface_boundary_complex(P),
                                pairwise_torus_boundary_complex(P))
            # overrides on edges, including 0 and 1, and on cells that are
            # not edges, which both builders ignore
            mult = {"g" + ".".join(str(i) for i in f.points): rng.randint(0, 3)
                    for f in P.faces if 1 <= f.dim < d and rng.random() < 0.6}
            assert_same_complex(
                S.torus_hypersurface_boundary_complex(P, multiplicities=mult),
                pairwise_torus_boundary_complex(P, mult))

    def test_model_homology_agrees_with_order_complex_route(self):
        rng = random.Random(64)
        posets = 0
        for ambient in (2, 3, 4):
            for _ in range(8):
                k = rng.randint(1, 3)
                np_ = S.newton_polyhedron(
                    [tuple(k * x for x in p) for p in staircase_support(
                        rng, ambient, rng.randint(ambient + 1, 16))])
                model = S.resolution_complex(np_)
                posets += not model.has_delta
                for reduced in (False, True):
                    assert S.homology(model, reduced) == \
                        order_complex_homology(model, reduced)
        assert posets >= 12

    def test_one_complex_after_the_face_lattice(self, monkeypatch):
        np_ = S.newton_polyhedron([(9, 0, 0), (0, 9, 0), (0, 0, 9),
                                   (1, 1, 3), (3, 1, 1)])
        P = LatticePolytope([(x, y, z) for x in (0, 2) for y in (0, 2)
                             for z in (0, 2)])
        built = []
        real = CombinatorialComplex.__init__

        def counted(self, faces):
            built.append(1)
            real(self, faces)

        monkeypatch.setattr(CombinatorialComplex, "__init__", counted)
        for build, arg in ((S.resolution_complex, np_),
                           (S.torus_hypersurface_boundary_complex, P)):
            built.clear()
            model = build(arg)
            assert any("+" in f for f in model.face_ids)   # puckered
            assert len(built) == 1


def read_or_refused(read, points):
    """What ``read`` makes of ``points``: its points, facets and faces, or
    the error it raises."""
    try:
        got = read(points)
    except (S.SncxError, ValueError, TypeError) as exc:
        return "refused", type(exc), str(exc)
    if isinstance(got, tuple):
        return "read", got
    return "read", got.points, got.facets, got.faces


def refusal(want):
    """The class of a refusal and the check that made it, or None for a
    reading: a non-integer coordinate, a negative entry and a length
    unlike the first point's are all ``DescriptorInvalid``."""
    if want[0] == "refused":
        return want[1], next((k for k in ("non-integer", "negative", "coordinates,")
                              if k in want[2]), None)
    return None


class CensusReached(Exception):
    pass


def newton_reading(monkeypatch):
    """``NewtonPolyhedron`` stopped where its census starts, returning the
    points it read."""
    def stop(points, orthant):
        raise CensusReached(points)

    def read(points):
        with monkeypatch.context() as m:
            m.setattr(N, "_facet_census", stop)
            try:
                S.newton_polyhedron(points)
            except CensusReached as exc:
                return exc.args[0]
        raise AssertionError("the census was not reached")

    return read


FAULTS = [2.5, True, "1", -1, None]


def faulty_points(rng, d, faults):
    """A few random points of ambient ``d`` with ``faults`` faults:
    non-integers, negatives, a wrong length, an ambient too high."""
    pts = [[rng.randint(0, 4) for _ in range(d)] for _ in range(rng.randint(1, 6))]
    for _ in range(faults):
        p = rng.choice(pts)
        kind = rng.randrange(len(FAULTS) + 2)
        if kind < len(FAULTS):
            if FAULTS[kind] is not None:
                p[rng.randrange(d)] = FAULTS[kind]
        elif kind == len(FAULTS):
            p.append(0)
        else:
            p.extend([0] * (MAX_AMBIENT + 1 - len(p)))
    return pts


class TestOneCensus:
    """The shared point reader and the torus boundary's use of the Newton
    model's cell writer, against the reader and cells each had before."""

    @pytest.mark.parametrize("points", [
        [],
        [(1,)],
        [(True,), (0,)],
        [(0, 0), (2.5, 0), (1,)],
        [(0, 0), (1,), (2.5, 0)],
        [(0,) * 5, (1,)],
        [(1,), (0,) * 5],
        [(-1, 0), (0.5, 0)],
        [(0.5, 0), (-1, 0)],
        [(-1, 0, 0, 0, 0)],
        [(0, 0), (0, 0), (1, "1")],
        [(0, 0), (1, 1), (2, 2)],
    ])
    def test_two_faults_fail_in_the_old_order(self, monkeypatch, points):
        assert read_or_refused(LatticePolytope, points) == \
            read_or_refused(ReadingLatticePolytope, points)
        assert read_or_refused(newton_reading(monkeypatch), points) == \
            read_or_refused(reading_newton_points, points)

    def test_random_faults(self, monkeypatch):
        rng = random.Random(71)
        outcomes = Counter()
        for _ in range(400):
            pts = faulty_points(rng, rng.randint(1, 4), rng.randint(0, 3))
            want = read_or_refused(ReadingLatticePolytope, pts)
            assert read_or_refused(LatticePolytope, pts) == want
            outcomes[refusal(want) or "polytope"] += 1
            want = read_or_refused(reading_newton_points, pts)
            assert read_or_refused(newton_reading(monkeypatch), pts) == want
            outcomes[refusal(want) or "support"] += 1
        assert len(outcomes) >= 7, outcomes
        assert outcomes["polytope"] > 20 and outcomes["support"] > 40

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_torus_boundary_cells(self, d):
        rng = random.Random(72 + d)
        for _ in range(10):
            P = random_lattice_polytope(rng, d)
            mult = {"g" + ".".join(str(i) for i in f.points): rng.randint(0, 3)
                    for f in P.faces if 1 <= f.dim < d and rng.random() < 0.6}
            for m in (None, mult):
                want = cell_writing_torus_boundary_complex(P.points, m)
                assert_same_complex(S.torus_hypersurface_boundary_complex(P, m), want)
                assert_same_complex(S.torus_hypersurface_boundary_complex(
                    [list(p) for p in P.points], m), want)
