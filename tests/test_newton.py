import importlib
import itertools
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
    brute_force_facet_census,
    cell_writing_torus_boundary_complex,
    order_complex_homology,
    pairwise_face_lattice,
    pairwise_resolution_complex,
    pairwise_torus_boundary_complex,
    reading_newton_points,
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
        with pytest.raises(ValueError):
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
        # the package's ``homology`` function hides its module of that name
        H = importlib.import_module("sncx.homology")
        calls = []
        real = H.homology

        def counted(c, reduced=False):
            calls.append(reduced)
            return real(c, reduced)

        monkeypatch.setattr(H, "homology", counted)
        monkeypatch.setattr(N, "homology", counted)
        rep = S.w0_report(S.newton_polyhedron(CUSP))
        assert calls == [True]
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
    return N._affine_dim(pts, frozenset(range(len(pts))), ()) == len(pts[0])


class TestCensusAgreement:
    """The double-description census against the brute-force oracle."""

    def assert_agree(self, pts, orthant):
        facets = N._facet_census(pts, orthant)
        assert facets == brute_force_facet_census(pts, orthant)
        assert N._face_lattice(pts, facets, orthant) == \
            pairwise_face_lattice(pts, facets, orthant)

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
        # hold many points, and a simplex face holding all of them
        rng = random.Random(32)
        cases = [(staircase_support(rng, 3, 70), True),
                 (staircase_support(rng, 4, 70), True),
                 ([(x, y, z) for x in range(5) for y in range(5)
                   for z in range(5)], False),
                 ([(x, y, 10 - x - y) for x in range(11)
                   for y in range(11 - x)], True)]
        for pts, orthant in cases:
            assert len(pts) > 64
            facets = N._facet_census(pts, orthant)
            assert N._face_lattice(pts, facets, orthant) == \
                pairwise_face_lattice(pts, facets, orthant)

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
            assert 0 < len(calls) <= ambient + 1
        calls.clear()
        LatticePolytope([(x, y, z) for x in (0, 2) for y in (0, 3)
                         for z in (0, 1)] + [(1, 1, 1)])
        assert 0 < len(calls) <= 4


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
            outcomes[want[1] if want[0] == "refused" else "polytope"] += 1
            want = read_or_refused(reading_newton_points, pts)
            assert read_or_refused(newton_reading(monkeypatch), pts) == want
            outcomes[want[1] if want[0] == "refused" else "support"] += 1
        assert len(outcomes) >= 6
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
