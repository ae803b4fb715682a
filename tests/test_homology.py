import importlib
import itertools
import math
import random
import time
from collections import Counter

import pytest

import sncx as S
import sncx.snf as snf
from sncx import gallery as G
from sncx.errors import BoundaryNotSquareZero
from sncx.homology import _coreduce, _homology, _order_complex_chi
from sncx.snf import _det, kernel_line, matrix_rank

from conftest import (
    DUNCE_HAT,
    close_under_subsets,
    draw_mixed_script,
    dunce_hat,
    polygon_cone_fan,
    random_lattice_polygon,
    random_lattice_polytope,
    random_simplicial_complex,
    random_support,
    with_random_levels,
    without_delta,
)
from oracles import (
    clearing_homology,
    dense_smith_normal_form,
    order_complex_homology,
    per_degree_homology,
    presentation_wedge_certificate,
    rational_kernel_line,
    recursive_collapse_to_point,
    replay_collapse,
    sorting_collapse_to_point,
)
from test_newton import staircase_support


def dense(cx, k):
    """The boundary C_k -> C_{k-1} as a list of rows, sized by the bases."""
    rows = len(cx.bases.get(k - 1, ()))
    cols = len(cx.bases.get(k, ()))
    out = [[0] * cols for _ in range(rows)]
    for j, col in cx.boundary(k).items():
        for i, v in col.items():
            out[i][j] = v       # an index outside the bases raises here
    return out


def shape(rows):
    return len(rows), len(rows[0]) if rows else 0


def column(rows, j):
    return [r[j] for r in rows]


class TestChainComplex:
    def test_triangle_boundary_matrix(self):
        cx = S.chain_complex(G.triangle_boundary())
        d1 = dense(cx, 1)
        assert shape(d1) == (3, 3)
        assert all(sum(column(d1, j)) == 0 for j in range(3))
        assert S.smith_normal_form(d1).rank == 2
        assert S.smith_normal_form(cx.boundary(1)).rank == 2

    def test_multi_edge_boundary(self):
        cx = S.chain_complex(G.multi_edge_complex(4))
        d1 = dense(cx, 1)
        assert shape(d1) == (2, 4)
        for j in range(4):
            col = sorted(column(d1, j))
            assert col == [-1, 1]
        assert S.smith_normal_form(d1).rank == 1
        assert S.smith_normal_form(cx.boundary(1)).rank == 1

    def test_point(self):
        cx = S.chain_complex(G.point_complex())
        assert cx.top_degree == 0
        assert shape(dense(cx, 1)) == (1, 0)

    def test_square_zero_enforced(self):
        good = S.chain_complex(G.octahedron_boundary())
        bad = dict(good.matrices)
        ones = {i: 1 for i in range(len(good.bases[1]))}
        bad[2] = {j: dict(ones) for j in range(len(good.bases[2]))}
        with pytest.raises(BoundaryNotSquareZero):
            S.ChainComplex(good.bases, bad)

    def test_square_zero_names_the_lowest_degree(self):
        # the boundary of the 3-simplex with d_2 and d_3 both spoiled
        good = S.chain_complex(G.full_simplex(3))
        bad = dict(good.matrices)
        for k in (2, 3):
            bad[k] = {j: {i: 1 for i in col} for j, col in bad[k].items()}
        with pytest.raises(BoundaryNotSquareZero,
                           match="^boundary squared is nonzero from degree 2$"):
            S.ChainComplex(good.bases, bad)
        bad[2] = good.matrices[2]
        with pytest.raises(BoundaryNotSquareZero,
                           match="^boundary squared is nonzero from degree 3$"):
            S.ChainComplex(good.bases, bad)

    def test_sparse_columns_hold_only_nonzero_entries(self):
        for c in (G.octahedron_boundary(), G.real_projective_plane(),
                  G.multi_edge_complex(3)):
            cx = S.chain_complex(c)
            for k, cols in cx.matrices.items():
                assert sorted(cols) == list(range(len(cx.bases[k])))
                assert all(v for col in cols.values() for v in col.values())

    def test_poset_complex_falls_back_to_order_complex(self):
        # strip the delta structure off a triangle; homology must survive
        tri = G.triangle_boundary()
        recs = [{"id": f, "dim": tri.dim(f), "facets": list(tri.facets(f))}
                for f in tri.face_ids]
        poset_only = S.new_complex(recs)
        assert not poset_only.has_delta
        assert S.homology(poset_only).betti_vector() == (1, 1)


class TestSmithNormalForm:
    def test_diag(self):
        res = S.smith_normal_form([[2, 0], [0, 3]])
        assert res.invariant_factors == (1, 6)
        assert res.rank == 2

    def test_zero(self):
        res = S.smith_normal_form([[0, 0], [0, 0]])
        assert res.invariant_factors == ()
        assert res.rank == 0

    def test_divisibility_chain(self):
        rng = random.Random(3)
        for _ in range(30):
            m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
            fac = S.smith_normal_form(m).invariant_factors
            for a, b in zip(fac, fac[1:]):
                assert b % a == 0

    def test_permutation_invariance(self):
        rng = random.Random(11)
        for _ in range(20):
            m = [[rng.randint(-6, 6) for _ in range(5)] for _ in range(4)]
            res = S.smith_normal_form(m)
            rows = list(range(4))
            cols = list(range(5))
            rng.shuffle(rows)
            rng.shuffle(cols)
            p = [[m[i][j] for j in cols] for i in rows]
            assert S.smith_normal_form(p) == res

    def test_rp2_torsion_from_quotient(self):
        cx = S.chain_complex(G.real_projective_plane())
        assert S.smith_normal_form(cx.boundary(2)).invariant_factors[-1] == 2

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged matrix"):
            S.smith_normal_form([[1, 2], [3]])

    @staticmethod
    def _agrees_with_dense(rows):
        want = dense_smith_normal_form(rows)
        res = S.smith_normal_form(rows)
        assert (res.invariant_factors, res.rank) == want
        # the same matrix as sparse columns, i.e. its transpose's rows
        cols = {j: {i: r[j] for i, r in enumerate(rows) if r[j]}
                for j in range(len(rows[0]) if rows else 0)}
        assert S.smith_normal_form(cols) == res

    def test_sparse_agrees_with_dense_oracle(self):
        rng = random.Random(77)
        # mostly non-unit entries, so that a block is left for Euclid
        entries = [0, 0, 0, 1, -1, 2, -2, 3, -4, 6, -9]
        for _ in range(200):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            self._agrees_with_dense([[rng.choice(entries) for _ in range(n)]
                                     for _ in range(m)])
        for _ in range(40):
            # a common factor everywhere: no unit pivot at all
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            f = rng.choice([2, 3, 6])
            self._agrees_with_dense([[f * rng.randint(-5, 5) for _ in range(n)]
                                     for _ in range(m)])

    def test_sparse_agrees_with_dense_on_boundaries(self):
        rng = random.Random(78)
        fixtures = [G.octahedron_boundary(), G.real_projective_plane()]
        fixtures += [random_simplicial_complex(rng, max_dim=3) for _ in range(10)]
        for c in fixtures:
            cx = S.chain_complex(c)
            for k in range(1, cx.top_degree + 1):
                self._agrees_with_dense(dense(cx, k))

    def test_sd2_rp2_torsion_agrees_with_dense_oracle(self):
        cx = S.chain_complex(S.order_complex(S.order_complex(
            G.real_projective_plane())))
        d2 = dense(cx, 2)
        res = S.smith_normal_form(cx.boundary(2))
        assert res.invariant_factors[-1] == 2
        assert (res.invariant_factors, res.rank) == dense_smith_normal_form(d2)
        assert S.smith_normal_form(d2) == res


class TestMatrixRank:
    """The Bareiss rank against the rank of the dense Smith normal form."""

    def test_agrees_with_dense_oracle(self):
        rng = random.Random(81)
        cases = [[], [[]], [[0, 0, 0]], [[0, 0], [0, 0]], [[3, -6, 9]]]
        for _ in range(200):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            cases.append([[rng.randint(-9, 9) for _ in range(n)]
                          for _ in range(m)])
            # rank at most r: a product of an m x r and an r x n matrix
            r = rng.randint(0, min(m, n))
            left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
            right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
            cases.append([[sum(a * b for a, b in zip(row, col))
                           for col in zip(*right)] if r else [0] * n
                          for row in left])
            cases.append([[rng.randint(-2, 2) for _ in range(n)]])
        for rows in cases:
            assert matrix_rank(rows) == dense_smith_normal_form(rows)[1]

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged matrix"):
            matrix_rank([[1, 2], [3]])

    def test_determinant_from_the_same_elimination(self):
        rng = random.Random(82)
        for n in range(5):
            for _ in range(20):
                a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                want = sum(
                    (-1) ** sum(p[i] > p[j] for i in range(n)
                                for j in range(i + 1, n))
                    * math.prod(a[i][p[i]] for i in range(n))
                    for p in itertools.permutations(range(n)))
                assert _det([list(r) for r in a]) == want


class TestKernelLine:
    def test_known_lines(self):
        assert kernel_line([[1, 1, 0], [0, 1, 1]]) == (1, -1, 1)
        assert kernel_line([[2, 4]]) == (-2, 1)
        assert kernel_line([]) == (1,)
        assert kernel_line([[1, 2, 3], [2, 4, 6]]) is None

    def test_wrong_row_length_rejected(self):
        with pytest.raises(ValueError):
            kernel_line([[1, 2, 3]])

    def test_agrees_with_rational_oracle(self):
        rng = random.Random(91)
        for _ in range(400):
            d = rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d - 1)]
            if d > 2 and rng.random() < 0.4:
                # rank-deficient: a zero row, a repeated or a scaled row
                i, j = rng.sample(range(d - 1), 2)
                rows[i] = rng.choice([[0] * d, list(rows[j]),
                                      [3 * x for x in rows[j]]])
            want = rational_kernel_line(rows, d)
            assert kernel_line(rows) == want
            if want is not None:
                assert all(sum(a * b for a, b in zip(r, want)) == 0
                           for r in rows)


class TestHomology:
    def test_fixtures(self):
        assert S.homology(G.triangle_boundary()).betti_vector() == (1, 1)
        assert S.homology(G.multi_edge_complex(4)).betti_vector() == (1, 3)
        assert S.homology(G.octahedron_boundary()).betti_vector() == (1, 0, 1)

    def test_rp2(self):
        h = S.homology(G.real_projective_plane())
        assert h.betti_vector() == (1, 0, 0)
        assert h.torsion(1) == (2,)
        assert h.torsion(2) == ()

    def test_reduced_empty(self):
        h = S.homology(S.CombinatorialComplex([]), reduced=True)
        assert h.betti(-1) == 1
        assert S.homology(S.CombinatorialComplex([])).table == ()

    def test_euler_matches_betti(self):
        rng = random.Random(5)
        fixtures = [G.triangle_boundary(), G.octahedron_boundary(),
                    G.real_projective_plane(), G.multi_edge_complex(4)]
        fixtures += [random_simplicial_complex(rng) for _ in range(10)]
        for c in fixtures:
            h = S.homology(c)
            assert c.euler_characteristic() == \
                sum((-1) ** d * b for d, b, _t in h.table)

    def test_cohomology_rank(self):
        tri = G.triangle_boundary()
        assert S.cohomology_rank(tri, 0) == 1
        assert S.cohomology_rank(tri, 1) == 1
        assert S.cohomology_rank(tri, 2) == 0

    def test_simplex_skeleton_wedge_counts_up_to_six(self):
        import math
        for n in range(2, 7):
            full = G.full_simplex(n)
            for k in range(n):
                h = S.homology(S.skeleton(full, k), reduced=True)
                assert h.nonzero() == ((k, math.comb(n, k + 1), ()),) or \
                    (math.comb(n, k + 1) == 0 and h.nonzero() == ())


def _rational_rank(matrix):
    """Independent oracle: Gaussian elimination over exact rationals."""
    from fractions import Fraction
    rows = [[Fraction(int(x)) for x in row] for row in matrix]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / pv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


class TestAgainstRationalOracle:
    def test_betti_matches_rational_ranks(self):
        rng = random.Random(2024)
        fixtures = [G.triangle_boundary(), G.octahedron_boundary(),
                    G.real_projective_plane(), G.multi_edge_complex(4)]
        fixtures += [random_simplicial_complex(rng, max_dim=3)
                     for _ in range(15)]
        for c in fixtures:
            cx = S.chain_complex(c)
            h = S.homology(c)
            for k in range(cx.top_degree + 1):
                n_k = len(cx.bases.get(k, ()))
                r_k = _rational_rank(dense(cx, k)) if k else 0
                r_k1 = _rational_rank(dense(cx, k + 1))
                assert h.betti(k) == n_k - r_k - r_k1


def _rp3():
    s3 = G.cross_polytope_boundary(4)
    return s3.quotient_free_involution(G.antipodal_involution(s3))


class TestTopDownClearing:
    """Homology against the per-degree oracle; the last test spies on the
    top-down pass with clearing, kept as the oracle ``clearing_homology``."""

    @staticmethod
    def _agrees(c):
        for reduced in (False, True):
            assert S.homology(c, reduced) == per_degree_homology(c, reduced)

    def test_random_complexes_and_their_posets(self):
        rng = random.Random(606)
        for _ in range(60):
            c = random_simplicial_complex(rng, max_verts=7, max_facets=5,
                                          max_dim=3)
            self._agrees(c)
            self._agrees(without_delta(c))

    def test_level_subcomplexes(self):
        rng = random.Random(607)
        for _ in range(30):
            c = with_random_levels(rng, random_simplicial_complex(
                rng, max_verts=7, max_facets=5, max_dim=3))
            for m in range(1, c.max_level() + 1):
                self._agrees(c.level_subcomplex(m))

    def test_gallery_with_torsion(self):
        rp2 = G.real_projective_plane()
        sd2 = S.order_complex(S.order_complex(rp2))
        for c in (rp2, sd2, _rp3(), without_delta(rp2)):
            self._agrees(c)
        assert S.homology(sd2).torsion(1) == (2,)
        assert S.homology(_rp3()).nonzero() == ((0, 1, ()), (1, 0, (2,)),
                                                 (3, 1, ()))

    def test_skeleta_and_cross_polytope(self):
        for n in range(2, 7):
            full = G.full_simplex(n)
            for k in range(n + 1):
                self._agrees(S.skeleton(full, k))
        self._agrees(G.cross_polytope_boundary(4))
        self._agrees(S.order_complex(G.cross_polytope_boundary(4)))

    def test_torsion_reaches_the_euclid_block(self, monkeypatch):
        # unit pivots only split off factors 1, so Z/2 needs the Euclid loop
        blocks = []
        euclid = snf._euclid_diagonal

        def spy(a):
            blocks.append(len(a))
            return euclid(a)

        monkeypatch.setattr(snf, "_euclid_diagonal", spy)
        for c in (G.real_projective_plane(), _rp3()):
            blocks.clear()
            self._agrees(c)
            assert any(blocks)

    def test_degree_one_gets_only_the_uncleared_edges(self, monkeypatch):
        c = S.order_complex(S.order_complex(G.octahedron_boundary()))
        f0, f1, f2 = c.f_vector()
        received = []
        eliminate = snf._eliminate_units

        def count(vecs):
            received.append(len(vecs))
            return eliminate(vecs)

        monkeypatch.setattr(snf, "_eliminate_units", count)
        h = clearing_homology(c)
        assert h.nonzero() == ((0, 1, ()), (2, 1, ()))
        rank2 = f2 - 1
        assert received == [f2, f1 - rank2]
        assert f1 - rank2 == f0 - 1


def critical_counts(c):
    """The critical cells per degree of the coreduction pass on ``c``."""
    ids, below, above, live = c._num[:4]
    dims = Counter(c.dim(ids[x]) for x in _coreduce(below, above, live)[0])
    return [dims[k] for k in range(c.dimension + 1)]


class TestCoreduction:
    """Homology from one coreduction pass and the Morse complex of its
    critical cells, against the clearing and per-degree oracles."""

    @staticmethod
    def _agrees(c):
        for reduced in (False, True):
            want = per_degree_homology(c, reduced)
            assert clearing_homology(c, reduced) == want
            assert S.homology(c, reduced) == want

    def test_random_complexes_and_their_posets(self):
        rng = random.Random(1601)
        for _ in range(80):
            c = random_simplicial_complex(rng, max_verts=8, max_facets=6,
                                          max_dim=4)
            self._agrees(c)
            self._agrees(without_delta(c))

    def test_level_subcomplexes(self):
        rng = random.Random(1602)
        for _ in range(30):
            c = with_random_levels(rng, random_simplicial_complex(
                rng, max_verts=8, max_facets=6, max_dim=3))
            for m in range(1, c.max_level() + 1):
                self._agrees(c.level_subcomplex(m))
                self._agrees(without_delta(c.level_subcomplex(m)))

    def test_every_step_of_blowup_scripts(self):
        rng = random.Random(1603)
        steps = 0
        for i in range(16):
            c = random_simplicial_complex(rng, max_verts=6, max_facets=4,
                                          max_dim=3)
            if i % 2:
                c = with_random_levels(rng, c)
            cur = c
            self._agrees(cur)
            for move in draw_mixed_script(rng, c, rng.randint(3, 6)):
                cur = S.blowup_move(cur, move)
                self._agrees(cur)
                for m in range(1, cur.max_level() + 1) if cur.has_levels else ():
                    self._agrees(cur.level_subcomplex(m))
                steps += 1
        assert steps >= 40

    def test_delta_columns_are_signed_positions(self):
        # a Delta column lists its facets' slots in Delta order, entry i
        # with the sign (-1)^i: coreduction on it matches as on the signed
        # columns, and chain_complex writes those signs
        rng = random.Random(1605)
        for _ in range(40):
            c = random_simplicial_complex(rng, max_verts=7, max_facets=5,
                                          max_dim=3)
            pos = c.face_ids.index
            signed = [{pos(g): (-1) ** i for i, g in enumerate(c.delta_order(f))}
                      for f in c.face_ids]
            _ids, below, above, live = c._num[:4]
            assert below == [list(col) for col in signed]
            assert _coreduce(below, above, live) == _coreduce(signed, above, live)
            cx = S.chain_complex(c)
            for k, cols in cx.matrices.items():
                for j, f in enumerate(cx.bases[k]):
                    row = cx.bases[k - 1].index
                    want = [(row(g), (-1) ** i)
                            for i, g in enumerate(c.delta_order(f))]
                    assert list(cols[j].items()) == want

    def test_torsion_reaches_the_euclid_block(self, monkeypatch):
        rp2 = G.real_projective_plane()
        blocks = []
        euclid = snf._euclid_diagonal

        def spy(a):
            blocks.append(len(a))
            return euclid(a)

        for c in (rp2, S.order_complex(S.order_complex(rp2)), _rp3()):
            blocks.clear()
            monkeypatch.setattr(snf, "_euclid_diagonal", spy)
            h = S.homology(c)
            monkeypatch.undo()
            assert any(blocks)      # the Morse boundary 2 is not a unit
            assert h.torsion(1) == (2,)
            self._agrees(c)

    def test_points_and_disconnected_complexes(self):
        rng = random.Random(1604)
        for n in range(1, 6):
            points = S.new_complex([{"id": f"p{i}", "dim": 0, "facets": []}
                                    for i in range(n)])
            self._agrees(points)
            assert S.homology(points).betti_vector() == (n,)
            assert critical_counts(points) == [n]
        for _ in range(20):
            a = random_simplicial_complex(rng, max_verts=6, max_dim=3)
            b = random_simplicial_complex(rng, max_verts=6, max_dim=3)
            u = S.disjoint_union(a, b)
            self._agrees(u)
            self._agrees(without_delta(u))
            self._agrees(S.disjoint_union(u, G.real_projective_plane()))

    def test_critical_cells_of_subdivided_spheres_and_rp3(self):
        s3 = G.cross_polytope_boundary(4)
        sd2_s3 = S.order_complex(S.order_complex(s3))
        sd3_s2 = S.order_complex(S.order_complex(S.order_complex(
            G.octahedron_boundary())))
        sd1_rp3 = S.order_complex(_rp3())
        assert critical_counts(sd2_s3) == [1, 0, 0, 1]
        assert critical_counts(sd3_s2) == [1, 0, 1]
        assert critical_counts(sd1_rp3) == [1, 1, 1, 1]
        assert S.homology(sd2_s3).nonzero() == ((0, 1, ()), (3, 1, ()))
        assert S.homology(sd3_s2).nonzero() == ((0, 1, ()), (2, 1, ()))
        assert S.homology(sd1_rp3).nonzero() == ((0, 1, ()), (1, 0, (2,)),
                                                 (3, 1, ()))
        self._agrees(sd1_rp3)

class TestWeightLabels:
    def test_weight_zero_plain(self):
        assert S.weight_zero_cohomology_rank(G.triangle_boundary(), 1) == 1

    def test_weight_zero_resolution_point(self):
        assert S.weight_zero_cohomology_rank(G.point_complex(), 2,
                                             resolution=True) == 0

    def test_weight_zero_resolution_circle(self):
        assert S.weight_zero_cohomology_rank(G.triangle_boundary(), 2,
                                             resolution=True) == 1

    def test_top_weight_triangle(self):
        ranks = S.top_weight_ranks(G.triangle_boundary(), 2)
        assert ranks[2] == 1
        assert ranks[0] == 0 and ranks[1] == 0

    def test_top_weight_point(self):
        assert all(v == 0 for v in S.top_weight_ranks(G.point_complex(), 3).values())

    def test_top_weight_points(self):
        pts = S.CombinatorialComplex(
            [{"id": f"p{i}", "dim": 0, "facets": []} for i in range(8)])
        assert S.top_weight_ranks(pts, 1)[1] == 7


def dunce_hat_with_a_3_cell():
    """The dunce hat with a 3-cell on its disk 127, 128, 178, 678, whose
    other side is one new 2-cell ``s`` (a square), labeled first."""
    def edge(a, b):
        return "e%d%d" % (min(a, b), max(a, b))

    def tri(t):
        return "t%d%d%d" % tuple(sorted(t))

    edges = sorted({tuple(sorted(e)) for t in DUNCE_HAT
                    for e in itertools.combinations(t, 2)})
    disk = ((1, 2, 7), (1, 2, 8), (1, 7, 8), (6, 7, 8))
    return S.new_complex(
        [{"id": f"v{v}", "dim": 0, "facets": []} for v in range(1, 9)]
        + [{"id": edge(*e), "dim": 1, "facets": [f"v{e[0]}", f"v{e[1]}"]}
           for e in edges]
        + [{"id": tri(t), "dim": 2,
            "facets": [edge(a, b) for a, b in itertools.combinations(t, 2)]}
           for t in DUNCE_HAT]
        + [{"id": "s", "label": "a", "dim": 2,
            "facets": [edge(2, 7), edge(2, 8), edge(6, 7), edge(6, 8)]},
           {"id": "ball", "dim": 3, "facets": ["s"] + [tri(t) for t in disk]}])


def triangles_under_a_3_cell():
    """Three triangles on one edge ``ea``, two of them (``fa``, ``fc``)
    on one circle, and a 3-cell on ``fa`` and ``fb``: a face poset the
    constructor accepts, as it checks regularity up to dimension 2 only,
    whose 3-cell has ridges that lie in one of its facets.  Removing the pair
    (``fa``, ``ball``) frees ``ed`` and ``ee``, which lie below ``fb``
    alone and not below the pair."""
    def edge(e, a, b):
        return {"id": e, "dim": 1, "facets": [f"v{a}", f"v{b}"]}

    return S.new_complex(
        [{"id": f"v{i}", "dim": 0} for i in range(4)]
        + [edge("ea", 0, 1), edge("eb", 1, 2), edge("ec", 0, 2),
           edge("ed", 1, 3), edge("ee", 0, 3)]
        + [{"id": f, "dim": 2, "facets": es} for f, es in (
            ("fa", ["ea", "eb", "ec"]), ("fb", ["ea", "ed", "ee"]),
            ("fc", ["ea", "eb", "ec"]))]
        + [{"id": "ball", "dim": 3, "facets": ["fa", "fb"]}])


def with_one_sided_3_cells(rng, c, k):
    """The face poset of ``c`` with ``k`` more 3-cells like the one of
    :func:`triangles_under_a_3_cell`: each on a triangle t and on a new
    triangle over an edge of t and a new vertex, with a copy of t beside
    them so that the Euler characteristic stays."""
    recs = [{key: v for key, v in c._record(f).items() if key != "delta_order"}
            for f in c.face_ids]
    for i in range(k):
        t = rng.choice(c.faces_of_dim(2))
        xy = rng.choice(c.facets(t))
        x, y = c.facets(xy)
        recs += [{"id": f"p{i}", "dim": 2, "facets": list(c.facets(t))},
                 {"id": f"w{i}", "dim": 0},
                 {"id": f"a{i}", "dim": 1, "facets": [x, f"w{i}"]},
                 {"id": f"b{i}", "dim": 1, "facets": [y, f"w{i}"]},
                 {"id": f"q{i}", "dim": 2, "facets": [xy, f"a{i}", f"b{i}"]},
                 {"id": f"z{i}", "dim": 3, "facets": rng.sample([t, f"q{i}"], 2)}]
    return S.new_complex(recs)


class TestCollapse:
    def test_cone_collapses(self):
        ok, seq = S.collapse_to_point(S.cone(G.triangle_boundary()))
        assert ok
        assert len(seq) * 2 + 1 == sum(S.cone(G.triangle_boundary()).f_vector())

    def test_triangle_fails(self):
        ok, seq = S.collapse_to_point(G.triangle_boundary())
        assert not ok and seq == ()

    def test_point(self):
        assert S.collapse_to_point(G.point_complex()) == (True, ())

    def test_agrees_with_recursive_oracle(self):
        rng = random.Random(31)
        fixtures = [G.triangle_boundary(), G.octahedron_boundary(),
                    G.full_simplex(3), S.skeleton(G.full_simplex(4), 2),
                    S.cone(G.octahedron_boundary()), G.full_simplex(6),
                    S.skeleton(G.full_simplex(5), 3),
                    S.skeleton(G.full_simplex(6), 1)]
        for _ in range(40):
            c = random_simplicial_complex(rng, max_dim=3)
            fixtures.append(c)
            fixtures.append(S.cone(c))
        budgets = [0, 1, 2, 3, 5, 8, 13, 40, 200, 10000]
        for c in fixtures:
            for budget in budgets + [rng.randint(0, 60)]:
                got = S.collapse_to_point(c, budget)
                assert got == recursive_collapse_to_point(c, budget)
                assert not got[0] or replay_collapse(c, got[1])

    def test_deep_search_has_no_recursion_limit(self):
        ok, seq = S.collapse_to_point(G.full_simplex(10), 4000)
        assert ok
        assert len(seq) * 2 + 1 == sum(G.full_simplex(10).f_vector())

    def test_spent_budget_ends_the_search(self):
        # a greedy collapse of the 12-simplex expands 4,095 states; with
        # one fewer the search stops at its first backtrack, since trying
        # the other pairs on the way up can reach no point
        c = G.full_simplex(12)
        start = time.perf_counter()
        assert S.collapse_to_point(c, 4094) == (False, ())
        assert time.perf_counter() - start < 2.0
        ok, seq = S.collapse_to_point(c, 4095)
        assert ok and replay_collapse(c, seq)

    def test_agrees_with_sorting_oracle(self):
        # sizes and budgets where the recursive oracle is too slow, two
        # surfaces with boundary whose searches fail after backtracking, a
        # complex that collapses only after a backtrack, and random ones
        # whose searches restore faces to free pairs with other cofaces
        octahedron = G.octahedron_boundary()
        annulus = S.simplicial_complex_from_subsets(close_under_subsets(
            map(frozenset, ((0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5),
                            (2, 0, 5), (0, 5, 3)))))
        moebius = S.simplicial_complex_from_subsets(close_under_subsets(
            map(frozenset, ((0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0),
                            (4, 0, 1)))))
        cases = {"simplex": (G.full_simplex(10), (1, 5, 4000)),
                 "cone": (S.cone(octahedron.order_complex().order_complex()),
                          (1, 5, 4000)),
                 "octahedron": (octahedron, (4000,)),
                 "annulus": (annulus, (1, 50, 4000)),
                 "moebius": (moebius, (4000,)),
                 "hat": (dunce_hat_with_a_3_cell(), (1, 2, 4000)),
                 "one-sided": (triangles_under_a_3_cell(), (1, 4000))}
        rng = random.Random(53)
        for i in range(60):
            c = random_simplicial_complex(rng, max_verts=8, max_facets=8,
                                          max_dim=3)
            cases[i] = (c, (20, 300, 4000))
            cases[-1 - i] = (S.cone(c), (20, 300, 4000))
            if c.dimension >= 2:
                cases["one-sided", i] = (with_one_sided_3_cells(
                    rng, S.cone(c) if i % 3 else c, rng.randint(1, 2)), (3, 20, 4000))
        resumed = {}
        for name, (c, budgets) in cases.items():
            for budget in budgets:
                stats = {}
                want = sorting_collapse_to_point(c, budget, stats)
                assert S.collapse_to_point(c, budget) == want
                assert not want[0] or replay_collapse(c, want[1])
                resumed[name, budget] = stats.get("resumed", 0)
        assert resumed["annulus", 4000] > 1000      # searched through
        assert resumed["simplex", 4000] == 0        # collapsed greedily
        # the second pair is one that removing the first made free
        assert S.collapse_to_point(cases["one-sided"][0])[1][:2] == \
            (("fa", "ball"), ("ed", "fb"))

    def test_agrees_on_carried_numberings(self):
        # complexes whose slot i is not at position i: skeleta and level
        # subcomplexes share their parent's lists, with slots outside them
        # above their faces; so do the components a d = 0 certificate
        # collapses; move outputs keep dead slots; and a move output whose
        # dead slots would have outnumbered its live ones is compacted
        rng = random.Random(71)
        cases = []              # (kind, complex)
        for base in (G.full_simplex(6), S.cone(G.octahedron_boundary().order_complex()),
                     S.cone(dunce_hat())):
            cases += [("outside", S.skeleton(base, k)) for k in range(base.dimension)]
            lv = with_random_levels(rng, base)
            cases += [("outside", S.level_subcomplex(lv, m))
                      for m in range(1, lv.max_level())]
            cur = base
            for move in draw_mixed_script(rng, base, 4):
                cur = S.blowup_move(cur, move)
                cases.append(("dead", cur))
        for _ in range(12):
            c = random_simplicial_complex(rng, max_verts=8, max_facets=6, max_dim=3)
            u = S.disjoint_union(S.cone(c), c)
            cases += [("outside", u._restricted(comp))
                      for comp in u.connected_components()]
        c = G.full_simplex(3)
        for _ in range(2):
            c = S.blowup_move(c, S.BlowupMove(case=2, face=c.faces_of_dim(0)[0]))
        assert c._num[0] is c.face_ids          # the last move compacted
        cases.append(("compacted", c))
        kinds = Counter()
        for kind, c in cases:
            ids, below, _above, live = c._num[:4]
            assert (live == range(len(below))) == (kind == "compacted")
            kinds[kind] += len(ids) > len(live)
            for budget in (1, 20, 300, 4000):
                got = S.collapse_to_point(c, budget)
                assert got == sorting_collapse_to_point(c, budget)
                assert not got[0] or replay_collapse(c, got[1])
                kinds["collapsed"] += got[0]
        assert kinds["outside"] >= 20 and kinds["dead"] >= 10, kinds
        assert kinds["collapsed"] >= 50, kinds

    def test_replay_rejects_what_is_not_a_collapse(self):
        c = S.cone(G.triangle_boundary())
        ok, seq = S.collapse_to_point(c)
        assert ok and replay_collapse(c, seq)
        assert not replay_collapse(c, seq[:-1])         # two faces left
        assert not replay_collapse(c, seq[1:])          # v0 under e0 and v0*c
        assert not replay_collapse(c, seq[:1] + seq[:1])
        assert not replay_collapse(c, [(t, s) for s, t in seq])
        assert not replay_collapse(G.triangle_boundary(), ())

    def test_collapses_after_a_backtrack(self):
        hat = dunce_hat()
        assert S.homology(hat, reduced=True).nonzero() == ()
        assert S.collapse_to_point(hat) == (False, ())
        c = dunce_hat_with_a_3_cell()
        stats = {}
        ok, seq = S.collapse_to_point(c)
        assert ok and (ok, seq) == sorting_collapse_to_point(c, 10000, stats)
        assert stats == {"resumed": 1}
        # the first try, the new 2-cell, leaves the dunce hat, which has no
        # free face; the search then collapses the 3-cell through the hat
        assert seq[0] == ("t127", "ball")
        assert S.collapse_to_point(c, 1) == (False, ())

    def test_collapse_success_implies_point_homology(self):
        rng = random.Random(9)
        for _ in range(15):
            c = S.cone(random_simplicial_complex(rng))
            ok, _seq = S.collapse_to_point(c)
            if ok:
                h = S.homology(c, reduced=True)
                assert all(b == 0 for _d, b, _t in h.table)


class TestWedgeCertificate:
    def test_triangle(self):
        cert = S.wedge_certificate(G.triangle_boundary(), 1)
        assert (cert.status, cert.count) == ("certified-wedge", 1)

    def test_rp2_refuted(self):
        assert S.wedge_certificate(G.real_projective_plane(), 1).status == "refuted"

    def test_multi_edge(self):
        cert = S.wedge_certificate(G.multi_edge_complex(4), 1)
        assert (cert.status, cert.count) == ("certified-wedge", 3)

    def test_octahedron_sphere(self):
        cert = S.wedge_certificate(G.octahedron_boundary(), 2)
        assert (cert.status, cert.count) == ("certified-wedge", 1)

    def test_points_d0(self):
        pts = S.CombinatorialComplex(
            [{"id": f"p{i}", "dim": 0, "facets": []} for i in range(4)])
        cert = S.wedge_certificate(pts, 0)
        assert (cert.status, cert.count) == ("certified-wedge", 3)

    def test_disconnected_refuted(self):
        c = S.disjoint_union(G.triangle_boundary(), G.point_complex())
        assert S.wedge_certificate(c, 1).status == "refuted"

    def test_wrong_degree_refuted(self):
        assert S.wedge_certificate(G.octahedron_boundary(), 1).status == "refuted"

    def test_empty_refuted(self):
        assert S.wedge_certificate(S.CombinatorialComplex([]), 1).status == "refuted"

    def test_budget_exhaustion_degrades_to_rational(self):
        # the matching decides the octahedron without Tietze moves
        cert = S.wedge_certificate(G.octahedron_boundary(), 2, tietze_budget=1)
        assert (str(cert), cert.witness) == (
            "certified-wedge(1)", {"generators": 0, "status": "trivial"})
        # every matching of the dunce hat with one critical vertex leaves a
        # critical edge, so it is Tietze's to decide
        hat = dunce_hat()
        assert _homology(hat, reduced=True)[1] == (1, 1, 1)
        cert = S.wedge_certificate(hat, 2, tietze_budget=1, collapse_budget=200)
        assert str(cert) == "rational-homology-wedge(0)"
        cert = S.wedge_certificate(hat, 2)
        assert (str(cert), cert.witness) == (
            "certified-wedge(0)", {"generators": 0, "status": "trivial"})

    def test_d0_uncertified_component_degrades(self):
        c = S.disjoint_union(S.cone(G.triangle_boundary()), G.point_complex())
        cert = S.wedge_certificate(c, 0, tietze_budget=1, collapse_budget=0)
        assert cert.status == "rational-homology-wedge"
        assert cert.count == 1
        full = S.wedge_certificate(c, 0)
        assert (full.status, full.count) == ("certified-wedge", 1)

    def test_simplex_skeleta_certified_by_the_cells(self):
        for n in range(4, 9):
            cert = S.wedge_certificate(S.skeleton(G.full_simplex(n), n - 2),
                                       n - 2)
            assert (cert.status, cert.count) == ("certified-wedge", n)
            assert cert.witness == {"generators": 0, "status": "trivial"}

    def test_certified_implies_wedge_betti(self):
        for c, d in [(G.triangle_boundary(), 1), (G.octahedron_boundary(), 2),
                     (G.multi_edge_complex(4), 1)]:
            cert = S.wedge_certificate(c, d)
            assert cert.status == "certified-wedge"
            h = S.homology(c, reduced=True)
            assert h.betti(d) == cert.count
            assert not h.has_torsion()
            assert all(b == 0 for k, b, _t in h.table if k != d)


class TestMatchingCertificate:
    """Simple connectivity and free fundamental groups read off the
    coreduction matching, against the edge-path presentation and Tietze
    moves: the same certificate wherever Tietze decides, and wherever the
    matching alone decides, a presentation with the same abelianization."""

    @staticmethod
    def _agrees(c, d, monkeypatch):
        """Whether the matching alone decided ``c`` against d-spheres."""
        old = presentation_wedge_certificate(c, d)
        H = importlib.import_module("sncx.homology")
        real, calls = H.fundamental_group_presentation, []
        with monkeypatch.context() as m:
            m.setattr(H, "fundamental_group_presentation",
                      lambda c: calls.append(c) or real(c))
            new = S.wedge_certificate(c, d)
        if old.status == "certified-wedge":
            assert new == old
        else:
            assert (new.status, new.count) in {(old.status, old.count),
                                               ("certified-wedge", old.count)}
        by_matching = (new.status == "certified-wedge" and not calls
                       and "collapse" not in new.witness)
        if by_matching:
            want = (new.count if d == 1 else 0, ())
            assert S.abelianization(S.fundamental_group_presentation(c)) == want
        return by_matching

    @staticmethod
    def _degree(rng, c):
        # the one degree >= 1 holding reduced homology, else a random one
        ks = [k for k, b, t in S.homology(c, reduced=True).nonzero()]
        return ks[0] if len(ks) == 1 and ks[0] >= 1 else rng.choice((1, 2))

    def test_random_complexes_and_their_posets(self, monkeypatch):
        rng = random.Random(2401)
        decided = Counter()
        for _ in range(150):
            c = random_simplicial_complex(rng, max_verts=8, max_facets=6,
                                          max_dim=3)
            # c itself, and the skeleta of its cone: wedges of spheres
            cases = [(c, self._degree(rng, c))]
            cone = S.cone(c)
            cases += [(S.skeleton(cone, k), k) for k in range(1, cone.dimension)]
            for x, d in cases:
                for y in (x, without_delta(x)):
                    decided[y.has_delta, y.dimension, d,
                            self._agrees(y, d, monkeypatch)] += 1
        assert all(decided[delta, k, k, True]
                   for delta in (True, False) for k in (1, 2, 3))
        # a 3-dimensional poset against circles: its 2-skeleton's matching
        # keeps a critical 2-cell for each 2-cell matched with a 3-cell
        assert decided[False, 3, 1, False] and not decided[False, 3, 1, True]

    def test_newton_models(self, monkeypatch):
        rng = random.Random(2402)
        decided = Counter()
        for ambient in (3, 4):
            for _ in range(8):
                model = S.resolution_complex(S.newton_polyhedron(
                    staircase_support(rng, ambient, rng.randint(8, 20))))
                decided[ambient, self._agrees(model, ambient - 2,
                                              monkeypatch)] += 1
        assert decided[3, True] and decided[4, True]

    def test_skeleta_and_subdivisions(self, monkeypatch):
        cases = [(S.skeleton(G.full_simplex(n), k), k)
                 for n in range(3, 7) for k in range(1, n)]
        cases += [(G.octahedron_boundary().order_complex(), 2),
                  (G.cross_polytope_boundary(4), 3), (G.cycle_complex(9), 1),
                  (G.multi_edge_complex(5), 1)]
        for c, d in cases:
            for x in (c, without_delta(c)):
                assert self._agrees(x, d, monkeypatch), (x, d)
        for x in (dunce_hat(), without_delta(dunce_hat())):
            assert not self._agrees(x, 2, monkeypatch)


class TestCellularRoute:
    """Face posets get their boundaries from incidence numbers; the route
    through the order complex stays as the oracle (Newton models in
    test_newton.py)."""

    @staticmethod
    def _agrees(c):
        for reduced in (False, True):
            assert S.homology(c, reduced) == order_complex_homology(c, reduced)

    def test_without_delta_random_complexes(self):
        rng = random.Random(612)
        for _ in range(60):
            c = random_simplicial_complex(rng, max_verts=7, max_facets=5,
                                          max_dim=3)
            self._agrees(without_delta(c))
            self._agrees(without_delta(with_random_levels(rng, c)))

    def test_torus_boundaries(self):
        rng = random.Random(613)
        for _ in range(10):
            for P in (random_lattice_polygon(rng),
                      random_lattice_polytope(rng, 3)):
                self._agrees(S.torus_hypersurface_boundary_complex(P))

    def test_gallery_posets(self):
        bigon = S.new_complex([
            {"id": "a", "dim": 0, "facets": []},
            {"id": "b", "dim": 0, "facets": []},
            {"id": "e0", "dim": 1, "facets": ["a", "b"]},
            {"id": "e1", "dim": 1, "facets": ["a", "b"]},
            {"id": "t", "dim": 2, "facets": ["e0", "e1"]}])
        rp2 = without_delta(G.real_projective_plane())
        for c in (bigon, S.toric_link(polygon_cone_fan(4)), rp2,
                  without_delta(G.octahedron_boundary()),
                  without_delta(G.cross_polytope_boundary(4)),
                  without_delta(_rp3()), without_delta(G.multi_edge_complex(3))):
            assert not c.has_delta
            self._agrees(c)
        assert S.homology(rp2).torsion(1) == (2,)

    def test_chain_counts_give_the_order_complex_chi(self):
        rng = random.Random(615)
        for _ in range(40):
            c = random_simplicial_complex(rng, max_verts=7, max_dim=3)
            for x in (c, without_delta(c), S.cone(without_delta(c))):
                assert _order_complex_chi(x) == \
                    x.order_complex().euler_characteristic()

    def test_incidence_numbers_are_units(self):
        rng = random.Random(614)
        for _ in range(20):
            c = without_delta(random_simplicial_complex(rng, max_dim=3))
            cx = S.chain_complex(c)
            assert cx.bases == {k: c.faces_of_dim(k)
                                for k in range(c.dimension + 1)}
            for k, cols in cx.matrices.items():
                for j, col in cols.items():
                    assert len(col) == len(c.facets(cx.bases[k][j]))
                    assert set(col.values()) <= {1, -1}

    def test_newton_model_skips_the_order_complex(self, monkeypatch):
        def refuse(self):
            raise AssertionError("order complex built")

        monkeypatch.setattr(S.CombinatorialComplex, "order_complex", refuse)
        np_ = S.newton_polyhedron([(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)])
        model = S.resolution_complex(np_)
        assert not model.has_delta and model.dimension == 1
        assert S.homology(model, reduced=True).nonzero() == ((1, 1, ()),)
        assert S.w0_report(np_)["computed_top_count"] == 1


class TestSquareZeroAtBuild:
    """``homology`` does not compose the boundary with itself: d^2 = 0
    holds by the facet identities a Delta complex's build checks and by
    the sign closure of the cellular route.  ``chain_complex``, whose
    ``ChainComplex`` still composes it, accepts the output of every
    route that reaches ``homology``."""

    @staticmethod
    def _route_outputs(rng, cases):
        c = random_simplicial_complex(rng, max_verts=7, max_facets=5, max_dim=3)
        poset = without_delta(c)
        yield from (c, poset, S.cone(poset), S.cone(c))
        yield S.stellar_subdivide(c, rng.choice(c.face_ids))
        cur = with_random_levels(rng, c)
        for move in draw_mixed_script(rng, cur, 3):
            cases[move.case] += 1
            cur = S.blowup_move(cur, move)
            yield cur
            yield from (S.level_subcomplex(cur, m)
                        for m in range(1, cur.max_level() + 1))
        yield S.resolution_complex(S.newton_polyhedron(
            random_support(rng, dim=rng.randint(2, 4))))

    def test_every_route_gives_a_square_zero_boundary(self):
        rng = random.Random(1801)
        cases = Counter()
        outputs = [x for _ in range(40) for x in self._route_outputs(rng, cases)]
        assert min(cases[2], cases[3]) >= 20
        for n in (2, 3, 4):
            s = G.cross_polytope_boundary(n)
            q = s.quotient_free_involution(G.antipodal_involution(s))
            outputs += [q, without_delta(q), S.cone(without_delta(q))]
        outputs += [S.toric_link(polygon_cone_fan(n)) for n in (4, 5)]
        outputs += [S.torus_hypersurface_boundary_complex(P)
                    for P in (random_lattice_polygon(rng),
                              random_lattice_polytope(rng, 3))]
        assert sum(not x.has_delta for x in outputs) >= 40
        assert sum(x.has_levels for x in outputs) >= 40
        for x in outputs:
            cx = S.chain_complex(x)
            assert sum(map(len, cx.bases.values())) == len(x.face_ids)

    def test_homology_composes_no_square(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("homology composed the boundary with itself")

        H = importlib.import_module("sncx.homology")   # not the function
        monkeypatch.setattr(H, "_check_square_zero", refuse)
        rp2 = G.real_projective_plane()
        for c in (rp2, without_delta(rp2)):
            assert S.homology(c).nonzero() == ((0, 1, ()), (1, 0, (2,)))
            assert S.homology(c, reduced=True).nonzero() == ((1, 0, (2,)),)
        with pytest.raises(AssertionError):
            S.chain_complex(rp2)
