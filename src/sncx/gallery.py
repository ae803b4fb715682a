"""Stock complexes and fans.

Small builders the tests and example scripts reach for constantly:
points, cycles, multi-edges, simplices and their skeleta, sphere models
as iterated joins of point pairs, the projective plane as an antipodal
quotient, and the fans of the standard toric varieties.
"""

from __future__ import annotations

from .complexes import CombinatorialComplex
from .operations import face_map_from_vertex_bijection, join
from .snc import Fan


def point_complex(name: str = "p") -> CombinatorialComplex:
    return CombinatorialComplex([{"id": name, "dim": 0, "facets": []}])


def interval(a: str = "a", b: str = "b") -> CombinatorialComplex:
    return CombinatorialComplex([
        {"id": a, "dim": 0, "facets": []},
        {"id": b, "dim": 0, "facets": []},
        {"id": f"{a}{b}", "dim": 1, "facets": [a, b], "delta_order": [b, a]},
    ])


def cycle_complex(n: int) -> CombinatorialComplex:
    """The boundary of an n-gon (n >= 3 vertices and edges)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    recs = [{"id": f"v{i}", "dim": 0, "facets": []} for i in range(n)]
    for i in range(n):
        j = (i + 1) % n
        recs.append({"id": f"e{i}", "dim": 1, "facets": [f"v{i}", f"v{j}"],
                     "delta_order": [f"v{j}", f"v{i}"]})
    return CombinatorialComplex(recs)


def triangle_boundary() -> CombinatorialComplex:
    return cycle_complex(3)


def multi_edge_complex(k: int) -> CombinatorialComplex:
    """Two vertices joined by k parallel edges (k >= 1)."""
    recs = [{"id": "u", "dim": 0, "facets": []},
            {"id": "w", "dim": 0, "facets": []}]
    for i in range(k):
        recs.append({"id": f"e{i}", "dim": 1, "facets": ["u", "w"],
                     "delta_order": ["w", "u"]})
    return CombinatorialComplex(recs)


def full_simplex(n: int) -> CombinatorialComplex:
    """The solid n-simplex on vertices 0..n with all faces."""
    from .snc import simplicial_complex_from_subsets
    verts = list(range(n + 1))
    faces = []
    for mask in range(1, 1 << (n + 1)):
        faces.append([v for v in verts if mask >> v & 1])
    return simplicial_complex_from_subsets(faces)


def simplex_boundary(n: int) -> CombinatorialComplex:
    return full_simplex(n).skeleton(n - 1)


def two_point_sphere(tag: str = "0") -> CombinatorialComplex:
    """A zero-sphere: two points."""
    return CombinatorialComplex([
        {"id": f"+{tag}", "dim": 0, "facets": []},
        {"id": f"-{tag}", "dim": 0, "facets": []},
    ])


def cross_polytope_boundary(n: int) -> CombinatorialComplex:
    """The (n-1)-sphere as the join of n point pairs."""
    if n < 1:
        raise ValueError("need at least one factor")
    out = two_point_sphere("0")
    for i in range(1, n):
        out = join(out, two_point_sphere(str(i)))
    return out


def sphere_complex(d: int) -> CombinatorialComplex:
    """A Delta-structured model of the d-sphere (cross polytope boundary)."""
    return cross_polytope_boundary(d + 1)


def octahedron_boundary() -> CombinatorialComplex:
    return cross_polytope_boundary(3)


def antipodal_involution(c: CombinatorialComplex) -> dict:
    """The face pairing swapping +i and -i vertices of a cross polytope.

    Vertex ids may be wrapped in join separators ('*'); only the signed
    core is read.
    """
    cores = {}
    for v in c.faces_of_dim(0):
        core = v.replace("*", "")
        if core[0] not in "+-":
            raise ValueError(f"vertex {v!r} has no sign tag")
        cores[core] = v
    vmap = {}
    for core, v in cores.items():
        flipped = ("-" if core[0] == "+" else "+") + core[1:]
        if flipped not in cores:
            raise ValueError(f"vertex {v!r} has no antipode")
        vmap[v] = cores[flipped]
    return face_map_from_vertex_bijection(c, vmap)


def real_projective_plane() -> CombinatorialComplex:
    """The antipodal quotient of the octahedron boundary."""
    oct_ = octahedron_boundary()
    return oct_.quotient_free_involution(antipodal_involution(oct_))


def product_of_lines_fan(n: int) -> Fan:
    """The fan with the 2^n orthants as maximal cones (rays +-e_i)."""
    rays = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rays.append(tuple(e))
        rays.append(tuple(-x for x in e))
    cones = []
    for signs in range(1 << n):
        cone = frozenset(2 * i + (signs >> i & 1) for i in range(n))
        cones.append(cone)
    return Fan(tuple(rays), tuple(cones))


def projective_space_fan(n: int) -> Fan:
    """The fan of n-dimensional projective space (n+1 maximal cones)."""
    rays = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rays.append(tuple(e))
    rays.append(tuple(-1 for _ in range(n)))
    cones = []
    for drop in range(n + 1):
        cones.append(frozenset(i for i in range(n + 1) if i != drop))
    return Fan(tuple(rays), tuple(cones))
