"""Dual complexes of normal crossing divisors, computed exactly.

Face-poset complexes with optional Delta-structure and filtration,
integral simplicial homology via Smith normal form, the blowup-induced
moves that preserve homotopy type, builders from strata descriptions
and toric fans, and the Newton polyhedron pipeline for resolution
complexes of hypersurface singularities.
"""

from .complexes import (
    CombinatorialComplex,
    cone,
    connected_components,
    euler_characteristic,
    level_subcomplex,
    new_complex,
    order_complex,
    quotient_free_involution,
    skeleton,
)
from .errors import SncxError
from .homology import (
    ChainComplex,
    HomologyResult,
    WedgeCertificate,
    chain_complex,
    cohomology_rank,
    collapse_to_point,
    homology,
    smith_normal_form,
    top_weight_ranks,
    wedge_certificate,
    weight_zero_cohomology_rank,
)
from .operations import (
    complexes_isomorphic,
    disjoint_union,
    face_map_from_vertex_bijection,
    join,
    wedge,
)
from .newton import (
    LatticePolytope,
    NewtonPolyhedron,
    SubdividedSimplex,
    interior_complex,
    newton_polyhedron,
    normal_fan,
    predicted_sphere_count,
    resolution_complex,
    torus_hypersurface_boundary_complex,
    w0_report,
)
from .presentations import (
    GroupPresentation,
    abelianization,
    fundamental_group_presentation,
    tietze_simplify,
)
from .snc import (
    Component,
    Fan,
    StrataDescription,
    Stratum,
    dual_complex,
    realize_boundary,
    simplicial_complex_from_subsets,
    toric_link,
)
from .transforms import (
    BlowupMove,
    blowup_move,
    morse_vertex_flow,
    pucker,
    run_blowup_script,
    stellar_subdivide,
)

__version__ = "0.1.0"

__all__ = [
    "BlowupMove", "ChainComplex", "CombinatorialComplex", "Component",
    "Fan", "GroupPresentation", "HomologyResult", "LatticePolytope",
    "NewtonPolyhedron", "SncxError", "StrataDescription", "Stratum",
    "SubdividedSimplex", "WedgeCertificate", "abelianization",
    "blowup_move", "chain_complex", "cohomology_rank", "collapse_to_point",
    "complexes_isomorphic", "cone", "connected_components", "disjoint_union",
    "dual_complex", "euler_characteristic", "face_map_from_vertex_bijection",
    "fundamental_group_presentation", "homology", "interior_complex",
    "join", "level_subcomplex", "morse_vertex_flow", "new_complex",
    "newton_polyhedron", "normal_fan", "order_complex",
    "predicted_sphere_count", "pucker", "quotient_free_involution",
    "realize_boundary", "resolution_complex", "run_blowup_script",
    "simplicial_complex_from_subsets", "skeleton", "smith_normal_form",
    "stellar_subdivide", "top_weight_ranks", "toric_link",
    "torus_hypersurface_boundary_complex", "w0_report", "wedge",
    "wedge_certificate", "weight_zero_cohomology_rank",
]
