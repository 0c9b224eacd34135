"""kneser: sphere decompositions of triangulated 3-manifolds.

Normal surface enumeration over exact integers, PL area in the regular
hyperbolic metric on the 2-skeleton, greedy decomposition along least-area
essential spheres, and a numerical laboratory for radial-projection area
estimates on the standard 3-simplex.
"""

from .decomposition import (
    certify_weakly_irreducible,
    connected_sum,
    decompose,
    find_essential_sphere,
)
from .normal import matching_system, weight
from .pl_area import verify_diameter_bound
from .projection import (
    ProjectionConfig,
    TriangulatedPatch,
    bad_set_volume,
    constants,
    find_good_center,
    projected_area,
    radial_project,
)
from .collapse import collapse_extract
from .surgery import crush, cut_and_cap
from .triangulation import (
    Triangulation,
    skeleton,
    support_metrics,
    validate,
)
from .vertex_enum import enumerate_vertex_solutions

__version__ = "0.1.0"

__all__ = [
    "ProjectionConfig",
    "TriangulatedPatch",
    "Triangulation",
    "bad_set_volume",
    "certify_weakly_irreducible",
    "collapse_extract",
    "connected_sum",
    "constants",
    "crush",
    "cut_and_cap",
    "decompose",
    "enumerate_vertex_solutions",
    "find_essential_sphere",
    "find_good_center",
    "matching_system",
    "projected_area",
    "radial_project",
    "skeleton",
    "support_metrics",
    "validate",
    "verify_diameter_bound",
    "weight",
]
