"""Minkowski sums of ellipsoids: exact boundaries, curvatures, volume bounds."""

from .spd import SpdError, SpdMatrix, SymEigen, geometric_mean, spd_sqrt, sym_eigen
from .geometry import (
    EllipsoidSum,
    contains_point,
    ellipsoid_from_general,
    legacy_pair_boundary,
    scene_from_json,
    scene_to_json,
    sum_boundary_point,
    support_value,
    transform_scene,
)
from .curvature import (
    CurvatureMatrix,
    TangentBasis,
    curvature_matrix,
    curvature_term,
    curvatures_from_reduced,
    fundamental_forms,
    principal_curvatures,
    reduced_curvature,
    tangent_basis,
)
from .quadrature import (
    SphereQuadrature,
    build_quadrature,
    gaussian_curvature_integral,
    mean_curvature_integral,
    surface_area,
    unit_ball_volume,
    volume_divergence,
    volume_term_charts,
)
from .bounds import (
    BoundReport,
    brunn_minkowski_chain,
    containment_check,
    contact_points,
    heuristic_gammas,
    inner_sum_matrix,
    john_inner_pair,
    john_inner_recursive,
    kv_inner_family,
    minvol_outer,
    optimal_beta,
    outer_gamma_matrix,
    volume_bounds,
)
from .steiner import (
    SteinerReport,
    area_sum_2d_pair,
    area_sum_2d_recursive,
    elliptic_E,
    mixed_volumes_3d,
    volume_sum_3d_bounds,
    volume_sum_3d_mixed,
    volume_sum_3d_pair,
)
from .oracle import McEstimate, monte_carlo_volume, polyline_perimeter

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
