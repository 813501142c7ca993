"""Discrete isothermic nets in the Lorentz light-cone model.

The package builds quadrilateral nets whose face cross ratios factorize
into edge weights, runs their transformation theory (Calapso, Darboux,
Backlund, permutability), manages polynomial conserved quantities, and
constructs constant mean curvature nets of revolution for any prescribed
mean and ambient curvature.
"""

from .conserved import (
    ConservedQuantity,
    TypeReport,
    classify_type,
    degree_reduce,
    lcq_solve_grid,
    mean_curvature_data,
    normalize_top,
    pcq_propagate,
    pcq_verify,
)
from .euclidean import (
    EuclideanNet,
    bp_sphere,
    christoffel,
    classify_cmc,
    extract_parallel,
    parallel_lcq,
)
from .grids import EdgeFunction, GridDomain, VertexField
from .minkowski import (
    Q_EUCLIDEAN,
    cross_ratio,
    cross_ratio_apply,
    cross_ratio_matrix,
    euclidean_lift,
    euclidean_point,
    hyperbolic_point,
    minkowski_inner,
    norm2,
    solve_dense,
    spaceform_point,
)
from .nets import (
    CalapsoFrame,
    IsothermicNet,
    calapso,
    face_regularity,
    holonomy_residual,
    moutard_check,
    moutard_lift,
    verify_isothermic,
    vertex_star_cospherical,
)
from .netfile import load_net, save_net
from .objexport import export_obj
from .revolution import (
    RotationProfile,
    build_revolution_cmc,
    closure_defect,
    meridian_points,
    meridian_step,
    revolution_lift,
    seed_edge,
    symmetric_pcq_check,
)
from .tolerances import Check, tol, tolerance
from .transforms import (
    DarbouxTransform,
    backlund_init,
    bianchi,
    calapso_pcq,
    complementary,
    darboux_propagate,
    parallel_residual,
    pcq_backlund,
    pcq_darboux,
    pcq_from_parallel_sections,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
