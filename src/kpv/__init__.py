"""Numerical laboratory for large-radius ball-volume inequalities.

Volumes and boundary volumes of unions/intersections of equal balls via
nearest/farthest Voronoi decomposition and a recursive radial-volume ODE,
mean widths of convex hulls, Laurent coefficients of volume functions at
infinity, and threshold scans for the expansion inequalities.
"""

__version__ = "0.1.0"

from .configurations import (PointConfiguration, are_congruent, distance_matrix,
                             embed, is_expansion, load_configuration,
                             random_expansion, save_configuration)
from .polyhedra import FaceData, Halfspace, PolyhedralSet, contains, face_data
from .meanwidth import (MeanWidthResult, calibrate, mean_width_edge_sum_3d,
                        mean_width_exact, mean_width_exact_2d,
                        mean_width_quadrature, reference_mean_width)
from .truncated_volume import (RadialVolumeProfile, RadiusGrid, check_ww_lemma,
                               mc_truncated_volume, unit_ball_volume, volume_profile)
from .ball_volumes import BallSystem, farthest_voronoi, mc_ball_volume, nearest_voronoi
from .asymptotics import (CheckReport, LaurentFit, ThresholdResult,
                          kp_threshold, laurent_fit, mean_width_difference,
                          verify_capoyleas_pach, verify_csikos,
                          verify_lift_identity, verify_ww_proposition)

__all__ = [
    "__version__",
    "PointConfiguration", "distance_matrix", "is_expansion",
    "are_congruent", "embed", "random_expansion", "load_configuration",
    "save_configuration",
    "Halfspace", "PolyhedralSet", "FaceData", "contains", "face_data",
    "MeanWidthResult", "mean_width_exact", "mean_width_quadrature",
    "mean_width_exact_2d", "mean_width_edge_sum_3d", "calibrate",
    "reference_mean_width",
    "RadialVolumeProfile", "RadiusGrid", "unit_ball_volume", "volume_profile",
    "check_ww_lemma", "mc_truncated_volume",
    "BallSystem", "nearest_voronoi", "farthest_voronoi", "mc_ball_volume",
    "LaurentFit", "CheckReport", "ThresholdResult", "laurent_fit",
    "mean_width_difference",
    "verify_capoyleas_pach", "verify_csikos",
    "verify_ww_proposition", "verify_lift_identity", "kp_threshold",
]
