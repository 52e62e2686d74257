"""Exact coset weight distributions of MDS codes.

Closed-form coset distributions (the single-sum Bonneau relation and its
per-weight specializations), exact coset censuses over GF(q) that every
formula is checked against, the bisecant geometry of conics and
hyperovals in PG(2, q), and covering classification of deep holes.
"""

from .codes import (BudgetExceededError, CosetCensus, CosetClass,
                    InvariantError, LinearCode, WeightDistribution,
                    coset_census, low_weight_census)
from .combinat import binom, omega
from .covering import (DeepHoleMismatchError, DeepHoleReport, McfReport,
                       count_deep_hole_cosets, mcf_classify,
                       mu_density_closed_form, saturating_set_report)
from .formulas import (InconsistentPrefixError, LowWeightPrefix,
                       SymmetryReport, bonneau_original, bonneau_transformed,
                       dist_weight1, dist_weight2, dist_weight_d1,
                       dist_weight_d2, dist_weight_mid, symmetry_defect,
                       weight2_aggregate, weight2_identical_check)
from .geometry import (Arc, PointCensus, bisecant_census, conic_points,
                       geometry_code_bridge, hyperoval_points,
                       shortened_conic)
from .gf import GF, field_of_order
from .mds import MdsConstruction, build_code, mds_weight_distribution

__all__ = [
    "Arc", "BudgetExceededError", "CosetCensus", "CosetClass",
    "DeepHoleMismatchError", "DeepHoleReport", "GF",
    "InconsistentPrefixError", "InvariantError", "LinearCode",
    "LowWeightPrefix", "McfReport", "MdsConstruction",
    "PointCensus", "SymmetryReport", "WeightDistribution", "binom",
    "bisecant_census", "bonneau_original", "bonneau_transformed",
    "build_code", "conic_points", "coset_census", "count_deep_hole_cosets",
    "dist_weight1", "dist_weight2", "dist_weight_d1", "dist_weight_d2",
    "dist_weight_mid", "field_of_order", "geometry_code_bridge",
    "hyperoval_points", "low_weight_census", "mcf_classify",
    "mds_weight_distribution", "mu_density_closed_form", "omega",
    "saturating_set_report", "shortened_conic", "symmetry_defect",
    "weight2_aggregate", "weight2_identical_check",
]
