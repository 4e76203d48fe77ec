"""Finite metric spaces, isometric group actions, quotient metrics, and the
simplicial machinery (Vietoris-Rips / Cech complexes, Z/2 persistence) needed
to certify when a quotient complex agrees with the complex of the quotient."""

__version__ = "0.1.0"

from .spaces import (
    FiniteMetricSpace,
    ShapeSpec,
    MetricValidation,
    generate_space,
    validate_metric,
    critical_values,
)
from .actions import (
    IsometricAction,
    QuotientSpace,
    close_group,
    verify_isometric,
    build_quotient,
)
from .complexes import (
    SimplicialComplex,
    VRFiltration,
    BudgetExceededError,
    vr_complex,
    cech_complex,
    vr_filtration,
)
from .thresholds import (
    ThresholdReport,
    distance_threshold,
    ball_threshold,
    diameter_action_check,
    nerve_action_check,
    threshold_scan,
)
from .quotient_iso import (
    QuotientComplex,
    IsoCertificate,
    quotient_complex,
    iso_check,
)
from .persistence import (
    Barcode,
    BettiVector,
    reduce_filtration,
    betti_at,
    homology_oracle,
)

__all__ = [
    "FiniteMetricSpace", "ShapeSpec", "MetricValidation",
    "generate_space", "validate_metric", "critical_values",
    "IsometricAction", "QuotientSpace", "close_group",
    "verify_isometric", "build_quotient",
    "SimplicialComplex", "VRFiltration", "BudgetExceededError",
    "vr_complex", "cech_complex", "vr_filtration",
    "ThresholdReport", "distance_threshold", "ball_threshold",
    "diameter_action_check", "nerve_action_check", "threshold_scan",
    "QuotientComplex", "IsoCertificate",
    "quotient_complex", "iso_check",
    "Barcode", "BettiVector", "reduce_filtration", "betti_at",
    "homology_oracle",
]
