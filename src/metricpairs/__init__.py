"""Distances, bounds and audits for finite metric pairs and tuples.

A metric pair is a finite metric space with a distinguished subset; a
tuple carries a nested chain of subsets.  The package computes exact
small-instance distances between pairs with optimality certificates,
bounds them from both sides, interpolates geodesically along
correspondences, approximates pairs by weighted one-complexes, and ships
the application-side constructions built on those distances.
"""

from .applications import (
    DensifyResult,
    Hypernet,
    HypernetReport,
    VariantSandwich,
    hypernet_distortion,
    hypernet_space,
    hypernet_tuple_space,
    rational_densify,
    rational_densify_pair,
    variant_sandwich,
)
from .bounds import (
    BoundsInterval,
    NetBoundReport,
    SandwichReport,
    UpperBoundReport,
    correspondence_upper_bound,
    diameter_lower_bound,
    gh_bounds,
    matched_net_bound,
    sandwich_report,
)
from .complexes import (
    ApproxParams,
    DisconnectedComplexError,
    PipelineResult,
    PipelineRow,
    StretchReport,
    WeightedComplex,
    approximation_bound,
    approximation_pipeline,
    build_complex,
    complex_pair,
    graph_metric,
    stretch_report,
    subcomplex_metric,
)
from .correspondences import (
    ClassicalGlue,
    CorrespondenceViolations,
    DistortionBreakdown,
    GlueReport,
    MinDistortionResult,
    PairCorrespondence,
    StabilityReport,
    TupleCorrespondence,
    brute_force_min_distortion,
    classical_glue,
    distortion,
    distortion_stability,
    min_distortion,
    tight_glue,
    validate_correspondence,
    validate_tuple_correspondence,
)
from .families import (
    enumerate_family,
    enumerate_spaces,
    family_iso_classes,
    pairs_isometric,
)
from .generators import (
    circle_space,
    graph_space,
    grid_graph_space,
    permute_pair,
    random_correspondence,
    random_pair,
    random_permuted_pair,
    random_space,
    random_subset,
    random_tuple,
)
from .geodesics import (
    AuditRow,
    GeodesicityAudit,
    diagonal_distortion,
    endpoint_distortion,
    geodesicity_audit,
    interpolate,
)
from .oracle import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    GHResult,
    build_witness_lp,
    canonical_pair_key,
    clear_cache,
    exact_pair_gh,
    exact_pair_gh_max,
    exact_tuple_gh,
    radius_lp,
    witness_entries,
    witness_reduced_value,
)
from .realization import (
    EmbeddedComplex,
    Interval,
    carrier_samples,
    filtration_distance,
    level_complex,
    point_segment_distance,
    point_triangle_distance,
    realization_hausdorff,
)
from .scalars import DEFAULT_TOLERANCE, Scalar, format_scalar, half, is_exact, parse_scalar
from .spaces import (
    CrossMetric,
    FiniteMetricSpace,
    InvalidMetricError,
    MetricPair,
    MetricTuple,
    MetricViolations,
    NetResult,
    covering_radius,
    greedy_net,
    hausdorff,
    pair_hausdorff,
    product_max_metric,
    tuple_hausdorff,
    validate_metric,
)

__version__ = "0.1.0"
