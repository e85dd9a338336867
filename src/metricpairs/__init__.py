"""Distances, bounds and audits for finite metric pairs and tuples.

A metric pair is a finite metric space with a distinguished subset; a
tuple carries a nested chain of subsets.  The package computes exact
small-instance distances between pairs with optimality certificates,
bounds them from both sides, interpolates geodesically along
correspondences, approximates pairs by weighted one-complexes, and ships
the application-side constructions built on those distances.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562) and then kept here.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

#: witness-search nodes an exact solve may visit unless told otherwise;
#: defined here, not in ``oracle``, so the CLI parser can show it without
#: importing the search
DEFAULT_BUDGET = 10**4

# public names by the module that defines them
_EXPORTS = {
    "applications": (
        "DensifyResult", "Hypernet", "HypernetReport", "VariantSandwich",
        "hypernet_distortion", "hypernet_space", "hypernet_tuple_space",
        "rational_densify", "rational_densify_pair", "variant_sandwich",
    ),
    "bounds": (
        "BoundsInterval", "NetBoundReport", "SandwichReport", "UpperBoundReport",
        "correspondence_upper_bound", "diameter_lower_bound", "gh_bounds",
        "matched_net_bound", "sandwich_report",
    ),
    "complexes": (
        "ApproxParams", "DisconnectedComplexError", "PipelineResult", "PipelineRow",
        "StretchReport", "WeightedComplex", "approximation_bound",
        "approximation_pipeline", "build_complex", "complex_pair", "graph_metric",
        "stretch_report", "subcomplex_metric",
    ),
    "correspondences": (
        "ClassicalGlue", "CorrespondenceViolations", "DistortionBreakdown",
        "GlueReport", "MinDistortionResult", "PairCorrespondence", "StabilityReport",
        "TupleCorrespondence", "UncoveredRelationError", "brute_force_min_distortion",
        "classical_glue", "distortion", "distortion_stability", "min_distortion",
        "tight_glue", "validate_correspondence", "validate_tuple_correspondence",
    ),
    "families": (
        "enumerate_family", "enumerate_spaces", "family_iso_classes", "pairs_isometric",
    ),
    "generators": (
        "circle_space", "graph_space", "grid_graph_space", "permute_pair",
        "random_correspondence", "random_pair", "random_permuted_pair", "random_space",
        "random_subset", "random_tuple",
    ),
    "geodesics": (
        "AuditRow", "GeodesicityAudit", "diagonal_distortion", "endpoint_distortion",
        "geodesicity_audit", "interpolate",
    ),
    "oracle": (
        "BudgetExceededError", "GHResult", "build_witness_lp", "canonical_pair_key",
        "exact_pair_gh", "exact_pair_gh_max", "exact_tuple_gh", "radius_lp",
        "witness_entries", "witness_reduced_value",
    ),
    "realization": (
        "EmbeddedComplex", "Interval", "carrier_samples", "filtration_distance",
        "level_complex", "point_segment_distance", "point_triangle_distance",
        "realization_hausdorff",
    ),
    "scalars": (
        "DEFAULT_TOLERANCE", "Scalar", "format_scalar", "half", "is_exact",
        "parse_scalar",
    ),
    "spaces": (
        "CrossMetric", "FiniteMetricSpace", "InvalidMetricError", "MetricPair",
        "MetricTuple", "MetricViolations", "NetResult", "covering_radius", "greedy_net",
        "hausdorff", "pair_hausdorff", "product_max_metric", "tuple_hausdorff",
        "validate_metric",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SOURCE, "DEFAULT_BUDGET"])


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
