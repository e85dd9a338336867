"""The package's public names: the same set as when `__init__` imported
every module, each the object its module defines, and none loaded
before it is asked for."""
import importlib

import pytest

import metricpairs

# every public name, by the module that defines it
PUBLIC = {
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
        "BudgetExceededError", "DEFAULT_BUDGET", "GHResult", "build_witness_lp",
        "canonical_pair_key", "exact_pair_gh", "exact_pair_gh_max", "exact_tuple_gh",
        "radius_lp", "witness_entries", "witness_reduced_value",
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
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_all_lists_every_public_name():
    assert len(NAMES) == 108
    assert sorted(metricpairs.__all__) == NAMES


def test_star_import_and_dir_yield_the_public_names():
    namespace: dict = {}
    exec("from metricpairs import *", namespace)
    assert sorted(k for k in namespace if not k.startswith("__")) == NAMES
    assert set(NAMES) <= set(dir(metricpairs))


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_module_object(module):
    source = importlib.import_module(f"metricpairs.{module}")
    for name in PUBLIC[module]:
        assert getattr(metricpairs, name) is getattr(source, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        metricpairs.no_such_name
    with pytest.raises(ImportError):
        exec("from metricpairs import no_such_name", {})
