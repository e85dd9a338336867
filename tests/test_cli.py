"""End-to-end tests for the command line interface.

Every command is driven through main(argv) in-process so stdout, stderr,
and the exit code can all be checked.  The documents are written fresh
into tmp_path for each test.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from metricpairs import cli
from metricpairs.cli import main

# a child interpreter finds the package in this checkout
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


PATH3 = {
    "labels": ["a", "b", "c"],
    "distances": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
}

BAD_TRIANGLE = {
    "distances": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
}

PAIR_BIG = {"distances": [["0", "2"], ["2", "0"]], "subset": [0]}
PAIR_POINT = {"distances": [["0"]], "subset": [0]}
PAIR_FULL = {"distances": [["0", "2"], ["2", "0"]], "subset": [0, 1]}

TUPLE_BIG = {"distances": [["0", "2"], ["2", "0"]], "chain": [[0]]}
TUPLE_POINT = {"distances": [["0"]], "chain": [[0]]}

CORR_IDENTITY = {
    "left": PAIR_FULL,
    "right": PAIR_FULL,
    "pairs": [[0, 0], [1, 1]],
}

CORR_SLOPPY = {
    "left": PAIR_FULL,
    "right": PAIR_FULL,
    "pairs": [[0, 0], [0, 1], [1, 0], [1, 1]],
}

SEGMENT_LOW = {"points": [[0.0, 0.0], [1.0, 0.0]], "simplices": [[0, 1]]}
SEGMENT_HIGH = {"points": [[0.0, 0.5], [1.0, 0.5]], "simplices": [[0, 1]]}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_accepts_a_metric_space(tmp_path, capsys):
    path = _write(tmp_path, "space.json", PATH3)
    code, out, err = _run(capsys, ["validate", "--input", path])
    payload = json.loads(out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["kind"] == "space"
    assert err == ""


def test_validate_flags_triangle_violation(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", BAD_TRIANGLE)
    code, out, _ = _run(capsys, ["validate", "--input", path])
    payload = json.loads(out)
    assert code == 1
    assert payload["ok"] is False
    assert payload["report"]


@pytest.mark.parametrize(
    "extra", [{}, {"subset": [0, 1]}, {"chain": [[0, 1], [0]]}]
)
def test_validate_tol_applies_to_pair_and_tuple_documents(tmp_path, capsys, extra):
    # d(0,1) = 5/2 exceeds d(0,2) + d(2,1) = 2 by less than the tolerance
    doc = {"distances": [[0, "5/2", 1], ["5/2", 0, 1], [1, 1, 0]], **extra}
    path = _write(tmp_path, "loose.json", doc)
    code, out, _ = _run(capsys, ["validate", "--input", path, "--tol", "0.75"])
    assert code == 0
    assert json.loads(out)["report"] == {}
    code, out, _ = _run(capsys, ["validate", "--input", path])
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_validate_tol_applies_to_csv_input(tmp_path, capsys):
    # the matrix of the test above: a CSV space is checked at --tol too
    path = tmp_path / "loose.csv"
    path.write_text("0,5/2,1\n5/2,0,1\n1,1,0\n")
    code, out, _ = _run(capsys, ["validate", "--input", str(path), "--tol", "0.75"])
    assert code == 0
    assert json.loads(out) == {"kind": "space", "ok": True, "report": {}}
    code, out, _ = _run(capsys, ["validate", "--input", str(path)])
    assert code == 1
    assert json.loads(out)["report"]["triangles"] == [[0, 2, 1]]
    # commands other than validate still refuse the matrix on loading
    code, _, err = _run(
        capsys, ["hausdorff", "--input", str(path), "--left", "0", "--right", "1"]
    )
    assert code == 2
    assert "invalid metric in input" in err


def test_validate_reports_a_bad_subset(tmp_path, capsys):
    path = _write(tmp_path, "pair.json", {**PATH3, "subset": [0, 7]})
    code, out, _ = _run(capsys, ["validate", "--input", path, "--tol", "0.75"])
    assert code == 1
    assert json.loads(out)["report"] == {"error": "subset index out of range"}
    # hausdorff reads the whole document, as validate does
    code, out, err = _run(
        capsys, ["hausdorff", "--input", path, "--left", "0", "--right", "2"]
    )
    assert (code, out) == (2, "")
    assert "subset index out of range" in err


@pytest.mark.parametrize(
    "doc, code, report",
    [
        (CORR_IDENTITY, 0, {}),
        (
            {**CORR_IDENTITY, "pairs": [[0, 0]]},
            1,
            {
                "error": "relation does not cover the pairs: {'uncovered_left': [1], "
                "'uncovered_right': [1], 'uncovered_subset_left': [1], "
                "'uncovered_subset_right': [1], 'ok': False}"
            },
        ),
        (
            {**CORR_IDENTITY, "left": {**BAD_TRIANGLE, "subset": [0]}},
            1,
            {
                "size": 3, "asymmetric": [], "diagonal": [], "nonpositive": [],
                "triangles": [[0, 1, 2]], "ok": False,
            },
        ),
    ],
)
def test_validate_reads_a_correspondence_once(tmp_path, capsys, monkeypatch, doc, code, report):
    loaded = []
    original = cli.load_document

    def counting(*args, **kwargs):
        loaded.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "load_document", counting)
    path = _write(tmp_path, "corr.json", doc)
    got, out, _ = _run(capsys, ["validate", "--input", path])
    assert loaded == [path]
    assert got == code
    assert json.loads(out) == {"kind": "correspondence", "ok": code == 0, "report": report}


@pytest.mark.parametrize(
    "doc, code, report",
    [
        ({"points": [[0, 0], [1, 0], [0, 1]], "simplices": [[0, 1, 2]]}, 0, {}),
        (
            {"points": [[0, 0], [1, 0]], "simplices": [[0, 2]]},
            1,
            {"error": "vertex out of range in simplex (0, 2)"},
        ),
    ],
)
def test_validate_checks_a_complex_document(tmp_path, capsys, doc, code, report):
    path = _write(tmp_path, "cx.json", doc)
    got, out, err = _run(capsys, ["validate", "--input", path])
    assert (got, err) == (code, "")
    assert json.loads(out) == {"kind": "complex", "ok": code == 0, "report": report}


@pytest.mark.parametrize(
    "kind, doc, error",
    [
        (
            "complex",
            {"points": [[0, 0], [1, 0]], "simplices": 5},
            "'int' object is not iterable",
        ),
        ("correspondence", {**CORR_IDENTITY, "pairs": 3}, "'int' object is not iterable"),
        (
            "complex",
            {"points": [[0, 0], [1, 0]], "simplices": [[0, [1]]]},
            "int() argument must be",
        ),
        ("pair", {**PAIR_BIG, "distances": 5}, "'int' object is not iterable"),
        ("pair", {"subset": [0]}, "missing 'distances'"),
        ("space", {**PATH3, "labels": 5}, "'labels' must be a list"),
        (None, {}, "unrecognized document shape"),
        (None, {"labels": ["a"]}, "unrecognized document shape"),
        (None, {"pairs": [], "left": {}}, "unrecognized document shape"),
        (
            "complex",
            {"points": [[0, 10**400], [1, 0]], "simplices": [[0, 1]]},
            "int too large to convert to float",
        ),
    ],
)
def test_validate_reports_a_wrongly_typed_document(tmp_path, capsys, kind, doc, error):
    """A field missing or of the wrong type, or an object of no known
    kind, makes the document invalid (exit 1), not the command line wrong
    (exit 2)."""
    path = _write(tmp_path, "typed.json", doc)
    got, out, err = _run(capsys, ["validate", "--input", path])
    assert (got, err) == (1, "")
    payload = json.loads(out)
    assert (payload["kind"], payload["ok"]) == (kind, False)
    assert payload["report"]["error"].startswith(error)


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code, _, err = _run(
        capsys, ["validate", "--input", str(tmp_path / "nope.json")]
    )
    assert code == 2
    assert "error:" in err


def test_bad_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, ["validate", "--input", str(path)])
    assert code == 2
    assert "error:" in err


def test_hausdorff_between_named_subsets(tmp_path, capsys):
    path = _write(tmp_path, "space.json", PATH3)
    code, out, _ = _run(
        capsys, ["hausdorff", "--input", path, "--left", "0", "--right", "2"]
    )
    assert code == 0
    assert json.loads(out)["value"] == "2"


def test_hausdorff_of_a_point_with_itself_is_zero_in_float_mode(tmp_path, capsys):
    """A diagonal entry within the tolerance validates to 0.0."""
    path = _write(tmp_path, "space.json", {"distances": [[1e-10, 1], [1, 0]]})
    code, out, _ = _run(
        capsys,
        ["hausdorff", "--input", path, "--mode", "float", "--left", "0", "--right", "0"],
    )
    assert code == 0
    assert json.loads(out)["value"] == 0.0
    assert '"value": 0.0' in out


def test_hausdorff_reads_csv_input(tmp_path, capsys):
    path = tmp_path / "space.csv"
    path.write_text("a,b,c\n0,1,2\n1,0,1\n2,1,0\n")
    code, out, _ = _run(
        capsys,
        ["hausdorff", "--input", str(path), "--left", "0,1", "--right", "1,2"],
    )
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_gh_exact_reports_value_and_certificate(tmp_path, capsys):
    big = _write(tmp_path, "big.json", PAIR_BIG)
    point = _write(tmp_path, "point.json", PAIR_POINT)
    code, out, _ = _run(capsys, ["gh", "exact", "--input", big, point])
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == "2"
    assert payload["variant"] == "sum"
    assert payload["certificate"]["achieves_value"] is True
    assert payload["certificate"]["violations"] == 0


def test_gh_tilde_is_the_max_variant(tmp_path, capsys):
    big = _write(tmp_path, "big.json", PAIR_BIG)
    point = _write(tmp_path, "point.json", PAIR_POINT)
    code, out, _ = _run(capsys, ["gh", "tilde", "--input", big, point])
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == "1"
    assert payload["variant"] == "max"


def test_gh_exact_repeat_runs_are_byte_identical(tmp_path, capsys):
    big = _write(tmp_path, "big.json", PAIR_BIG)
    point = _write(tmp_path, "point.json", PAIR_POINT)
    outputs = []
    for _ in range(2):
        code, out, _ = _run(capsys, ["gh", "exact", "--input", big, point])
        assert code == 0
        outputs.append(out)
    assert len(set(outputs)) == 1


def test_gh_exact_budget_overflow_is_exit_two(tmp_path, capsys):
    big = _write(tmp_path, "big.json", PAIR_BIG)
    point = _write(tmp_path, "point.json", PAIR_POINT)
    code, _, err = _run(
        capsys, ["gh", "exact", "--input", big, point, "--budget", "1"]
    )
    assert code == 2
    assert "error:" in err


def test_gh_tuple_single_level_matches_pair(tmp_path, capsys):
    left = _write(tmp_path, "left.json", TUPLE_BIG)
    right = _write(tmp_path, "right.json", TUPLE_POINT)
    code, out, _ = _run(capsys, ["gh", "tuple", "--input", left, right])
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == "2"


def test_gh_corr_scores_a_given_correspondence(tmp_path, capsys):
    path = _write(tmp_path, "corr.json", CORR_IDENTITY)
    code, out, _ = _run(capsys, ["gh", "corr", "--input", path])
    payload = json.loads(out)
    assert code == 0
    assert payload["pairs"] == [[0, 0], [1, 1]]
    assert payload["distortion"]["value"] == "0"


def test_gh_corr_searches_when_given_two_pairs(tmp_path, capsys):
    left = _write(tmp_path, "left.json", PAIR_FULL)
    right = _write(tmp_path, "right.json", PAIR_FULL)
    code, out, _ = _run(capsys, ["gh", "corr", "--input", left, right])
    payload = json.loads(out)
    assert code == 0
    assert payload["optimal"] is True
    assert payload["distortion"]["value"] == "0"


def test_gh_bounds_brackets_the_exact_value(tmp_path, capsys):
    big = _write(tmp_path, "big.json", PAIR_BIG)
    point = _write(tmp_path, "point.json", PAIR_POINT)
    code, out, _ = _run(capsys, ["gh", "bounds", "--input", big, point])
    payload = json.loads(out)
    assert code == 0
    assert payload["lower"] == "1"
    assert payload["upper"] == "2"
    assert payload["lower_source"] in ("diameter", "distortion")


@pytest.mark.parametrize("command", ["exact", "bounds"])
def test_gh_reads_a_space_document_as_its_full_pair(tmp_path, capsys, command):
    outputs = []
    for name, doc in (("space", PATH3), ("pair", {**PATH3, "subset": [0, 1, 2]})):
        left = _write(tmp_path, f"{name}.json", doc)
        right = _write(tmp_path, "big.json", PAIR_BIG)
        code, out, err = _run(capsys, ["gh", command, "--input", left, right])
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_geodesic_sample_builds_the_interpolant(tmp_path, capsys):
    path = _write(tmp_path, "corr.json", CORR_IDENTITY)
    code, out, _ = _run(
        capsys, ["geodesic", "sample", "--input", path, "--t", "1/2"]
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["labels"] == ["(0,0)", "(1,1)"]
    assert payload["distances"][0][1] == "2"


def test_geodesic_sample_rejects_out_of_range_time(tmp_path, capsys):
    path = _write(tmp_path, "corr.json", CORR_IDENTITY)
    code, _, err = _run(
        capsys, ["geodesic", "sample", "--input", path, "--t", "3/2"]
    )
    assert code == 2
    assert "error:" in err


def test_geodesic_audit_passes_on_an_optimal_correspondence(tmp_path, capsys):
    path = _write(tmp_path, "corr.json", CORR_IDENTITY)
    code, out, _ = _run(
        capsys, ["geodesic", "audit", "--input", path, "--strict"]
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["all_match"] is True
    assert len(payload["rows"]) == 10


def test_geodesic_audit_strict_fails_on_a_sloppy_relation(tmp_path, capsys):
    path = _write(tmp_path, "corr.json", CORR_SLOPPY)
    code, out, _ = _run(
        capsys, ["geodesic", "audit", "--input", path, "--strict"]
    )
    payload = json.loads(out)
    assert code == 1
    assert payload["all_match"] is False
    assert payload["endpoint_value"] == "0"


def test_geodesic_audit_grid_order_does_not_matter(tmp_path, capsys):
    code, out, _ = _run(capsys, ["sample", "corr", "--seed", "2"])
    assert code == 0
    path = _write(tmp_path, "corr.json", json.loads(out))
    payloads = []
    for grid in ("0,1", "1,0"):
        code, out, _ = _run(
            capsys, ["geodesic", "audit", "--input", path, "--grid", grid, "--strict"]
        )
        assert code == 0
        payloads.append(out)
    assert payloads[0] == payloads[1]


def test_geodesic_audit_csv_has_a_header(tmp_path, capsys):
    path = _write(tmp_path, "corr.json", CORR_IDENTITY)
    code, out, _ = _run(
        capsys, ["geodesic", "audit", "--input", path, "--out", "csv"]
    )
    assert code == 0
    assert out.splitlines()[0] == "s,t,value,expected,matches"


def test_cassorla_run_emits_one_row_per_level(tmp_path, capsys):
    from metricpairs.generators import circle_space
    from metricpairs.serialization import pair_to_dict
    from metricpairs.spaces import MetricPair

    circle = circle_space(40)
    doc = pair_to_dict(MetricPair(circle, tuple(range(0, 40, 4))))
    path = _write(tmp_path, "circle.json", doc)
    code, out, _ = _run(
        capsys, ["cassorla", "run", "--input", path, "--levels", "2", "3"]
    )
    payload = json.loads(out)
    assert code == 0
    assert [row["n"] for row in payload["rows"]] == [2, 3]
    assert payload["rows"][0]["net_estimate"] == "1/25"
    assert payload["rows"][1]["net_estimate"] == "1/125"


def test_cassorla_csv_header(tmp_path, capsys):
    from metricpairs.generators import circle_space
    from metricpairs.serialization import pair_to_dict
    from metricpairs.spaces import MetricPair

    circle = circle_space(12)
    doc = pair_to_dict(MetricPair(circle, tuple(range(0, 12, 3))))
    path = _write(tmp_path, "circle.json", doc)
    code, out, _ = _run(
        capsys,
        ["cassorla", "run", "--input", path, "--levels", "2", "--out", "csv"],
    )
    assert code == 0
    assert out.splitlines()[0] == "n,mu,gh_bound,net_estimate"


@pytest.mark.parametrize(
    "subset, digest",
    [
        (
            tuple(range(0, 32, 4)),
            "b25700da5bddfe5bf226f02b0cf4a34e012ce915b58e547849b2911f6c857235",
        ),
        (
            (3, 7, 11, 30),
            "9580fbda898820ca23a2dfca84b68f7fdfd5f157c6f184131a90286f11053080",
        ),
    ],
)
def test_cassorla_run_matches_recorded_digest(tmp_path, capsys, subset, digest):
    """Byte-for-byte stdout of `cassorla run` at its default levels on a
    32-point circle pair, as recorded before the metric checks moved to
    integer arithmetic."""
    from metricpairs.generators import circle_space
    from metricpairs.serialization import pair_to_dict
    from metricpairs.spaces import MetricPair

    doc = pair_to_dict(MetricPair(circle_space(32), subset))
    path = _write(tmp_path, "circle.json", doc)
    code, out, _ = _run(capsys, ["cassorla", "run", "--input", path])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_apps_hypernet_reports_the_distortion_check(tmp_path, capsys):
    path = _write(tmp_path, "corr.json", CORR_IDENTITY)
    code, out, _ = _run(capsys, ["apps", "hypernet", "--input", path])
    payload = json.loads(out)
    assert code == 0
    assert payload["holds"] is True


def test_float_mode_prints_zero_distances_as_floats(tmp_path, capsys):
    """A zero that float mode measures prints as 0.0, not as the exact "0"."""
    corr = _write(tmp_path, "corr.json", CORR_IDENTITY)
    point = _write(tmp_path, "point.json", PAIR_POINT)
    path4 = [[abs(i - j) for j in range(4)] for i in range(4)]
    line = _write(tmp_path, "line.json", {"distances": path4, "subset": [0, 1, 2, 3]})
    cases = [
        (["gh", "corr", "--input", corr], lambda p: p["distortion"]["sup_full"], 0.0),
        (["gh", "bounds", "--input", point, point], lambda p: p["half_distortion"], 0.0),
        # the glue shift's fallback when neither side has a positive distance
        (["gh", "bounds", "--input", point, point], lambda p: p["upper"], 2.0**-19),
        (["apps", "hypernet", "--input", corr], lambda p: p["net_distortion"], 0.0),
        (["cassorla", "run", "--input", line, "--levels", "2"], lambda p: p["rows"][0]["mismatch"], 0.0),
    ]
    for argv, field, want in cases:
        code, out, _ = _run(capsys, argv + ["--mode", "float"])
        assert code == 0, argv
        value = field(json.loads(out))
        assert isinstance(value, float) and value == want, (argv, value)


def test_apps_tilde_reports_the_variant_sandwich(tmp_path, capsys):
    big = _write(tmp_path, "big.json", PAIR_BIG)
    point = _write(tmp_path, "point.json", PAIR_POINT)
    code, out, _ = _run(capsys, ["apps", "tilde", "--input", big, point])
    payload = json.loads(out)
    assert code == 0
    assert payload["max_value"] == "1"
    assert payload["sum_value"] == "2"
    assert payload["lower_ok"] is True
    assert payload["upper_ok"] is True
    assert payload["ratio"] == "2"


def test_apps_realize_brackets_parallel_segments(tmp_path, capsys):
    low = _write(tmp_path, "low.json", SEGMENT_LOW)
    high = _write(tmp_path, "high.json", SEGMENT_HIGH)
    code, out, _ = _run(
        capsys, ["apps", "realize", "--input", low, high, "--step", "0.25"]
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["lower"] == 0.5
    assert payload["upper"] == 0.75


def test_apps_densify_rounds_onto_the_grid(tmp_path, capsys):
    doc = {"distances": [["0", "1/3"], ["1/3", "0"]]}
    path = _write(tmp_path, "space.json", doc)
    code, out, _ = _run(capsys, ["apps", "densify", "--input", path, "--q", "5"])
    payload = json.loads(out)
    assert code == 0
    assert payload["q"] == 5
    assert payload["distances"][0][1] == "3/5"


def test_apps_densify_refuses_a_tuple_document(tmp_path, capsys):
    path = _write(tmp_path, "tuple.json", TUPLE_BIG)
    code, out, err = _run(capsys, ["apps", "densify", "--input", path, "--q", "5"])
    assert (code, out) == (2, "")
    assert "expected a pair or space document, found tuple" in err


def test_sample_is_seed_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = _run(capsys, ["sample", "pair", "--seed", "7"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert "subset" in payload and "distances" in payload


def test_sample_seeds_differ(capsys):
    _, first, _ = _run(capsys, ["sample", "space", "--seed", "1"])
    _, second, _ = _run(capsys, ["sample", "space", "--seed", "2"])
    assert first != second


def test_sample_corr_documents_load_back(tmp_path, capsys):
    code, out, _ = _run(capsys, ["sample", "corr", "--seed", "3"])
    assert code == 0
    path = tmp_path / "corr.json"
    path.write_text(out)
    code, out, _ = _run(capsys, ["gh", "corr", "--input", str(path)])
    assert code == 0
    assert "distortion" in json.loads(out)


def test_text_output_mode(tmp_path, capsys):
    path = _write(tmp_path, "space.json", PATH3)
    code, out, _ = _run(
        capsys,
        [
            "hausdorff",
            "--input",
            path,
            "--left",
            "0",
            "--right",
            "2",
            "--out",
            "text",
        ],
    )
    assert code == 0
    assert out == "value: 2\n"


def test_text_output_prints_a_nested_value_as_sorted_json(tmp_path, capsys):
    left = _write(tmp_path, "left.json", PAIR_BIG)
    right = _write(tmp_path, "right.json", PAIR_POINT)
    argv = ["gh", "exact", "--input", left, right]
    _, out, _ = _run(capsys, argv)
    certificate = json.loads(out)["certificate"]
    code, out, _ = _run(capsys, argv + ["--out", "text"])
    assert code == 0
    assert f"certificate: {json.dumps(certificate, sort_keys=True)}\n" in out


def test_module_entry_point_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "metricpairs", "sample", "space", "--seed", "5"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0
    assert "distances" in json.loads(result.stdout)


# stdlib modules no command and no import of the package loads: value
# classes generate no code, so neither dataclasses nor the inspect it
# imports is needed
_NEVER_LOADED = ("numpy", "dataclasses", "inspect")


def test_import_pulls_in_no_numpy():
    """The package, every module in it and a star import need no
    third-party module: numpy in particular stays out of a fresh
    interpreter's sys.modules, and so do dataclasses and inspect.  The
    modules are listed from the package directory, since pkgutil itself
    imports inspect."""
    probe = (
        "import importlib, json, os, sys, metricpairs\n"
        "from metricpairs import *\n"
        "for name in sorted(os.listdir(metricpairs.__path__[0])):\n"
        "    if name.endswith('.py') and name != '__init__.py':\n"
        "        importlib.import_module(f'metricpairs.{name[:-3]}')\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV
    )
    assert result.returncode == 0, result.stderr
    modules = json.loads(result.stdout)
    assert {"metricpairs.applications", "metricpairs.families", "metricpairs.geodesics"} <= set(modules)
    assert not set(_NEVER_LOADED) & set(modules)


def test_every_library_name_resolves_on_cli_to_its_module_object():
    """The package's public names and the document functions the handlers
    call resolve on ``cli`` to the objects their modules define; a fresh
    interpreter, so no patch from another test is seen."""
    probe = (
        "import importlib, json, metricpairs\n"
        "from metricpairs import cli\n"
        "names = [(m, n) for m, ns in metricpairs._EXPORTS.items() for n in ns]\n"
        "names += [('serialization', n) for n in cli._LIBRARY['serialization']]\n"
        "wrong = [n for m, n in names if getattr(cli, n, None)\n"
        "         is not getattr(importlib.import_module(f'metricpairs.{m}'), n)]\n"
        "print(json.dumps([len(names), wrong]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV
    )
    assert result.returncode == 0, result.stderr
    count, wrong = json.loads(result.stdout)
    assert count == 107 + 10
    assert wrong == []


# run in a fresh interpreter: what importing the package loads, then the
# command's exit code and every module loaded by the end
_IMPORT_PROBE = """
import contextlib, io, json, sys
import metricpairs
package = sorted(m for m in sys.modules if m.startswith("metricpairs."))
from metricpairs.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([package, code, sorted(sys.modules)]))
"""

_ORACLE_ONLY = ("correspondences", "complexes", "realization", "bounds", "geodesics", "applications")

_DISTORTION_ONLY = ("complexes", "realization", "geodesics", "applications")

# argv -> modules of the package the command must not load
_IMPORT_TABLE = [
    (["--help"], ("serialization", "spaces", "oracle", "lp")),
    (["validate", "--input", "SPACE"], ("oracle", "lp", "correspondences", "complexes", "realization")),
    (["gh", "exact", "--input", "PAIR", "PAIR"], _ORACLE_ONLY),
    (["gh", "tuple", "--input", "TUPLE", "TUPLE"], _ORACLE_ONLY),
    # up to 16 cells both distortion objectives run the witness search
    (["gh", "bounds", "--input", "PAIR", "PAIR"], _DISTORTION_ONLY),
    (["cassorla", "run", "--input", "PAIR"], ("oracle", "lp", "correspondences", "realization")),
    (["apps", "realize", "--input", "LOW", "HIGH"], ("oracle", "lp", "correspondences", "complexes")),
    (["validate", "--input", "LOW"], ("oracle", "lp", "correspondences", "complexes")),
    (["sample", "pair"], ("oracle", "lp", "complexes", "realization")),
    (["gh", "corr", "--input", "PAIR", "PAIR"], _DISTORTION_ONLY),
    (["gh", "corr", "--input", "WIDE", "WIDE"], ("oracle", "lp")),
    (["validate", "--input", "CORR"], ("oracle", "lp", "complexes", "realization")),
    (["geodesic", "sample", "--input", "CORR", "--t", "1/2"], ("complexes", "realization")),
]


def test_each_command_imports_only_its_modules(tmp_path):
    """``import metricpairs`` loads no module of the package, each command
    loads only the modules it runs, and none loads numpy, dataclasses,
    inspect or, reading and writing JSON, csv."""
    docs = {
        "SPACE": _write(tmp_path, "space.json", PATH3),
        "PAIR": _write(tmp_path, "pair.json", PAIR_BIG),
        # 25 cells: past the witness search, so the local search runs
        "WIDE": _write(tmp_path, "wide.json", {
            "distances": [[str(abs(i - j)) for j in range(5)] for i in range(5)],
            "subset": [0, 4],
        }),
        "TUPLE": _write(tmp_path, "tuple.json", TUPLE_BIG),
        "LOW": _write(tmp_path, "low.json", SEGMENT_LOW),
        "HIGH": _write(tmp_path, "high.json", SEGMENT_HIGH),
        "CORR": _write(tmp_path, "corr.json", CORR_IDENTITY),
    }
    for argv, forbidden in _IMPORT_TABLE:
        result = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *(docs.get(a, a) for a in argv)],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert result.returncode == 0, result.stderr
        package, code, modules = json.loads(result.stdout)
        assert package == []
        assert code == 0, argv
        loaded = {m for m in modules if m.startswith("metricpairs.")}
        assert not loaded & {f"metricpairs.{m}" for m in forbidden}, (argv, sorted(loaded))
        # every command of the table reads and writes JSON only
        assert not {*_NEVER_LOADED, "csv"} & set(modules), argv
