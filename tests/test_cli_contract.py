"""The CLI's exit-code contract on malformed input.

Every command, given a broken document or argument, exits 0, 1 or 2 and
never prints a traceback.  Most runs go through ``main`` in process; a
few run as fresh ``python -m metricpairs`` processes, where the error
classes ``main`` maps to exit 2 come from modules loaded on demand.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from metricpairs.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"

GOOD_PAIR = {"distances": [[0, 2, 1], [2, 0, 1], [1, 1, 0]], "subset": [0, 2]}
GOOD_TUPLE = {"distances": [[0, 2], [2, 0]], "chain": [[0, 1], [0]]}
GOOD_CORR = {"left": GOOD_PAIR, "right": GOOD_PAIR, "pairs": [[0, 0], [1, 1], [2, 2]]}
GOOD_COMPLEX = {"points": [[0.0, 0.0], [1.0, 0.0]], "simplices": [[0, 1]]}
# GOOD_COMPLEX lifted into R^3, 5 above it
GOOD_COMPLEX_3D = {"points": [[0.0, 0.0, 5.0], [1.0, 0.0, 5.0]], "simplices": [[0, 1]]}


def _space(rows, **extra):
    return {"distances": rows, **extra}


# name -> document text; JSON unless the name ends in .csv
BROKEN = {
    "not_json": "{not json",
    "empty_file": "",
    "top_level_list": "[[0, 1], [1, 0]]",
    "empty_object": "{}",
    "empty_matrix": _space([]),
    "distances_not_list": _space(5),
    "ragged": _space([[0, 1], [1]]),
    "row_not_list": _space([0, 1]),
    "non_numeric": _space([["0", "x"], ["x", "0"]]),
    "bool_entry": _space([[0, True], [True, 0]]),
    "null_entry": _space([[0, None], [None, 0]]),
    "nan_string": _space([["0", "nan"], ["nan", "0"]]),
    "inf_string": _space([["0", "inf"], ["inf", "0"]]),
    "nan_literal": '{"distances": [[0, NaN], [NaN, 0]], "subset": [0]}',
    "infinity_literal": '{"distances": [[0, Infinity], [Infinity, 0]], "subset": [0]}',
    "zero_denominator": _space([["0", "1/0"], ["1/0", "0"]]),
    "huge_string": _space([["0", "1e400"], ["1e400", "0"]], subset=[0]),
    "huge_literal": '{"distances": [[0, 1e400], [1e400, 0]], "subset": [0]}',
    "negative": _space([[0, -1], [-1, 0]]),
    "asymmetric": _space([[0, 1], [2, 0]]),
    "zero_off_diagonal": _space([[0, 0], [0, 0]]),
    "triangle": _space([[0, 5, 1], [5, 0, 1], [1, 1, 0]]),
    "subset_out_of_range": _space([[0, 1], [1, 0]], subset=[0, 7]),
    "subset_negative": _space([[0, 1], [1, 0]], subset=[-1]),
    "subset_empty": _space([[0, 1], [1, 0]], subset=[]),
    "subset_duplicate": _space([[0, 1], [1, 0]], subset=[0, 0]),
    "subset_not_int": _space([[0, 1], [1, 0]], subset=["a"]),
    "subset_not_list": _space([[0, 1], [1, 0]], subset=3),
    "subset_fraction_and_bool": _space([[0, 1], [1, 0]], subset=[0.9, True]),
    "subset_whole_float": _space([[0, 1], [1, 0]], subset=[1.0]),
    "subset_string_index": _space([[0, 1], [1, 0]], subset=["1"]),
    "labels_too_few": _space([[0, 1], [1, 0]], subset=[0], labels=["a"]),
    "labels_too_many": _space([[0, 1], [1, 0]], subset=[0], labels=["a", "b", "c"]),
    "labels_not_list": _space([[0, 1], [1, 0]], subset=[0], labels=5),
    "chain_empty": _space([[0, 1], [1, 0]], chain=[]),
    "chain_not_nested": _space([[0, 1], [1, 0]], chain=[[0], [0, 1]]),
    "chain_out_of_range": _space([[0, 1], [1, 0]], chain=[[0, 5]]),
    "chain_empty_level": _space([[0, 1], [1, 0]], chain=[[0], []]),
    "chain_float_index": _space([[0, 1], [1, 0]], chain=[[0, 1.0]]),
    "chain_bool_index": _space([[0, 1], [1, 0]], chain=[[False]]),
    "corr_not_covering": {**GOOD_CORR, "pairs": [[0, 0]]},
    "corr_out_of_range": {**GOOD_CORR, "pairs": [[0, 0], [1, 1], [2, 2], [9, 0]]},
    "corr_bad_cell": {**GOOD_CORR, "pairs": [[0], [1, 1]]},
    "corr_float_cell": {**GOOD_CORR, "pairs": [[0, 0], [1, 1], [2, 2.5]]},
    "corr_bool_cell": {**GOOD_CORR, "pairs": [[0, 0], [True, 1], [2, 2]]},
    "corr_broken_side": {**GOOD_CORR, "left": _space([[0, 1], [2, 0]], subset=[0])},
    "corr_side_not_pair": {**GOOD_CORR, "right": _space([[0, 1], [1, 0]])},
    "complex_no_simplices": {"points": [[0.0, 0.0]]},
    "complex_empty": {"points": [], "simplices": []},
    "complex_ragged": {"points": [[0.0, 0.0], [1.0]], "simplices": [[0, 1]]},
    "complex_string_points": {"points": ["12", "34"], "simplices": [[0, 1]]},
    "complex_nan": {"points": [[0.0, "nan"], [1.0, 0.0]], "simplices": [[0, 1]]},
    "complex_index": {"points": [[0.0, 0.0], [1.0, 0.0]], "simplices": [[0, 5]]},
    "complex_float_vertex": {"points": [[0.0, 0.0], [1.0, 0.0]], "simplices": [[0, 1.0]]},
    "complex_bool_depth": {"points": [[0.0, 0.0], [1.0, 0.0]], "simplices": [[0, 1]], "depths": [True]},
    "complex_big_simplex": {
        "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        "simplices": [[0, 1, 2, 3]],
    },
    "ragged.csv": "0,1\n1\n",
    "non_numeric.csv": "a,b\n0,x\nx,0\n",
    "empty.csv": "",
    "labels_only.csv": "a,b\n",
}

# argv templates: DOC is the broken document, the GOOD_* names are
# well-formed partners, so the broken one is the only fault
COMMANDS = {
    "validate": ["validate", "--input", "DOC"],
    "hausdorff": ["hausdorff", "--input", "DOC", "--left", "0", "--right", "1"],
    "gh_exact": ["gh", "exact", "--input", "DOC", "GOOD_PAIR"],
    "gh_exact_right": ["gh", "exact", "--input", "GOOD_PAIR", "DOC"],
    "gh_tilde": ["gh", "tilde", "--input", "DOC", "GOOD_PAIR"],
    "gh_tuple": ["gh", "tuple", "--input", "DOC", "GOOD_TUPLE"],
    "gh_corr_one": ["gh", "corr", "--input", "DOC"],
    "gh_corr_two": ["gh", "corr", "--input", "DOC", "GOOD_PAIR"],
    "gh_bounds": ["gh", "bounds", "--input", "DOC", "GOOD_PAIR"],
    "geodesic_sample": ["geodesic", "sample", "--input", "DOC", "--t", "1/2"],
    "geodesic_audit": ["geodesic", "audit", "--input", "DOC", "--grid", "0,1/2"],
    "cassorla_run": ["cassorla", "run", "--input", "DOC", "--levels", "2"],
    "apps_hypernet": ["apps", "hypernet", "--input", "DOC"],
    "apps_tilde": ["apps", "tilde", "--input", "DOC", "GOOD_PAIR"],
    "apps_realize": ["apps", "realize", "--input", "DOC", "GOOD_COMPLEX"],
    "apps_densify": ["apps", "densify", "--input", "DOC", "--q", "2"],
}

# well-formed documents with a broken argument
BAD_ARGUMENTS = [
    ["hausdorff", "--input", "GOOD_PAIR", "--left", "a", "--right", "1"],
    ["hausdorff", "--input", "GOOD_PAIR", "--left", "9", "--right", "1"],
    ["hausdorff", "--input", "GOOD_PAIR", "--left", "", "--right", "1"],
    ["hausdorff", "--input", "GOOD_PAIR", "--left", "0,0", "--right", "-1"],
    ["gh", "exact", "--input", "GOOD_PAIR"],
    ["gh", "exact", "--input", "GOOD_PAIR", "GOOD_PAIR", "--budget", "x"],
    ["gh", "exact", "--input", "GOOD_PAIR", "GOOD_PAIR", "--budget", "-1"],
    ["gh", "tuple", "--input", "GOOD_PAIR", "GOOD_TUPLE"],
    ["gh", "tuple", "--input", "GOOD_TUPLE", "GOOD_TUPLE", "--variant", "min"],
    ["gh", "corr", "--input", "GOOD_PAIR", "GOOD_PAIR", "GOOD_PAIR"],
    ["gh", "corr", "--input", "GOOD_CORR", "--objective", "sup_full"],
    ["gh", "bounds", "--input", "GOOD_CORR", "GOOD_PAIR"],
    ["geodesic", "sample", "--input", "GOOD_CORR", "--t", "x"],
    ["geodesic", "sample", "--input", "GOOD_CORR", "--t", "2"],
    ["geodesic", "sample", "--input", "GOOD_CORR", "--t", "-1/2"],
    ["geodesic", "sample", "--input", "GOOD_CORR", "--t", "1/0"],
    ["geodesic", "audit", "--input", "GOOD_CORR", "--grid", "x"],
    ["geodesic", "audit", "--input", "GOOD_CORR", "--grid", "3"],
    ["geodesic", "audit", "--input", "GOOD_CORR", "--grid", ""],
    ["geodesic", "audit", "--input", "GOOD_CORR", "--budget", "0"],
    ["geodesic", "sample", "--input", "GOOD_PAIR", "--t", "1/2"],
    ["cassorla", "run", "--input", "GOOD_PAIR", "--levels", "0"],
    ["cassorla", "run", "--input", "GOOD_PAIR", "--levels", "-2"],
    ["cassorla", "run", "--input", "GOOD_PAIR", "--levels", "x"],
    ["cassorla", "run", "--input", "GOOD_CORR"],
    ["cassorla", "run", "--input", "GOOD_PAIR", "--no-saturate"],
    ["apps", "realize", "--input", "GOOD_COMPLEX", "GOOD_COMPLEX", "--step", "0"],
    ["apps", "realize", "--input", "GOOD_COMPLEX", "GOOD_COMPLEX", "--step", "-1"],
    ["apps", "realize", "--input", "GOOD_COMPLEX", "GOOD_COMPLEX", "--step", "nan"],
    ["apps", "realize", "--input", "GOOD_COMPLEX", "GOOD_COMPLEX", "--step", "inf"],
    ["apps", "realize", "--input", "GOOD_PAIR", "GOOD_COMPLEX"],
    ["apps", "realize", "--input", "GOOD_COMPLEX", "GOOD_COMPLEX_3D"],
    ["apps", "densify", "--input", "GOOD_PAIR", "--q", "0"],
    ["apps", "densify", "--input", "GOOD_PAIR", "--q", "-3"],
    ["apps", "densify", "--input", "GOOD_CORR", "--q", "2"],
    ["apps", "hypernet", "--input", "GOOD_PAIR"],
    ["apps", "tilde", "--input", "GOOD_PAIR", "GOOD_PAIR", "--budget", "0"],
    ["validate", "--input", "GOOD_PAIR", "--tol", "x"],
    ["validate", "--input", "GOOD_PAIR", "--tol", "nan"],
    ["validate", "--input", "GOOD_PAIR", "--mode", "approximate"],
    ["validate", "--input", "GOOD_PAIR", "--out", "csv"],
    ["validate", "--input", "MISSING"],
    ["sample", "pair", "--min-points", "0"],
    ["sample", "pair", "--min-points", "3", "--max-points", "2"],
    ["sample", "pair", "--values", ""],
    ["sample", "pair", "--values", "a,b"],
    ["sample", "tuple", "--k", "0"],
    ["sample", "corr", "--values", "-1"],
    ["sample", "graph"],
    ["gh"],
    ["nonsense"],
    [],
]


def _circle(n: int) -> dict:
    """n points at integer arc length on a circle; every point a subset
    member."""
    rows = [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
    return {"distances": rows, "subset": list(range(n))}


def _path_pair(n: int) -> dict:
    rows = [[abs(i - j) for j in range(n)] for i in range(n)]
    return {"distances": rows, "subset": [0, n - 1]}


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """Path of every document, broken and good, by name."""
    root = tmp_path_factory.mktemp("contract")
    paths = {}
    good = {
        "GOOD_PAIR": GOOD_PAIR,
        "GOOD_TUPLE": GOOD_TUPLE,
        "GOOD_CORR": GOOD_CORR,
        "GOOD_COMPLEX": GOOD_COMPLEX,
        "GOOD_COMPLEX_3D": GOOD_COMPLEX_3D,
        "CIRCLE6": _circle(6),
        "PATH6": _path_pair(6),
    }
    for name, doc in {**BROKEN, **good}.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        path = root / (name if name.endswith(".csv") else f"{name}.json")
        path.write_text(text)
        paths[name] = str(path)
    paths["MISSING"] = str(root / "missing.json")
    return paths


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def _contract(capsys, argv) -> int:
    """Exit code of ``main(argv)``; fails on a code outside 0-2, an
    exception that escapes ``main``, or a successful run whose output is
    not strict JSON (``Infinity`` and ``NaN`` are not)."""
    return _contract_output(capsys, argv)[0]


def _contract_output(capsys, argv) -> tuple:
    """``_contract``, and the standard output of the run."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert err.strip(), argv
    if code == 0:
        json.loads(out, parse_constant=_no_constant)
    return code, out


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_survives_every_broken_document(docs, capsys, command, mode):
    codes = set()
    for name in BROKEN:
        argv = [docs.get(arg, arg) for arg in COMMANDS[command]]
        argv[argv.index("DOC")] = docs[name]
        codes.add(_contract(capsys, argv + ["--mode", mode]))
    # every document is broken somewhere, so some runs must say so
    assert 2 in codes


@pytest.mark.parametrize("argv", BAD_ARGUMENTS, ids=lambda argv: " ".join(argv) or "none")
def test_broken_arguments_exit_cleanly(docs, capsys, argv):
    assert _contract(capsys, [docs.get(arg, arg) for arg in argv]) == 2


@pytest.mark.parametrize("left", ["1_0", "0_1", "\u0661", "+1"])
def test_index_lists_take_only_ascii_digits(docs, capsys, left):
    argv = ["hausdorff", "--input", docs["GOOD_PAIR"], "--left", left, "--right", "1"]
    assert _contract(capsys, argv) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "space", "--values", "1_0"],
        ["sample", "space", "--values", "1,\u0662"],
        ["sample", "tuple", "--k", "1_0"],
        ["sample", "pair", "--seed", " 1"],
        ["sample", "pair", "--max-points", "+3"],
        ["gh", "exact", "--input", "GOOD_PAIR", "GOOD_PAIR", "--budget", "1_000"],
        ["gh", "exact", "--input", "GOOD_PAIR", "GOOD_PAIR", "--budget", "\u0663\u0660"],
        ["geodesic", "audit", "--input", "GOOD_CORR", "--budget", "1_000"],
        ["apps", "densify", "--input", "GOOD_PAIR", "--q", "\u0663"],
        ["cassorla", "run", "--input", "GOOD_PAIR", "--levels", "\u0662"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_integer_flags_take_only_ascii_digits(docs, capsys, argv):
    assert _contract(capsys, [docs.get(arg, arg) for arg in argv]) == 2


@pytest.mark.parametrize("flag", ["--min-points", "--max-points"])
def test_point_counts_below_one_are_refused_on_every_seed(capsys, flag):
    for seed in range(10):
        argv = ["sample", "pair", "--seed", str(seed), flag, "0"]
        assert _contract(capsys, argv) == 2, seed


@pytest.mark.parametrize("kind", ["space", "pair", "tuple", "corr"])
def test_sample_refuses_more_min_points_than_max_points(capsys, kind):
    code = main(["sample", kind, "--min-points", "5", "--max-points", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --min-points 5 is above --max-points 2\n"


def test_validate_rejects_a_tolerance_that_switches_checks_off(docs, capsys):
    for tol in ("nan", "-1", "inf", "-inf"):
        argv = ["validate", "--input", docs["triangle"], "--tol", tol]
        assert _contract(capsys, argv) == 2, tol


INDEX_FIELDS = [
    "subset_fraction_and_bool", "subset_whole_float", "subset_string_index",
    "chain_float_index", "chain_bool_index", "corr_float_cell", "corr_bool_cell",
    "complex_float_vertex", "complex_bool_depth",
]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", INDEX_FIELDS)
def test_index_fields_that_are_not_integers_are_refused(docs, capsys, name, mode):
    """``0.9``, ``1.0``, ``true`` or ``"1"`` where an index belongs is
    refused, not truncated to an index."""
    code, out = _contract_output(capsys, ["validate", "--input", docs[name], "--mode", mode])
    assert code == 1 and json.loads(out)["ok"] is False, out
    if name.startswith("subset_"):
        argv = ["apps", "densify", "--input", docs[name], "--q", "2", "--mode", mode]
        assert _contract(capsys, argv) == 2


def test_realize_rejects_a_step_that_is_not_finite_and_positive(docs, capsys):
    """``--step inf`` would print an upper end of Infinity, which is not JSON."""
    for step in ("0", "-1", "nan", "inf"):
        argv = ["apps", "realize", "--input", docs["GOOD_COMPLEX"], docs["GOOD_COMPLEX"]]
        with pytest.raises(SystemExit) as info:
            main(argv + ["--step", step])
        assert info.value.code == 2, step
        assert "argument --step" in capsys.readouterr().err, step


def test_cassorla_run_connects_a_line_of_two_clusters(tmp_path, capsys):
    """Points 0, 1, 10 and 11 on a line: both default levels saturate
    their cutoff past the gap of 9 between the clusters."""
    points = (0, 1, 10, 11)
    path = tmp_path / "line.json"
    path.write_text(json.dumps(
        {"distances": [[abs(a - b) for b in points] for a in points], "subset": [0, 1]}
    ))
    code, out = _contract_output(capsys, ["cassorla", "run", "--input", str(path)])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(row["n"], row["saturated"], row["mismatch"]) for row in rows] == [
        (2, True, "0"), (3, True, "0")
    ]


def test_csv_output_is_offered_only_where_there_is_a_csv_form(docs, capsys):
    """``--out csv`` is a choice of ``geodesic audit`` and ``cassorla run``
    only; every other command refuses it as a usage error."""
    parser = build_parser()
    for command, argv in [*COMMANDS.items(), ("sample", ["sample", "pair"])]:
        argv = [docs.get(arg, arg) for arg in argv] + ["--out", "csv"]
        if command in ("geodesic_audit", "cassorla_run"):
            assert parser.parse_args(argv).out == "csv"
            continue
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, command
        assert "argument --out: invalid choice: 'csv'" in capsys.readouterr().err, command


# argv with document names, and what stderr must say
FRESH = [
    (["gh", "exact", "--input", "CIRCLE6", "PATH6", "--budget", "1"],
     "error: witness search visited"),
    (["hausdorff", "--input", "triangle", "--left", "0", "--right", "1"],
     "error: invalid metric in input: not a metric"),
    (["validate", "--input", "MISSING"], "error: "),
    (["gh", "bounds", "--input", "not_json", "not_json"], "error: "),
    (["validate", "--input", "GOOD_PAIR", "--tol", "nan"], "argument --tol"),
    (["gh", "corr", "--input", "GOOD_PAIR", "GOOD_PAIR", "MISSING"], "got 3 inputs"),
]


@pytest.mark.parametrize(
    "argv, message",
    FRESH,
    ids=[
        "budget", "invalid_metric", "missing_file", "broken_json", "usage",
        "third_corr_input",
    ],
)
def test_fresh_process_maps_errors_to_exit_2(docs, argv, message):
    """In a fresh process each error class is raised by a module that
    only the failing command loaded; ``main`` must still map it."""
    done = subprocess.run(
        [sys.executable, "-m", "metricpairs", *(docs.get(arg, arg) for arg in argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert message in done.stderr
    assert "Traceback" not in done.stderr


# The mutation contract: one-field mutations of a valid document of each
# kind, nested correspondence sides included, each field deleted or set
# to one of WRONG_VALUES.  ``validate`` reads a document exactly as the
# commands do, so it never calls a JSON object a usage error, and a
# document it accepts as kind K is never refused by a command reading K.
LABELLED_PAIR = {**GOOD_PAIR, "labels": ["a", "b", "c"]}
VALID = {
    "space": {"labels": ["a", "b", "c"], "distances": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
    "pair": LABELLED_PAIR,
    "tuple": {**GOOD_TUPLE, "labels": ["a", "b"]},
    "correspondence": {**GOOD_CORR, "left": LABELLED_PAIR, "right": LABELLED_PAIR},
    "complex": {**GOOD_COMPLEX, "depths": [0]},
}
DELETED = object()
# [inf] is written [Infinity], a JSON extension, and int() takes no inf
WRONG_VALUES = (
    None, True, 0, -1, 2.5, "x", "", "1/2", [], [0], [float("inf")], [[0]], [[0, 1]], {},
)

# argv of each command that reads a document, DOC standing for it
READERS = {
    "hausdorff": ["hausdorff", "--input", "DOC", "--left", "0", "--right", "0"],
    "gh_bounds": ["gh", "bounds", "--input", "DOC", "DOC"],
    "gh_tuple": ["gh", "tuple", "--input", "DOC", "DOC"],
    "gh_corr": ["gh", "corr", "--input", "DOC"],
    "apps_realize": ["apps", "realize", "--input", "DOC", "DOC"],
}
CONSUMERS = {
    "space": ("hausdorff", "gh_bounds"),
    "pair": ("hausdorff", "gh_bounds"),
    "tuple": ("hausdorff", "gh_tuple"),
    "correspondence": ("gh_corr",),
    "complex": ("apps_realize",),
}


def _mutations():
    """(kind, name, document) for every one-field mutation of VALID."""
    for kind, doc in VALID.items():
        fields = [(key,) for key in doc]
        fields += [(key, sub) for key in doc if isinstance(doc[key], dict) for sub in doc[key]]
        for field in fields:
            for value in (DELETED, *WRONG_VALUES):
                mutated = json.loads(json.dumps(doc))
                *outer, last = field
                target = mutated[outer[0]] if outer else mutated
                if value is DELETED:
                    del target[last]
                else:
                    target[last] = value
                label = "deleted" if value is DELETED else json.dumps(value)
                yield kind, f"{kind}.{'.'.join(field)}={label}", mutated


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_validate_accepts_only_what_the_commands_read(tmp_path, capsys, mode):
    """Each mutation runs through ``validate`` and through the commands
    that read its kind before and after the mutation."""
    path = str(tmp_path / "doc.json")
    usage_errors, refused = [], []
    mutations = list(_mutations())
    assert len(mutations) == 15 * (2 + 3 + 3 + 9 + 3)
    for original, name, doc in mutations:
        Path(path).write_text(json.dumps(doc))
        code, out = _contract_output(capsys, ["validate", "--input", path, "--mode", mode])
        if code == 2:
            usage_errors.append(name)
        kind = json.loads(out)["kind"] if code == 0 else None
        readers = dict.fromkeys(CONSUMERS[original] + CONSUMERS.get(kind, ()))
        for reader in readers:
            argv = [path if arg == "DOC" else arg for arg in READERS[reader]]
            if _contract(capsys, argv + ["--mode", mode]) == 2 and reader in CONSUMERS.get(kind, ()):
                refused.append(f"{name} by {reader}")
    assert usage_errors == []
    assert refused == []
