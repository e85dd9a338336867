"""Command-line interface.

Exit codes: 0 on success, 1 when a checked mathematical property fails
(an invalid document under ``validate``, a failed certificate under the
``apps`` checks), 2 for usage, file or budget problems.  All output is
byte-deterministic: JSON keys are sorted and exact scalars print as
"p/q" strings.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from importlib import import_module

from . import _EXPORTS, DEFAULT_BUDGET

# The library names the handlers call, by the module that defines them:
# the package's public names plus the document functions, which it does
# not export.  A command imports only the modules it runs (``_need``), so
# the parser and --help load none.  Once imported, a name stays in this
# module's globals, where replacing ``metricpairs.cli.<name>`` reroutes
# the handlers' calls.
_LIBRARY = {
    **_EXPORTS,
    "serialization": (
        "correspondence_to_dict", "document_kind", "dump_json", "format_csv",
        "from_document", "load_document", "matrix_from_csv", "pair_to_dict",
        "space_to_dict", "tuple_to_dict",
    ),
}
# every command reads or writes a document
_DOCUMENTS = ("scalars", "serialization", "spaces")


def _need(*modules: str) -> None:
    """Import the document modules and ``modules``, and bind the names
    listed for them that are not bound yet (a replaced one stays).

    The first binding in a process wins: a name is taken from its module
    as that module holds it at the first lookup, and is never taken again.
    So resolve the names (``getattr(cli, name)``) before patching a
    library module, or ``cli`` keeps the patch after it is undone."""
    bound = globals()
    for module in _DOCUMENTS + modules:
        source = import_module(f"{__package__}.{module}")
        for name in _LIBRARY[module]:
            bound.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    for module, names in _LIBRARY.items():
        if name in names:
            _need(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _raised_by(module: str, name: str) -> tuple:
    """``(cls,)`` for the exception class ``name`` of ``module`` if that
    module has been imported, else ``()``: a module never imported cannot
    have raised.  Unpack it into an ``except`` tuple, which may not nest a
    tuple."""
    source = sys.modules.get(f"{__package__}.{module}")
    return () if source is None else (getattr(source, name),)


def _emit(args, payload: dict, rows=None) -> None:
    if args.out == "json":
        sys.stdout.write(dump_json(payload))
    elif args.out == "csv":
        sys.stdout.write(format_csv(rows))
    else:
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            sys.stdout.write(f"{key}: {value}\n")


def _exact(args) -> bool:
    return args.mode == "exact"


def _load(args, path: str) -> dict:
    """The document at ``path``; a CSV file is read as a space document
    whose matrix is checked where it is used, so ``validate --tol`` sees
    it raw."""
    if path.endswith(".csv"):
        matrix, labels = matrix_from_csv(path, _exact(args))
        data = {"distances": matrix}
        if labels is not None:
            data["labels"] = list(labels)
        return data
    return load_document(path, _exact(args))


def _read(args, path: str, *kinds: str):
    """The object the document at ``path`` describes, which must be of one
    of ``kinds``.  A space document read as a pair is its whole-space pair."""
    data = _load(args, path)
    found = document_kind(data)
    accepted = (*kinds, "space") if kinds == ("pair",) else kinds
    if found not in accepted:
        raise ValueError(f"expected a {' or '.join(accepted)} document, found {found}")
    value = from_document(data, _exact(args))
    return value if found in kinds else MetricPair(value, tuple(range(value.n)))


def _indices(text: str) -> tuple:
    parts = [part.strip() for part in text.split(",")]
    if not all(part.isascii() and part.isdigit() for part in parts if part):
        raise ValueError(f"bad index list {text!r}")
    return tuple(int(part) for part in parts if part)


def _result_payload(result) -> dict:
    payload = result.as_dict()
    report = result.certificate_report()
    payload["certificate"] = {
        "achieves_value": report["achieves_value"],
        "violations": len(report["violations"]),
        "zero_cells": [list(c) for c in report["zero_cells"]],
        "terms": [format_scalar(t) for t in report["terms"]],
    }
    return payload


# ---------------------------------------------------------------------------
# command implementations


def cmd_validate(args) -> int:
    _need()
    # outside the try: a missing file or bad JSON is a usage error
    data = _load(args, args.input[0])
    payload: dict = {"kind": None, "report": {}}
    try:
        payload["kind"] = document_kind(data)
        from_document(data, _exact(args), args.tol)
    except InvalidMetricError as exc:
        payload["report"] = exc.report.as_dict()
    except (ValueError, TypeError, OverflowError) as exc:
        payload["report"] = {"error": str(exc)}
    payload["ok"] = not payload["report"]
    _emit(args, payload)
    return 0 if payload["ok"] else 1


def cmd_hausdorff(args) -> int:
    _need()
    found = _read(args, args.input[0], "space", "pair", "tuple")
    space = found if isinstance(found, FiniteMetricSpace) else found.space
    left = _indices(args.left)
    right = _indices(args.right)
    value = hausdorff(space, left, right)
    _emit(args, {"value": format_scalar(value)})
    return 0


def cmd_gh_exact(args) -> int:
    """``gh exact``, ``gh tilde`` and ``gh tuple``: one exact solve."""
    _need("oracle")
    kind = "tuple" if args.gh_command == "tuple" else "pair"
    left, right = (_read(args, path, kind) for path in args.input)
    if kind == "tuple":
        result = exact_tuple_gh(left, right, budget=args.budget, variant=args.variant)
    else:
        fn = exact_pair_gh_max if args.variant == "max" else exact_pair_gh
        result = fn(left, right, budget=args.budget)
    _emit(args, _result_payload(result))
    return 0


def cmd_gh_corr(args) -> int:
    _need("correspondences")
    if len(args.input) > 2:
        raise ValueError(
            f"gh corr takes one correspondence or two pairs, got {len(args.input)} inputs"
        )
    if len(args.input) == 1:
        if args.objective is not None:
            raise ValueError("--objective applies to two pairs, not to one correspondence")
        corr = _read(args, args.input[0], "correspondence")
        payload = {
            "pairs": [[i, j] for i, j in corr.pairs],
            "distortion": distortion(corr).as_dict(),
        }
    else:
        left, right = (_read(args, path, "pair") for path in args.input)
        res = min_distortion(left, right, objective=args.objective or "distortion")
        payload = {
            "pairs": [[i, j] for i, j in res.correspondence.pairs],
            "distortion": res.breakdown.as_dict(),
            "optimal": res.optimal,
        }
    _emit(args, payload)
    return 0


def cmd_gh_bounds(args) -> int:
    _need("bounds")
    left, right = (_read(args, path, "pair") for path in args.input)
    interval = gh_bounds(left, right)
    _emit(
        args,
        {
            "lower": format_scalar(interval.lower),
            "upper": format_scalar(interval.upper),
            "lower_source": interval.lower_source,
            "upper_source": interval.upper_source,
            "diameter_bound": format_scalar(interval.diameter_bound),
            "half_distortion": None
            if interval.half_distortion is None
            else format_scalar(interval.half_distortion),
        },
    )
    return 0


def cmd_geodesic_sample(args) -> int:
    _need("geodesics")
    corr = _read(args, args.input[0], "correspondence")
    t = parse_scalar(args.t, _exact(args))
    pair = interpolate(corr, t)
    _emit(args, pair_to_dict(pair))
    return 0


def cmd_geodesic_audit(args) -> int:
    _need("geodesics")
    corr = _read(args, args.input[0], "correspondence")
    grid = None
    if args.grid is not None:
        grid = [parse_scalar(part, _exact(args)) for part in args.grid.split(",")]
    audit = geodesicity_audit(corr, grid=grid, budget=args.budget)
    header = ("s", "t", "value", "expected", "matches")
    body = [
        {
            "s": format_scalar(row.s),
            "t": format_scalar(row.t),
            "value": format_scalar(row.value),
            "expected": format_scalar(row.expected),
            "matches": row.matches,
        }
        for row in audit.rows
    ]
    payload = {
        "endpoint_value": format_scalar(audit.endpoint_value),
        "rows": body,
        "all_match": audit.all_match,
    }
    _emit(args, payload, [header] + [tuple(row[key] for key in header) for row in body])
    if args.strict and not audit.all_match:
        return 1
    return 0


def cmd_cassorla_run(args) -> int:
    _need("complexes")
    pair = _read(args, args.input[0], "pair")
    result = approximation_pipeline(pair, levels=args.levels)
    rows = result.csv_rows()
    payload = {
        "rows": [
            {
                "n": row.n,
                "mu": row.mu,
                "gh_bound": row.gh_bound,
                "net_estimate": format_scalar(row.net_estimate),
                "eps": format_scalar(row.eps),
                "mismatch": format_scalar(row.mismatch),
                "covering": format_scalar(row.covering),
                "theta_eff": format_scalar(row.theta_eff),
                "saturated": row.saturated,
                "net_size": row.net_size,
                "core_size": row.core_size,
            }
            for row in result.rows
        ]
    }
    _emit(args, payload, rows)
    return 0


def cmd_apps_hypernet(args) -> int:
    _need("applications")
    corr = _read(args, args.input[0], "correspondence")
    report = hypernet_distortion(corr)
    _emit(
        args,
        {
            "cells": len(report.induced_cells),
            "net_distortion": format_scalar(report.net_distortion),
            "pair_distortion": format_scalar(report.pair_distortion),
            "holds": report.holds,
        },
    )
    return 0 if report.holds else 1


def cmd_apps_tilde(args) -> int:
    _need("applications")
    left, right = (_read(args, path, "pair") for path in args.input)
    report = variant_sandwich(left, right, budget=args.budget)
    _emit(
        args,
        {
            "max_value": format_scalar(report.max_value),
            "sum_value": format_scalar(report.sum_value),
            "lower_ok": report.lower_ok,
            "upper_ok": report.upper_ok,
            "ratio": None if report.ratio is None else format_scalar(report.ratio),
        },
    )
    return 0 if report.lower_ok and report.upper_ok else 1


def cmd_apps_realize(args) -> int:
    _need("realization")
    a, b = (_read(args, path, "complex") for path in args.input)
    interval = realization_hausdorff(a, b, args.step)
    _emit(
        args,
        {
            "lower": interval.lower,
            "upper": interval.upper,
            "width": interval.width,
        },
    )
    return 0


def cmd_apps_densify(args) -> int:
    _need("applications")
    found = _read(args, args.input[0], "pair", "space")
    if isinstance(found, MetricPair):
        pair, bound = rational_densify_pair(found, args.q)
        payload = pair_to_dict(pair)
    else:
        res = rational_densify(found, args.q)
        bound = res.bound
        payload = space_to_dict(res.space)
    payload["bound"] = format_scalar(bound)
    payload["q"] = args.q
    _emit(args, payload)
    return 0


def cmd_sample(args) -> int:
    _need("generators")
    if args.min_points > args.max_points:
        raise ValueError(
            f"--min-points {args.min_points} is above --max-points {args.max_points}"
        )
    rng = random.Random(args.seed)
    values, n_range = args.values, (args.min_points, args.max_points)
    if args.kind == "space":
        payload = space_to_dict(random_space(rng, rng.randint(*n_range), values))
    elif args.kind == "pair":
        payload = pair_to_dict(random_pair(rng, n_range, values))
    elif args.kind == "tuple":
        payload = tuple_to_dict(random_tuple(rng, args.k, n_range, values))
    else:
        left = random_pair(rng, n_range, values)
        right = random_pair(rng, n_range, values)
        payload = correspondence_to_dict(random_correspondence(rng, left, right))
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


_BUDGET_HELP = "witness-search nodes each exact solve may visit (default %(default)s)"


def _finite(text: str, positive: bool = False) -> float:
    """``--tol`` (>= 0) or, when ``positive``, ``--step`` (> 0): a finite
    number.  nan and inf would switch the checks off or print an interval
    that is not JSON, and a negative tolerance would fail every space."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    sign = ">" if positive else ">="
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise argparse.ArgumentTypeError(f"expected a finite number {sign} 0, got {text!r}")
    return value


def _integer(text: str, least=None) -> int:
    """An integer flag, or one part of ``--values``: an optional ``-``, then
    ASCII digits only, as ``_indices`` reads an index (``int()`` alone also
    takes ``1_0``, spaces and other scripts' digits); below ``least`` it is
    refused too."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    value = int(text)
    if least is not None and value < least:
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
    return value


def _common(sub, inputs: int, variadic: bool = False, csv: bool = False):
    sub.add_argument(
        "--input",
        nargs="+" if variadic else inputs,
        required=True,
        metavar="FILE",
        help="input document(s), JSON or CSV matrix",
    )
    sub.add_argument("--mode", choices=("exact", "float"), default="exact")
    outs = ("json", "csv", "text") if csv else ("json", "text")
    sub.add_argument("--out", choices=outs, default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricpairs",
        description="distances, bounds and audits for finite metric pairs",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("validate", help="check a document's metric axioms")
    _common(sub, 1)
    sub.add_argument("--tol", type=_finite, default=None)
    sub.set_defaults(func=cmd_validate)

    sub = commands.add_parser("hausdorff", help="Hausdorff distance between subsets")
    _common(sub, 1)
    sub.add_argument("--left", required=True, help="comma-separated indices")
    sub.add_argument("--right", required=True, help="comma-separated indices")
    sub.set_defaults(func=cmd_hausdorff)

    gh = commands.add_parser("gh", help="pair and tuple distances")
    gh_sub = gh.add_subparsers(dest="gh_command", required=True)

    for name, variant in (("exact", "sum"), ("tilde", "max")):
        sub = gh_sub.add_parser(name, help=f"exact pair distance ({variant} variant)")
        _common(sub, 2)
        sub.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET, help=_BUDGET_HELP)
        sub.set_defaults(func=cmd_gh_exact, variant=variant)

    sub = gh_sub.add_parser("tuple", help="exact tuple distance")
    _common(sub, 2)
    sub.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET, help=_BUDGET_HELP)
    sub.add_argument("--variant", choices=("sum", "max"), default="sum")
    sub.set_defaults(func=cmd_gh_exact)

    sub = gh_sub.add_parser(
        "corr", help="distortion of a correspondence, or the minimum over all"
    )
    _common(sub, 1, variadic=True)
    sub.add_argument("--objective", choices=("distortion", "sup_full"))
    sub.set_defaults(func=cmd_gh_corr)

    sub = gh_sub.add_parser("bounds", help="certified interval without exact search")
    _common(sub, 2)
    sub.set_defaults(func=cmd_gh_bounds)

    geo = commands.add_parser("geodesic", help="interpolation along a correspondence")
    geo_sub = geo.add_subparsers(dest="geo_command", required=True)

    sub = geo_sub.add_parser("sample", help="the interpolated pair at time t")
    _common(sub, 1)
    sub.add_argument("--t", required=True, help="time in [0,1], e.g. 1/2")
    sub.set_defaults(func=cmd_geodesic_sample)

    sub = geo_sub.add_parser("audit", help="compare interpolant distances to scaling")
    _common(sub, 1, csv=True)
    sub.add_argument("--grid", default=None, help="comma-separated times")
    sub.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET, help=_BUDGET_HELP)
    sub.add_argument("--strict", action="store_true", help="exit 1 on any mismatch")
    sub.set_defaults(func=cmd_geodesic_audit)

    cas = commands.add_parser("cassorla", help="one-complex approximation pipeline")
    cas_sub = cas.add_subparsers(dest="cassorla_command", required=True)

    sub = cas_sub.add_parser("run", help="build complexes across scales")
    _common(sub, 1, csv=True)
    sub.add_argument("--levels", type=_integer, nargs="+", default=(2, 3))
    sub.set_defaults(func=cmd_cassorla_run)

    apps = commands.add_parser("apps", help="application-side constructions")
    apps_sub = apps.add_subparsers(dest="apps_command", required=True)

    sub = apps_sub.add_parser("hypernet", help="induced hypernet distortion check")
    _common(sub, 1)
    sub.set_defaults(func=cmd_apps_hypernet)

    sub = apps_sub.add_parser("tilde", help="variant sandwich check")
    _common(sub, 2)
    sub.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET, help=_BUDGET_HELP)
    sub.set_defaults(func=cmd_apps_tilde)

    sub = apps_sub.add_parser("realize", help="Hausdorff interval between realizations")
    _common(sub, 2)
    sub.add_argument("--step", type=lambda text: _finite(text, positive=True), default=0.125)
    sub.set_defaults(func=cmd_apps_realize)

    sub = apps_sub.add_parser("densify", help="round distances onto a 1/q grid")
    _common(sub, 1)
    sub.add_argument("--q", type=_integer, required=True)
    sub.set_defaults(func=cmd_apps_densify)

    sub = commands.add_parser("sample", help="generate a random instance document")
    sub.add_argument("kind", choices=("space", "pair", "tuple", "corr"))
    sub.add_argument("--seed", type=_integer, default=0)
    sub.add_argument("--min-points", type=lambda text: _integer(text, least=1), default=2)
    sub.add_argument("--max-points", type=lambda text: _integer(text, least=1), default=4)
    sub.add_argument(
        "--values", type=lambda text: tuple(map(_integer, text.split(","))), default="1,2,3"
    )
    sub.add_argument("--k", type=_integer, default=1, help="tuple chain length")
    sub.add_argument("--out", choices=("json", "text"), default="json")
    sub.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # first: an invalid metric is also a ValueError
    except _raised_by("spaces", "InvalidMetricError") as exc:
        sys.stderr.write(f"error: invalid metric in input: {exc}\n")
        return 2
    except (
        *_raised_by("oracle", "BudgetExceededError"),
        OSError, json.JSONDecodeError, ValueError, TypeError, KeyError, OverflowError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
