"""JSON and CSV input/output with exact rationals.

This module is the only code that knows the document format: every
command, ``validate`` included, reads a document through
``from_document`` or the reader of its kind, so a document ``validate``
accepts is one the commands accept.  Distances may appear as integers,
decimals or "p/q" strings; in exact mode decimals are parsed as exact
rationals before any float rounding can happen.  ``labels``, when
given, is a list of one label per point.  A reader's ``tol`` goes to
``validate_metric`` unchanged.  Output renders exact scalars as "p/q"
strings and sorts object keys, so serialized results are
byte-deterministic.
"""
from __future__ import annotations

import io
import json
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .scalars import as_index, format_scalar, parse_scalar
from .spaces import FiniteMetricSpace, MetricPair, MetricTuple

if TYPE_CHECKING:
    from .correspondences import PairCorrespondence
    from .realization import EmbeddedComplex


def load_document(path: str, exact: bool = True) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return document_from_json(fh.read(), exact)


def document_from_json(text: str, exact: bool = True) -> dict:
    data = json.loads(text, parse_float=Fraction if exact else float)
    if not isinstance(data, dict):
        raise ValueError("top-level JSON value must be an object")
    return data


def document_kind(data: dict) -> str:
    if "points" in data:
        return "complex"
    if "pairs" in data and "left" in data and "right" in data:
        return "correspondence"
    if "chain" in data:
        return "tuple"
    if "subset" in data:
        return "pair"
    if "distances" in data:
        return "space"
    raise ValueError("unrecognized document shape")


def space_from_dict(data: dict, exact: bool = True, tol=None) -> FiniteMetricSpace:
    if "distances" not in data:
        raise ValueError("missing 'distances'")
    rows = [
        [parse_scalar(v, exact) for v in row] for row in data["distances"]
    ]
    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise ValueError("'labels' must be a list")
        labels = tuple(str(l) for l in labels)
    return FiniteMetricSpace.from_matrix(rows, labels, tol)


def pair_from_dict(data: dict, exact: bool = True, tol=None) -> MetricPair:
    space = space_from_dict(data, exact, tol)
    if "subset" not in data:
        raise ValueError("missing 'subset'")
    return MetricPair(space, tuple(as_index(i, "subset") for i in data["subset"]))


def tuple_from_dict(data: dict, exact: bool = True, tol=None) -> MetricTuple:
    space = space_from_dict(data, exact, tol)
    if "chain" not in data:
        raise ValueError("missing 'chain'")
    chain = tuple(tuple(as_index(i, "chain") for i in level) for level in data["chain"])
    return MetricTuple(space, chain)


def correspondence_from_dict(data: dict, exact: bool = True, tol=None) -> PairCorrespondence:
    # imported here, like realization below, so a command reading other
    # documents does not load it
    from .correspondences import PairCorrespondence

    left = pair_from_dict(data["left"], exact, tol)
    right = pair_from_dict(data["right"], exact, tol)
    cells = [(as_index(i, "pairs"), as_index(j, "pairs")) for i, j in data["pairs"]]
    return PairCorrespondence(left, right, cells)


def embedded_from_dict(data: dict) -> EmbeddedComplex:
    from .realization import EmbeddedComplex

    if "points" not in data or "simplices" not in data:
        raise ValueError("complex documents need 'points' and 'simplices'")
    return EmbeddedComplex(
        data["points"],
        data["simplices"],
        data.get("depths"),
    )


def from_document(data: dict, exact: bool = True, tol=None):
    """The object ``data`` describes, read by its ``document_kind``."""
    kind = document_kind(data)
    if kind == "complex":
        return embedded_from_dict(data)
    reader = {
        "space": space_from_dict,
        "pair": pair_from_dict,
        "tuple": tuple_from_dict,
        "correspondence": correspondence_from_dict,
    }[kind]
    return reader(data, exact, tol)


def space_to_dict(space: FiniteMetricSpace) -> dict:
    return {
        "labels": list(space.labels),
        "distances": [[format_scalar(v) for v in row] for row in space.dist],
    }


def pair_to_dict(pair: MetricPair) -> dict:
    out = space_to_dict(pair.space)
    out["subset"] = list(pair.subset)
    return out


def tuple_to_dict(tup: MetricTuple) -> dict:
    out = space_to_dict(tup.space)
    out["chain"] = [list(level) for level in tup.chain]
    return out


def correspondence_to_dict(corr: PairCorrespondence) -> dict:
    return {
        "left": pair_to_dict(corr.left),
        "right": pair_to_dict(corr.right),
        "pairs": [[i, j] for i, j in corr.pairs],
    }


def dump_json(data) -> str:
    """Deterministic rendering: sorted keys, fixed separators, newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def format_csv(rows) -> str:
    """Render rows to CSV text, exact scalars as 'p/q' strings."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(
            [format_scalar(v) if not isinstance(v, (str, int)) else v for v in row]
        )
    return buf.getvalue()


def matrix_from_csv(path: str, exact: bool = True):
    """Square matrix from CSV; a non-numeric first row is read as labels."""
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError("empty CSV file")
    labels: Optional[tuple] = None
    try:
        parse_scalar(rows[0][0], exact)
    except (ValueError, TypeError):
        labels = tuple(cell.strip() for cell in rows[0])
        rows = rows[1:]
    matrix = [[parse_scalar(cell, exact) for cell in row] for row in rows]
    return matrix, labels
