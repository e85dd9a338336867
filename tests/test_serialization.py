from __future__ import annotations

import random
from fractions import Fraction

import pytest

from metricpairs.correspondences import PairCorrespondence
from metricpairs.generators import random_correspondence, random_pair, random_tuple
from metricpairs.serialization import (
    correspondence_from_dict,
    correspondence_to_dict,
    document_from_json,
    document_kind,
    dump_json,
    embedded_from_dict,
    format_csv,
    from_document,
    load_document,
    matrix_from_csv,
    pair_from_dict,
    pair_to_dict,
    space_from_dict,
    space_to_dict,
    tuple_from_dict,
    tuple_to_dict,
)
from metricpairs.spaces import FiniteMetricSpace, InvalidMetricError, MetricPair


def test_space_round_trip_exact():
    space = FiniteMetricSpace.from_matrix(
        [[0, Fraction(1, 3)], [Fraction(1, 3), 0]], labels=("a", "b")
    )
    data = space_to_dict(space)
    assert data["distances"][0][1] == "1/3"
    back = space_from_dict(data)
    assert back == space


def test_space_from_dict_float_mode():
    data = {"distances": [[0, 0.5], [0.5, 0]]}
    space = space_from_dict(data, exact=False)
    assert space.dist[0][1] == 0.5
    assert not space.exact


def test_pair_and_tuple_round_trips():
    rng = random.Random(120)
    for _ in range(20):
        pair = random_pair(rng, n_range=(2, 4))
        assert pair_from_dict(pair_to_dict(pair)) == pair
        tup = random_tuple(rng, 2)
        assert tuple_from_dict(tuple_to_dict(tup)) == tup


def test_correspondence_round_trip():
    rng = random.Random(121)
    for _ in range(20):
        left = random_pair(rng, n_range=(2, 4))
        right = random_pair(rng, n_range=(2, 4))
        corr = random_correspondence(rng, left, right)
        back = correspondence_from_dict(correspondence_to_dict(corr))
        assert back == corr


def test_correspondence_from_dict_validates_coverage():
    two = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
    pair = MetricPair(two, (0, 1))
    doc = {
        "left": pair_to_dict(pair),
        "right": pair_to_dict(pair),
        "pairs": [[0, 0]],
    }
    with pytest.raises(ValueError):
        correspondence_from_dict(doc)


def test_document_kind_dispatch():
    two = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
    pair = MetricPair(two, (0,))
    assert document_kind(space_to_dict(two)) == "space"
    assert document_kind(pair_to_dict(pair)) == "pair"
    corr = PairCorrespondence(
        MetricPair(two, (0, 1)), MetricPair(two, (0, 1)), ((0, 0), (1, 1))
    )
    assert document_kind(correspondence_to_dict(corr)) == "correspondence"
    assert document_kind({"distances": [[0]], "chain": [[0]]}) == "tuple"
    assert document_kind({"points": [[0, 0]], "simplices": [[0]]}) == "complex"
    with pytest.raises(ValueError):
        document_kind({"whatever": 1})


def test_from_document_reads_each_kind():
    rng = random.Random(122)
    pair = random_pair(rng, n_range=(2, 4))
    tup = random_tuple(rng, 2)
    corr = random_correspondence(rng, pair, random_pair(rng, n_range=(2, 4)))
    for value, doc in [
        (pair.space, space_to_dict(pair.space)),
        (pair, pair_to_dict(pair)),
        (tup, tuple_to_dict(tup)),
        (corr, correspondence_to_dict(corr)),
    ]:
        assert from_document(doc) == value
    cx = from_document({"points": [[0.0, 0.0], [1.0, 0.0]], "simplices": [[0, 1]]})
    assert cx.simplices == ((0, 1),)


@pytest.mark.parametrize(
    "labels, error",
    [
        (["a"], "1 labels for 2 points"),
        (["a", "b", "c"], "3 labels for 2 points"),
        ("ab", "'labels' must be a list"),
        (5, "'labels' must be a list"),
    ],
)
def test_labels_are_a_list_of_one_per_point(labels, error):
    doc = {"distances": [[0, 1], [1, 0]], "labels": labels, "subset": [0]}
    for reader in (space_from_dict, pair_from_dict, from_document):
        with pytest.raises(ValueError, match=error):
            reader(doc)


def test_tol_reaches_every_reader():
    # d(0,1) = 5/2 exceeds d(0,2) + d(2,1) = 2 by less than the tolerance
    side = {"distances": [[0, "5/2", 1], ["5/2", 0, 1], [1, 1, 0]], "subset": [0, 1, 2]}
    docs = [
        {"distances": side["distances"]},
        side,
        {"distances": side["distances"], "chain": [[0, 1, 2], [0]]},
        {"left": side, "right": side, "pairs": [[0, 0], [1, 1], [2, 2]]},
    ]
    for doc in docs:
        from_document(doc, tol=Fraction(3, 4))
        with pytest.raises(InvalidMetricError):
            from_document(doc)


def test_document_from_json_exact_decimals():
    """Decimal literals in exact mode come back as exact fractions, not
    binary floats."""
    doc = document_from_json('{"distances": [[0, 0.1], [0.1, 0]]}')
    assert doc["distances"][0][1] == Fraction(1, 10)
    loose = document_from_json('{"distances": [[0, 0.1], [0.1, 0]]}', exact=False)
    assert isinstance(loose["distances"][0][1], float)


def test_dump_json_is_deterministic():
    payload = {"b": "1/3", "a": [1, 2], "c": {"y": 1, "x": 2}}
    text = dump_json(payload)
    assert text == dump_json(payload)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert '"1/3"' in text


def test_embedded_from_dict():
    doc = {
        "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "simplices": [[0, 1, 2], [0, 1]],
        "depths": [0, 1],
    }
    cx = embedded_from_dict(doc)
    assert cx.points == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    assert cx.simplices == ((0, 1, 2), (0, 1))
    assert cx.depths == (0, 1)
    no_depths = embedded_from_dict(
        {"points": [[0.0, 0.0]], "simplices": [[0]]}
    )
    assert no_depths.depths == (0,)


def test_load_document_and_csv(tmp_path):
    space = FiniteMetricSpace.from_matrix(
        [[0, Fraction(3, 2)], [Fraction(3, 2), 0]], labels=("u", "v")
    )
    json_path = tmp_path / "space.json"
    json_path.write_text(dump_json(space_to_dict(space)))
    doc = load_document(str(json_path))
    assert space_from_dict(doc) == space

    csv_path = tmp_path / "matrix.csv"
    csv_path.write_text(format_csv([("u", "v"), (0, "3/2"), ("3/2", 0)]))
    matrix, labels = matrix_from_csv(str(csv_path))
    assert labels == ("u", "v")
    assert matrix[0][1] == Fraction(3, 2)
    assert FiniteMetricSpace.from_matrix(matrix, labels) == space


def test_matrix_from_csv_without_labels(tmp_path):
    csv_path = tmp_path / "bare.csv"
    csv_path.write_text("0,1\n1,0\n")
    matrix, labels = matrix_from_csv(str(csv_path))
    assert labels is None
    assert matrix[1][0] == 1


def test_format_csv_scalars():
    text = format_csv([("h1", "h2"), (Fraction(1, 2), 0.25), (3, "x")])
    lines = text.strip().split("\n")
    assert lines[0] == "h1,h2"
    assert lines[1] == "1/2,0.25"
    assert lines[2] == "3,x"


def test_tuple_document_needs_a_chain():
    with pytest.raises(ValueError, match="^missing 'chain'$"):
        tuple_from_dict({"distances": [[0]]})
