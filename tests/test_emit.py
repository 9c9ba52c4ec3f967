"""The JSON writer: the bytes of json.dumps(indent=2), without its pure-Python encoder."""

import json
import random
import shlex

import pytest

from gallery_crystals import cli
from gallery_crystals.cli import run
from gallery_crystals.affine import crossing_sets, random_gallery
from gallery_crystals.emit import crossings_json, graph_document, json_lines, root_document
from gallery_crystals.galleries import Gallery, format_gallery, parse_gallery
from gallery_crystals.graphs import CrystalGraph, connected_component

from test_cli import GOLDEN_REQUESTS

LEAVES = [
    0, 7, -12, 10**30 - 1, -(10**29), True, False, None, 0.5, -0.0, 1e300, float("inf"),
    "", "plain", 'quote " and backslash \\', "\x00\x1f\n\t", "é", "\U0001d11e",
]
KEYS = ["a", "from", 'q"', "é", "\U0001d11e", "", "\\"]


def random_document(rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return rng.choice(LEAVES)
    size = rng.randrange(4)
    if roll < 0.65:
        return [random_document(rng, depth - 1) for _ in range(size)]
    if roll < 0.8:
        return tuple(random_document(rng, depth - 1) for _ in range(size))
    return {rng.choice(KEYS) + str(k): random_document(rng, depth - 1) for k in range(size)}


def test_random_documents_match_json_dumps():
    rng = random.Random(15)
    for _ in range(3000):
        document = random_document(rng, 4)
        assert json_lines(document) == [json.dumps(document, indent=2)]


@pytest.mark.parametrize("document", [
    {}, [], (), [[]], [[[]]], {"a": {}}, {"a": [[], {}]}, [()], 5, "x", None,
])
def test_empty_and_bare_documents(document):
    assert json_lines(document) == [json.dumps(document, indent=2)]


def crossings_oracle_document(segments) -> list:
    """The document that `crossings_json` writes for `crossing_sets`."""
    return [{"segment": k, "roots": list(map(root_document, roots))}
            for k, roots in enumerate(segments)]


def golden_json_requests():
    lines = GOLDEN_REQUESTS.strip().splitlines()
    return [shlex.split(line) for line in lines if "--format json" in line]


@pytest.mark.parametrize("argv", golden_json_requests(), ids=shlex.join)
def test_golden_documents_match_json_dumps(argv):
    args = cli.build_parser().parse_args(argv)
    result = document = args.row.compute(args)
    if args.row.name == "crossings":
        # crossing_sets, written by its fixed layout, not through json_lines.
        document = crossings_oracle_document(result)
        assert crossings_json(result) == json_lines(document)
    assert json_lines(document) == [json.dumps(document, indent=2)]


def test_graph_document_orders_mixed_shapes_by_shape_then_columns():
    # Two components of different shapes whose columns interleave: ordered by
    # columns alone, the one-box columns (1,) < (1, 2) < (2,) would mix them.
    parts = [connected_component(parse_gallery(text, 3)) for text in ("1|2", "1,2", "2|1,3")]
    vertices = frozenset().union(*(part.vertices for part in parts))
    graph = CrystalGraph(3, vertices, frozenset().union(*(part.edges for part in parts)))
    assert len({v.shape for v in graph.vertices}) == 3
    expected = sorted(graph.vertices, key=lambda g: (g.shape, g.columns))
    assert expected != sorted(graph.vertices, key=lambda g: g.columns)
    document = graph_document(graph)
    assert document["vertices"] == [format_gallery(g) for g in expected]
    index = {g: k for k, g in enumerate(expected)}
    assert document["edges"] == [
        {"from": u, "to": v, "i": i}
        for u, i, v in sorted((index[u], i, index[v]) for u, v, i in graph.edges)
    ]


@pytest.mark.parametrize("document", [{1, 2}, {"a": [frozenset()]}, {1: "a"}, [{"a": {None: 0}}]])
def test_unwritable_documents_raise(document):
    with pytest.raises(TypeError):
        json_lines(document)


def crossings_galleries():
    rng = random.Random(31)
    for rank in range(2, 10):
        yield from (random_gallery(rng, rank, max_columns=30) for _ in range(30))
    yield from (random_gallery(rng, 141) for _ in range(3))
    yield Gallery(3)
    yield parse_gallery("2|2|2", 2)  # columns 2 at rank 2 cross nothing


def test_crossings_document_and_json_match_crossing_sets():
    # The fixed-layout writer renders crossing_sets with the bytes that
    # json.dumps writes for the segment documents.
    for gallery in crossings_galleries():
        segments = crossing_sets(gallery)
        expected = json.dumps(crossings_oracle_document(segments), indent=2)
        assert crossings_json(segments) == [expected], format_gallery(gallery)


# One request for each kind of JSON document the CLI writes.
DOCUMENT_KINDS = [
    "blambda --rank 3 --lambda 2,1 --format json",
    "decompose --rank 4 --shape 1,2,1 --format json",
    "phi --rank 3 --format json 1|2|1",
    "crossings --rank 4 --format json 1,3|2,4|1",
    "path --rank 4 --format json 1,2|3",
    "oracle-classes --rank 2 --max-len 0 --format json",
    "appendix-check --rank 4 --gamma 1,2 --delta 3|4 --seed 7 --cases 5 --format json",
]


@pytest.mark.parametrize("line", DOCUMENT_KINDS)
def test_json_output_never_uses_the_pure_python_encoder(capsys, monkeypatch, line):
    argv = shlex.split(line)
    args = cli.build_parser().parse_args(argv)
    document = args.row.compute(args)
    if args.row.name == "crossings":
        document = crossings_oracle_document(document)
    expected = json.dumps(document, indent=2) + "\n"

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps fell back to its pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert run(argv) == 0
    assert capsys.readouterr() == (expected, "")
