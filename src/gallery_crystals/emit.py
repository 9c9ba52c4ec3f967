"""Documents and their renderers: JSON, text, DOT graphs and SVG path plots.

Each ``*_document`` function turns a result into plain lists, dicts, strings
and ints once; the renderers (`json_lines`, `graph_text`, `graph_dot`,
`path_svg`) take a document and return output lines.
`json_lines` writes the bytes of ``json.dumps(document, indent=2)`` from
C-escaped leaves, not through the pure-Python encoder that json.dumps runs
when given an indent; `crossings_json` renders `affine.crossing_sets` itself,
writing those bytes for its segments by their fixed layout, one f-string per root.
All output is deterministic: vertex orders are canonical, keys are written
in a fixed order, and floating point output is formatted with a fixed
precision.  SVG rendering is only defined for rank 3, where the three
coordinate directions project onto the plane at 60, 180 and 300 degrees.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import attrgetter, mul

from .errors import SvgRankUnsupported
from .galleries import Gallery, format_gallery, path_vertices
from .graphs import CrystalGraph, Decomposition
from .mv import MVLabel


def graph_document(graph: CrystalGraph) -> dict:
    """The graph in canonical order.  Vertices are sorted lexicographically
    on (shape, columns in reading order) by two sorts, by columns and then
    stably by shape, so that one component's vertices, which share a shape,
    compare only their columns; they are numbered from 0.  Edges are sorted
    by source number, then by i, which never ties since f_i(u) is unique."""
    vertices = sorted(graph.vertices, key=attrgetter("columns"))
    vertices.sort(key=attrgetter("shape"))
    index = {g: k for k, g in enumerate(vertices)}
    edges = sorted((index[u], i, index[v]) for u, v, i in graph.edges)
    return {
        "rank": graph.rank,
        "vertices": [format_gallery(g) for g in vertices],
        "edges": [{"from": u, "to": v, "i": i} for u, i, v in edges],
    }


def json_lines(document) -> list[str]:
    return [_encode(document, "\n")]


def _encode(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` for a value nested at ``pad``, its newline
    and indent.  Only exact str, int, float, bool, None, dict, list and tuple
    values and str keys are written; anything else raises `TypeError`."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    if value is None or kind is bool or kind is float:
        return json.dumps(value)
    inner = pad + "  "
    if kind is dict:  # encode_basestring_ascii raises TypeError on a non-str key
        items = [f"{encode_basestring_ascii(k)}: {_encode(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if kind is list or kind is tuple:
        items = [_encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def graph_text(document: dict) -> list[str]:
    return [
        f"vertices: {len(document['vertices'])}",
        *(f"  v{k}: {vertex}" for k, vertex in enumerate(document["vertices"])),
        f"edges: {len(document['edges'])}",
        *(f"  v{edge['from']} -{edge['i']}-> v{edge['to']}" for edge in document["edges"]),
    ]


def graph_dot(document: dict) -> list[str]:
    return [
        "digraph crystal {",
        *(f'  v{k} [label="{label or "empty"}"];' for k, label in enumerate(document["vertices"])),
        *(f'  v{edge["from"]} -> v{edge["to"]} [label="{edge["i"]}"];'
          for edge in document["edges"]),
        "}",
    ]


def label_document(label: MVLabel) -> dict:
    return {
        "lambda": list(label.lam.coeffs),
        "tableau": format_gallery(label.tableau),
        "mu": list(label.mu.counts),
    }


def decomposition_document(decomposition: Decomposition) -> dict:
    return {
        "rank": decomposition.rank,
        "shape": list(decomposition.shape),
        "total_galleries": decomposition.total,
        "entries": [
            {
                "lambda": list(entry.lam.coeffs),
                "multiplicity": entry.multiplicity,
                "representatives": [format_gallery(g) for g in entry.representatives],
            }
            for entry in decomposition.entries
        ],
    }


def root_document(root) -> dict:
    return {"a": root.a, "b": root.b, "m": root.level}


def crossings_json(segments) -> list[str]:
    """`json_lines` of ``[{"segment": k, "roots": [root_document(root), ...]}, ...]``."""
    parts = []
    for k, roots in enumerate(segments):
        roots = ",".join([f'\n      {{\n        "a": {a},\n        "b": {b},\n'
                          f'        "m": {m}\n      }}' for a, b, m in roots])
        roots = f"[{roots}\n    ]" if roots else "[]"
        parts.append(f'\n  {{\n    "segment": {k},\n    "roots": {roots}\n  }}')
    return [f"[{','.join(parts)}\n]" if parts else "[]"]


def path_document(gallery: Gallery) -> dict:
    return {
        "rank": gallery.rank,
        "vertices": [list(v) for v in path_vertices(gallery)],
    }


# Plane projection for rank 3: unit hexagonal directions, drawn _SCALE pixels long.
_SCALE = 60.0
_DIRECTIONS = (
    (0.5, 0.8660254037844386),  # epsilon_1 at 60 degrees
    (-1.0, 0.0),  # epsilon_2 at 180 degrees
    (0.5, -0.8660254037844386),  # epsilon_3 at 300 degrees
)
_XS, _YS = zip(*_DIRECTIONS)


def _project(point: list[int]) -> tuple[float, float]:
    return sum(map(mul, point, _XS)), sum(map(mul, point, _YS))


def path_svg(document: dict) -> list[str]:
    """SVG plot of a path document with the dominant chamber shaded (rank 3)."""
    if document["rank"] != 3:
        raise SvgRankUnsupported(f"SVG plots are defined for rank 3, not {document['rank']}")
    points = [_project(v) for v in document["vertices"]]
    reach = max(max(abs(x), abs(y)) for x, y in points)
    reach = max(reach + 1.0, 2.0)
    size = 2 * reach * _SCALE
    half = size / 2

    def at(x: float, y: float) -> str:
        # SVG y axis points down.
        return f"{half + _SCALE * x:.2f},{half - _SCALE * y:.2f}"

    tips = [(x * reach * 2, y * reach * 2) for x, y in _DIRECTIONS]
    # The dominant chamber: the origin, the epsilon_1 tip and the epsilon_3 tip's opposite.
    chamber = " ".join([at(0.0, 0.0), at(*tips[0]), at(-tips[2][0], -tips[2][1])])
    polyline = " ".join(at(*p) for p in points)
    axes = (at(*tip).split(",") for tip in tips)
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.2f} {size:.2f}">',
        f'  <polygon points="{chamber}" fill="#d0d0d0" fill-opacity="0.6" stroke="none"/>',
        *(f'  <line x1="{half:.2f}" y1="{half:.2f}" x2="{x2}" y2="{y2}" '
          'stroke="#bbbbbb" stroke-dasharray="4 4"/>' for x2, y2 in axes),
        f'  <polyline points="{polyline}" fill="none" stroke="#c02020" stroke-width="3"/>',
        f'  <circle cx="{half:.2f}" cy="{half:.2f}" r="4" fill="#000000"/>',
        "</svg>",
    ]
