"""Finite crystal graphs of galleries: components, B(lambda), decompositions.

A crystal graph is a labeled digraph on galleries with an edge (u, v, i)
whenever v = f_i(u).  Connected components are closed under every e_i and
f_i; each component has a unique source vertex (all e_i inapplicable), which
is dominant, and the component is determined up to isomorphism by that
vertex's weight.

`connected_component` raises a gallery to that source and generates the
component from it by `_walk`, a breadth-first search that lists each
i-string down from its top (one signature scan, each column bumped once per
walk), makes one gallery per vertex and gives each its weight from that top;
`highest_weight_crystal` is the component of the dominant tableau.
`is_isomorphic` numbers each graph's vertices by a breadth-first search from
its source along the stored edges, either way.
A gallery is a source exactly when its path stays in the dominant chamber,
so one depth-first search, `_dominant_galleries`, lists the sources of a
shape crystal without visiting the rest of it: `decompose` counts them by
weight and searches no component, and `mv.fiber` keeps those of one weight.
`enumerate_ssyt` lists the vertex set of B(lambda), weighed, without any
crystal operator, row by row as Gelfand-Tsetlin patterns, and serves as the
independent check on the crystal side.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations, islice, product
from math import comb, prod
from operator import add, getitem, le

from .errors import NotConnected
from .galleries import (
    DominantWeight,
    Gallery,
    Shape,
    WeightVector,
    _set_weight,
    _Table,
    _Value,
    _descending,
    validate_shape,
    weight,
)
from .operators import _bumps, _raise_to_source, _string, _survivors


class CrystalGraph(_Value):
    """Immutable labeled digraph: a frozenset of vertices and one of edges
    (source, target, i) with target = f_i(source)."""

    __slots__ = _fields = ("rank", "vertices", "edges")

    def __init__(self, rank: int, vertices, edges) -> None:
        self._freeze(rank, frozenset(vertices), frozenset(edges))

    def __len__(self) -> int:
        return len(self.vertices)


def highest_weight_vertex(gallery: Gallery) -> Gallery:
    """The source of the gallery's component: raise a whole i-string per scan."""
    return _raise_to_source(gallery)[0]


def canonical_dominant_gallery(lam: DominantWeight) -> Gallery:
    """The dominant tableau of shape underline(lambda): columns 1..d, one object per d."""
    full = [tuple(range(1, d + 1)) for d in range(lam.rank)]
    return Gallery(lam.rank, tuple(full[d] for d in lam.column_shape()))


def _walk(source: Gallery) -> tuple[list[Gallery], list, list]:
    """Breadth-first search from a source: at each vertex v in visiting order
    that tops a nontrivial i-string (epsilon_i = 0 < phi_i), i = 1..rank-1,
    `_string` yields the columns below it from one scan through the walk's
    table for i, which makes each column once, each consecutive pair (u, w)
    an edge (u, w, i); a vertex listed below a top skips the scan for i.  Tops
    reach every vertex: each w but the source has some epsilon_i(w) > 0, the
    top of its i-string lies fewer lowering steps from the source, so by
    induction on that depth the top is reached, visited and lists the string.
    The index keys a vertex by h = hash((rank, columns)), which its gallery
    stores, or by its columns if another vertex holds h; only a vertex not
    yet reached becomes a gallery, given h, so each vertex is one object.
    Returns the vertices in visiting order, the edges, and for each later
    vertex a birth record (k, i, place): it is f_i^place of vertex k.
    """
    rank, made = source.rank, dict(zip(source.columns, source.columns))
    tables = [_bumps(i, i + 1, made) for i in range(rank)]
    index = {hash(source): 0}
    order = [source]
    listed = [0]  # bit i of listed[k]: the i-string through order[k] is listed
    edges, births = [], []
    for k, v in enumerate(order):  # grows while iterated: breadth-first
        for i in range(1, rank):
            if listed[k] >> i & 1:
                continue
            plus, minus = _survivors(v, i)
            if minus or not plus:
                continue
            u = v
            for place, columns in enumerate(_string(v, plus, tables[i]), 1):
                key = h = hash((rank, columns))
                number = index.get(h)
                if number is not None and order[number].columns != columns:
                    key = columns  # another vertex holds the hash
                    number = index.get(key)
                if number is None:
                    index[key] = number = len(order)
                    order.append(Gallery._unsafe(rank, columns, None, h))
                    listed.append(1 << i)
                    births.append((k, i, place))
                else:
                    listed[number] |= 1 << i
                w = order[number]
                edges.append((u, w, i))
                u = w
    return order, edges, births


def connected_component(gallery: Gallery) -> CrystalGraph:
    """The component of the gallery: the walk from its unique source lists
    each i-string once, from its top, so B(lambda) takes (n-1)(|V|+1) - |E|
    signature scans, n-1 of them finding that its dominant tableau is the source.
    Each vertex gets its weight at birth from the top of the string that listed
    it, each step down an i-string moving a letter from i to i+1, and is one
    object, which its edges share.
    """
    source = highest_weight_vertex(gallery)
    order, edges, births = _walk(source)
    tallies, weights = [weight(source).counts], _Table(WeightVector._unsafe)
    for w, (k, i, place) in zip(islice(order, 1, None), births):
        counts = list(tallies[k])
        counts[i - 1] -= place
        counts[i] += place
        tallies.append(tuple(counts))
        _set_weight(w, weights[tallies[-1]])
    return CrystalGraph(source.rank, order, edges)


def highest_weight_crystal(lam: DominantWeight) -> CrystalGraph:
    """The connected crystal B(lambda): the component of its dominant tableau."""
    return connected_component(canonical_dominant_gallery(lam))


def _numbered(graph: CrystalGraph) -> tuple[dict[Gallery, int], tuple]:
    # A breadth-first search from the unique source along the stored edges,
    # either way: the visiting numbers, and the source's weight with the edges
    # out of the vertices reached as (number, i, number), which come sorted.
    sources = graph.vertices - {v for _, v, _ in graph.edges}
    if len(sources) != 1:
        raise NotConnected(f"expected a unique source vertex, found {len(sources)}")
    (source,) = sources
    down = {(u, i): v for u, v, i in graph.edges}
    up = {(v, i): u for u, v, i in graph.edges}
    index = {source: 0}
    order = [source]
    edges = []
    for k, v in enumerate(order):  # grows while iterated: breadth-first
        for i in range(1, graph.rank):
            for w in down.get((v, i)), up.get((v, i)):
                if w is not None and w not in index:
                    index[w] = len(order)
                    order.append(w)
            if (v, i) in down:
                edges.append((k, i, index[down[v, i]]))
    if len(index) != len(graph):
        raise NotConnected("some vertex is not reached from the source")
    return index, (weight(source), edges)


def is_isomorphic(
    first: CrystalGraph, second: CrystalGraph
) -> tuple[bool, dict[Gallery, Gallery] | None]:
    """Label-preserving crystal isomorphism test for connected graphs.

    Graphs of different rank, size or edge count are not isomorphic.  Each
    graph needs a unique source (no edge's target) whose search along the
    stored edges reaches every vertex, else `NotConnected`.  An isomorphism
    maps source to source and commutes with each f_i, so the graphs are
    isomorphic exactly when the sources' weights and the searches' numbered
    edges agree; the vertex map pairs the two visiting orders.
    """
    if (first.rank, len(first), len(first.edges)) != (
        second.rank, len(second), len(second.edges)
    ):
        return False, None
    index_a, walk_a = _numbered(first)
    index_b, walk_b = _numbered(second)
    if walk_a != walk_b:
        return False, None
    return True, dict(zip(index_a, index_b))


def weyl_dimension(lam: DominantWeight) -> int:
    """Dimension of the simple module of highest weight lambda, exactly.

    Product over pairs i < j of (c_i - c_j + j - i) / (j - i) on the
    canonical counts; used as an external oracle for crystal sizes.
    """
    counts = lam.to_weight_vector().counts
    pairs = list(combinations(range(len(counts)), 2))
    numerator = prod(counts[i] - counts[j] + j - i for i, j in pairs)
    denominator = prod(j - i for i, j in pairs)
    assert numerator % denominator == 0
    return numerator // denominator


def galleries_of_shape(shape: Shape, rank: int):
    """All galleries of the given reading-order shape, in lexicographic order."""
    shape = validate_shape(shape, rank)
    alphabets = [tuple(combinations(range(1, rank + 1), d)) for d in shape]
    for cols in product(*alphabets):
        yield Gallery._unsafe(rank, cols)


def _dominant_galleries(shape: Shape, rank: int, cap: list[int]):
    """The galleries of a validated shape whose path stays dominant, with at
    most cap[a - 1] of each letter a, in lexicographic order: a depth-first
    search over the columns in reading order, each column's choices in
    lexicographic order, that drops a prefix once its last vertex leaves the
    dominant chamber or passes a cap.  It keeps its own stack, so a shape of
    any length is searched, lazily.  ``tallies[a - 1]`` counts a and gives
    each gallery its weight at birth.  The stack holds the prefixes still to
    extend, the lexicographically least on top, as (length, last column,
    tallies); ``path[1:]`` is the prefix popped last, so a prefix's columns
    before its last one are never copied."""
    alphabets = [tuple(combinations(range(1, rank + 1), d)) for d in shape]
    weights = _Table(WeightVector._unsafe)
    path: list = []
    stack = [(0, None, [0] * rank)]
    while stack:
        length, last, tallies = stack.pop()
        path[length:] = (last,)
        if length == len(alphabets):
            yield Gallery._unsafe(rank, tuple(path[1:]), weights[tuple(tallies)])
            continue
        for col in reversed(alphabets[length]):
            grown = list(tallies)
            for a in col:
                grown[a - 1] += 1
            if _descending(grown) and all(map(le, grown, cap)):
                stack.append((length + 1, col, grown))


def count_galleries(shape: Shape, rank: int) -> int:
    shape = validate_shape(shape, rank)  # one power per column length
    return prod(comb(rank, d) ** k for d, k in Counter(shape).items())


DecompositionEntry = namedtuple("DecompositionEntry", "lam multiplicity representatives")


class Decomposition(namedtuple("Decomposition", "rank shape entries total")):
    """Connected components of the shape crystal, grouped by highest weight."""

    __slots__ = ()


def decompose(shape: Shape, rank: int) -> Decomposition:
    """Multiplicities of the components of the shape crystal, by highest weight.

    Each component has one source, and a gallery is a source exactly when
    its path stays dominant (Littelmann's path model).  So the multiplicity
    of lambda is the number of dominant galleries of the shape with weight
    lambda, and those galleries, in lexicographic order, are the
    representatives.
    """
    shape = validate_shape(shape, rank)
    reps: dict[WeightVector, list[Gallery]] = {}
    for gallery in _dominant_galleries(shape, rank, [len(shape)] * rank):
        reps.setdefault(weight(gallery), []).append(gallery)
    lams = {mu.to_dominant_weight(): tops for mu, tops in reps.items()}
    entries = tuple(
        DecompositionEntry(lam=lam, multiplicity=len(tops), representatives=tuple(tops))
        for lam, tops in sorted(lams.items(), key=lambda item: item[0].coeffs)
    )
    return Decomposition(
        rank=rank, shape=shape, entries=entries, total=count_galleries(shape, rank)
    )


def _row_fillings(
    rank: int, lengths: list[int], t: int, above: tuple[int, ...], letters
) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple]]:
    """Fillings of display row t below a row with prefix counts ``above``.

    Returns (prefix counts P(0..rank-1), letter counts P(v) - P(v-1) for
    v = 1..rank, entries in reading order) triples, lexicographic in the
    row's display entries: P(v) counts the entries <= v and is tried from
    its largest value down, letter by letter, up to P(rank), the length.
    The entry v is written as ``letters[v]``, each run of it by one tuple
    repetition: the letter itself, or for row 0 its shared one-box column.
    """
    length = lengths[t]
    partial: list[tuple[tuple[int, ...], tuple[int, ...], tuple]] = [((0,), (), ())]
    for v in range(1, rank):
        cap = min(length, above[v - 1])
        floor = lengths[t + rank - v]
        run = (letters[v],)
        partial = [
            (prefix + (q,), counts + (q - prefix[-1],), run * (q - prefix[-1]) + row)
            for prefix, counts, row in partial
            for q in range(cap, max(prefix[-1], floor) - 1, -1)
        ]
    run = (letters[rank],)
    return [
        (prefix, counts + (length - prefix[-1],), run * (length - prefix[-1]) + row)
        for prefix, counts, row in partial
    ]


def enumerate_ssyt(shape: Shape, rank: int) -> list[Gallery]:
    """All semistandard Young tableaux of the reading-order shape.

    The tableaux are Gelfand-Tsetlin patterns (Stanley, EC2 7.10): display
    row t is given by its prefix counts P_t(v), the number of entries <= v.
    Strict columns mean P_t(v) <= P_{t-1}(v-1).  A column of height d can
    still be completed below row t only if its row-t entry is at most
    rank - (d - 1 - t), which bounds P_t(v) from below by the length of row
    t + rank - v.  Under these bounds every partial pattern completes, so
    the rows are listed without backtracking.  Each row is built from its
    runs of equal letters.  A partial tableau keeps the top t entries of
    each column that row t covers, and row t extends such a column c by its
    entry v to ``grow[c][v]``, made on first lookup: each column is made
    once per call, and the tableaux share their columns.  Row 0 writes its
    entries as the shared one-box columns ``grow[()][v]`` themselves, so
    each of its fillings is already its columns and needs no lookup.

    A row's fillings depend only on t and the prefix counts of row t - 1, so
    they are listed once per such pair and shared.  The order is
    lexicographic on the row-major entries.  The last row's loop makes the
    tableaux, each holding its weight: each filling carries its letter
    counts P_t(v) - P_t(v-1), whose running sums over the rows are the
    tallies, and equal tallies have one vector.  The crystal operators are
    not used, so the result can check `highest_weight_crystal`.
    A non-monotone shape has no tableaux.
    """
    shape = validate_shape(shape, rank)
    if any(a > b for a, b in zip(shape, shape[1:])):
        return []
    heights = shape[::-1]  # display order, weakly decreasing
    depth = heights[0] if heights else 1  # the empty tableau: one empty row
    # lengths[t] is the length of display row t; zero below the last row.
    lengths = [sum(1 for d in heights if d > t) for t in range(depth + rank)]
    # Partial tableaux as (prefix counts of the last row, the letter tallies of
    # the rows so far, the unfinished columns, the finished columns), both in
    # reading order: row t covers the last lengths[t] reading positions.
    # Row 0 has no row above; its caps are its own length.
    # The last row's loop leaves the tableaux themselves.
    partial = [((lengths[0],) * rank, (0,) * rank, ((),) * lengths[0], ())]
    grow = _Table(lambda c: [c + (v,) for v in range(rank + 1)])
    weights = _Table(WeightVector._unsafe)
    for t in range(depth):
        finish = lengths[t] - lengths[t + 1]
        letters = range(rank + 1) if t else grow[()]
        grown = []
        fillings = _Table(lambda above: _row_fillings(rank, lengths, t, above, letters))
        for above, sums, unfinished, columns in partial:
            nexts = list(map(grow.__getitem__, unfinished))
            for prefix, counts, row in fillings[above]:
                extended = tuple(map(getitem, nexts, row)) if t else row
                total = tuple(map(add, sums, counts))
                if t + 1 < depth:
                    grown.append((prefix, total, extended[finish:], columns + extended[:finish]))
                else:
                    grown.append(Gallery._unsafe(rank, columns + extended, weights[total]))
        partial = grown
    return partial
