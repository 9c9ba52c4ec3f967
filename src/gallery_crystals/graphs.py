"""Finite crystal graphs of galleries: components, B(lambda), decompositions.

A crystal graph is a labeled digraph on galleries with an edge (u, v, i)
whenever v = f_i(u).  Connected components are closed under every e_i and
f_i; each component has a unique source vertex (all e_i inapplicable), which
is dominant, and the component is determined up to isomorphism by that
vertex's weight.

`connected_component` raises a gallery to that source and generates the
component from it with the f_i alone; `highest_weight_crystal` is the
component of the dominant tableau.  A gallery is a source exactly when its
path stays in the dominant chamber, so `dominant_galleries` lists the
sources of a shape crystal without visiting the rest of it, and `decompose`
counts them by weight and searches no component.  `is_isomorphic`
reads the graphs' stored edges.  `enumerate_ssyt` lists the vertex set of
B(lambda) without any crystal operator, row by row as Gelfand-Tsetlin
patterns, and serves as the independent check on the crystal side.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb

from .errors import NotConnected
from .galleries import (
    DominantWeight,
    Gallery,
    Shape,
    validate_shape,
    weight,
)
from .operators import e, f


@dataclass(frozen=True)
class CrystalGraph:
    """Immutable labeled digraph; edges are (source, target, i) with target = f_i(source)."""

    rank: int
    vertices: frozenset[Gallery]
    edges: frozenset[tuple[Gallery, Gallery, int]]

    @cached_property
    def _vertex_order(self) -> tuple[Gallery, ...]:
        return tuple(sorted(self.vertices, key=lambda g: (g.shape, g.columns)))

    def sorted_vertices(self) -> list[Gallery]:
        """Canonical vertex order: lexicographic on (shape, columns in reading order).

        The graph is immutable, so the order is computed once and reused.
        """
        return list(self._vertex_order)

    def sorted_edges(self) -> list[tuple[Gallery, Gallery, int]]:
        """Canonical edge order: by source vertex, then by i (f_i(u) is unique)."""
        index = {g: k for k, g in enumerate(self._vertex_order)}
        return sorted(self.edges, key=lambda edge: (index[edge[0]], edge[2]))

    def __len__(self) -> int:
        return len(self.vertices)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adjacency: dict[Gallery, list[Gallery]] = {g: [] for g in self.vertices}
        for u, v, _ in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        start = next(iter(self.vertices))
        seen = {start}
        queue = deque([start])
        while queue:
            for nb in adjacency[queue.popleft()]:
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        return len(seen) == len(self.vertices)


def _raise_to_source(gallery: Gallery) -> tuple[Gallery, list[int]]:
    """Apply raising operators until none applies; smallest index first.

    Returns the source reached and the index of each e_i applied, in order.
    The source does not depend on the order of application (each step
    raises the weight and the component has a unique source); a randomized
    property test enforces this.
    """
    n = gallery.rank
    current, indices = gallery, []
    while True:
        for i in range(1, n):
            raised = e(current, i)
            if raised is not None:
                current = raised
                indices.append(i)
                break
        else:
            return current, indices


def highest_weight_vertex(gallery: Gallery) -> Gallery:
    """The source of the gallery's component: raise until no e_i applies."""
    return _raise_to_source(gallery)[0]


def canonical_dominant_gallery(lam: DominantWeight) -> Gallery:
    """The dominant tableau of shape underline(lambda): each column filled 1..d."""
    columns = tuple(tuple(range(1, d + 1)) for d in lam.column_shape())
    return Gallery(lam.rank, columns)


def connected_component(gallery: Gallery) -> CrystalGraph:
    """The component of the gallery, generated by f_i alone from its source.

    Every vertex of the component is reached from its unique source by
    f-moves, so a breadth-first search from `highest_weight_vertex` records
    each edge once, as (v, f_i(v), i).
    """
    source = highest_weight_vertex(gallery)
    n = source.rank
    seen = {source}
    order = [source]
    edges = []
    for v in order:  # grows while iterated: breadth-first
        for i in range(1, n):
            w = f(v, i)
            if w is not None:
                edges.append((v, w, i))
                if w not in seen:
                    seen.add(w)
                    order.append(w)
    return CrystalGraph(n, frozenset(seen), frozenset(edges))


def highest_weight_crystal(lam: DominantWeight) -> CrystalGraph:
    """The connected crystal B(lambda): the component of its dominant tableau."""
    return connected_component(canonical_dominant_gallery(lam))


def _source_vertex(graph: CrystalGraph) -> Gallery:
    sources = graph.vertices - {v for _, v, _ in graph.edges}
    if len(sources) != 1:
        raise NotConnected(f"expected a unique source vertex, found {len(sources)}")
    return next(iter(sources))


def _moves(graph: CrystalGraph) -> tuple[dict, dict]:
    # The stored edges keyed both ways: (u, i) -> f_i(u) and (v, i) -> e_i(v).
    return (
        {(u, i): v for u, v, i in graph.edges},
        {(v, i): u for u, v, i in graph.edges},
    )


def is_isomorphic(
    first: CrystalGraph, second: CrystalGraph
) -> tuple[bool, dict[Gallery, Gallery] | None]:
    """Label-preserving crystal isomorphism test for connected graphs.

    Runs a simultaneous traversal from the two source vertices (the vertex
    that is no edge's target), matching stored f_i and e_i moves step for
    step.  Returns the vertex map on success; the map preserves weights
    because the sources agree and every edge shifts the weight by the same
    simple root on both sides.
    """
    for graph in (first, second):
        if not graph.is_connected():
            raise NotConnected("is_isomorphic requires connected crystal graphs")
    if (first.rank, len(first), len(first.edges)) != (
        second.rank, len(second), len(second.edges)
    ):
        return False, None
    a = _source_vertex(first)
    b = _source_vertex(second)
    if weight(a) != weight(b):
        return False, None
    steps = tuple(zip(_moves(first), _moves(second)))
    mapping = {a: b}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        v = mapping[u]
        for i in range(1, first.rank):
            for step_a, step_b in steps:
                nu = step_a.get((u, i))
                nv = step_b.get((v, i))
                if (nu is None) != (nv is None):
                    return False, None
                if nu is None:
                    continue
                known = mapping.get(nu)
                if known is None:
                    mapping[nu] = nv
                    queue.append(nu)
                elif known != nv:
                    return False, None
    if len(set(mapping.values())) != len(first):
        return False, None
    return True, mapping


def weyl_dimension(lam: DominantWeight) -> int:
    """Dimension of the simple module of highest weight lambda, exactly.

    Product over pairs i < j of (c_i - c_j + j - i) / (j - i) on the
    canonical counts; used as an external oracle for crystal sizes.
    """
    counts = lam.to_weight_vector().counts
    n = len(counts)
    numerator = 1
    denominator = 1
    for i in range(n):
        for j in range(i + 1, n):
            numerator *= counts[i] - counts[j] + j - i
            denominator *= j - i
    assert numerator % denominator == 0
    return numerator // denominator


def galleries_of_shape(shape: Shape, rank: int):
    """All galleries of the given reading-order shape, in lexicographic order."""
    shape = validate_shape(shape, rank)
    alphabets = [tuple(combinations(range(1, rank + 1), d)) for d in shape]
    for cols in product(*alphabets):
        yield Gallery._unsafe(rank, cols)


def dominant_galleries(shape: Shape, rank: int):
    """The galleries of the shape whose path stays dominant, in lexicographic order.

    A depth-first search over the columns in reading order, each column's
    choices in lexicographic order as in `galleries_of_shape`, that drops a
    prefix as soon as its last vertex leaves the dominant chamber.  The
    recursion is one level per column; a shape long enough to reach Python's
    limit has far too many dominant galleries to list.  ``tallies[a]``
    counts the letter a; ``tallies[0]`` exceeds every count.
    """
    shape = validate_shape(shape, rank)
    alphabets = [tuple(combinations(range(1, rank + 1), d)) for d in shape]

    def extend(prefix, tallies):
        if len(prefix) == len(alphabets):
            yield Gallery._unsafe(rank, prefix)
            return
        for col in alphabets[len(prefix)]:
            grown = list(tallies)
            for a in col:
                grown[a] += 1
            if all(grown[a - 1] >= grown[a] for a in col):
                yield from extend(prefix + (col,), grown)

    yield from extend((), [len(shape) + 1] + [0] * rank)


def count_galleries(shape: Shape, rank: int) -> int:
    shape = validate_shape(shape, rank)
    total = 1
    for d in shape:
        total *= comb(rank, d)
    return total


@dataclass(frozen=True)
class DecompositionEntry:
    lam: DominantWeight
    multiplicity: int
    representatives: tuple[Gallery, ...]


@dataclass(frozen=True)
class Decomposition:
    """Connected components of the shape crystal, grouped by highest weight."""

    rank: int
    shape: Shape
    entries: tuple[DecompositionEntry, ...]
    total: int

    def multiplicity(self, lam: DominantWeight) -> int:
        for entry in self.entries:
            if entry.lam == lam:
                return entry.multiplicity
        return 0


def decompose(shape: Shape, rank: int) -> Decomposition:
    """Multiplicities of the components of the shape crystal, by highest weight.

    Each component has one source, and a gallery is a source exactly when
    its path stays dominant (Littelmann's path model).  So the multiplicity
    of lambda is the number of dominant galleries of the shape with weight
    lambda, and those galleries, in lexicographic order, are the
    representatives.
    """
    shape = validate_shape(shape, rank)
    reps: dict[DominantWeight, list[Gallery]] = {}
    for gallery in dominant_galleries(shape, rank):
        reps.setdefault(weight(gallery).to_dominant_weight(), []).append(gallery)
    entries = tuple(
        DecompositionEntry(lam=lam, multiplicity=len(tops), representatives=tuple(tops))
        for lam, tops in sorted(reps.items(), key=lambda item: item[0].coeffs)
    )
    return Decomposition(
        rank=rank, shape=shape, entries=entries, total=count_galleries(shape, rank)
    )


def _row_fillings(
    rank: int, lengths: list[int], t: int, above: tuple[int, ...]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Fillings of display row t below a row with prefix counts ``above``.

    Returns (prefix counts P(0..rank), entries in reading order) pairs,
    lexicographic in the row's display entries: P(v) counts the entries
    <= v and is tried from its largest value down, letter by letter.
    """
    length = lengths[t]
    partial: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((0,), ())]
    for v in range(1, rank):
        cap = min(length, above[v - 1])
        floor = lengths[t + rank - v]
        partial = [
            (prefix + (q,), (v,) * (q - prefix[-1]) + row)
            for prefix, row in partial
            for q in range(cap, max(prefix[-1], floor) - 1, -1)
        ]
    return [
        (prefix + (length,), (rank,) * (length - prefix[-1]) + row)
        for prefix, row in partial
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
    runs of equal letters, and the columns of height t + 1 are sliced out of
    rows 0..t with ``zip`` as soon as row t is chosen.

    The order is lexicographic on the row-major entries.  The crystal
    operators are not used, so the result can check `highest_weight_crystal`.
    A non-monotone shape has no tableaux.
    """
    shape = validate_shape(shape, rank)
    if any(a > b for a, b in zip(shape, shape[1:])):
        return []
    heights = shape[::-1]  # display order, weakly decreasing
    depth = heights[0] if heights else 0
    # lengths[t] is the length of display row t; zero below the last row.
    lengths = [sum(1 for d in heights if d > t) for t in range(depth + rank)]
    # Partial tableaux as (prefix counts of the last row, its rows so far,
    # reading-order columns of the finished bands).  Rows are stored in
    # reading order, so row s covers the last lengths[s] reading positions.
    # Row 0 has no row above; its caps are its own length.
    partial = [((lengths[0],) * (rank + 1), (), ())]
    for t in range(depth):
        band = [(lengths[s] - lengths[t], lengths[s] - lengths[t + 1]) for s in range(t + 1)]
        grown = []
        for above, rows, columns in partial:
            for prefix, row in _row_fillings(rank, lengths, t, above):
                block = rows + (row,)
                grown.append((prefix, block, columns + tuple(
                    zip(*[r[a:b] for r, (a, b) in zip(block, band)])
                )))
        partial = grown
    return [Gallery._unsafe(rank, columns) for _, _, columns in partial]
