"""Shared helpers for the test suite: shape universes and slow reference oracles."""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from collections import Counter, deque
from itertools import chain, product

from gallery_crystals import (
    CrystalGraph,
    Decomposition,
    DecompositionEntry,
    DominantWeight,
    Gallery,
    NotConnected,
    ParseError,
    RankMismatch,
    SurjectivityReport,
    WeightVector,
    concat,
    connected_component,
    crossing_sets,
    e,
    enumerate_ssyt,
    f,
    galleries_of_shape,
    gallery_from_word,
    highest_weight_vertex,
    image_weights,
    normal_form,
    parse_gallery,
    path_vertices,
    weight,
    weyl_dimension,
)
from gallery_crystals.galleries import Shape, Word, validate_shape


def G(text: str, rank: int) -> Gallery:
    return parse_gallery(text, rank)


def columnwise_parse_gallery(text: str, rank: int) -> Gallery:
    """Reference for `parse_gallery`: check the rank, parse every column, then
    build the gallery."""
    empty = Gallery(rank, ())
    text = text.strip()
    if not text:
        return empty
    display = []
    for chunk in text.split("|"):
        entries = [piece.strip() for piece in chunk.split(",")]
        if any(not re.match(r"^[0-9]+$", piece) for piece in entries):
            raise ParseError(f"malformed column {chunk!r}")
        display.append(tuple(int(piece) for piece in entries))
    return Gallery(rank, tuple(reversed(display)))


def weight_sum(mu: WeightVector, nu: WeightVector) -> WeightVector:
    """The sum of two weight vectors of one rank, coordinate by coordinate."""
    return WeightVector(tuple(a + b for a, b in zip(mu.counts, nu.counts, strict=True)))


def letter_tally(gallery: Gallery) -> WeightVector:
    """Reference for `weight`: count the letters of the columns, never reading
    a weight the gallery holds."""
    tallies = Counter(chain.from_iterable(gallery.columns))
    return WeightVector(tuple(tallies[a] for a in range(1, gallery.rank + 1)))


def dominance_leq(mu: WeightVector, lam: WeightVector) -> bool:
    """Whether lam - mu is a nonnegative integer combination of simple roots."""
    if mu.rank != lam.rank:
        raise RankMismatch("weight vectors of different ranks")
    n = mu.rank
    gap = sum(lam.counts) - sum(mu.counts)
    if gap % n:
        return False
    shift = gap // n
    prefix = 0
    for a, b in zip(mu.counts, lam.counts):
        prefix += b - (a + shift)
        if prefix < 0:
            return False
    return prefix == 0


def plus_simple_root(mu: WeightVector, i: int, times: int = 1) -> WeightVector:
    """mu + times * alpha_i, where alpha_i = e_i - e_(i+1)."""
    counts = list(mu.counts)
    counts[i - 1] += times
    counts[i] -= times
    return WeightVector(tuple(counts))


def spliced_crossing_sets(gamma: Gallery, delta: Gallery):
    """Reference for the splice checks' staircase: the spliced gallery
    eta = gamma * staircase * delta built with `concat`, the reading position
    k of the splice, and the crossing sets of eta's segments k, ..., k + n - 1."""
    n = gamma.rank
    eta = concat(gamma, concat(gallery_from_word(range(1, n + 1), n), delta))
    k = len(delta.columns)
    return eta, k, crossing_sets(eta)[k : k + n]


def definition_crossing_sets(gallery: Gallery) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Reference for `crossing_sets`, from the definition: for each segment,
    every a < b whose pairing x_a - x_b is m at the segment's start and more
    than m at its end gives (a, b, m)."""
    n = gallery.rank
    verts = path_vertices(gallery)
    return tuple(
        tuple((a, b, start[a - 1] - start[b - 1])
              for a in range(1, n + 1) for b in range(a + 1, n + 1)
              if end[a - 1] - end[b - 1] > start[a - 1] - start[b - 1])
        for start, end in zip(verts, verts[1:])
    )


def transposing_insert(letters, rank: int) -> Gallery:
    """Reference for `normal_form` and `rsk_insert`: Schensted row insertion
    of the letters, last to first, then the rows turned into columns one band
    of equal-length rows at a time, every column equal to 1..rank dropped."""
    rows: list[list[int]] = []
    for x in reversed(letters):
        for row in rows:
            k = bisect_right(row, x)
            if k == len(row):
                row.append(x)
                break
            x, row[k] = row[k], x
        else:
            rows.append([x])
    full = tuple(range(1, rank + 1))
    display: list[tuple[int, ...]] = []
    while rows:
        display += [col for col in zip(*rows) if col != full]
        cut = len(rows[-1])
        rows = [row[cut:] for row in rows if len(row) > cut]
    return Gallery._unsafe(rank, tuple(reversed(display)))


def _knuth_neighbors(w: Word) -> list[Word]:
    # Both directions of relations a and b on each 3-letter window: a swaps
    # the last two letters, b swaps the first two.
    out = []
    for p in range(len(w) - 2):
        u, v, t = w[p], w[p + 1], w[p + 2]
        if (v <= u < t) or (t <= u < v):
            # a:  y x z <-> y z x  for x <= y < z
            out.append(w[: p + 1] + (t, v) + w[p + 3 :])
        if (v < t <= u) or (u < t <= v):
            # b:  z x y <-> x z y  for x < y <= z
            out.append(w[:p] + (v, u) + w[p + 2 :])
    return out


def _column_relation_neighbors(w: Word, staircase: Word, max_insert_len: int) -> list[Word]:
    n = len(staircase)
    out = []
    for p in range(len(w) - n + 1):
        if w[p : p + n] == staircase:
            out.append(w[:p] + w[p + n :])
    if len(w) <= max_insert_len:
        for p in range(len(w) + 1):
            out.append(w[:p] + staircase + w[p:])
    return out


def all_words(max_len: int, rank: int):
    """All words of length <= max_len over 1..rank, in shortlex order."""
    for length in range(max_len + 1):
        yield from product(range(1, rank + 1), repeat=length)


def oracle_plactic_classes(max_len: int, rank: int) -> tuple[tuple[Word, ...], ...]:
    """Partition all words of length <= max_len into plactic classes.

    The equivalence closure is explored by breadth-first search over single
    rewrites: relations a and b in both directions, and deletion or insertion
    of the factor 1...n at any position.  Intermediate words are allowed to
    grow to max_len + n, which suffices to connect classes at test scale.
    Classes are returned sorted, each class sorted shortlex, with only the
    words of length <= max_len reported.
    """
    staircase = tuple(range(1, rank + 1))
    seen: set[Word] = set()
    classes: list[tuple[Word, ...]] = []
    for start in all_words(max_len, rank):
        if start in seen:
            continue
        component: set[Word] = {start}
        queue = deque([start])
        while queue:
            w = queue.popleft()
            neighbors = _knuth_neighbors(w)
            neighbors += _column_relation_neighbors(w, staircase, max_len)
            for nb in neighbors:
                if nb not in component:
                    component.add(nb)
                    queue.append(nb)
        seen |= component
        members = sorted(
            (w for w in component if len(w) <= max_len), key=lambda w: (len(w), w)
        )
        classes.append(tuple(members))
    return tuple(sorted(classes, key=lambda cls: (len(cls[0]), cls[0])))



def shapes_up_to(total: int, max_part: int):
    """All reading-order shapes with parts in 1..max_part and box count <= total."""
    out = [()]
    frontier = [()]
    while frontier:
        new = []
        for shape in frontier:
            used = sum(shape)
            for d in range(1, max_part + 1):
                if used + d <= total:
                    new.append(shape + (d,))
        out.extend(new)
        frontier = new
    return out


def gallery_universe(rank: int, total_boxes: int):
    """Every gallery of every shape with at most total_boxes boxes."""
    for shape in shapes_up_to(total_boxes, rank - 1):
        yield from galleries_of_shape(shape, rank)


def weights_with_dimension_at_most(rank: int, bound: int) -> list[DominantWeight]:
    """Every dominant weight of the rank whose Weyl dimension is at most bound."""
    out = []

    def extend(prefix):
        if len(prefix) == rank - 1:
            out.append(DominantWeight(prefix))
            return
        m = 0
        while True:
            padded = prefix + (m,) + (0,) * (rank - 2 - len(prefix))
            if weyl_dimension(DominantWeight(padded)) > bound:
                break
            extend(prefix + (m,))
            m += 1

    extend(())
    return out


def two_sided_closure(gallery: Gallery) -> tuple[frozenset, frozenset]:
    """Vertices and edges reached from the gallery by any e_i and f_i.

    Breadth-first search in both directions, recording each edge (u, f_i(u), i)
    from whichever end finds it; it assumes nothing about sources.
    """
    n = gallery.rank
    seen = {gallery}
    queue = deque([gallery])
    edges = set()
    while queue:
        v = queue.popleft()
        for i in range(1, n):
            lowered, raised = f(v, i), e(v, i)
            if lowered is not None:
                edges.add((v, lowered, i))
            if raised is not None:
                edges.add((raised, v, i))
            for w in (lowered, raised):
                if w is not None and w not in seen:
                    seen.add(w)
                    queue.append(w)
    return frozenset(seen), frozenset(edges)


def undirected_connected(graph: CrystalGraph) -> bool:
    """Whether the graph is connected with its edge directions ignored."""
    if not graph.vertices:
        return True
    adjacency: dict[Gallery, list[Gallery]] = {g: [] for g in graph.vertices}
    for u, v, _ in graph.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    start = next(iter(graph.vertices))
    seen = {start}
    queue = deque([start])
    while queue:
        for nb in adjacency[queue.popleft()]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(graph.vertices)


def traversal_isomorphism(
    first: CrystalGraph, second: CrystalGraph
) -> tuple[bool, dict[Gallery, Gallery] | None]:
    """Reference for `is_isomorphic`: match stored f_i and e_i moves step for step.

    Both graphs must be connected (edge directions ignored) and have a unique
    source, or `NotConnected` is raised before sizes are compared.  A
    simultaneous traversal from the two sources builds the vertex map, which
    must be injective.
    """
    for graph in (first, second):
        if not undirected_connected(graph):
            raise NotConnected("is_isomorphic requires connected crystal graphs")
    if (first.rank, len(first), len(first.edges)) != (
        second.rank, len(second), len(second.edges)
    ):
        return False, None
    tops = []
    for graph in (first, second):
        sources = graph.vertices - {v for _, v, _ in graph.edges}
        if len(sources) != 1:
            raise NotConnected(f"expected a unique source vertex, found {len(sources)}")
        tops.extend(sources)
    a, b = tops
    if weight(a) != weight(b):
        return False, None
    # Each graph's stored edges keyed both ways: (u, i) -> f_i(u), (v, i) -> e_i(v).
    steps = (
        ({(u, i): v for u, v, i in first.edges}, {(u, i): v for u, v, i in second.edges}),
        ({(v, i): u for u, v, i in first.edges}, {(v, i): u for u, v, i in second.edges}),
    )
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


def component_decomposition(shape: Shape, rank: int) -> Decomposition:
    """Reference for `decompose`: search out every component of the shape crystal.

    Each gallery not yet covered is raised to its source, whose component is
    generated and marked covered; the sources are grouped by weight.  It uses
    the crystal operators and not dominance, so it checks that the dominant
    galleries are exactly the sources.
    """
    shape = validate_shape(shape, rank)
    seen: set[Gallery] = set()
    reps: dict[DominantWeight, list[Gallery]] = {}
    total = 0
    for gallery in galleries_of_shape(shape, rank):
        total += 1
        if gallery in seen:
            continue
        top = highest_weight_vertex(gallery)
        seen |= connected_component(top).vertices
        reps.setdefault(weight(top).to_dominant_weight(), []).append(top)
    assert len(seen) == total
    entries = tuple(
        DecompositionEntry(
            lam=lam,
            multiplicity=len(tops),
            representatives=tuple(sorted(tops, key=lambda g: (g.shape, g.columns))),
        )
        for lam, tops in sorted(reps.items(), key=lambda item: item[0].coeffs)
    )
    return Decomposition(rank=rank, shape=shape, entries=entries, total=total)


def shapewise_fibers(shape: Shape, rank: int) -> dict[Gallery, tuple[Gallery, ...]]:
    """Reference for `fiber`: every gallery of the shape normalised and grouped
    by normal form, so the fiber of a label is its tableau's group (empty if
    absent).  Galleries of one shape come in lexicographic order, so each group
    is sorted by (shape, columns) as `fiber` sorts it.  One pass serves every
    label of the shape."""
    groups: dict[Gallery, list[Gallery]] = {}
    for gallery in galleries_of_shape(shape, rank):
        groups.setdefault(normal_form(gallery), []).append(gallery)
    return {tableau: tuple(members) for tableau, members in groups.items()}


def shapewise_surjectivity(shape: Shape, rank: int) -> SurjectivityReport:
    """Reference for `verify_surjectivity`: the normal forms of every gallery of
    the shape must cover the tableaux of every lambda in the image."""
    shape = validate_shape(shape, rank)
    hit: set[Gallery] = {normal_form(g) for g in galleries_of_shape(shape, rank)}
    misses: list[tuple[DominantWeight, Gallery]] = []
    checked = 0
    for lam in image_weights(shape, rank):
        for tableau in enumerate_ssyt(lam.column_shape(), rank):
            checked += 1
            if tableau not in hit:
                misses.append((lam, tableau))
    return SurjectivityReport(
        ok=not misses,
        shape=shape,
        rank=rank,
        labels_checked=checked,
        misses=tuple(misses),
    )


def naive_epsilon(gallery: Gallery, i: int) -> int:
    """Count raising steps by actually applying e_i until it vanishes."""
    count = 0
    current = gallery
    while True:
        current = e(current, i)
        if current is None:
            return count
        count += 1


def naive_phi(gallery: Gallery, i: int) -> int:
    count = 0
    current = gallery
    while True:
        current = f(current, i)
        if current is None:
            return count
        count += 1


def stepwise_move(gallery: Gallery, i: int, k: int) -> Gallery | None:
    """Reference for `operators._move`: k single steps of f_i, or -k of e_i
    for k < 0, with None once a step does not apply."""
    op = f if k >= 0 else e
    for _ in range(abs(k)):
        gallery = op(gallery, i)
        if gallery is None:
            return None
    return gallery


def stepwise_raise(gallery: Gallery) -> tuple[Gallery, list[int]]:
    """Reference for `operators._raise_to_source`: apply one e_i at a time,
    smallest index first, until none applies.  Returns the source reached
    and the index of each step, in order."""
    current, indices = gallery, []
    while True:
        for i in range(1, gallery.rank):
            raised = e(current, i)
            if raised is not None:
                current = raised
                indices.append(i)
                break
        else:
            return current, indices


def randomized_reduction(tags, rng: random.Random):
    """Reference reducer: drop untagged columns, then remove adjacent (- +)
    display pairs in random order until none remain.  Returns the surviving
    (position, tag) pairs with original display positions."""
    items = [(pos, tag) for pos, tag in enumerate(tags) if tag != "0"]
    while True:
        pairs = [
            k
            for k in range(len(items) - 1)
            if items[k][1] == "-" and items[k + 1][1] == "+"
        ]
        if not pairs:
            return items
        k = rng.choice(pairs)
        del items[k : k + 2]


def cellwise_ssyt(shape: Shape, rank: int) -> list[Gallery]:
    """Reference for `enumerate_ssyt`: every semistandard tableau of the shape.

    Direct row-by-row backtracking over cell fillings (weakly increasing
    rows, strictly increasing columns); independent of the crystal operators
    so it can serve as a counting oracle against them.  Iterative so that
    long one-row shapes do not hit recursion limits.
    """
    shape = validate_shape(shape, rank)
    if any(a > b for a, b in zip(shape, shape[1:])):
        return []
    display_lengths = tuple(reversed(shape))
    width = len(display_lengths)
    if width == 0:
        return [Gallery._unsafe(rank, ())]
    depth = display_lengths[0]
    row_lengths = [sum(1 for d in display_lengths if d > t) for t in range(depth)]

    # Row-major linearization; every cell's left and upper neighbors exist
    # whenever j > 0 / t > 0 because row lengths weakly decrease downwards.
    offsets = [0]
    for length in row_lengths[:-1]:
        offsets.append(offsets[-1] + length)
    total = offsets[-1] + row_lengths[-1]
    left = [-1] * total
    up = [-1] * total
    for t, length in enumerate(row_lengths):
        base = offsets[t]
        for j in range(length):
            if j > 0:
                left[base + j] = base + j - 1
            if t > 0:
                up[base + j] = offsets[t - 1] + j
    column_cells = tuple(
        tuple(offsets[t] + j for t in range(display_lengths[j]))
        for j in range(width - 1, -1, -1)  # reading order
    )

    out: list[Gallery] = []
    values = [0] * total
    last = total - 1
    k = 0
    values[0] = 0  # first cell starts probing at 1
    while True:
        value = values[k] + 1
        if value > rank:
            k -= 1
            if k < 0:
                return out
            continue
        values[k] = value
        if k == last:
            out.append(
                Gallery._unsafe(
                    rank,
                    tuple(tuple(values[ix] for ix in cell) for cell in column_cells),
                )
            )
            continue
        k += 1
        low = 1
        neighbor = left[k]
        if neighbor >= 0 and values[neighbor] > low:
            low = values[neighbor]
        neighbor = up[k]
        if neighbor >= 0 and values[neighbor] >= low:
            low = values[neighbor] + 1
        values[k] = low - 1
