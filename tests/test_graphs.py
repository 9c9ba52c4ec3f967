"""Crystal graphs: components, highest weights, B(lambda), decompositions."""

import random
import sys
import tracemalloc

import pytest

from gallery_crystals import (
    DominantWeight,
    Gallery,
    NotConnected,
    ShapeInvalid,
    canonical_dominant_gallery,
    connected_component,
    count_galleries,
    decompose,
    e,
    enumerate_ssyt,
    epsilon,
    format_gallery,
    galleries_of_shape,
    gallery_from_word,
    highest_weight_crystal,
    highest_weight_vertex,
    is_dominant,
    is_isomorphic,
    phi,
    weight,
    weyl_dimension,
    word,
)
from gallery_crystals import graphs, operators
from gallery_crystals.graphs import CrystalGraph
from _support import (
    G,
    cellwise_ssyt,
    component_decomposition,
    dominance_leq,
    gallery_universe,
    letter_tally,
    shapes_up_to,
    traversal_isomorphism,
    two_sided_closure,
    weights_with_dimension_at_most,
)

# The 8-vertex component of the dominant tableau "1,2|1" (rank 3), edges
# derived by hand from the tagging rules; it mirrors the standard two-ladder
# picture of the adjoint crystal.
ADJOINT_EDGES = {
    ("1,2|1", "1,2|2", 1),
    ("1,2|1", "1,3|1", 2),
    ("1,2|2", "1,2|3", 2),
    ("1,3|1", "1,3|2", 1),
    ("1,2|3", "1,3|3", 2),
    ("1,3|2", "2,3|2", 1),
    ("1,3|3", "2,3|3", 1),
    ("2,3|2", "2,3|3", 2),
}

# The same crystal drawn on the mirrored shape (reading order (2,1)).
ADJOINT_EDGES_MIRROR = {
    ("1|1,2", "2|1,2", 1),
    ("1|1,2", "1|1,3", 2),
    ("2|1,2", "2|1,3", 2),
    ("1|1,3", "1|2,3", 1),
    ("2|1,3", "3|1,3", 2),
    ("1|2,3", "2|2,3", 1),
    ("3|1,3", "3|2,3", 1),
    ("2|2,3", "3|2,3", 2),
}


def edge_strings(graph):
    return {(format_gallery(u), format_gallery(v), i) for u, v, i in graph.edges}


class TestConnectedComponent:
    def test_adjoint_component(self):
        comp = connected_component(G("1,2|1", 3))
        assert len(comp) == 8
        assert edge_strings(comp) == ADJOINT_EDGES

    def test_mirror_shape_component(self):
        comp = connected_component(G("1|1,2", 3))
        assert len(comp) == 8
        assert edge_strings(comp) == ADJOINT_EDGES_MIRROR

    def test_rank_two_box(self):
        comp = connected_component(G("1", 2))
        assert len(comp) == 2
        assert edge_strings(comp) == {("1", "2", 1)}

    def test_empty_gallery(self):
        comp = connected_component(Gallery(3))
        assert len(comp) == 1 and not comp.edges

    def test_built_from_sets_equals_walk(self):
        comp = connected_component(G("1,2|1", 3))
        built = CrystalGraph(3, set(comp.vertices), set(comp.edges))
        assert built == comp and hash(built) == hash(comp)
        assert type(built.vertices) is frozenset and type(built.edges) is frozenset

    def test_equals_two_sided_closure_from_any_vertex(self):
        # Raising to the source and then lowering loses no vertex and no edge.
        for rank in range(2, 5):
            for g in gallery_universe(rank, 4):
                comp = connected_component(g)
                assert (comp.vertices, comp.edges) == two_sided_closure(g)

    def test_closed_under_operators(self):
        comp = connected_component(G("1,2|1", 3))
        for v in comp.vertices:
            for i in (1, 2):
                from gallery_crystals import f

                for image in (f(v, i), e(v, i)):
                    assert image is None or image in comp.vertices


class TestHighestWeightVertex:
    def test_from_lowest(self):
        assert highest_weight_vertex(G("2,3|3", 3)) == G("1,2|1", 3)

    def test_fixed_point(self):
        nu = G("1,2|1", 3)
        assert highest_weight_vertex(nu) == nu

    def test_word_gallery(self):
        top = highest_weight_vertex(G("2|3|1", 3))
        assert is_dominant(top)
        assert all(e(top, i) is None for i in (1, 2))

    def test_unique_source_per_component(self):
        comp = connected_component(G("2|3|1", 3))
        sources = [
            v for v in comp.vertices if all(e(v, i) is None for i in (1, 2))
        ]
        assert len(sources) == 1
        assert is_dominant(sources[0])


class TestCanonicalDominantGallery:
    def test_adjoint(self):
        assert format_gallery(canonical_dominant_gallery(DominantWeight((1, 1)))) == "1,2|1"

    def test_zero(self):
        assert canonical_dominant_gallery(DominantWeight((0, 0))) == Gallery(3)

    def test_two_omega_one(self):
        assert format_gallery(canonical_dominant_gallery(DominantWeight((2, 0)))) == "1|1"

    def test_weight_and_dominance(self):
        for coeffs in [(1, 1), (3, 0), (0, 2), (2, 1)]:
            lam = DominantWeight(coeffs)
            g = canonical_dominant_gallery(lam)
            assert is_dominant(g)
            assert weight(g) == lam.to_weight_vector()


class TestHighestWeightCrystal:
    def test_adjoint_size(self):
        assert len(highest_weight_crystal(DominantWeight((1, 1)))) == 8

    def test_trivial(self):
        assert len(highest_weight_crystal(DominantWeight((0, 0)))) == 1

    def test_vector_representation(self):
        assert len(highest_weight_crystal(DominantWeight((1, 0)))) == 3

    def test_all_vertices_are_tableaux(self):
        from gallery_crystals import is_ssyt

        for coeffs in [(1, 1), (2, 0), (0, 2)]:
            crystal = highest_weight_crystal(DominantWeight(coeffs))
            assert all(is_ssyt(v) for v in crystal.vertices)

    def test_equals_closure_of_source(self):
        # f-moves from the source reach the whole component and every edge.
        for rank in range(2, 6):
            for lam in weights_with_dimension_at_most(rank, 200):
                source = canonical_dominant_gallery(lam)
                crystal = highest_weight_crystal(lam)
                assert crystal == connected_component(source)
                assert (crystal.vertices, crystal.edges) == two_sided_closure(source)


class TestScans:
    def test_one_scan_per_string(self, monkeypatch):
        # B(lambda) lists each of its (n-1)|V| - |E| i-strings from one
        # signature scan, after n-1 scans that find no e_i to apply.
        scans = []
        survivors = operators._survivors

        def counted(gallery, i):
            scans.append(i)
            return survivors(gallery, i)

        # The raise scans in `operators`, the walk in `graphs`.
        monkeypatch.setattr(operators, "_survivors", counted)
        monkeypatch.setattr(graphs, "_survivors", counted)
        for coeffs, expected in (((40,), 2), ((3, 2), 26), ((1, 1, 1), 93)):
            scans.clear()
            crystal = highest_weight_crystal(DominantWeight(coeffs))
            n = crystal.rank
            assert len(scans) == (n - 1) * (len(crystal) + 1) - len(crystal.edges) == expected

    def test_raise_scans_once_per_index_tried(self, monkeypatch):
        # Scans on 1 (a jump of 300), 1, 2 (a jump of 300), 1 and 2, where
        # single steps take 902.
        scans = []
        survivors = operators._survivors

        def counted(gallery, i):
            scans.append(i)
            return survivors(gallery, i)

        monkeypatch.setattr(operators, "_survivors", counted)
        top = highest_weight_vertex(Gallery(3, ((2, 3),) * 300))
        assert top == Gallery(3, ((1, 2),) * 300)
        assert len(scans) <= 5
        # After a jump on i the next index tried is i - 1: jumps on 3, 2, 1.
        scans.clear()
        assert highest_weight_vertex(Gallery(4, ((4,),) * 50)) == Gallery(4, ((1,),) * 50)
        assert scans == [1, 2, 3, 2, 1, 1, 2, 3]


# Starting galleries that are not tableaux, whose components the walk reaches
# from a raised source.
NON_TABLEAU_STARTS = [G("3|1,2|5|2", 5), G("2|3|1", 3)]


def crystal_of(case) -> CrystalGraph:
    """B(lambda) for a dominant weight, the component of a gallery otherwise."""
    if isinstance(case, DominantWeight):
        return highest_weight_crystal(case)
    return connected_component(case)


class TestStringsFromTops:
    @pytest.mark.parametrize(
        "case, expected",
        [
            (DominantWeight((40,)), 1),
            (DominantWeight((3, 2)), 22),
            (DominantWeight((1, 1, 1)), 66),
            (DominantWeight((2, 0, 1, 1)), 632),
            *zip(NON_TABLEAU_STARTS, (104, 6)),
        ],
        ids=str,
    )
    def test_each_string_listed_once_from_its_top(self, monkeypatch, case, expected):
        # The walk lists an i-string only from its top (epsilon_i = 0), once,
        # and lists every nontrivial one: one call per top with phi_i > 0.
        calls = []
        string = graphs._string

        def recorded(top, plus, down):
            col = top.columns[plus[0]]
            calls.append((top, min(set(col) - set(down[col]))))
            return string(top, plus, down)

        monkeypatch.setattr(graphs, "_string", recorded)
        crystal = crystal_of(case)
        assert all(epsilon(v, i) == 0 for v, i in calls)
        assert len(set(calls)) == len(calls)
        tops = [(v, i) for v in crystal.vertices for i in range(1, crystal.rank)
                if epsilon(v, i) == 0 < phi(v, i)]
        assert len(calls) == len(tops) == expected


class TestOneObjectPerVertex:
    """The walk makes one object per vertex, and the edges share it."""

    NOT_A_SOURCE = G("3|1,2|4|2|3|1", 4)

    def test_start_is_not_a_source(self):
        assert highest_weight_vertex(self.NOT_A_SOURCE) != self.NOT_A_SOURCE

    @pytest.mark.parametrize("graph", [
        highest_weight_crystal(DominantWeight((40,))),
        highest_weight_crystal(DominantWeight((3, 2))),
        highest_weight_crystal(DominantWeight((1, 1, 1))),
        highest_weight_crystal(DominantWeight((1, 1, 0, 1))),
        connected_component(NOT_A_SOURCE),
    ], ids=["40", "3,2", "1,1,1", "1,1,0,1", "from-a-non-source"])
    def test_edge_endpoints_are_the_vertices(self, graph):
        ids = {id(v) for v in graph.vertices}
        assert len(ids) == len(graph)
        assert all(id(u) in ids and id(v) in ids for u, v, _ in graph.edges)

    @pytest.mark.parametrize("coeffs", [(3, 2), (1, 1, 1), (20, 20)])
    def test_one_gallery_per_vertex(self, coeffs, monkeypatch):
        # Only a vertex not yet reached becomes a gallery, and the source is
        # given: B(lambda) makes |V| - 1 of them, not one per string member.
        made = []
        unsafe = Gallery._unsafe

        def counted(*args):
            made.append(args)
            return unsafe(*args)

        monkeypatch.setattr(Gallery, "_unsafe", staticmethod(counted))
        crystal = highest_weight_crystal(DominantWeight(coeffs))
        assert len(made) == len(crystal) - 1

    @pytest.mark.parametrize("case", [DominantWeight((2, 1, 1)), NOT_A_SOURCE], ids=str)
    def test_stored_hash_matches_the_constructor(self, case):
        # The walk hands each new vertex the hash it looked it up by; a wrong
        # one would break set lookups without a word.
        for v in crystal_of(case).vertices:
            assert hash(v) == hash(Gallery(v.rank, v.columns)), v

    @pytest.mark.parametrize(
        "case", [DominantWeight((3, 2)), DominantWeight((1, 1, 1)), NOT_A_SOURCE], ids=str
    )
    def test_hash_clash_falls_back_to_columns(self, case, monkeypatch):
        # With one hash for every vertex, each lookup in the walk's index
        # clashes, and the columns must key the vertices.  The patched walk
        # stores the fake hash, so the graphs are compared by columns.
        def described(graph):
            return (
                {v.columns: weight(v) for v in graph.vertices},
                {(u.columns, v.columns, i) for u, v, i in graph.edges},
            )

        expected = described(crystal_of(case))
        monkeypatch.setattr(graphs, "hash", lambda value: 0, raising=False)
        assert described(crystal_of(case)) == expected


class TestSharedColumns:
    """The walk bumps each column once per direction, and the vertices share
    the bumped columns: one column object per column value."""

    @pytest.mark.parametrize("coeffs", [(3, 2), (1, 1, 1), (20, 20)])
    def test_one_object_per_column(self, coeffs, monkeypatch):
        bumps = []
        bump = operators._bump

        def counted(col, old, new):
            bumps.append((col, old, new))
            return bump(col, old, new)

        monkeypatch.setattr(operators, "_bump", counted)
        crystal = highest_weight_crystal(DominantWeight(coeffs))
        columns = [col for v in crystal.vertices for col in v.columns]
        assert len({id(col) for col in columns}) == len(set(columns))
        assert bumps and len(bumps) == len(set(bumps))


class TestIsIsomorphic:
    def test_shape_versus_word_reading(self):
        comp = connected_component(G("1|1,2", 3))
        words = connected_component(gallery_from_word(word(G("1|1,2", 3)), 3))
        ok, mapping = is_isomorphic(comp, words)
        assert ok
        for u, v, i in comp.edges:
            assert (mapping[u], mapping[v], i) in words.edges
        for u in comp.vertices:
            assert weight(mapping[u]) == weight(u)

    def test_different_weights(self):
        first = highest_weight_crystal(DominantWeight((1, 0)))
        second = highest_weight_crystal(DominantWeight((0, 1)))
        ok, mapping = is_isomorphic(first, second)
        assert not ok and mapping is None

    def test_identity(self):
        comp = highest_weight_crystal(DominantWeight((1, 1)))
        ok, mapping = is_isomorphic(comp, comp)
        assert ok
        assert all(mapping[v] == v for v in comp.vertices)

    def test_edges_are_read(self):
        full = highest_weight_crystal(DominantWeight((1, 1)))
        cut_edge = (G("1,2|1", 3), G("1,2|2", 3), 1)
        assert cut_edge in full.edges
        cut = CrystalGraph(3, full.vertices, full.edges - {cut_edge})
        # without that edge, 1,2|2 is a second source
        assert len(cut.vertices - {v for _, v, _ in cut.edges}) == 2
        assert is_isomorphic(full, cut) == (False, None)
        with pytest.raises(NotConnected):
            is_isomorphic(cut, cut)

    def test_not_connected_rejected(self):
        a = G("1", 3)
        b = G("1|1", 3)
        disconnected = CrystalGraph(3, frozenset({a, b}), frozenset())
        with pytest.raises(NotConnected):
            is_isomorphic(disconnected, disconnected)
        # a unique source, G("2", 3), whose walk misses a two-cycle
        cycle = CrystalGraph(3, frozenset({a, b, G("2", 3)}), frozenset({(a, b, 1), (b, a, 2)}))
        with pytest.raises(NotConnected, match="not reached"):
            is_isomorphic(cycle, cycle)

    def test_edges_are_followed_either_way(self):
        # y and z are reached from the source s only against the edge
        # (y, x, 2); h differs from g in the label of the edge from z to y alone.
        s, x, y, z = (G(letter, 4) for letter in "1234")
        g = CrystalGraph(4, {s, x, y, z}, {(s, x, 1), (y, x, 2), (y, z, 3), (z, y, 1)})
        h = CrystalGraph(4, {s, x, y, z}, {(s, x, 1), (y, x, 2), (y, z, 3), (z, y, 2)})
        identity = {v: v for v in (s, x, y, z)}
        assert is_isomorphic(g, g) == (True, identity)
        assert is_isomorphic(g, h) == (False, None)
        assert is_isomorphic(h, h) == (True, identity)

    def test_sizes_are_compared_first(self):
        # A graph of another rank, size or edge count is not isomorphic, even
        # when it is not connected; the traversal oracle raises here instead.
        disconnected = CrystalGraph(3, frozenset({G("1", 3), G("1|1", 3)}), frozenset())
        full = highest_weight_crystal(DominantWeight((1, 1)))
        assert is_isomorphic(full, disconnected) == (False, None)
        assert is_isomorphic(disconnected, full) == (False, None)
        with pytest.raises(NotConnected):
            traversal_isomorphism(full, disconnected)

    def test_agrees_with_traversal_oracle(self):
        graphs = isomorphism_cases()
        tally = {True: 0, False: 0, NotConnected: 0, "precedence": 0}
        for first in graphs:
            for second in graphs:
                got = isomorphism_outcome(is_isomorphic, first, second)
                want = isomorphism_outcome(traversal_isomorphism, first, second)
                tally[want if want is NotConnected else want[0]] += 1
                if got != want:
                    # The one allowed difference: sizes are compared before
                    # connectivity is checked.
                    assert want is NotConnected and got == (False, None)
                    assert (first.rank, len(first), len(first.edges)) != (
                        second.rank, len(second), len(second.edges)
                    )
                    tally["precedence"] += 1
        assert min(tally.values()) > 0, tally


def isomorphism_outcome(test, first, second):
    """The result of ``test(first, second)``, or the class of its error."""
    try:
        return test(first, second)
    except NotConnected:
        return NotConnected


def isomorphism_cases() -> list[CrystalGraph]:
    """Small components at ranks 2-4, their word-reading copies and mutants.

    Each mutant drops one edge or moves it to a free label, so it still has
    at most one i-edge into and out of each vertex.  The first graph reaches
    every vertex from its source, but its 2-string through a and b is a
    cycle, which reading strings off the edges must stop on.
    """
    s, a, b = G("1", 3), G("2", 3), G("3", 3)
    graphs = [CrystalGraph(3, {s, a, b}, {(s, a, 1), (a, b, 2), (b, a, 2)})]
    for rank, bound in ((2, 5), (3, 8), (4, 10)):
        for lam in weights_with_dimension_at_most(rank, bound):
            crystal = highest_weight_crystal(lam)
            source = canonical_dominant_gallery(lam)
            graphs += [crystal, connected_component(gallery_from_word(word(source), rank))]
            edges = sorted(crystal.edges, key=lambda edge: (edge[0].columns, edge[2]))
            for u, v, i in edges[:3]:
                kept = crystal.edges - {(u, v, i)}
                graphs.append(CrystalGraph(rank, crystal.vertices, kept))
                for j in range(1, rank):
                    if not any((x == u or y == v) and k == j for x, y, k in kept):
                        graphs.append(CrystalGraph(rank, crystal.vertices, kept | {(u, v, j)}))
    return graphs


class TestDecompose:
    def test_three_boxes(self):
        dec = decompose((1, 1, 1), 3)
        assert dec.total == 27
        table = {entry.lam.coeffs: entry.multiplicity for entry in dec.entries}
        assert table == {(3, 0): 1, (1, 1): 2, (0, 0): 1}

    def test_single_box(self):
        dec = decompose((1,), 3)
        assert [(e_.lam.coeffs, e_.multiplicity) for e_ in dec.entries] == [((1, 0), 1)]

    def test_mirrored_adjoint_shape(self):
        dec = decompose((2, 1), 3)
        assert [e_.multiplicity for e_ in dec.entries if e_.lam == DominantWeight((1, 1))] == [1]
        reps = dec.entries
        assert any(
            format_gallery(g) == "1|1,2"
            for entry in reps
            for g in entry.representatives
        )

    def test_representatives_are_dominant(self):
        dec = decompose((1, 2), 3)
        for entry in dec.entries:
            for g in entry.representatives:
                assert is_dominant(g) and weight(g) == entry.lam.to_weight_vector()

    def test_dimension_sum(self):
        for shape, rank in [((1, 1, 1), 3), ((2, 1), 3), ((1, 2, 1), 4)]:
            dec = decompose(shape, rank)
            assert (
                sum(
                    entry.multiplicity * weyl_dimension(entry.lam)
                    for entry in dec.entries
                )
                == count_galleries(shape, rank)
                == dec.total
            )

    def test_invalid_shape(self):
        with pytest.raises(ShapeInvalid):
            decompose((3,), 3)

    def test_dominant_galleries_filter_the_shape(self):
        cases = [(shape, rank) for rank in (2, 3, 4) for shape in shapes_up_to(6, rank - 1)]
        cases += [(shape, 5) for shape in shapes_up_to(5, 4)]
        cases += [(shape, 6) for shape in shapes_up_to(4, 5)]
        assert ((), 2) in cases
        for shape, rank in cases:
            expected = list(filter(is_dominant, galleries_of_shape(shape, rank)))
            found = graphs._dominant_galleries(shape, rank, [len(shape)] * rank)
            assert list(found) == expected, (shape, rank)

    def test_dominant_galleries_of_a_deep_shape(self):
        # More columns than Python's recursion limit: the search keeps its own stack.
        n = sys.getrecursionlimit() + 100
        first = next(graphs._dominant_galleries((1,) * n, 2, [n] * 2))
        assert first == Gallery(2, ((1,),) * n)

    def test_dominant_galleries_share_their_prefix(self):
        # A stacked prefix holds only its last column, so the first gallery
        # of a long shape takes memory linear in its length.
        tracemalloc.start()
        try:
            first = next(graphs._dominant_galleries((1,) * 2200, 2, [2200] * 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == Gallery(2, ((1,),) * 2200)
        assert peak < 2_000_000

    def test_matches_component_search(self):
        cases = [(shape, rank) for rank in (2, 3, 4) for shape in shapes_up_to(6, rank - 1)]
        cases += [(shape, 5) for shape in shapes_up_to(5, 4)]
        for shape, rank in cases:
            assert decompose(shape, rank) == component_decomposition(shape, rank), (shape, rank)


class TestWeylDimension:
    def test_adjoint(self):
        assert weyl_dimension(DominantWeight((1, 1))) == 8

    def test_trivial(self):
        assert weyl_dimension(DominantWeight((0, 0))) == 1

    def test_symmetric_cube(self):
        assert weyl_dimension(DominantWeight((3, 0))) == 10

    def test_fundamental_dimensions(self):
        # B(omega_k) for SL_4 has dimension C(4, k)
        assert weyl_dimension(DominantWeight((1, 0, 0))) == 4
        assert weyl_dimension(DominantWeight((0, 1, 0))) == 6
        assert weyl_dimension(DominantWeight((0, 0, 1))) == 4


class TestEnumerateSsyt:
    def test_adjoint_shape(self):
        tableaux = enumerate_ssyt((1, 2), 3)
        assert len(tableaux) == 8
        assert G("1,2|1", 3) in tableaux

    def test_row_shape(self):
        assert len(enumerate_ssyt((1, 1, 1), 3)) == 10

    def test_empty_shape(self):
        assert enumerate_ssyt((), 3) == [Gallery(3)]

    def test_non_monotone_shape(self):
        assert enumerate_ssyt((2, 1), 3) == []

    def test_matches_cellwise_oracle_in_order(self):
        cases = [((), 3), ((2, 1), 3), ((1, 3, 2), 4)]
        for rank in range(2, 6):
            cases += [
                (shape, rank)
                for shape in shapes_up_to(6, rank - 1)
                if all(a <= b for a, b in zip(shape, shape[1:]))
            ]
        cases += [((1,) * m, 2) for m in range(61)]
        # Deeper shapes, whose lower bands extend many partials by many fillings.
        cases += [((1, 2, 2, 3, 3), 4), ((1, 1, 2, 2, 3, 3), 4), ((1, 2, 3, 4), 5), ((2, 3, 3), 6)]
        for shape, rank in cases:
            assert enumerate_ssyt(shape, rank) == cellwise_ssyt(shape, rank), (shape, rank)

    def test_each_column_made_once(self):
        # Within one call, equal columns are one object.
        for shape, rank in (((1,) * 50, 2), ((1, 1, 2, 2, 3, 3), 4), ((2, 3, 3), 6)):
            columns = [c for t in enumerate_ssyt(shape, rank) for c in t.columns]
            assert len({id(c) for c in columns}) == len(set(columns)), (shape, rank)
        assert len({id(c) for t in enumerate_ssyt((1,) * 50, 2) for c in t.columns}) == 2

    def test_column_table_holds_only_reachable_tops(self, monkeypatch):
        # A column of height rank - 1 has rank tableaux: the column table
        # makes row t's t + 1 possible tops, not every t-subset of 1..rank.
        tables = []

        class Recorded(graphs._Table):
            def __init__(self, make):
                super().__init__(make)
                tables.append(self)

        monkeypatch.setattr(graphs, "_Table", Recorded)
        assert enumerate_ssyt((12,), 13) == cellwise_ssyt((12,), 13)
        # The column table is the one holding the empty column, row 0's top.
        (columns,) = [table for table in tables if () in table]
        assert len(columns) == sum(t + 1 for t in range(12))

    def test_top_row_needs_no_column_lookup(self, monkeypatch):
        # Row 0's fillings are written as the shared one-box columns, so only
        # the lower rows look their columns up: a one-row shape looks up none.
        lookups = []
        getitem = graphs.getitem

        def counted(columns, v):
            lookups.append(v)
            return getitem(columns, v)

        monkeypatch.setattr(graphs, "getitem", counted)
        assert enumerate_ssyt((1,) * 60, 2) == cellwise_ssyt((1,) * 60, 2)
        assert lookups == []
        assert enumerate_ssyt((1, 1, 2, 2), 3) == cellwise_ssyt((1, 1, 2, 2), 3)
        assert len(lookups) == 54

    def test_matches_crystal_weights(self):
        from collections import Counter

        lam = DominantWeight((1, 1))
        crystal_weights = Counter(weight(v) for v in highest_weight_crystal(lam).vertices)
        tableau_weights = Counter(weight(t) for t in enumerate_ssyt(lam.column_shape(), 3))
        assert crystal_weights == tableau_weights

    def test_row_fillings_made_once_per_row_state(self, monkeypatch):
        # A row's fillings depend only on the row and the prefix counts of
        # the row above, so one call lists each (t, above) once.
        calls = []
        row_fillings = graphs._row_fillings

        def recorded(rank, lengths, t, above, letters):
            calls.append((t, above))
            return row_fillings(rank, lengths, t, above, letters)

        monkeypatch.setattr(graphs, "_row_fillings", recorded)
        for rank in (3, 4, 5):
            for lam in weights_with_dimension_at_most(rank, 500):
                calls.clear()
                tableaux = enumerate_ssyt(lam.column_shape(), rank)
                assert len(tableaux) == weyl_dimension(lam)
                assert len(calls) == len(set(calls)), lam

    def test_all_galleries_of_shape_count(self):
        assert sum(1 for _ in galleries_of_shape((1, 2, 1), 4)) == 4 * 6 * 4


def birth_cases() -> list[DominantWeight]:
    """Seeded weights at ranks 2-6, with the long one-row shape (60) and
    weights whose tableaux use every letter, so that some vertex's tallies
    shift down to a minimum of 0."""
    rng = random.Random(20261019)
    cases = [DominantWeight((60,)), DominantWeight((2, 1)), DominantWeight((1, 1, 1))]
    for rank, bound in ((2, 40), (3, 60), (4, 60), (5, 40), (6, 40)):
        cases += rng.sample(weights_with_dimension_at_most(rank, bound), 3)
    return cases


class TestWeightsAtBirth:
    """B(lambda) and `enumerate_ssyt` set each gallery's weight as they make it."""

    @pytest.mark.parametrize("case", birth_cases() + NON_TABLEAU_STARTS, ids=str)
    def test_crystal_vertices(self, case):
        # Components of non-tableau galleries too: every birth steps down a string.
        vertices = crystal_of(case).vertices
        for v in vertices:
            assert weight(v) == letter_tally(v), v
        # Equal weights are one vector: the walk set them, nothing tallied.
        assert len({id(weight(v)) for v in vertices}) == len({weight(v) for v in vertices})

    @pytest.mark.parametrize("lam", birth_cases(), ids=str)
    def test_tableaux(self, lam):
        tableaux = enumerate_ssyt(lam.column_shape(), lam.rank)
        top = lam.to_weight_vector()
        for t in tableaux:
            assert weight(t) == letter_tally(t), t
            assert dominance_leq(weight(t), top), t
        assert len({id(weight(t)) for t in tableaux}) == len({weight(t) for t in tableaux})

    def test_every_letter_used(self):
        # A tableau holding every letter has all tallies positive, so its
        # weight is its tallies shifted down.
        for lam in (DominantWeight((2, 1)), DominantWeight((1, 1, 1)), DominantWeight((60,))):
            full = [t for t in enumerate_ssyt(lam.column_shape(), lam.rank)
                    if len(set(a for col in t.columns for a in col)) == lam.rank]
            assert full and all(weight(t) == letter_tally(t) for t in full)
