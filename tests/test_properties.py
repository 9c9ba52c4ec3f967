"""Hypothesis property tests for the structural invariants."""

import random

from hypothesis import given, settings, strategies as st

from gallery_crystals import (
    Gallery,
    concat,
    e,
    epsilon,
    f,
    format_gallery,
    gallery_from_word,
    highest_weight_vertex,
    is_dominant,
    normal_form,
    parse_gallery,
    path_vertices,
    phi,
    weight,
    word,
    WeightVector,
)
from _support import naive_epsilon, naive_phi, weight_sum


@st.composite
def ranks(draw):
    return draw(st.integers(min_value=2, max_value=5))


@st.composite
def galleries(draw, rank=None, max_columns=5):
    n = draw(ranks()) if rank is None else rank
    num_columns = draw(st.integers(min_value=0, max_value=max_columns))
    columns = []
    for _ in range(num_columns):
        length = draw(st.integers(min_value=1, max_value=n - 1))
        entries = draw(
            st.lists(
                st.integers(min_value=1, max_value=n),
                min_size=length,
                max_size=length,
                unique=True,
            )
        )
        columns.append(tuple(sorted(entries)))
    return Gallery(n, tuple(columns))


@st.composite
def words(draw):
    n = draw(ranks())
    letters = draw(st.lists(st.integers(min_value=1, max_value=n), max_size=8))
    return tuple(letters), n


@given(words())
def test_word_of_word_gallery_round_trips(data):
    letters, n = data
    assert word(gallery_from_word(letters, n)) == letters


@given(galleries())
def test_gallery_string_round_trips(g):
    assert parse_gallery(format_gallery(g), g.rank) == g


@given(galleries())
def test_weight_is_last_path_vertex(g):
    assert WeightVector(path_vertices(g)[-1]) == weight(g)


@given(galleries(rank=4, max_columns=3), galleries(rank=4, max_columns=3))
def test_concat_weight_additive(a, b):
    assert weight(concat(a, b)) == weight_sum(weight(a), weight(b))


@given(galleries())
def test_partial_inverse(g):
    for i in range(1, g.rank):
        lowered = f(g, i)
        if lowered is not None:
            assert e(lowered, i) == g
        raised = e(g, i)
        if raised is not None:
            assert f(raised, i) == g


@given(galleries())
def test_string_axiom(g):
    for i in range(1, g.rank):
        assert phi(g, i) == epsilon(g, i) + weight(g).pairing(i)


@settings(max_examples=60)
@given(galleries(max_columns=4))
def test_counting_axiom(g):
    for i in range(1, g.rank):
        assert epsilon(g, i) == naive_epsilon(g, i)
        assert phi(g, i) == naive_phi(g, i)


@given(galleries())
def test_dominance_iff_no_raising(g):
    assert is_dominant(g) == all(e(g, i) is None for i in range(1, g.rank))


@given(galleries())
def test_word_reading_commutes_with_operators(g):
    wg = gallery_from_word(word(g), g.rank)
    for i in range(1, g.rank):
        for op in (f, e):
            image = op(g, i)
            word_image = op(wg, i)
            if image is None:
                assert word_image is None
            else:
                assert word_image == gallery_from_word(word(image), g.rank)


@settings(max_examples=60)
@given(galleries(max_columns=4), st.randoms(use_true_random=False))
def test_highest_weight_vertex_order_independent(g, rng):
    expected = highest_weight_vertex(g)
    current = g
    while True:
        options = [i for i in range(1, g.rank) if e(current, i) is not None]
        if not options:
            break
        current = e(current, rng.choice(options))
    assert current == expected
    assert is_dominant(current)


@settings(max_examples=60)
@given(galleries(max_columns=4))
def test_normal_form_idempotent_and_bounded(g):
    tableau = normal_form(g)
    assert normal_form(tableau) == tableau
    assert all(len(col) <= g.rank - 1 for col in tableau.columns)


@settings(max_examples=60)
@given(galleries(max_columns=4))
def test_normal_form_is_equivalent_under_operators(g):
    # the normal form vanishes under f_i exactly when the gallery does
    tableau = normal_form(g)
    for i in range(1, g.rank):
        assert (f(g, i) is None) == (f(tableau, i) is None)
        image = f(g, i)
        if image is not None:
            assert normal_form(image) == f(tableau, i)
