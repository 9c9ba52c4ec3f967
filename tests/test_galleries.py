"""Core gallery operations: validation, words, weights, paths, dominance."""

import copy
import inspect
import pickle
import random
from enum import IntEnum

import pytest

from gallery_crystals import (
    ColumnTooLong,
    DominantWeight,
    Gallery,
    GalleryError,
    IndexOutOfRange,
    InvalidRank,
    LetterNotInteger,
    LetterOutOfRange,
    NonIncreasingColumn,
    NotDominant,
    ParseError,
    RankMismatch,
    ShapeInvalid,
    WeightVector,
    concat,
    connected_component,
    count_galleries,
    decompose,
    enumerate_ssyt,
    format_gallery,
    format_word,
    galleries_of_shape,
    gallery_from_word,
    highest_weight_crystal,
    image_weights,
    is_dominant,
    parse_gallery,
    parse_word,
    path_vertices,
    validate_shape,
    verify_surjectivity,
    weight,
    word,
)
from gallery_crystals import galleries
from gallery_crystals.affine import random_gallery
from _support import (
    G,
    columnwise_parse_gallery,
    dominance_leq,
    gallery_universe,
    letter_tally,
    weight_sum,
)


class TestValidateGallery:
    def test_star_example(self):
        g = G("3|1,2|5|2", 5)
        assert g.columns == ((2,), (5,), (1, 2), (3,))
        assert g.shape == (1, 1, 2, 1)

    def test_non_increasing_column(self):
        with pytest.raises(NonIncreasingColumn):
            parse_gallery("2,1", 3)

    def test_full_column_rejected(self):
        with pytest.raises(ColumnTooLong):
            parse_gallery("1,2,3", 3)
        with pytest.raises(ColumnTooLong):
            Gallery(3, ((1, 2, 3),))

    @pytest.mark.parametrize(
        "text, columns, error",
        [
            ("4|1,2,3", ((1, 2, 3), (4,)), LetterOutOfRange),
            ("1,2,2", ((1, 2, 2),), NonIncreasingColumn),
            ("1,2,3,4", ((1, 2, 3, 4),), ColumnTooLong),
        ],
    )
    def test_full_column_checked_last(self, text, columns, error):
        # A full column raises only when no column breaks another rule, even
        # one read after it.
        with pytest.raises(error):
            parse_gallery(text, 3)
        with pytest.raises(error):
            Gallery(3, columns)

    def test_empty_column(self):
        with pytest.raises(ShapeInvalid):
            Gallery(3, ((1,), ()))

    def test_letter_out_of_range(self):
        with pytest.raises(LetterOutOfRange):
            parse_gallery("4", 3)
        with pytest.raises(LetterOutOfRange):
            Gallery(3, ((0,),))

    @pytest.mark.parametrize("letter", [1.9, "2", True])
    def test_non_integer_letter_rejected(self, letter):
        with pytest.raises(LetterNotInteger):
            Gallery(3, ((letter,),))
        with pytest.raises(LetterNotInteger):
            gallery_from_word((1, letter), 3)

    def test_int_subclass_letter_stored_as_int(self):
        class Letter(IntEnum):
            TWO = 2

        g = Gallery(3, ((1, Letter.TWO),))
        assert g == Gallery(3, ((1, 2),))
        assert all(type(a) is int for a in g.columns[0])

    def test_non_integer_shape_rejected(self):
        with pytest.raises(ShapeInvalid):
            validate_shape((1.9, "2"), 3)

    def test_parse_garbage(self):
        with pytest.raises(ParseError):
            parse_gallery("1,x|2", 3)
        with pytest.raises(ParseError):
            parse_gallery("1||2", 3)

    def test_parse_rejects_non_ascii_digits(self):
        # Arabic-Indic digits one, two, three: int() reads them, the format does not.
        with pytest.raises(ParseError):
            parse_gallery("\u0661,\u0662|\u0663", 3)


def weighed(gallery: Gallery) -> Gallery:
    """The gallery, once its weight is known and held."""
    weight(gallery)
    return gallery


VALUES = [
    (Gallery(3, ((1,), (1, 2))), lambda: Gallery(3, [[1], [1, 2]])),
    (Gallery(4), lambda: parse_gallery("", 4)),
    (Gallery(3, ((2,), (1,))), lambda: concat(G("1", 3), G("2", 3))),
    (WeightVector((3, 1, 1)), lambda: weight(G("1|1", 3))),
    (DominantWeight((2, 0)), lambda: WeightVector((3, 1, 1)).to_dominant_weight()),
    (highest_weight_crystal(DominantWeight((1, 1))), lambda: connected_component(G("1,3|1", 3))),
    (weighed(Gallery(3, ((1, 3), (2,)))), lambda: Gallery(3, ((1, 3), (2,)))),
    (Gallery._unsafe(3, ((2,), (1, 3)), WeightVector((1, 1, 1))), lambda: G("1,3|2", 3)),
    (WeightVector._unsafe((4, 2, 3)), lambda: WeightVector((2, 0, 1))),
]


class TestValueClasses:
    @pytest.mark.parametrize("value, rebuild", VALUES)
    def test_equal_values_hash_equal(self, value, rebuild):
        other = rebuild()
        assert other is not value
        assert other == value and not other != value
        assert hash(other) == hash(value)
        assert len({value, other}) == 1

    @pytest.mark.parametrize("value, rebuild", VALUES)
    def test_fields_cannot_change(self, value, rebuild):
        fields = ("rank", "columns", "counts", "coeffs", "vertices", "edges")
        for name in [name for name in fields if hasattr(value, name)] + ["_hash", "_weight", "extra"]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == rebuild()

    @pytest.mark.parametrize("value, rebuild", VALUES)
    def test_copies_are_equal(self, value, rebuild):
        assert copy.copy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value

    def test_repr_names_the_fields(self):
        assert repr(Gallery(3, ((1,),))) == "Gallery(rank=3, columns=((1,),))"
        assert repr(weighed(Gallery(3, ((1,),)))) == "Gallery(rank=3, columns=((1,),))"
        held = Gallery._unsafe(3, ((1,),), WeightVector((1, 0, 0)))
        assert repr(held) == "Gallery(rank=3, columns=((1,),))"
        assert repr(WeightVector((2, 1))) == "WeightVector(counts=(1, 0))"
        assert repr(DominantWeight((1, 0))) == "DominantWeight(coeffs=(1, 0))"

    def test_held_weight_is_not_pickled(self):
        held = Gallery._unsafe(3, ((1, 3), (2,)), WeightVector((1, 1, 1)))
        assert held._weight == WeightVector((0, 0, 0))
        assert not hasattr(pickle.loads(pickle.dumps(held)), "_weight")
        assert not hasattr(copy.copy(held), "_weight")

    def test_never_equal_to_other_types(self):
        g = Gallery(3, ((1,), (2,)))
        assert g != (3, ((1,), (2,))) and g != ((1,), (2,))
        assert g != g.columns and g.columns != g
        assert WeightVector((1, 0)) != (1, 0)
        assert WeightVector((1, 0, 0)) != DominantWeight((1, 0))
        assert Gallery(3) != Gallery(4)


class TestRankRule:
    """Ranks below 2 are refused by every entry point that takes a rank."""

    @pytest.mark.parametrize("rank", [1, 0, -3])
    @pytest.mark.parametrize(
        "function",
        [galleries_of_shape, count_galleries, enumerate_ssyt, decompose, image_weights,
         verify_surjectivity],
        ids=lambda function: function.__name__,
    )
    def test_empty_shape(self, function, rank):
        with pytest.raises(InvalidRank, match=f"^rank must be an integer >= 2, got {rank}$"):
            result = function((), rank)
            if inspect.isgenerator(result):
                list(result)

    def test_weights(self):
        with pytest.raises(InvalidRank, match="^rank must be an integer >= 2, got 1$"):
            WeightVector((1,))
        with pytest.raises(InvalidRank, match="^rank must be an integer >= 2, got 1$"):
            DominantWeight(())

    @pytest.mark.parametrize(
        "text, rank", [("1", 1), ("", 0), ("1", True), ("1 1", 1.5)], ids=repr
    )
    def test_parse_word(self, text, rank):
        with pytest.raises(InvalidRank, match=f"^rank must be an integer >= 2, got {rank!r}$"):
            parse_word(text, rank)

    @pytest.mark.parametrize(
        "text, rank", [("1 1", 1.5), ("1|x", 1), ("1", 1), ("", True)], ids=repr
    )
    def test_parse_gallery(self, text, rank):
        # The first two texts are malformed: the rank is checked before them.
        with pytest.raises(InvalidRank, match=f"^rank must be an integer >= 2, got {rank!r}$"):
            parse_gallery(text, rank)


class TestWord:
    def test_star(self):
        assert word(G("3|1,2|5|2", 5)) == (2, 5, 1, 2, 3)

    def test_beta_same_word(self):
        assert word(G("3|2|1|5|2", 5)) == (2, 5, 1, 2, 3)

    def test_empty(self):
        assert word(Gallery(4)) == ()


class TestGalleryFromWord:
    def test_beta(self):
        assert format_gallery(gallery_from_word((2, 5, 1, 2, 3), 5)) == "3|2|1|5|2"

    def test_empty(self):
        assert gallery_from_word((), 3) == Gallery(3)

    def test_delta(self):
        assert format_gallery(gallery_from_word((1, 3, 2), 3)) == "2|3|1"

    def test_round_trip(self):
        for letters in [(1,), (2, 5, 1, 2, 3), (3, 3, 3)]:
            assert word(gallery_from_word(letters, 5)) == letters

    def test_out_of_range(self):
        with pytest.raises(LetterOutOfRange):
            gallery_from_word((1, 4), 3)


class TestConcat:
    def test_nu(self):
        inner = G("1", 3)
        outer = G("1,2", 3)
        assert format_gallery(concat(outer, inner)) == "1,2|1"

    def test_identity(self):
        g = G("2|3|1", 3)
        assert concat(Gallery(3), g) == g
        assert concat(g, Gallery(3)) == g

    def test_word_and_shape(self):
        left = gallery_from_word((1, 2, 3), 3)
        right = G("1", 3)
        joined = concat(left, right)
        assert joined.shape == (1, 1, 1, 1)
        assert word(joined) == (1, 1, 2, 3)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            concat(G("1", 3), G("1", 4))


class TestWeight:
    def test_nu(self):
        assert weight(G("1,2|1", 3)).counts == (2, 1, 0)

    def test_delta_is_zero(self):
        mu = weight(G("2|3|1", 3))
        assert mu == WeightVector((0,) * 3)
        assert mu.counts == (0, 0, 0)

    def test_empty(self):
        assert weight(Gallery(4)).counts == (0, 0, 0, 0)

    def test_matches_counter_reference(self):
        galleries = [Gallery(2), Gallery(5)]
        for rank in range(2, 6):
            galleries += gallery_universe(rank, 5)
        for g in galleries:
            mu, expected = weight(g), letter_tally(g)
            assert mu == expected and hash(mu) == hash(expected), g
            assert min(mu.counts) == 0

    def test_computed_once(self):
        # The first call tallies the letters and keeps the weight; later
        # calls return that same vector.
        g = Gallery(3, ((1, 2), (1,), (3,)))
        first = weight(g)
        assert weight(g) is first
        assert first == WeightVector((2, 1, 1))

    def test_concat_additive(self):
        a = G("1,2|1", 3)
        b = G("2|3|1", 3)
        assert weight(concat(a, b)) == weight_sum(weight(a), weight(b))


class TestPathVertices:
    def test_nu(self):
        assert path_vertices(G("1,2|1", 3)) == ((0, 0, 0), (1, 0, 0), (2, 1, 0))

    def test_staircase_word(self):
        g = gallery_from_word((1, 2, 3), 3)
        assert path_vertices(g) == ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))

    def test_empty(self):
        assert path_vertices(Gallery(3)) == ((0, 0, 0),)

    def test_last_vertex_is_weight(self):
        g = G("3|1,2|5|2", 5)
        assert WeightVector(path_vertices(g)[-1]) == weight(g)


class TestDominance:
    def test_nu_dominant(self):
        assert is_dominant(G("1,2|1", 3))

    def test_delta_not_dominant(self):
        assert not is_dominant(G("2|3|1", 3))

    def test_empty_dominant(self):
        assert is_dominant(Gallery(3))

    def test_matches_word_gallery(self):
        for text in ["1,2|1", "2|3|1", "3|1,2|5|2"]:
            rank = 5 if "5" in text else 3
            g = G(text, rank)
            assert is_dominant(g) == is_dominant(gallery_from_word(word(g), rank))


class TestPairing:
    def test_values(self):
        mu = WeightVector((2, 1, 0))
        assert mu.pairing(1) == 1
        assert mu.pairing(2) == 1

    def test_zero_weight(self):
        mu = WeightVector((1, 1, 1))
        assert mu.pairing(1) == 0
        assert mu.pairing(2) == 0

    def test_shift_invariance(self):
        for shift in (-2, 0, 5):
            mu = WeightVector((2 + shift, 1 + shift, 0 + shift))
            assert mu.pairing(1) == 1 and mu.pairing(2) == 1

    def test_index_check(self):
        with pytest.raises(IndexOutOfRange):
            WeightVector((1, 0)).pairing(2)


class TestWeightConversions:
    def test_omega_sum(self):
        lam = DominantWeight((1, 1))
        assert lam.to_weight_vector().counts == (2, 1, 0)

    def test_zero(self):
        assert DominantWeight((0,) * 3).to_weight_vector() == WeightVector((0,) * 4)

    def test_all_ones_counts(self):
        assert WeightVector((1, 1, 1)).to_dominant_weight() == DominantWeight((0, 0))

    def test_round_trip(self):
        for coeffs in [(0, 0), (1, 1), (3, 0), (2, 5)]:
            lam = DominantWeight(coeffs)
            assert lam.to_weight_vector().to_dominant_weight() == lam

    def test_not_dominant(self):
        with pytest.raises(NotDominant):
            WeightVector((0, 1, 0)).to_dominant_weight()

    @pytest.mark.parametrize("count", [1.5, "2", True])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(LetterNotInteger):
            WeightVector((1, count, 0))

    def test_int_subclass_count_stored_as_int(self):
        class Count(IntEnum):
            TWO = 2

        mu = WeightVector((Count.TWO, 1, 0))
        assert mu == WeightVector((2, 1, 0))
        assert all(type(c) is int for c in mu.counts)

    def test_non_integer_coordinates_rejected(self):
        with pytest.raises(NotDominant):
            DominantWeight((1.5, True))

    def test_column_shape(self):
        assert DominantWeight((1, 1)).column_shape() == (1, 2)
        assert DominantWeight((0, 2)).column_shape() == (2, 2)
        assert DominantWeight((0, 0)).column_shape() == ()


class TestDominanceOrder:
    def test_below(self):
        lam = DominantWeight((1, 1)).to_weight_vector()
        assert dominance_leq(WeightVector((1, 1, 1)), lam)
        assert dominance_leq(lam, lam)

    def test_not_below(self):
        lam = DominantWeight((1, 1)).to_weight_vector()
        assert not dominance_leq(WeightVector((3, 0, 0)), lam)

    def test_incomparable_coset(self):
        # One box versus two boxes: never comparable in the root order.
        assert not dominance_leq(WeightVector((1, 0, 0)), WeightVector((1, 1, 0)))


class TestTextFormats:
    def test_gallery_round_trip(self):
        for text in ["", "1", "3|1,2|5|2", "1,2|1", "2|3|1"]:
            rank = 5 if "5" in text else 3
            assert format_gallery(parse_gallery(text, rank)) == text

    @pytest.mark.parametrize("rank", [*range(2, 13), 141])
    def test_format_gallery_matches_letterwise_formula(self, rank):
        # Ranks past 9 give multi-digit letters.
        rng = random.Random(rank)
        assert format_gallery(Gallery(rank, ())) == ""
        for _ in range(50):
            gallery = random_gallery(rng, rank, max_columns=12)
            assert format_gallery(gallery) == "|".join(
                ",".join(str(a) for a in col) for col in reversed(gallery.columns)
            )

    def test_column_text_cache_is_bounded(self):
        assert galleries._column_text.cache_info().maxsize == 4096

    def test_word_forms(self):
        assert parse_word("2 5 1 2 3", 5) == (2, 5, 1, 2, 3)
        assert parse_word("2,5,1,2,3", 5) == (2, 5, 1, 2, 3)
        assert parse_word("25123", 5) == (2, 5, 1, 2, 3)
        assert parse_word("", 5) == ()

    def test_word_rejects_non_ascii_digits(self):
        with pytest.raises(ParseError):
            parse_word("\u0661\u0662", 3)
        with pytest.raises(ParseError):
            parse_word("1 \u0662", 3)

    def test_compact_form_needs_small_rank(self):
        # With rank >= 10 a bare digit string is a single letter.
        assert parse_word("12", 12) == (12,)
        assert parse_word("12", 9) == (1, 2)

    def test_format_word(self):
        assert format_word((2, 5, 1, 2, 3)) == "2 5 1 2 3"


def _parse_outcome(parse, text, rank):
    try:
        return parse(text, rank)
    except GalleryError as exc:
        return type(exc), str(exc)


def _gallery_text(rng: random.Random, rank: int) -> str:
    """A display string drawn from a few columns, with whitespace and faults."""
    pool = []
    for _ in range(rng.randint(1, 4)):
        col = sorted(rng.sample(range(1, rank + 1), rng.randint(1, max(1, rank - 1))))
        fault = rng.random()
        if fault < 0.04:
            col = col + [rank]  # a full or non-increasing column
        elif fault < 0.08:
            col[rng.randrange(len(col))] = rng.choice((0, rank + 1))
        elif fault < 0.1:
            col.reverse()
        pool.append(col)
    chunks = []
    for _ in range(rng.randint(1, 40)):
        col = rng.choice(pool)
        pieces = [rng.choice(("", " ", "\t")) + str(a) + rng.choice(("", " ")) for a in col]
        chunks.append(",".join(pieces))
    if rng.random() < 0.1:
        chunks[rng.randrange(len(chunks))] = rng.choice(("", "x", "1,,2", " , ", "1 2"))
    return rng.choice(("", " ")) + "|".join(chunks) + rng.choice(("", "\n"))


class TestParseGalleryOracle:
    """`parse_gallery` checks each distinct column once; the column-by-column
    parser is the reference for its result and for which fault it reports."""

    def test_structured_texts(self):
        rng = random.Random(20240)
        for _ in range(6000):
            rank = rng.randint(2, 6)
            text = _gallery_text(rng, rank)
            for n in (rank, rank - 1):
                assert _parse_outcome(parse_gallery, text, n) == _parse_outcome(
                    columnwise_parse_gallery, text, n
                ), (text, n)

    def test_random_texts(self):
        rng = random.Random(977)
        # Tab, an em space and U+001C are whitespace to str.strip and to \s,
        # but int() rejects U+001C; U+0661 is a digit to int() but not to [0-9].
        alphabet = "0123456789,| x\t\u2003\x1c\u0661"
        for _ in range(20000):
            rank = rng.randint(2, 6)
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
            assert _parse_outcome(parse_gallery, text, rank) == _parse_outcome(
                columnwise_parse_gallery, text, rank
            ), (text, rank)

    def test_multiple_faults_report_the_reference_one(self):
        cases = [
            ("x|2,1|1,2,3", 3),  # malformed first in display order
            ("2,1|x", 3),  # malformed beats a column fault
            ("1,2,3|2,1", 3),  # Gallery's checks run in reading order
            ("2,1|1,2,3", 3),
            ("4|1|1,2,3|0", 3),
            ("1,2,3|1,2,3,4", 3),  # longer than rank before the rank - 1 rule
            ("1|1", 1),  # rank checked before parsing
            ("x", 1),
        ]
        for text, rank in cases:
            expected = _parse_outcome(columnwise_parse_gallery, text, rank)
            assert isinstance(expected, tuple)
            assert _parse_outcome(parse_gallery, text, rank) == expected, (text, rank)
