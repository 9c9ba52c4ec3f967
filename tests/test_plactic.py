"""Plactic normalization: SSYT predicate, insertion, oracle classes."""

import random
import re
from bisect import bisect_right

import pytest

from gallery_crystals import (
    Gallery,
    InvalidRank,
    LetterNotInteger,
    LetterOutOfRange,
    RankMismatch,
    equivalent,
    f,
    format_gallery,
    gallery_from_word,
    is_ssyt,
    normal_form,
    parse_word,
    plactic,
    rsk_insert,
    word,
)
from _support import G, gallery_universe, oracle_plactic_classes, transposing_insert


class TestIsSsyt:
    def test_paper_tableau(self):
        # rows (1,2,2) and (4): display "1,4|2|2"
        assert is_ssyt(G("1,4|2|2", 5))

    def test_nu(self):
        assert is_ssyt(G("1,2|1", 3))

    def test_shape_order_violated(self):
        assert not is_ssyt(G("1|1,2", 3))

    def test_row_violation(self):
        # shape fine, rows not weakly increasing
        assert not is_ssyt(G("2|1", 3))

    def test_empty(self):
        assert is_ssyt(Gallery(3))


class TestRskInsert:
    def test_bumping(self):
        assert format_gallery(rsk_insert((1, 2, 1), 3)) == "1,2|1"

    def test_single_letter(self):
        assert format_gallery(rsk_insert((1,), 3)) == "1"

    def test_decreasing_word_gives_single_row(self):
        # letters are taken last to first, so 3,2,1 inserts as 1, 2, 3
        assert format_gallery(rsk_insert((3, 2, 1), 3)) == "1|2|3"

    def test_increasing_word_gives_full_column(self):
        # 1..k inserts as one column; at k == n that column is full and dropped
        assert rsk_insert((1, 2, 3), 4).columns == ((1, 2, 3),)
        assert rsk_insert((1, 2, 3), 3) == Gallery(3)

    def test_non_integer_letters_rejected(self):
        with pytest.raises(LetterNotInteger):
            rsk_insert(("2", 1.9), 3)

    def test_non_integer_rank_rejected(self):
        with pytest.raises(InvalidRank):
            rsk_insert((1, 2), 2.5)

    @pytest.mark.parametrize(
        "letters", [(0, 1, 2), (1, 2, 4), (4,), (1, 2, 3, 4), (0, 1, 2, 3)]
    )
    def test_letters_out_of_range_rejected(self, letters):
        # Letters are checked before insertion.  Inserted, (1, 2, 3, 4) and
        # (0, 1, 2, 3) would make a column longer than the rank.  A gallery
        # of one-letter columns and a parsed word name the same letter.
        bad = next(a for a in letters if not 1 <= a <= 3)
        message = f"^{re.escape(f'letter {bad} not in 1..3')}$"
        with pytest.raises(LetterOutOfRange, match=message):
            rsk_insert(letters, 3)
        with pytest.raises(LetterOutOfRange, match=message):
            Gallery(3, tuple((a,) for a in letters))
        with pytest.raises(LetterOutOfRange, match=message):
            parse_word(" ".join(map(str, letters)), 3)

    def test_word_is_plactic_stable(self):
        # reinserting the word of an insertion tableau reproduces it
        for letters in [(1, 2, 1), (2, 2, 1, 3), (3, 1, 2, 1, 2)]:
            tableau = rsk_insert(letters, 3)
            assert rsk_insert(word(tableau), 3) == tableau


class TestStripFullColumns:
    """Insertion strips the full columns 1..n of its tableau, and only those."""

    def test_full_column(self):
        assert rsk_insert((1, 2, 3), 3) == Gallery(3)
        assert rsk_insert((1, 2, 3, 1, 2, 3), 3) == Gallery(3)

    def test_no_full_column(self):
        assert rsk_insert(word(G("1,2|1", 3)), 3) == G("1,2|1", 3)

    def test_mixed(self):
        # The word of the reading-order columns (1, 2), (1, 2, 3).
        assert rsk_insert((1, 2, 1, 2, 3), 3) == Gallery(3, ((1, 2),))
        assert format_gallery(normal_form(gallery_from_word((1, 2, 1, 2, 3), 3))) == "1,2"


class TestNormalForm:
    def test_fixed_point(self):
        nu = G("1,2|1", 3)
        assert normal_form(nu) == nu

    def test_word_gallery(self):
        assert format_gallery(normal_form(G("1|2|1", 3))) == "1,2|1"

    def test_longer_word_gallery(self):
        assert format_gallery(normal_form(G("1|2|1|3|2|1", 3))) == "1,2|1"

    def test_staircase_word_collapses(self):
        assert normal_form(gallery_from_word((1, 2, 3), 3)) == Gallery(3)

    def test_idempotent(self):
        for g in gallery_universe(3, 4):
            once = normal_form(g)
            assert normal_form(once) == once

    def test_columns_bounded(self):
        for g in gallery_universe(4, 4):
            assert all(len(col) <= 3 for col in normal_form(g).columns)
            assert is_ssyt(normal_form(g))


def seeded_galleries(seed: int, count: int):
    """Random galleries of ranks 2-7 with 0-60 columns; some read a full column
    1..n in one-letter columns, so their insertion has full columns to drop."""
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(2, 7)
        columns = []
        for _ in range(rng.randint(0, 60)):
            if rng.random() < 0.1:
                columns += [(a,) for a in range(1, rank + 1)]
            else:
                columns.append(tuple(sorted(rng.sample(range(1, rank + 1), rng.randint(1, rank - 1)))))
        yield Gallery(rank, tuple(columns[:60]))


def test_trusted_insertion_matches_checked_insertion():
    dropped = 0
    for g in seeded_galleries(seed=1107, count=400):
        nf = normal_form(g)
        checked = Gallery(g.rank, nf.columns)
        assert nf == rsk_insert(word(g), g.rank)
        assert checked == nf and hash(checked) == hash(nf)
        dropped += len(word(nf)) < len(word(g))
    assert dropped > 100


class TestMatchesTransposingInsert:
    """`normal_form` and `rsk_insert` give the reference insertion's columns,
    which it transposes one band of equal-length rows at a time."""

    @staticmethod
    def check(galleries):
        count = 0
        for g in galleries:
            expected = transposing_insert(word(g), g.rank).columns
            assert normal_form(g).columns == expected
            assert rsk_insert(word(g), g.rank).columns == expected
            count += 1
        return count

    @pytest.mark.parametrize("rank, boxes", [(2, 8), (3, 5), (4, 5)])
    def test_gallery_universe(self, rank, boxes):
        assert self.check(gallery_universe(rank, boxes)) > 100

    def test_full_columns_interleaved(self):
        assert self.check(seeded_galleries(seed=2011, count=400)) == 400

    def test_long_galleries(self):
        # Ranks 3-6 with 10-400 columns of random lengths.
        rng = random.Random(2012)
        galleries = []
        for _ in range(300):
            rank = rng.randint(3, 6)
            galleries.append(Gallery(rank, tuple(
                tuple(sorted(rng.sample(range(1, rank + 1), rng.randint(1, rank - 1))))
                for _ in range(rng.randint(10, 400))
            )))
        assert self.check(galleries) == 300


@pytest.mark.parametrize(
    "gallery", [Gallery(3, ((1,),) * 3000), Gallery(4, ((1, 2),) * 3000)], ids=["1s", "12s"]
)
def test_insertion_searches_at_most_rank_rows_per_letter(monkeypatch, gallery):
    # Row insertion visits at most rank rows per letter, so long words cost
    # linear work; inserting into the columns as they grow would not.
    calls = 0

    def counting_bisect_right(row, x):
        nonlocal calls
        calls += 1
        return bisect_right(row, x)

    monkeypatch.setattr(plactic, "bisect_right", counting_bisect_right)
    letters = len(word(gallery))
    normal_form(gallery)
    # Every letter but the first searches at least the first row.
    assert letters - 1 <= calls <= gallery.rank * letters


class TestEquivalent:
    def test_equal_words(self):
        assert equivalent(G("3|1,2|5|2", 5), G("3|2|1|5|2", 5))

    def test_nu_and_word(self):
        assert equivalent(G("1,2|1", 3), G("1|2|1", 3))

    def test_different_weights(self):
        assert not equivalent(G("1", 3), G("2", 3))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            equivalent(G("1", 3), G("1", 4))


class TestOracleClasses:
    def test_knuth_move(self):
        classes = oracle_plactic_classes(3, 3)
        by_word = {w: k for k, cls in enumerate(classes) for w in cls}
        assert by_word[(1, 1, 2)] == by_word[(1, 2, 1)]

    def test_staircase_collapses(self):
        classes = oracle_plactic_classes(3, 3)
        by_word = {w: k for k, cls in enumerate(classes) for w in cls}
        assert by_word[(1, 2, 3)] == by_word[()]

    def test_21_alone_among_length_two(self):
        classes = oracle_plactic_classes(2, 3)
        cls = next(c for c in classes if (2, 1) in c)
        assert [w for w in cls if len(w) <= 2] == [(2, 1)]

    def test_classes_partition(self):
        classes = oracle_plactic_classes(3, 2)
        words = [w for cls in classes for w in cls]
        assert len(words) == len(set(words)) == 1 + 2 + 4 + 8

    def test_agreement_with_normal_form_small(self):
        classes = oracle_plactic_classes(4, 3)
        for cls in classes:
            forms = {normal_form(gallery_from_word(w, 3)) for w in cls}
            assert len(forms) == 1
        representatives = [normal_form(gallery_from_word(cls[0], 3)) for cls in classes]
        assert len(representatives) == len(set(representatives))


class TestCrystalCompatibility:
    def test_operators_descend_to_classes(self):
        # equivalent galleries have f defined simultaneously, with equivalent images
        pairs = [
            (G("1,2|1", 3), G("1|2|1", 3)),
            (G("1|2|1", 3), G("1|2|1|3|2|1", 3)),
            (gallery_from_word((1, 1, 2), 3), G("1,2|1", 3)),
        ]
        for a, b in pairs:
            assert equivalent(a, b)
            for i in (1, 2):
                fa, fb = f(a, i), f(b, i)
                assert (fa is None) == (fb is None)
                if fa is not None:
                    assert equivalent(fa, fb)

    def test_concat_congruence(self):
        from gallery_crystals import concat

        lhs = [(G("1,2|1", 3), G("1|2|1", 3))]
        rhs = [(G("2|3|1", 3), gallery_from_word(word(G("2|3|1", 3)), 3))]
        for a, a2 in lhs:
            for b, b2 in rhs:
                assert equivalent(concat(b, a), concat(b2, a2))
