"""Plactic monoid for SL_n and normalization to semistandard Young tableaux.

Words over {1..n} are considered modulo the Knuth relations, in the form
matching the right-to-left column reading convention used here:

    a.  y x z = y z x   for x <= y < z,
    b.  z x y = x z y   for x < y <= z,

together with the column relation

    c.  1 2 ... n = (empty word).

Every gallery is equivalent to a unique semistandard Young tableau with
columns of length at most n-1: Schensted row insertion of the word
(letters taken last to first, matching the column reading convention),
with the full columns of its tableau dropped.  A full column is 1..n, which
by relation c is the empty word, and it sits leftmost because column
lengths weakly decrease left to right; dropping it leaves a semistandard
tableau, whose reading word inserts back to itself.  With letters in 1..n,
the full columns are exactly those of height n.  One public path,
`rsk_insert`, checks its letters and rank before inserting.  The trusted
internal path, `_insert`, takes ints in 1..n; `normal_form` gives it the
word of a proper gallery, and the `oracle-classes` subcommand each word it
groups.  The test suite certifies the normal form against a brute-force
rewriting oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import zip_longest

from .errors import RankMismatch
from .galleries import Gallery, Word, _check_letters, _check_rank, _plain_ints, word


def is_ssyt(gallery: Gallery) -> bool:
    """Semistandard Young tableau test.

    Column lengths must be weakly increasing in reading order (so the display
    is a top-aligned Young diagram, longest column leftmost) and every row
    must be weakly increasing from left to right in display order.
    """
    lengths = gallery.shape
    if any(a > b for a, b in zip(lengths, lengths[1:])):
        return False
    display = tuple(reversed(gallery.columns))
    for left, right in zip(display, display[1:]):
        if any(left[t] > right[t] for t in range(len(right))):
            return False
    return True


def _insert(letters: Word, rank: int) -> Gallery:
    # Schensted insertion, last to first, of letters in 1..rank.  One
    # zip_longest transposes the rows; a column's 0 padding is cut off, and
    # with rank rows the first len(rows[-1]) columns are the full ones, 1..rank.
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
    display = [c if c[-1] else c[: c.index(0)] for c in zip_longest(*rows, fillvalue=0)]
    if len(rows) == rank:
        del display[: len(rows[-1])]
    display.reverse()
    return Gallery._unsafe(rank, tuple(display))


def rsk_insert(letters, rank: int) -> Gallery:
    """Schensted row insertion of the letters, taken last to first, with the
    full columns 1..n of the insertion tableau dropped.

    Every letter is checked before any is inserted: the first one outside
    1..n, such as the 0 of ``(0, 1, 2)`` or the 4 of ``(1, 2, 3, 4)`` at
    rank 3, raises `LetterOutOfRange`.  A letter that is not an int, or is a
    bool, raises `LetterNotInteger`.
    """
    letters = _plain_ints(letters)
    _check_rank(rank)
    _check_letters(letters, rank)
    return _insert(letters, rank)


def normal_form(gallery: Gallery) -> Gallery:
    """The unique equivalent semistandard Young tableau with columns <= n-1.

    One insertion suffices: the full columns of the insertion tableau are
    its leftmost columns, so dropping them leaves a semistandard tableau,
    and reinserting that tableau's word would give it back unchanged.  Equal
    in value to ``rsk_insert(word(gallery), gallery.rank)``, unchecked.
    """
    return _insert(word(gallery), gallery.rank)


def equivalent(gallery: Gallery, other: Gallery) -> bool:
    """Whether the two galleries lie in the same plactic class."""
    if gallery.rank != other.rank:
        raise RankMismatch(f"ranks {gallery.rank} and {other.rank} differ")
    return normal_form(gallery) == normal_form(other)
