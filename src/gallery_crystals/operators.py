"""Root operators e_i, f_i on galleries via column tagging and cancellation.

Each column gets a tag for the index i: "+" if it contains i but not i+1,
"-" if it contains i+1 but not i, and no tag otherwise.  Reading the tags in
display order (left to right), adjacent "- +" pairs cancel repeatedly until
the survivors read (+)^s (-)^r.  Then f_i bumps i to i+1 in the column of the
rightmost surviving "+", e_i bumps i+1 to i in the column of the leftmost
surviving "-", and phi_i = s, epsilon_i = r.  An inapplicable operator
returns None.
"""

from __future__ import annotations

import enum

from .errors import BrokenColumn
from .galleries import Gallery, _check_index


class Tag(enum.Enum):
    PLUS = "+"
    MINUS = "-"
    NONE = "0"


def i_signature(gallery: Gallery, i: int) -> tuple[Tag, ...]:
    """Column tags for index i, in display (left-to-right) order."""
    _check_index(i, gallery.rank)
    tags = []
    for col in reversed(gallery.columns):
        has_low = i in col
        has_high = (i + 1) in col
        if has_low == has_high:
            tags.append(Tag.NONE)
        elif has_low:
            tags.append(Tag.PLUS)
        else:
            tags.append(Tag.MINUS)
    return tuple(tags)


def _survivors(gallery: Gallery, i: int) -> tuple[list[int], list[int]]:
    # Surviving plus/minus reading positions after cancellation, in one pass
    # in reading order (display right to left), where a display (- +) pair
    # reads (+ -): a plus is stacked and a later minus cancels the most recent
    # open one.  This is bracket matching, so the survivors do not depend on
    # the order in which adjacent pairs are removed; the tests check that
    # against a randomized reducer.  The survivors read (-)^r (+)^s.
    j = i + 1
    plus: list[int] = []
    minus: list[int] = []
    for pos, col in enumerate(gallery.columns):
        has_low = i in col
        if has_low != (j in col):
            if has_low:
                plus.append(pos)
            elif plus:
                plus.pop()
            else:
                minus.append(pos)
    return plus, minus


def _replace_entry(gallery: Gallery, reading_index: int, old: int, new: int) -> Gallery:
    col = gallery.columns[reading_index]
    new_col = tuple(new if a == old else a for a in col)
    # Unreachable: a tagged column holds exactly one of i and i+1, so one moves.
    if any(x >= y for x, y in zip(new_col, new_col[1:])):
        raise BrokenColumn(
            f"replacing {old} by {new} in column {col} broke strict increase"
        )
    columns = (
        gallery.columns[:reading_index] + (new_col,) + gallery.columns[reading_index + 1 :]
    )
    return Gallery._unsafe(gallery.rank, columns)


def f(gallery: Gallery, i: int) -> Gallery | None:
    """Lowering operator: bump i to i+1 in the rightmost surviving plus column."""
    _check_index(i, gallery.rank)
    plus, _ = _survivors(gallery, i)
    if not plus:
        return None
    return _replace_entry(gallery, plus[0], i, i + 1)


def e(gallery: Gallery, i: int) -> Gallery | None:
    """Raising operator: bump i+1 to i in the leftmost surviving minus column."""
    _check_index(i, gallery.rank)
    _, minus = _survivors(gallery, i)
    if not minus:
        return None
    return _replace_entry(gallery, minus[-1], i + 1, i)


def epsilon(gallery: Gallery, i: int) -> int:
    """Number of times e_i applies before vanishing."""
    _check_index(i, gallery.rank)
    _, minus = _survivors(gallery, i)
    return len(minus)


def phi(gallery: Gallery, i: int) -> int:
    """Number of times f_i applies before vanishing."""
    _check_index(i, gallery.rank)
    plus, _ = _survivors(gallery, i)
    return len(plus)
