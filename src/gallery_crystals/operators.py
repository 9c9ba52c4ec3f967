"""Root operators e_i, f_i on galleries via column tagging and cancellation.

Each column gets a tag for the index i: "+" if it contains i but not i+1,
"-" if it contains i+1 but not i, and "0" otherwise.  Reading the tags in
display order (left to right), adjacent "- +" pairs cancel repeatedly until
the survivors read (+)^s (-)^r.  Then f_i bumps i to i+1 in the column of the
rightmost surviving "+", e_i bumps i+1 to i in the column of the leftmost
surviving "-", and phi_i = s, epsilon_i = r.  An inapplicable operator
returns None.

One scan fixes a whole i-string: f_i^k bumps the first k surviving pluses in
reading order, and e_i^k the last k surviving minuses.
For f_i (e_i is the mirror image), the first surviving "+" was pushed on an
empty stack and never popped; bumped to a "-", it meets that empty stack and
survives, every later column is matched as before, and so the next "+" is first.
So `_move` (one scan, one column copy) serves `e`, `f`, ``apply --times`` and
`fiber`'s replay of the jumps by which `_raise_to_source` climbs whole strings,
and `_string`, bumping down only, yields the columns of each string of the
crystal walk from its top; all three bump each column once, through a
`_bumps` table.
"""

from __future__ import annotations

from .galleries import Gallery, _check_index, _Table


def i_signature(gallery: Gallery, i: int) -> str:
    """Column tags for index i, in display (left-to-right) order: "+", "-" or "0"."""
    _check_index(i, gallery.rank)
    return "".join(
        "0" if (i in col) == (i + 1 in col) else "+" if i in col else "-"
        for col in reversed(gallery.columns)
    )


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


def _bump(col: tuple[int, ...], old: int, new: int) -> tuple[int, ...]:
    # A tagged column holds exactly one of i and i+1, so the bumped one still increases.
    k = col.index(old)
    return col[:k] + (new,) + col[k + 1 :]


def _bumps(old: int, new: int, made: dict) -> _Table:
    """Column -> the column with ``old`` bumped to ``new``; ``made`` keeps one object a value."""
    return _Table(lambda col: made.setdefault(b := _bump(col, old, new), b))


def _jump(gallery: Gallery, positions, bumps: _Table) -> Gallery:
    columns = list(gallery.columns)
    for pos in positions:
        columns[pos] = bumps[columns[pos]]
    return Gallery._unsafe(gallery.rank, tuple(columns))


def _move(gallery: Gallery, i: int, k: int) -> Gallery | None:
    """f_i^k for k >= 0, e_i^-k for k < 0, from one scan; None past the string's
    end.  The index is checked even for k = 0."""
    i = _check_index(i, gallery.rank)
    plus, minus = _survivors(gallery, i)
    if not -len(minus) <= k <= len(plus):
        return None
    if k >= 0:
        return _jump(gallery, plus[:k], _bumps(i, i + 1, {}))
    return _jump(gallery, minus[k:], _bumps(i + 1, i, {}))


def _raise_to_source(gallery: Gallery) -> tuple[Gallery, list[tuple[int, int]]]:
    """The source of the gallery's component and the jumps (i, epsilon_i) to
    it, smallest index first, one scan per index tried: a jump on i moves only
    letters i and i+1, so i-1 is the one smaller index that can apply again.
    The source does not depend on the order; a randomized property test checks it."""
    jumps, i, made = [], 1, {}
    while i < gallery.rank:
        _, minus = _survivors(gallery, i)
        if minus:
            gallery = _jump(gallery, minus, _bumps(i + 1, i, made))
            jumps.append((i, len(minus)))
        i = max(i - 1, 1) if minus else i + 1
    return gallery, jumps


def f(gallery: Gallery, i: int) -> Gallery | None:
    """Lowering operator: bump i to i+1 in the rightmost surviving plus column."""
    return _move(gallery, i, 1)


def e(gallery: Gallery, i: int) -> Gallery | None:
    """Raising operator: bump i+1 to i in the leftmost surviving minus column."""
    return _move(gallery, i, -1)


def _string(top: Gallery, plus, down: _Table):
    """Yield the columns of the i-string's members below its top (no minus
    survives), top to bottom, from the top's plus survivors; no gallery is
    made.  One at a time, so that the caller hashes each while it is in cache."""
    columns = list(top.columns)
    for pos in plus:
        columns[pos] = down[columns[pos]]
        yield tuple(columns)


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
