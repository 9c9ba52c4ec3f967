"""Core gallery combinatorics for SL_n: columns, words, weights, paths.

A gallery is a sequence of strictly increasing columns over the alphabet
{1..n}.  Columns are stored in *reading order*, the order in which the word
and the lattice path traverse them; in the usual left-to-right display this
is right to left.  The display string ``"3|1,2|5|2"`` therefore denotes the
gallery with reading-order columns ``[2], [5], [1,2], [3]``.

Weights live in Z^n modulo the all-ones vector.  `WeightVector` keeps the
canonical representative with minimum coordinate 0; `path_vertices` returns
raw (non-canonical) partial sums in Z^n because affine wall levels depend on
the chosen lift, which is fixed here to start at the origin.  A gallery made
where its weight is known (a crystal walk, a tableau enumeration) holds it
from birth; `weight` tallies any other gallery once and keeps its weight.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain
from operator import attrgetter, ge

from .errors import (
    ColumnTooLong,
    IndexOutOfRange,
    InvalidRank,
    LetterNotInteger,
    LetterOutOfRange,
    NonIncreasingColumn,
    NotDominant,
    ParseError,
    RankMismatch,
    ShapeInvalid,
)

Word = tuple[int, ...]
Shape = tuple[int, ...]
LatticePoint = tuple[int, ...]


def _plain_ints(values, error=LetterNotInteger, what="letter") -> tuple[int, ...]:
    """The values as plain ints; anything but an int, or a bool, raises ``error``.

    Members of other int subclasses (an ``IntEnum``, say) become plain ints.
    """
    values = tuple(values)
    if any(type(a) is not int for a in values):
        for a in values:
            if not isinstance(a, int) or isinstance(a, bool):
                raise error(f"{what} {a!r} is not an int")
        values = tuple(int(a) for a in values)
    return values


def _check_rank(rank) -> None:
    if not isinstance(rank, int) or rank < 2:
        raise InvalidRank(f"rank must be an integer >= 2, got {rank!r}")


def _check_letters(letters, rank: int) -> None:
    for a in letters:
        if not 1 <= a <= rank:
            raise LetterOutOfRange(f"letter {a} not in 1..{rank}")


def _check_index(i, rank: int) -> int:
    """The index as a plain int, by the letter rule; one outside 1..rank-1 raises."""
    if type(i) is not int:
        (i,) = _plain_ints((i,), IndexOutOfRange, "simple root index")
    if not 1 <= i <= rank - 1:
        raise IndexOutOfRange(f"simple root index {i} not in 1..{rank - 1}")
    return i


_set = object.__setattr__


class _Value:
    """Immutable value: ``__init__`` checks its input, ``_unsafe`` trusts it, and
    `_freeze` sets the ``_fields`` and their hash, that of the field tuple,
    once.  ``_unsafe`` writes each slot through its descriptor's ``__set__``,
    bound once at import; ``__setattr__`` refuses every write.  Equal
    values have the same class and fields."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)

    def _freeze(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)
        _set(self, "_hash", hash(values))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__


class Gallery(_Value):
    """A proper gallery: strictly increasing columns of length at most
    ``rank - 1`` over 1..rank, in reading order.

    The first column, in reading order, that is empty, longer than ``rank``,
    has a letter out of range or does not strictly increase raises its own
    error; only when every column passes those checks does a full column
    (length ``rank``) raise `ColumnTooLong`.  Letters must be ints: the
    constructor rejects floats, strings and bools instead of converting
    them, and stores members of other int subclasses as plain ints.
    The ``_weight`` slot, once set, holds `weight`'s value; it is not a field.
    """

    __slots__ = ("rank", "columns", "_weight")
    _fields = ("rank", "columns")

    def __init__(self, rank: int, columns: tuple[tuple[int, ...], ...] = ()) -> None:
        _check_rank(rank)
        cols = tuple(tuple(col) for col in columns)
        if any(type(a) is not int for col in cols for a in col):
            cols = tuple(_plain_ints(col) for col in cols)
        for col in cols:
            if not col:
                raise ShapeInvalid("empty column in gallery")
            if len(col) > rank:
                raise ColumnTooLong(f"column {col} longer than rank {rank}")
            _check_letters(col, rank)
            if any(x >= y for x, y in zip(col, col[1:])):
                raise NonIncreasingColumn(f"column {col} is not strictly increasing")
        for col in cols:
            if len(col) == rank:
                raise ColumnTooLong(
                    f"column {col} has length {len(col)}; galleries allow at most {rank - 1}"
                )
        self._freeze(rank, cols)

    @classmethod
    def _unsafe(cls, rank: int, columns: tuple, mu=None, h=None) -> "Gallery":
        # Fast path from validated columns, with their weight and hash((rank, columns)) if known.
        obj = object.__new__(cls)
        _set_rank(obj, rank)
        _set_columns(obj, columns)
        _set_hash(obj, hash((rank, columns)) if h is None else h)
        if mu is not None:
            _set_weight(obj, mu)
        return obj

    @property
    def shape(self) -> Shape:
        """Column lengths in reading order."""
        return tuple(map(len, self.columns))

    def __str__(self) -> str:
        return format_gallery(self)


def word(gallery: Gallery) -> Word:
    """Concatenate the column entries, top to bottom, in reading order."""
    return tuple(chain.from_iterable(gallery.columns))


def gallery_from_word(letters, rank: int) -> Gallery:
    """The gallery of shape (1,...,1) whose word is the given letter sequence."""
    return Gallery(rank, tuple((a,) for a in letters))


def concat(outer: Gallery, inner: Gallery) -> Gallery:
    """Concatenation ``outer * inner``: ``inner`` is traversed first.

    In display terms the columns of ``inner`` sit to the right of those of
    ``outer``, so the reading-order column list is ``inner`` then ``outer``.
    """
    if outer.rank != inner.rank:
        raise RankMismatch(f"cannot concatenate ranks {outer.rank} and {inner.rank}")
    return Gallery._unsafe(outer.rank, inner.columns + outer.columns)


def weight(gallery: Gallery) -> "WeightVector":
    """Letter multiplicities of the gallery, as a canonical weight vector.

    Read from the gallery when set at its birth; otherwise tallied once and kept.
    """
    try:
        return gallery._weight
    except AttributeError:
        tallies = [0] * (gallery.rank + 1)
        for col in gallery.columns:
            for a in col:
                tallies[a] += 1
        mu = WeightVector._unsafe(tuple(tallies[1:]))
        _set_weight(gallery, mu)
        return mu


def _path(gallery: Gallery):
    # The path's vertices, the origin first, as one tally list updated in place.
    cur = [0] * gallery.rank
    yield cur
    for col in gallery.columns:
        for a in col:
            cur[a - 1] += 1
        yield cur


def _descending(counts) -> bool:
    """The dominance rule: weakly decreasing coordinates."""
    return all(map(ge, counts, counts[1:]))


def path_vertices(gallery: Gallery) -> tuple[LatticePoint, ...]:
    """Lattice points visited by the gallery's path, starting at the origin.

    The vertices are raw partial sums in Z^n, not canonicalized, because
    affine level computations depend on this specific lift.
    """
    return tuple(map(tuple, _path(gallery)))


def is_dominant(gallery: Gallery) -> bool:
    """Whether the path stays in the dominant chamber.

    Checked on path vertices only: each vertex must have weakly decreasing
    coordinates.  Segment containment follows because the chamber is convex.
    """
    return all(map(_descending, _path(gallery)))


def _shift_to_zero(counts: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical representative modulo the all-ones vector: minimum 0."""
    low = min(counts)
    return tuple([c - low for c in counts]) if low else counts


class WeightVector(_Value):
    """Element of Z^n modulo the all-ones vector, stored with min coordinate 0."""

    __slots__ = _fields = ("counts",)

    def __init__(self, counts: tuple[int, ...]) -> None:
        counts = _plain_ints(counts, what="letter count")
        _check_rank(len(counts))
        self._freeze(_shift_to_zero(counts))

    @classmethod
    def _unsafe(cls, counts: tuple[int, ...]) -> "WeightVector":
        # Fast path for internal construction from a tuple of at least two ints.
        obj = object.__new__(cls)
        counts = _shift_to_zero(counts)
        _set_counts(obj, counts)
        _set_hash(obj, hash((counts,)))
        return obj

    @property
    def rank(self) -> int:
        return len(self.counts)

    def pairing(self, i: int) -> int:
        """Pairing with the i-th simple (co)root: counts[i] - counts[i+1]."""
        _check_index(i, self.rank)
        return self.counts[i - 1] - self.counts[i]

    def is_dominant(self) -> bool:
        return _descending(self.counts)

    def to_dominant_weight(self) -> "DominantWeight":
        if not self.is_dominant():
            raise NotDominant(f"counts {self.counts} are not weakly decreasing")
        coeffs = tuple(self.counts[k] - self.counts[k + 1] for k in range(self.rank - 1))
        return DominantWeight(coeffs)


# Slot writers: a slot descriptor's ``__set__`` stores without the lookup by
# name of ``object.__setattr__`` and, as that does, bypasses ``__setattr__``.
_set_hash, _set_counts = _Value._hash.__set__, WeightVector.counts.__set__
_set_rank, _set_columns = Gallery.rank.__set__, Gallery.columns.__set__
_set_weight = Gallery._weight.__set__


class _Table(dict):
    """Key -> ``make(key)``, made on first lookup and kept."""

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class DominantWeight(_Value):
    """Dominant weight in fundamental coordinates (m_1, ..., m_{n-1})."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        coeffs = _plain_ints(coeffs, NotDominant, "fundamental coordinate")
        _check_rank(len(coeffs) + 1)
        if any(m < 0 for m in coeffs):
            raise NotDominant(f"fundamental coordinates {coeffs} must be nonnegative")
        self._freeze(coeffs)

    @property
    def rank(self) -> int:
        return len(self.coeffs) + 1

    def to_weight_vector(self) -> WeightVector:
        """Counts (c_1, ..., c_n) with c_k the sum of m_i over i >= k (c_n = 0)."""
        counts = []
        tail = 0
        for m in reversed(self.coeffs):
            tail += m
            counts.append(tail)
        counts.reverse()
        counts.append(0)
        return WeightVector(tuple(counts))

    def column_shape(self) -> Shape:
        """Reading-order shape with m_i columns of length i, weakly increasing."""
        shape: list[int] = []
        for i, m in enumerate(self.coeffs, start=1):
            shape.extend([i] * m)
        return tuple(shape)

    def __str__(self) -> str:
        return _commas(self.coeffs)


def validate_shape(shape, rank: int) -> Shape:
    """Check a reading-order shape: every entry an int in 1..rank-1, rank >= 2."""
    _check_rank(rank)
    out = _plain_ints(shape, ShapeInvalid, "column length")
    for d in out:
        if not 1 <= d <= rank - 1:
            raise ShapeInvalid(f"column length {d} not in 1..{rank - 1}")
    return out


# -- text formats -----------------------------------------------------------
#
# Gallery: display (left-to-right) columns separated by "|", entries within a
# column separated by ",".  The empty gallery is the empty string.
# Word: letters separated by spaces or commas; a bare digit string such as
# "25123" is accepted only when the rank is at most 9.  Letters are ASCII
# digits only: ``\d`` would also match other scripts' digits, which int()
# reads.

_TOKEN = re.compile(r"^[0-9]+$")
_COLUMN = re.compile(r"\s*[0-9]+\s*(?:,\s*[0-9]+\s*)*")


def _commas(values) -> str:
    return ",".join(map(str, values))


_column_text = lru_cache(maxsize=4096)(_commas)


def format_gallery(gallery: Gallery) -> str:
    return "|".join(map(_column_text, reversed(gallery.columns)))


def _ints(tokens, what: str) -> tuple[int, ...]:
    try:  # int() reads at most 4,300 digits by default
        return tuple(map(int, tokens))
    except ValueError:
        raise ParseError(f"{what} has an integer of too many digits") from None


def parse_gallery(text: str, rank: int) -> Gallery:
    """The proper gallery that the display string denotes.

    Long galleries repeat a few distinct columns many times, so each distinct
    column string is parsed and checked once.  A malformed column raises
    `ParseError` for the first one in display order; the first faulty
    column in reading order is the first occurrence of a faulty distinct
    column, so `Gallery` reports the same fault as for them all.
    """
    _check_rank(rank)
    text = text.strip()
    if not text:
        return Gallery(rank, ())
    chunks = text.split("|")
    parsed = {}
    for chunk in dict.fromkeys(chunks):
        if not _COLUMN.fullmatch(chunk):
            raise ParseError(f"malformed column {chunk!r}")
        # int() alone rejects U+001C..U+001F, which \s and str.strip accept.
        parsed[chunk] = _ints(map(str.strip, chunk.split(",")), "column")
    columns = tuple(map(parsed.__getitem__, reversed(chunks)))
    Gallery(rank, tuple(dict.fromkeys(columns)))
    return Gallery._unsafe(rank, columns)


def format_word(letters) -> str:
    return " ".join(map(str, letters))


def parse_word(text: str, rank: int) -> Word:
    _check_rank(rank)
    text = text.strip()
    if not text:
        return ()
    tokens = [tok for tok in re.split(r"[,\s]+", text) if tok]
    if any(not _TOKEN.match(tok) for tok in tokens):
        raise ParseError(f"malformed word {text!r}")
    if len(tokens) == 1 and len(tokens[0]) > 1 and rank <= 9:
        letters = tuple(int(ch) for ch in tokens[0])
    else:
        letters = _ints(tokens, "word")
    _check_letters(letters, rank)
    return letters
