"""Combinatorial MV cycle labels and the gallery-to-label map.

An MV cycle is identified here purely by its label: a dominant weight lambda
together with a semistandard Young tableau of shape underline(lambda).  The
map sends a gallery to the label of its plactic normal form; its fiber over
a label, within a fixed shape, is the plactic class of the label's tableau
intersected with that shape.

Word reading, and so `normal_form`, maps each component of a shape crystal
isomorphically onto B(lambda), lambda the weight of its dominant gallery.  So
`fiber` takes each dominant gallery of weight lambda by f-moves to one fiber
member, and `verify_surjectivity` normalises one component per lambda; their
brute-force versions over the whole shape are test oracles.
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter

from .errors import InvalidLabel, RankMismatch
from .galleries import (
    DominantWeight,
    Gallery,
    Shape,
    _set,
    _Value,
    validate_shape,
    weight,
)
from .graphs import (
    _dominant_galleries,
    _walk,
    decompose,
    enumerate_ssyt,
    weyl_dimension,
)
from .operators import _move, _raise_to_source
from .plactic import is_ssyt, normal_form


class MVLabel(_Value):
    """Label (lambda, tableau); mu is the tableau's weight."""

    __slots__ = ("lam", "tableau", "mu")
    _fields = ("lam", "tableau")

    def __init__(self, lam: DominantWeight, tableau: Gallery) -> None:
        if lam.rank != tableau.rank:
            raise InvalidLabel("weight and tableau ranks differ")
        if not is_ssyt(tableau):
            raise InvalidLabel(f"{tableau} is not a semistandard Young tableau")
        # An SSYT's column lengths increase, so the count of each length fixes
        # its shape: compared with m_1, m_2, ..., without listing underline(lambda).
        if tuple(map(tableau.shape.count, range(1, lam.rank))) != lam.coeffs:
            raise InvalidLabel(f"tableau shape {tableau.shape} is not underline(lambda) "
                               f"for lambda = {lam}")
        _set(self, "mu", weight(tableau))
        self._freeze(lam, tableau)


def mv_label(gallery: Gallery) -> MVLabel:
    """The label of the gallery: lambda from the normal form's shape."""
    tableau = normal_form(gallery)
    coeffs = tuple(map(tableau.shape.count, range(1, gallery.rank)))
    return MVLabel(lam=DominantWeight(coeffs), tableau=tableau)


def fiber(label: MVLabel, shape: Shape, rank: int | None = None) -> tuple[Gallery, ...]:
    """All galleries of the shape whose normal form is the label's tableau.

    Each component whose top, a dominant gallery, has lambda's weight holds
    one fiber member: the jumps e_i^k raising the tableau to the top of
    B(lambda), replayed in reverse as moves f_i^k, take the top to it.  With no
    such top the fiber is empty and the tableau is not raised; otherwise it
    has at most the shape's boxes.  Sorted by columns, since f-moves keep the
    shape.  A ``rank`` other than the tableau's raises `RankMismatch`.
    """
    n = label.tableau.rank if rank is None else rank
    if n != label.tableau.rank:
        raise RankMismatch(f"label rank {label.tableau.rank} and rank {n} differ")
    shape = validate_shape(shape, n)
    # The tops' letter tallies: lambda's counts, lifted to the shape's boxes.
    counts = label.lam.to_weight_vector().counts
    lift, rest = divmod(sum(shape) - sum(counts), n)
    cap = [c + lift for c in counts]
    tops = [] if rest or lift < 0 else list(_dominant_galleries(shape, n, cap))
    if not tops:
        return ()
    _, jumps = _raise_to_source(label.tableau)
    for i, k in reversed(jumps):
        tops = [_move(top, i, k) for top in tops]
    return tuple(sorted(tops, key=attrgetter("columns")))


def image_weights(shape: Shape, rank: int) -> dict[DominantWeight, int]:
    """The dominant weights hit by the shape, with component multiplicities."""
    decomposition = decompose(shape, rank)
    return {entry.lam: entry.multiplicity for entry in decomposition.entries}


SurjectivityReport = namedtuple("SurjectivityReport", "ok shape rank labels_checked misses")


def verify_surjectivity(shape: Shape, rank: int) -> SurjectivityReport:
    """Check that every tableau of every weight in the image is hit.

    For each lambda in the image of the shape, the walk from its first
    dominant gallery (a source) is normalised.  Its distinct normal forms
    of shape underline(lambda) are tableaux of that shape, of which there
    are `weyl_dimension` (lambda), so it covers B(lambda) exactly when it
    has that many.  Only a shortfall enumerates the tableaux, to name the
    misses.  ``labels_checked`` is the sum of the dimensions.
    """
    shape = validate_shape(shape, rank)
    misses: list[tuple[DominantWeight, Gallery]] = []
    checked = 0
    for entry in decompose(shape, rank).entries:
        order, _, _ = _walk(entry.representatives[0])
        underline = entry.lam.column_shape()
        hit = {t for t in map(normal_form, order) if t.shape == underline}
        dimension = weyl_dimension(entry.lam)
        checked += dimension
        if len(hit) < dimension:
            misses += [(entry.lam, t) for t in enumerate_ssyt(underline, rank) if t not in hit]
    return SurjectivityReport(
        ok=not misses,
        shape=shape,
        rank=rank,
        labels_checked=checked,
        misses=tuple(misses),
    )
