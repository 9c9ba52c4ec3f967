"""Affine root bookkeeping along gallery paths: crossing sets and wall checks.

An affine root is a positive root epsilon_a - epsilon_b (a < b) together
with an integer level m; its pairing with a lattice point x is x_a - x_b.
For each segment of a gallery's path the crossing set collects the affine
roots whose wall contains the segment's start while the segment moves
strictly to the positive side:

    S_i = { (alpha, m) : (alpha, gamma_i) = m and (alpha, gamma_{i+1}) > m }.

All levels are computed on the raw partial-sum lift starting at the origin.
`splice_checks` answers two wall conditions on eta = gamma * staircase * delta,
the word 1,2,...,n spliced between two galleries: its n staircase segments have
pairwise disjoint crossing sets, and every root crossed there sits at a
level at least its pairing with the splice's start x.  Both follow from the
structure, so the checks never build eta.  Eta reads delta first, so x is
the end of delta's path, and segment j starts at x + e_1 + ... + e_(j-1)
and adds e_j: it crosses exactly the roots (j, b) with b > j, at level
x_j - x_b, since the earlier steps moved only coordinates below j.  The
sets have distinct first indices, so they are disjoint, and each level is
the root's pairing with x.  They list C(n, 2) roots in all, and any lift of
x gives the same ones, since levels are differences.  One staircase answers
both checks, and each keeps its first failure.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from math import comb

from .errors import RankMismatch
from .galleries import Gallery, _check_rank, _path, _Table, weight


class AffineRoot(namedtuple("AffineRoot", "a b level")):
    """Positive root epsilon_a - epsilon_b with an integer wall level; roots
    sort by (a, b, level)."""

    __slots__ = ()

    def root_pairing(self, point: tuple[int, ...]) -> int:
        return point[self.a - 1] - point[self.b - 1]


# Makes each root from (a, b, level) without AffineRoot's Python-level __new__.
_new = tuple.__new__


def _pairs(col, n: int) -> tuple[tuple[int, int], ...]:
    # The one crossing rule: the segment that adds ``col`` crosses (a, b) for a
    # in the column and b > a not in it, at level cur_a - cur_b from its start cur.
    return tuple((a, b) for a in col for b in range(a + 1, n + 1) if b not in col)


def _crossing_roots(gallery: Gallery) -> int:
    # How many roots `crossing_sets` lists, without listing them: by the rule of
    # `_pairs`, n - a per letter a of a column, less C(|col|, 2).
    n = gallery.rank
    return sum(k * (sum(n - a for a in col) - comb(len(col), 2))
               for col, k in Counter(gallery.columns).items())


def _roots(cur, pairs) -> tuple[AffineRoot, ...]:
    return tuple([_new(AffineRoot, (a, b, cur[a - 1] - cur[b - 1])) for a, b in pairs])


def crossing_sets(gallery: Gallery) -> tuple[tuple[AffineRoot, ...], ...]:
    """Per-segment crossing sets along the gallery's path, in (a, b) order.

    A segment adds one to each coordinate in its column, so the pairing
    with epsilon_a - epsilon_b (a < b) rises exactly when a is in the
    column and b is not; the level is the pairing at the segment's start.
    Each distinct column's pairs are listed once per call.
    """
    n = gallery.rank
    pairs = _Table(lambda col: _pairs(col, n))
    return tuple(_roots(cur, pairs[col]) for cur, col in zip(_path(gallery), gallery.columns))


def _staircase(gamma: Gallery, delta: Gallery) -> tuple:
    """(k, x, segments): the splice's reading position len(delta), a lift x of
    its start, and the crossing sets of eta's segments k, ..., k + n - 1 by
    the rule of `crossing_sets`.  Each is read off x itself: segment j reads
    only coordinates j and above, which the steps before it have not moved."""
    if gamma.rank != delta.rank:
        raise RankMismatch(f"ranks {gamma.rank} and {delta.rank} differ")
    n, x = delta.rank, weight(delta).counts
    return len(delta.columns), x, tuple(_roots(x, _pairs((j,), n)) for j in range(1, n + 1))


class WallCheck(namedtuple("WallCheck", "ok witness", defaults=(None,))):
    """Outcome of a splice wall condition, with a witness on failure."""

    __slots__ = ()


def splice_checks(gamma: Gallery, delta: Gallery) -> tuple[WallCheck, WallCheck]:
    """(disjoint, stabilizer) on eta's n spliced segments.  disjoint: their
    crossing sets are pairwise disjoint; the witness on failure is (segment_i,
    segment_j, root) in eta's absolute segment indices.  stabilizer: every root
    crossed there has level at least its pairing with the splice's start, the
    membership condition for the start's stabilizer group; the witness on
    failure is (segment, root)."""
    k, start, segments = _staircase(gamma, delta)
    disjoint = stabilizer = WallCheck(ok=True)
    seen: dict[AffineRoot, int] = {}
    for segment, roots in enumerate(segments, k):
        for root in roots:
            if disjoint.ok and root in seen:
                disjoint = WallCheck(ok=False, witness=(seen[root], segment, root))
            seen.setdefault(root, segment)
            if stabilizer.ok and root.root_pairing(start) > root.level:
                stabilizer = WallCheck(ok=False, witness=(segment, root))
    return disjoint, stabilizer


def random_gallery(rng: random.Random, rank: int, max_columns: int = 4) -> Gallery:
    """A uniform-ish random proper gallery for seeded property checks."""
    _check_rank(rank)
    draws = (rng.sample(range(1, rank + 1), rng.randint(1, rank - 1))
             for _ in range(rng.randint(0, max_columns)))
    # Sorted samples of 1..rank, each shorter than rank: proper as drawn.
    return Gallery._unsafe(rank, tuple(tuple(sorted(draw)) for draw in draws))
