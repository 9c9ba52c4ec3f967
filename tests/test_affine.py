"""Affine crossing sets and the staircase splice wall checks."""

import itertools
import random
from math import comb

import pytest

from gallery_crystals import (
    AffineRoot,
    Gallery,
    InvalidRank,
    RankMismatch,
    WallCheck,
    WeightVector,
    crossing_sets,
    gallery_from_word,
    galleries_of_shape,
    path_vertices,
    random_gallery,
    splice_checks,
    weight,
)
from gallery_crystals import affine
from _support import G, definition_crossing_sets, shapes_up_to, spliced_crossing_sets


class TestCrossingSets:
    def test_staircase_word(self):
        segments = crossing_sets(gallery_from_word((1, 2, 3), 3))
        assert segments == (
            (AffineRoot(1, 2, 0), AffineRoot(1, 3, 0)),
            (AffineRoot(2, 3, 0),),
            (),
        )

    def test_empty(self):
        assert crossing_sets(Gallery(3)) == ()

    def test_single_box_rank_two(self):
        assert crossing_sets(G("1", 2)) == ((AffineRoot(1, 2, 0),),)

    def test_count_bound(self):
        for g in [G("1,2|1", 3), G("3|1,2|5|2", 5), gallery_from_word((2, 2, 1), 3)]:
            bound = g.rank * (g.rank - 1) // 2
            assert all(len(segment) <= bound for segment in crossing_sets(g))

    def test_matches_definition_oracle(self):
        rng = random.Random(34)
        galleries = [random_gallery(rng, rank, max_columns=30)
                     for rank in range(2, 10) for _ in range(40)]
        galleries += [random_gallery(rng, 141, max_columns=6) for _ in range(5)]
        # A few distinct columns repeated many times: each column's pairs are
        # listed once and read again at every later copy.
        for rank in (3, 5, 141):
            few = random_gallery(rng, rank, max_columns=3).columns
            galleries.append(Gallery(rank, tuple(rng.choice(few) for _ in range(60))))
        for g in galleries:
            assert crossing_sets(g) == definition_crossing_sets(g), g.columns

    def test_levels_sit_on_walls(self):
        g = G("2|1,3|2", 4)
        verts = path_vertices(g)
        for k, segment in enumerate(crossing_sets(g)):
            for root in segment:
                assert root.root_pairing(verts[k]) == root.level
                assert root.root_pairing(verts[k + 1]) > root.level

    def test_net_crossings_match_endpoint(self):
        # strictly-positive crossings minus strictly-negative moves equals the
        # total pairing change along the path, root by root
        for g in [G("2|3|1", 3), G("1,3|2|2,3", 4), gallery_from_word((3, 1, 2, 2), 3)]:
            verts = path_vertices(g)
            segments = crossing_sets(g)
            for a, b in itertools.combinations(range(1, g.rank + 1), 2):
                ups = sum(
                    1 for segment in segments for r in segment if (r.a, r.b) == (a, b)
                )
                downs = sum(
                    1
                    for cur, nxt in zip(verts, verts[1:])
                    if nxt[a - 1] - nxt[b - 1] < cur[a - 1] - cur[b - 1]
                )
                total = verts[-1][a - 1] - verts[-1][b - 1]
                assert ups - downs == total


class TestAffineRoot:
    def test_sorted_by_a_then_b_then_level(self):
        rng = random.Random(11)
        roots = [AffineRoot(a, b, rng.randint(-3, 3))
                 for a, b in itertools.combinations(range(1, 5), 2) for _ in range(3)]
        rng.shuffle(roots)
        expected = sorted(roots, key=lambda r: (r.a, r.b, r.level))
        assert sorted(roots) == expected
        assert [(r.a, r.b, r.level) for r in expected] == sorted((r.a, r.b, r.level) for r in roots)
        assert AffineRoot(1, 3, -5) > AffineRoot(1, 2, 7)

    def test_fields_and_pairing(self):
        root = AffineRoot(1, 3, 2)
        assert (root.a, root.b, root.level) == (1, 3, 2)
        assert root.root_pairing((4, 0, 1)) == 3
        assert repr(root) == "AffineRoot(a=1, b=3, level=2)"
        with pytest.raises(AttributeError):
            root.level = 0


class TestSplicedGallery:
    def test_reading_order(self):
        gamma = G("1", 3)
        delta = G("2", 3)
        eta, k, _ = spliced_crossing_sets(gamma, delta)
        assert k == 1
        assert eta.columns == ((2,), (1,), (2,), (3,), (1,))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            splice_checks(G("1", 3), G("1", 4))
        with pytest.raises(RankMismatch):
            splice_checks(G("1", 4), G("1", 3))


class TestStaircase:
    """The splice checks read the n staircase segments off delta's weight."""

    def test_matches_whole_gallery_crossing_sets(self):
        rng = random.Random(12)
        for rank in range(2, 10):
            for _ in range(150):
                gamma = random_gallery(rng, rank, max_columns=8)
                delta = random_gallery(rng, rank, max_columns=8)
                k, start, segments = affine._staircase(gamma, delta)
                eta, oracle_k, oracle_segments = spliced_crossing_sets(gamma, delta)
                assert k == oracle_k
                assert segments == oracle_segments
                assert sum(map(len, segments)) == comb(rank, 2)
                shift = {a - b for a, b in zip(path_vertices(eta)[k], start)}
                assert len(start) == rank and len(shift) == 1

    def test_disjointness_failure_witness(self, monkeypatch):
        shared, other = AffineRoot(1, 3, 2), AffineRoot(2, 3, 0)
        segments = ((other,), (shared,), (), (other, shared))
        monkeypatch.setattr(affine, "_staircase", lambda gamma, delta: (5, (0, 0, 0), segments))
        # the first repeat found is other, first seen on segment 5 + 0
        assert splice_checks(Gallery(3), Gallery(3))[0] == (False, (5, 8, other))

    def test_stabilizer_failure_witness(self, monkeypatch):
        # (e1 - e3, start) = 2 - 0 sits above the level 1; the other pairings are 1
        low = AffineRoot(1, 3, 1)
        segments = ((AffineRoot(1, 2, 1),), (AffineRoot(2, 3, 1), low), ())
        monkeypatch.setattr(affine, "_staircase", lambda gamma, delta: (4, (2, 1, 0), segments))
        assert splice_checks(Gallery(3), Gallery(3))[1] == (False, (5, low))

    @pytest.mark.parametrize("later", [(), ((AffineRoot(2, 3, 0),),)])
    def test_one_loop_keeps_each_first_failure(self, monkeypatch, later):
        # r12 repeats on segments 5 and 6, and (e1 - e3, start) = 2 sits above
        # r13's level 1 only after the disjointness failure; a later segment
        # crossing (e2 - e3, start) = 1 at level 0 does not move that witness
        r12, r23, r13 = AffineRoot(1, 2, 1), AffineRoot(2, 3, 1), AffineRoot(1, 3, 1)
        segments = ((r12,), (r12, r23), (r12, r13)) + later
        monkeypatch.setattr(affine, "_staircase", lambda gamma, delta: (4, (2, 1, 0), segments))
        checks = (WallCheck(False, (4, 5, r12)), WallCheck(False, (6, r13)))
        assert splice_checks(Gallery(3), Gallery(3)) == checks


class TestWeightOfFullColumnWord:
    @pytest.mark.parametrize("rank", [2, 3, 5])
    def test_zero(self, rank):
        assert weight(gallery_from_word(range(1, rank + 1), rank)) == WeightVector((0,) * rank)


class TestAppendixChecks:
    def test_trivial_pair(self):
        assert all(check.ok for check in splice_checks(Gallery(3), Gallery(3)))

    def test_single_box_gamma(self):
        assert all(check.ok for check in splice_checks(G("1", 3), Gallery(3)))

    def test_repeated_column_gamma(self):
        assert all(check.ok for check in splice_checks(G("1|1", 3), Gallery(3)))

    def test_exhaustive_one_column_pairs(self):
        rank = 3
        singles = [Gallery(rank)] + [
            g for shape in shapes_up_to(2, rank - 1) if len(shape) == 1
            for g in galleries_of_shape(shape, rank)
        ]
        for gamma in singles:
            for delta in singles:
                assert all(check.ok for check in splice_checks(gamma, delta))

    @pytest.mark.parametrize("rank", [1, 0, -3, 2.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_gallery_checks_rank_first(self, seed, rank):
        # The same error whatever the draws would have been.
        with pytest.raises(InvalidRank, match=f"^rank must be an integer >= 2, got {rank!r}$"):
            random_gallery(random.Random(seed), rank)

    def test_random_pairs_are_reproducible(self):
        rng = random.Random(7)
        first = [random_gallery(rng, 3) for _ in range(10)]
        rng = random.Random(7)
        second = [random_gallery(rng, 3) for _ in range(10)]
        assert first == second
        for gamma, delta in zip(first, second):
            assert all(check.ok for check in splice_checks(gamma, delta))

    @pytest.mark.parametrize("rank", range(2, 9))
    @pytest.mark.parametrize("max_columns", [4, 8])
    def test_random_galleries_are_proper(self, rank, max_columns):
        # random_gallery trusts its own draws; the checking constructor agrees.
        for seed in range(200):
            rng = random.Random(seed)
            for _ in range(2):
                g = random_gallery(rng, rank, max_columns)
                assert Gallery(rank, g.columns) == g
                assert all(type(a) is int for col in g.columns for a in col)

    def test_random_draws_unchanged(self):
        rng = random.Random(5)
        assert [str(random_gallery(rng, 4)) for _ in range(10)] == [
            "1,4|1,3,4|1,2,4|3,4", "1,3|2|1,3,4", "2|4|1", "", "", "2", "1,3",
            "3|1,4|1,3|1,2,3", "", "1,2,3|1,3",
        ]
