"""MV cycle labels, fibers, image weights, surjectivity."""

import random
import sys

import pytest

from gallery_crystals import mv
from gallery_crystals import (
    DominantWeight,
    Gallery,
    InvalidLabel,
    MVLabel,
    RankMismatch,
    WeightVector,
    canonical_dominant_gallery,
    connected_component,
    count_galleries,
    f,
    fiber,
    format_gallery,
    gallery_from_word,
    highest_weight_crystal,
    image_weights,
    mv_label,
    normal_form,
    verify_surjectivity,
    weight,
)
import _support
from _support import G, coplactic_fiber, shapes_up_to, shapewise_fibers, shapewise_surjectivity

# Every shape of ranks 2-4 up to 6 boxes, of rank 5 up to 5 and of rank 6 up to 4.
ORACLE_CASES = [
    (shape, rank)
    for rank, boxes in ((2, 6), (3, 6), (4, 6), (5, 5), (6, 4))
    for shape in shapes_up_to(boxes, rank - 1)
]


class TestMvLabel:
    def test_word_gallery(self):
        label = mv_label(gallery_from_word((1, 2, 1), 3))
        assert label.lam == DominantWeight((1, 1))
        assert format_gallery(label.tableau) == "1,2|1"
        assert label.mu == WeightVector((2, 1, 0))

    def test_empty(self):
        label = mv_label(Gallery(3))
        assert not any(label.lam.coeffs)
        assert label.tableau == Gallery(3)
        assert not any(label.mu.counts)

    def test_staircase_word(self):
        label = mv_label(gallery_from_word((1, 2, 3), 3))
        assert not any(label.lam.coeffs) and not any(label.mu.counts)
        assert label.tableau == Gallery(3)

    def test_mu_matches_tableau(self):
        for g in [G("2|3|1", 3), G("3|1,2|5|2", 5), G("1,3|2", 3)]:
            label = mv_label(g)
            assert label.mu == weight(g) == weight(label.tableau)

    def test_label_validation(self):
        with pytest.raises(InvalidLabel):
            MVLabel(DominantWeight((1, 1)), G("1|1", 3))  # shape mismatch
        with pytest.raises(InvalidLabel):
            MVLabel(DominantWeight((2, 0)), G("2|1", 3))  # not an SSYT

    def test_shape_checked_by_column_counts(self):
        # underline(10^12, 0) has 10^12 columns; the check never lists them.
        with pytest.raises(InvalidLabel, match=r"lambda = 1000000000000,0$"):
            MVLabel(DominantWeight((10**12, 0)), G("1", 3))
        # A zero coordinate counts no columns of its length.
        label = MVLabel(DominantWeight((0, 1, 2)), G("1,2,3|1,2,3|1,2", 4))
        assert label.mu.counts == (3, 3, 2, 0)

    def test_rank_mismatch(self):
        with pytest.raises(InvalidLabel, match="ranks differ"):
            MVLabel(DominantWeight((1,)), G("1", 3))

    def test_value_semantics(self):
        label = mv_label(G("1|2|1", 3))
        same = MVLabel(DominantWeight((1, 1)), G("1,2|1", 3))
        assert label == same and hash(label) == hash(same)
        assert same.mu == WeightVector((2, 1, 0))
        assert repr(same) == (
            "MVLabel(lam=DominantWeight(coeffs=(1, 1)), tableau=Gallery(rank=3, columns=((1,), (1, 2))))"
        )
        with pytest.raises(AttributeError):
            same.mu = WeightVector((1, 1, 1))


class TestFiber:
    def test_adjoint_label(self):
        label = MVLabel(DominantWeight((1, 1)), G("1,2|1", 3))
        hits = fiber(label, (1, 1, 1))
        assert {format_gallery(g) for g in hits} == {"2|1|1", "1|2|1"}

    def test_zero_label(self):
        label = MVLabel(DominantWeight((0, 0)), Gallery(3))
        hits = fiber(label, (1, 1, 1))
        assert [format_gallery(g) for g in hits] == ["3|2|1"]
        assert hits[0] == gallery_from_word((1, 2, 3), 3)

    def test_empty_fiber(self):
        label = MVLabel(DominantWeight((2, 0)), G("1|1", 3))
        assert fiber(label, (2,)) == ()

    def test_empty_fiber_leaves_the_tableau_unraised(self, monkeypatch):
        # A tableau far larger than the shape has an empty fiber, found from
        # the shape's dominant galleries alone.
        def refuse(gallery):
            raise AssertionError("the tableau was raised")

        monkeypatch.setattr(mv, "_raise_to_source", refuse)
        label = MVLabel(DominantWeight((0, 50)), G("|".join(["2,3"] * 50), 3))
        assert fiber(label, (1,)) == ()

    @pytest.mark.parametrize(
        "lam, tableau, shape",
        [((1, 0), "1", (1,) * 20),  # 20 - 1 boxes is not a multiple of 3
         ((3, 0), "1|1|1", ())],  # fewer boxes than lambda: lift < 0
    )
    def test_early_exits_search_nothing(self, monkeypatch, lam, tableau, shape):
        # A shape whose boxes no lift of lambda's counts matches has no tops,
        # found without searching its dominant galleries.
        def refuse(*args):
            raise AssertionError("the dominant galleries were searched")

        monkeypatch.setattr(mv, "_dominant_galleries", refuse)
        assert fiber(MVLabel(DominantWeight(lam), G(tableau, 3)), shape) == ()

    def test_deep_shape(self):
        # More columns than Python's recursion limit, and a one-gallery fiber.
        n = sys.getrecursionlimit() + 100
        lam = DominantWeight((n,))
        top = canonical_dominant_gallery(lam)
        assert fiber(MVLabel(lam, top), (1,) * n, 2) == (top,)

    def test_fiber_members_map_back(self):
        label = MVLabel(DominantWeight((1, 1)), G("1,2|1", 3))
        for g in fiber(label, (2, 1)):
            assert normal_form(g) == label.tableau

    def test_rank_mismatch(self):
        label = MVLabel(DominantWeight((1, 1)), G("1,2|1", 3))
        with pytest.raises(RankMismatch):
            fiber(label, (1, 1, 1), 4)
        assert fiber(label, (1, 1, 1), 3) == fiber(label, (1, 1, 1))

    def test_matches_coplactic_oracle(self):
        # 200 seeded labels asked of shapes of ranks 2-4 with at most 2,000
        # galleries; most labels are a gallery's of that shape, the rest any
        # gallery's of up to 6 columns, whose fiber may be empty.
        rng = random.Random(3602)

        def random_gallery(rank, shape):
            return Gallery(rank, tuple(tuple(sorted(rng.sample(range(1, rank + 1), d))) for d in shape))

        nonempty = 0
        for _ in range(200):
            rank = rng.randint(2, 4)
            while True:
                shape = tuple(rng.randint(1, rank - 1) for _ in range(rng.randint(0, 6)))
                if count_galleries(shape, rank) <= 2000:
                    break
            other = shape if rng.random() < 0.7 else (1,) * rng.randint(0, 6)
            label = mv_label(random_gallery(rank, other))
            members = fiber(label, shape)
            assert members == coplactic_fiber(label, shape), (label, shape)
            nonempty += bool(members)
        assert nonempty > 100

    @pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
    def test_matches_shapewise_oracle(self, rank):
        # Every label of every shape, whole tuples in order.  The top label of
        # each lambda met at this rank is also asked of every shape with as
        # many boxes modulo the rank, so labels outside a shape's image must
        # give an empty fiber.
        cases = [(shape, shapewise_fibers(shape, rank)) for shape, n in ORACLE_CASES if n == rank]
        tops = {mv_label(canonical_dominant_gallery(mv_label(t).lam))
                for _, fibers in cases for t in fibers}
        for shape, fibers in cases:
            for tableau, members in fibers.items():
                assert fiber(mv_label(members[0]), shape, rank) == members, (shape, tableau)
            for label in tops:
                if sum(label.tableau.shape) % rank == sum(shape) % rank:
                    assert fiber(label, shape, rank) == fibers.get(label.tableau, ()), shape


class TestImageWeights:
    def test_three_boxes(self):
        table = {
            lam.coeffs: mult for lam, mult in image_weights((1, 1, 1), 3).items()
        }
        assert table == {(3, 0): 1, (1, 1): 2, (0, 0): 1}

    def test_single_box(self):
        table = image_weights((1,), 3)
        assert table == {DominantWeight((1, 0)): 1}

    def test_mirrored_adjoint(self):
        assert image_weights((2, 1), 3)[DominantWeight((1, 1))] >= 1


class TestSurjectivity:
    def test_three_boxes(self):
        report = verify_surjectivity((1, 1, 1), 3)
        assert report.ok and not report.misses
        # 10 tableaux for 3*omega_1, 8 for the adjoint, 1 empty
        assert report.labels_checked == 10 + 8 + 1

    def test_rank_two_box(self):
        report = verify_surjectivity((1,), 2)
        assert report.ok and report.labels_checked == 2

    def test_two_columns(self):
        report = verify_surjectivity((2, 2), 3)
        assert report.ok

    def test_matches_shapewise_oracle(self):
        for shape, rank in ORACLE_CASES:
            assert verify_surjectivity(shape, rank) == shapewise_surjectivity(shape, rank)

    def test_full_count_enumerates_nothing(self, monkeypatch):
        def refuse(shape, rank):
            raise AssertionError("tableaux enumerated without a shortfall")

        monkeypatch.setattr(mv, "enumerate_ssyt", refuse)
        assert verify_surjectivity((1, 1, 1), 3).ok

    def test_shortfall_names_the_misses(self, monkeypatch):
        # A normal form that sends one adjoint tableau to another of its shape
        # leaves the count one short; both components of the adjoint miss it.
        lost, twin = G("1,3|2", 3), G("1,2|1", 3)

        def losing(gallery):
            tableau = normal_form(gallery)
            return twin if tableau == lost else tableau

        monkeypatch.setattr(mv, "normal_form", losing)
        monkeypatch.setattr(_support, "normal_form", losing)
        report = verify_surjectivity((1, 1, 1), 3)
        assert not report.ok
        assert report.misses == ((DominantWeight((1, 1)), lost),)
        assert report.misses == shapewise_surjectivity((1, 1, 1), 3).misses
        assert report.labels_checked == 10 + 8 + 1


class TestMorphismAndInjectivity:
    def test_label_map_commutes_with_lowering(self):
        for shape in [(1, 1, 1), (2, 1), (1, 2)]:
            from gallery_crystals import galleries_of_shape

            for g in galleries_of_shape(shape, 3):
                for i in (1, 2):
                    image = f(g, i)
                    tableau_image = f(mv_label(g).tableau, i)
                    if image is None:
                        assert tableau_image is None
                    else:
                        assert mv_label(image).tableau == tableau_image

    def test_injective_on_components_with_blambda_image(self):
        comp = connected_component(gallery_from_word((1, 2, 1), 3))
        forms = {normal_form(v) for v in comp.vertices}
        assert len(forms) == len(comp)
        lam = mv_label(gallery_from_word((1, 2, 1), 3)).lam
        assert forms == set(highest_weight_crystal(lam).vertices)

    def test_fibers_partition_small_shapes(self):
        from gallery_crystals import count_galleries, galleries_of_shape

        for shape in shapes_up_to(3, 2):
            groups = {}
            for g in galleries_of_shape(shape, 3):
                groups.setdefault(normal_form(g), []).append(g)
            assert sum(len(v) for v in groups.values()) == count_galleries(shape, 3)
            for tableau, members in groups.items():
                label = mv_label(members[0])
                assert set(fiber(label, shape)) == set(members)
