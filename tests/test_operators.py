"""Root operators: tagging, cancellation, e/f, epsilon/phi."""

import random
from collections import Counter
from enum import IntEnum

import pytest

from gallery_crystals import (
    Gallery,
    IndexOutOfRange,
    WeightVector,
    e,
    epsilon,
    f,
    format_gallery,
    gallery_from_word,
    i_signature,
    is_dominant,
    phi,
    weight,
    word,
)
from gallery_crystals import operators
from gallery_crystals.affine import random_gallery
from gallery_crystals.operators import _bumps, _move, _raise_to_source, _string, _survivors
from _support import (
    G,
    gallery_universe,
    naive_epsilon,
    naive_phi,
    plus_simple_root,
    randomized_reduction,
    stepwise_move,
    stepwise_raise,
)


class TestISignature:
    def test_star_i2(self):
        assert i_signature(G("3|1,2|5|2", 5), 2) == "-+0+"

    def test_star_i1(self):
        assert i_signature(G("3|1,2|5|2", 5), 1) == "000-"

    def test_empty(self):
        assert i_signature(Gallery(4), 2) == ""

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            i_signature(G("1", 3), 3)


class TestIndexRule:
    """An index follows the letter rule: anything but an int, or a bool, is refused."""

    CALLS = {
        "f": lambda i: f(G("1", 3), i),
        "e": lambda i: e(G("2", 3), i),
        "epsilon": lambda i: epsilon(G("2", 3), i),
        "phi": lambda i: phi(G("1", 3), i),
        "i_signature": lambda i: i_signature(G("1", 3), i),
        "pairing": lambda i: WeightVector((1, 0, 0)).pairing(i),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("index", [1.0, 1.5, True, "1", None])
    def test_non_integer_index_rejected(self, name, index):
        with pytest.raises(IndexOutOfRange, match="is not an int"):
            self.CALLS[name](index)

    def test_integer_index_message(self):
        with pytest.raises(IndexOutOfRange, match=r"^simple root index 3 not in 1\.\.2$"):
            f(G("1", 3), 3)

    def test_int_subclass_index_stored_as_int(self):
        class Index(IntEnum):
            ONE = 1

        assert f(G("1", 3), Index.ONE) == G("2", 3)
        raised = e(G("2", 3), Index.ONE)
        assert raised == G("1", 3) and type(raised.columns[0][0]) is int


def display_gallery(symbols: str) -> Gallery:
    """The rank-3 gallery whose display columns carry the given 1-tags."""
    display = tuple({"+": (1,), "-": (2,), "0": (3,)}[ch] for ch in symbols)
    return Gallery(3, display[::-1])


def changed_display_column(g: Gallery, image: Gallery) -> int:
    """The display position of the one column in which image differs from g."""
    changed = [
        pos
        for pos, (a, b) in enumerate(zip(g.columns[::-1], image.columns[::-1]))
        if a != b
    ]
    assert len(changed) == 1
    return changed[0]


class TestReduceSignature:
    """The reduced signature as phi, epsilon and the columns f and e change."""

    def test_star_reduction(self):
        g = G("3|1,2|5|2", 5)
        # the rightmost display column (reading index 0) survives as "+"
        assert (phi(g, 2), epsilon(g, 2)) == (1, 0)
        assert changed_display_column(g, f(g, 2)) == 3

    def test_already_reduced(self):
        g = display_gallery("+-")
        assert (phi(g, 1), epsilon(g, 1)) == (1, 1)
        assert changed_display_column(g, f(g, 1)) == 0
        assert changed_display_column(g, e(g, 1)) == 1

    def test_full_cancellation(self):
        g = display_gallery("-+")
        assert (phi(g, 1), epsilon(g, 1)) == (0, 0)
        assert f(g, 1) is None and e(g, 1) is None

    def test_confluence_against_random_reducer(self):
        rng = random.Random(20240811)
        for trial in range(300):
            symbols = "".join(rng.choice("+-0") for _ in range(rng.randint(0, 12)))
            g = display_gallery(symbols)
            sequence = i_signature(g, 1)
            assert sequence == symbols
            survivors = randomized_reduction(sequence, rng)
            plus = [pos for pos, tag in survivors if tag == "+"]
            minus = [pos for pos, tag in survivors if tag == "-"]
            assert (phi(g, 1), epsilon(g, 1)) == (len(plus), len(minus))
            # f acts on the rightmost surviving plus, e on the leftmost minus
            lowered, raised = f(g, 1), e(g, 1)
            assert (lowered is None) == (not plus) and (raised is None) == (not minus)
            if plus:
                assert changed_display_column(g, lowered) == plus[-1]
            if minus:
                assert changed_display_column(g, raised) == minus[0]
            # survivors read (+)^s (-)^r in display order
            positions = [pos for pos, _ in survivors]
            assert positions == sorted(positions)
            kinds = [tag for _, tag in survivors]
            assert kinds == sorted(kinds, key="+-".index)


class TestLoweringOperator:
    def test_star_f2(self):
        assert format_gallery(f(G("3|1,2|5|2", 5), 2)) == "3|1,2|5|3"

    def test_star_f1_absent(self):
        assert f(G("3|1,2|5|2", 5), 1) is None

    def test_empty(self):
        assert f(Gallery(3), 1) is None


class TestRaisingOperator:
    def test_inverse_of_f(self):
        assert e(G("3|1,2|5|3", 5), 2) == G("3|1,2|5|2", 5)

    def test_dominant_has_no_raising(self):
        nu = G("1,2|1", 3)
        assert e(nu, 1) is None and e(nu, 2) is None

    def test_empty(self):
        assert e(Gallery(3), 2) is None


class TestEpsilonPhi:
    def test_star_i2(self):
        g = G("3|1,2|5|2", 5)
        assert epsilon(g, 2) == 0 and phi(g, 2) == 1

    def test_star_i1(self):
        g = G("3|1,2|5|2", 5)
        assert epsilon(g, 1) == 1 and phi(g, 1) == 0

    def test_empty(self):
        for i in (1, 2):
            assert epsilon(Gallery(3), i) == 0
            assert phi(Gallery(3), i) == 0

    def test_matches_repeated_application(self):
        for g in gallery_universe(3, 4):
            for i in (1, 2):
                assert epsilon(g, i) == naive_epsilon(g, i)
                assert phi(g, i) == naive_phi(g, i)


class TestString:
    def test_matches_single_steps(self):
        # One scan of its top lists the columns of the i-string below it,
        # which single e/f steps walk.
        rng = random.Random(1414)
        for _ in range(400):
            rank = rng.randint(2, 6)
            columns = tuple(
                tuple(sorted(rng.sample(range(1, rank + 1), rng.randint(1, rank - 1))))
                for _ in range(rng.randint(0, 14))
            )
            g = Gallery(rank, columns)
            for i in range(1, rank):
                chain = [g]
                while (raised := e(chain[0], i)) is not None:
                    chain.insert(0, raised)
                while (lowered := f(chain[-1], i)) is not None:
                    chain.append(lowered)
                top = chain[0]
                string = list(_string(top, _survivors(top, i)[0], _bumps(i, i + 1, {})))
                assert [top.columns, *string] == [g.columns for g in chain]
                assert len(string) == epsilon(g, i) + phi(g, i)


def seeded_galleries(seed: int, count: int):
    """Seeded galleries at ranks 2-6, up to 16 columns, so some strings are long."""
    rng = random.Random(seed)
    return [random_gallery(rng, rng.randint(2, 6), max_columns=16) for _ in range(count)]


class TestMoves:
    def test_move_matches_single_steps(self):
        # One scan moves k steps along the string, and None past either end.
        for g in seeded_galleries(1717, 300):
            for i in range(1, g.rank):
                for k in range(-epsilon(g, i) - 1, phi(g, i) + 2):
                    assert _move(g, i, k) == stepwise_move(g, i, k), (g, i, k)

    def test_raise_matches_single_steps(self):
        # The jumps reach the stepwise source, and each index rises as often.
        for g in seeded_galleries(1718, 300):
            source, jumps = _raise_to_source(g)
            stepped, indices = stepwise_raise(g)
            assert source == stepped
            totals = Counter()
            for i, k in jumps:
                totals[i] += k
            assert totals == Counter(indices)

    def test_raise_jumps_to_string_tops(self):
        for g in seeded_galleries(1719, 200):
            _, jumps = _raise_to_source(g)
            current = g
            for i, k in jumps:
                assert k == epsilon(current, i) > 0
                current = _move(current, i, -k)
            assert all(epsilon(current, i) == 0 for i in range(1, g.rank))

    def test_replay_gives_back_the_input(self):
        for g in seeded_galleries(1720, 300):
            current, jumps = _raise_to_source(g)
            for i, k in reversed(jumps):
                current = _move(current, i, k)
            assert current == g

    def test_long_string_is_one_jump_per_index(self):
        g = Gallery(3, ((2, 3),) * 3000)
        assert _raise_to_source(g) == (Gallery(3, ((1, 2),) * 3000), [(1, 3000), (2, 3000)])

    @pytest.mark.parametrize(
        "moved, bumped",
        [(lambda: _raise_to_source(Gallery(3, ((2, 3),) * 3000))[0],
          [((2, 3), 2, 1), ((1, 3), 3, 2)]),
         (lambda: _move(Gallery(3, ((1,),) * 3000), 1, 3000), [((1,), 1, 2)])],
        ids=["raise", "move"],
    )
    def test_each_column_bumped_once_per_jump(self, moved, bumped, monkeypatch):
        # Each jump moves 3,000 equal columns: one bump a jump, and the moved
        # gallery holds one column object.
        bumps = []
        bump = operators._bump

        def counted(col, old, new):
            bumps.append((col, old, new))
            return bump(col, old, new)

        monkeypatch.setattr(operators, "_bump", counted)
        columns = moved().columns
        assert bumps == bumped
        assert len({id(col) for col in columns}) == 1


class TestCrystalAxiomsSmall:
    def test_partial_inverse(self):
        for g in gallery_universe(3, 3):
            for i in (1, 2):
                lowered = f(g, i)
                if lowered is not None:
                    assert e(lowered, i) == g
                raised = e(g, i)
                if raised is not None:
                    assert f(raised, i) == g

    def test_weight_shift(self):
        for g in gallery_universe(3, 3):
            for i in (1, 2):
                raised = e(g, i)
                if raised is not None:
                    assert weight(raised) == plus_simple_root(weight(g), i)
                lowered = f(g, i)
                if lowered is not None:
                    assert weight(lowered) == plus_simple_root(weight(g), i, -1)

    def test_string_axiom(self):
        for g in gallery_universe(3, 3):
            for i in (1, 2):
                assert phi(g, i) == epsilon(g, i) + weight(g).pairing(i)

    def test_shape_preserved(self):
        for g in gallery_universe(3, 3):
            for i in (1, 2):
                for image in (f(g, i), e(g, i)):
                    if image is not None:
                        assert image.shape == g.shape

    def test_dominance_characterization(self):
        for g in gallery_universe(3, 3):
            assert is_dominant(g) == all(e(g, i) is None for i in (1, 2))

    def test_word_reading_is_a_morphism(self):
        for g in gallery_universe(3, 3):
            wg = gallery_from_word(word(g), 3)
            for i in (1, 2):
                for op in (f, e):
                    image = op(g, i)
                    word_image = op(wg, i)
                    if image is None:
                        assert word_image is None
                    else:
                        assert word_image == gallery_from_word(word(image), 3)
