"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines.  Every check is exact integer combinatorics; the only
tolerances are the per-criterion wall-clock budgets asserted at the end of
each test.
"""

import json
import random
import time
from collections import Counter

from gallery_crystals import (
    AffineRoot,
    Gallery,
    connected_component,
    count_galleries,
    crossing_sets,
    decompose,
    e,
    enumerate_ssyt,
    epsilon,
    f,
    fiber,
    format_gallery,
    galleries_of_shape,
    gallery_from_word,
    highest_weight_crystal,
    highest_weight_vertex,
    image_weights,
    is_dominant,
    is_isomorphic,
    mv_label,
    normal_form,
    phi,
    random_gallery,
    splice_checks,
    verify_surjectivity,
    weight,
    weyl_dimension,
    word,
)
from gallery_crystals import affine
from gallery_crystals.cli import run as cli_run
from _support import (
    G,
    oracle_plactic_classes,
    plus_simple_root,
    shapes_up_to,
    weights_with_dimension_at_most,
)


def criterion(number: int, description: str, budget_seconds: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print(f"ACCEPTANCE {number:2d} {verdict}  {description}  [{elapsed:.2f}s < {budget_seconds:.0f}s]")
    assert elapsed < budget_seconds


def cli_output(capsys, *argv) -> str:
    assert cli_run(list(argv)) == 0
    return capsys.readouterr().out


def test_criterion_1_worked_examples(capsys):
    def body():
        assert cli_output(capsys, "word", "--rank", "5", "3|1,2|5|2") == "2 5 1 2 3\n"
        assert (
            cli_output(capsys, "apply", "--rank", "5", "--op", "f", "--i", "2", "3|1,2|5|2")
            == "3|1,2|5|3\n"
        )
        assert (
            cli_output(capsys, "apply", "--rank", "5", "--op", "f", "--i", "1", "3|1,2|5|2")
            == "0\n"
        )
        star = G("3|1,2|5|2", 5)
        assert word(star) == (2, 5, 1, 2, 3)
        assert format_gallery(f(star, 2)) == "3|1,2|5|3"
        assert f(star, 1) is None

    criterion(1, "worked examples: word, f_2, f_1 absent", 1.0, body)


def test_criterion_2_dominance(capsys):
    def body():
        assert cli_output(capsys, "dominant", "--rank", "3", "1,2|1") == "true\n"
        assert cli_output(capsys, "dominant", "--rank", "3", "2|3|1") == "false\n"
        assert cli_output(capsys, "weight", "--rank", "3", "1,2|1") == "2 1 0\n"
        assert cli_output(capsys, "weight", "--rank", "3", "2|3|1") == "0 0 0\n"
        nu, delta = G("1,2|1", 3), G("2|3|1", 3)
        assert is_dominant(nu) and not is_dominant(delta)
        assert weight(nu).counts == (2, 1, 0)
        assert not any(weight(delta).counts)

    criterion(2, "dominance and weights of the rank-3 examples", 1.0, body)


def test_criterion_3_plactic(capsys):
    def body():
        for text in ["1,2|1", "1|2|1", "1|2|1|3|2|1"]:
            assert cli_output(capsys, "normal-form", "--rank", "3", text) == "1,2|1\n"
            assert format_gallery(normal_form(G(text, 3))) == "1,2|1"
        assert normal_form(gallery_from_word((1, 2, 3), 3)) == Gallery(3)
        assert cli_output(capsys, "normal-form", "--rank", "3", "3|2|1") == "\n"

    criterion(3, "plactic normal forms incl. staircase collapse", 1.0, body)


def test_criterion_4_crystal_figure(capsys):
    # the dominant tableau "1,2|1" has display column lengths (2,1); its
    # hand-derived component below matches the published two-ladder diagram
    expected_edges = {
        ("1,2|1", "1,2|2", 1),
        ("1,2|1", "1,3|1", 2),
        ("1,2|2", "1,2|3", 2),
        ("1,3|1", "1,3|2", 1),
        ("1,2|3", "1,3|3", 2),
        ("1,3|2", "2,3|2", 1),
        ("1,3|3", "2,3|3", 1),
        ("2,3|2", "2,3|3", 2),
    }

    def body():
        comp = connected_component(G("1,2|1", 3))
        assert len(comp) == 8
        assert {
            (format_gallery(u), format_gallery(v), i) for u, v, i in comp.edges
        } == expected_edges
        word_comp = connected_component(gallery_from_word(word(G("1,2|1", 3)), 3))
        assert {v.shape for v in word_comp.vertices} == {(1, 1, 1)}
        ok, mapping = is_isomorphic(comp, word_comp)
        assert ok and len(mapping) == 8
        # the same crystal drawn on the mirrored shape realization
        ok_mirror, _ = is_isomorphic(comp, connected_component(G("1|1,2", 3)))
        assert ok_mirror
        doc = json.loads(
            cli_output(capsys, "component", "--rank", "3", "--format", "json", "1,2|1")
        )
        assert len(doc["vertices"]) == 8 and len(doc["edges"]) == 8

    criterion(4, "8-vertex crystal figure and word-reading isomorphism", 1.0, body)


def test_criterion_5_crossing_sets(capsys):
    def body():
        segments = crossing_sets(gallery_from_word((1, 2, 3), 3))
        assert segments == (
            (AffineRoot(1, 2, 0), AffineRoot(1, 3, 0)),
            (AffineRoot(2, 3, 0),),
            (),
        )
        assert all(check.ok for check in splice_checks(Gallery(3), Gallery(3)))
        doc = json.loads(
            cli_output(capsys, "crossings", "--rank", "3", "--format", "json", "3|2|1")
        )
        assert doc == [
            {"segment": 0, "roots": [{"a": 1, "b": 2, "m": 0}, {"a": 1, "b": 3, "m": 0}]},
            {"segment": 1, "roots": [{"a": 2, "b": 3, "m": 0}]},
            {"segment": 2, "roots": []},
        ]
        check = json.loads(
            cli_output(capsys, "appendix-check", "--rank", "3", "--format", "json")
        )
        assert check["disjoint"] and check["stabilizer"]

    criterion(5, "staircase crossing sets and splice disjointness", 1.0, body)


def test_criterion_6_crystal_axioms():
    def body():
        cases = 0
        for rank in (2, 3, 4):
            for shape in shapes_up_to(5, rank - 1):
                for g in galleries_of_shape(shape, rank):
                    mu = weight(g)
                    raising_all_absent = True
                    for i in range(1, rank):
                        cases += 1
                        lowered = f(g, i)
                        raised = e(g, i)
                        if raised is not None:
                            raising_all_absent = False
                        # partial inverse
                        if lowered is not None:
                            assert e(lowered, i) == g
                            assert lowered.shape == g.shape
                            assert weight(lowered) == plus_simple_root(mu, i, -1)
                        if raised is not None:
                            assert f(raised, i) == g
                            assert raised.shape == g.shape
                            assert weight(raised) == plus_simple_root(mu, i)
                        # string axiom
                        assert phi(g, i) == epsilon(g, i) + mu.pairing(i)
                        # word reading commutes with both operators
                        wg = gallery_from_word(word(g), rank)
                        for op, image in ((f, lowered), (e, raised)):
                            word_image = op(wg, i)
                            if image is None:
                                assert word_image is None
                            else:
                                assert word_image == gallery_from_word(word(image), rank)
                    assert is_dominant(g) == raising_all_absent
        assert cases > 10_000

    criterion(6, "crystal axioms on all shapes with <= 5 boxes, ranks 2..4", 60.0, body)


def test_criterion_7_oracle_equivalence():
    def body():
        for rank in (2, 3):
            classes = oracle_plactic_classes(5, rank)
            reported = [w for cls in classes for w in cls]
            assert len(reported) == len(set(reported))
            assert len(reported) == sum(rank**k for k in range(6))
            representatives = []
            for cls in classes:
                forms = {normal_form(gallery_from_word(w, rank)) for w in cls}
                assert len(forms) == 1  # same class -> same normal form
                representatives.append(forms.pop())
            # distinct classes -> distinct normal forms
            assert len(representatives) == len(set(representatives))

    criterion(7, "oracle classes match normal forms, words <= 5, ranks 2..3", 120.0, body)


def test_criterion_8_dimensions_and_multiplicities():
    def body():
        for rank in (2, 3, 4):
            lams = weights_with_dimension_at_most(rank, 500)
            assert lams
            for lam in lams:
                crystal = highest_weight_crystal(lam)
                assert len(crystal) == weyl_dimension(lam)
                crystal_weights = Counter(weight(v) for v in crystal.vertices)
                tableau_weights = Counter(
                    weight(t) for t in enumerate_ssyt(lam.column_shape(), rank)
                )
                assert crystal_weights == tableau_weights
        dec = decompose((1, 1, 1), 3)
        table = {entry.lam.coeffs: entry.multiplicity for entry in dec.entries}
        assert table == {(3, 0): 1, (1, 1): 2, (0, 0): 1}
        assert 10 + 8 + 8 + 1 == 27 == dec.total

    criterion(8, "crystal sizes and weight multiplicities up to dim 500", 60.0, body)


def test_criterion_9_label_map():
    def body():
        rng = random.Random(1109)
        for rank in (2, 3, 4):
            for shape in shapes_up_to(5, rank - 1):
                total = count_galleries(shape, rank)
                seen = set()
                dominant_weight_tally = Counter()
                fibers: dict = {}
                components = 0
                for g in galleries_of_shape(shape, rank):
                    tableau = normal_form(g)
                    fibers.setdefault(tableau, []).append(g)
                    if is_dominant(g):
                        dominant_weight_tally[weight(g).to_dominant_weight()] += 1
                    if g in seen:
                        continue
                    comp = connected_component(g)
                    seen |= comp.vertices
                    components += 1
                    # injectivity on the component, image = tableau crystal
                    forms = {normal_form(v) for v in comp.vertices}
                    assert len(forms) == len(comp)
                    lam = weight(highest_weight_vertex(g)).to_dominant_weight()
                    assert forms == set(highest_weight_crystal(lam).vertices)
                # fibers partition the shape crystal
                assert sum(len(members) for members in fibers.values()) == total
                assert len(seen) == total
                # multiplicities: components per lambda = dominant gallery count
                multiplicities = image_weights(shape, rank)
                assert dict(dominant_weight_tally) == {
                    lam: mult for lam, mult in multiplicities.items()
                }
                assert components == sum(multiplicities.values())
                # surjectivity onto every tableau of every weight in the image
                report = verify_surjectivity(shape, rank)
                assert report.ok
                # the fiber operation agrees with the grouping on samples
                for tableau in rng.sample(sorted(fibers, key=lambda t: (t.shape, t.columns)),
                                          min(3, len(fibers))):
                    label = mv_label(fibers[tableau][0])
                    assert label.tableau == tableau
                    assert set(fiber(label, shape, rank)) == set(fibers[tableau])

    criterion(9, "label map: surjectivity, injectivity, fibers, multiplicities", 120.0, body)


def splice_pairs():
    """Criterion 10's (gamma, delta) pairs: every pair of galleries with at
    most two columns at ranks 2-4, then 1,000 seeded random pairs."""
    for rank in (2, 3, 4):
        small = [Gallery(rank)]
        for shape in shapes_up_to(2 * (rank - 1), rank - 1):
            if len(shape) <= 2:
                small.extend(galleries_of_shape(shape, rank))
        for gamma in small:
            for delta in small:
                yield gamma, delta
    rng = random.Random(20240811)
    for _ in range(1000):
        rank = rng.choice((2, 3, 4))
        gamma = random_gallery(rng, rank, max_columns=5)
        delta = random_gallery(rng, rank, max_columns=5)
        yield gamma, delta


def test_criterion_10_splice_properties():
    def body():
        for gamma, delta in splice_pairs():
            assert all(check.ok for check in splice_checks(gamma, delta))

    criterion(10, "splice disjointness and stabilizer checks, exhaustive + random", 60.0, body)


def test_splice_checks_build_no_spliced_gallery(monkeypatch):
    # The checks read the staircase off delta's weight: no path of eta is
    # walked and no crossing set is computed.
    def refuse(gallery):
        raise AssertionError("the splice checks walked a gallery path")

    monkeypatch.setattr(affine, "crossing_sets", refuse)
    monkeypatch.setattr(affine, "_path", refuse)
    for gamma, delta in splice_pairs():
        assert all(check.ok for check in splice_checks(gamma, delta))
