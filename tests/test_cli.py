"""Command line interface: dispatch, formats, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from itertools import chain
from math import comb
from pathlib import Path

import pytest

from gallery_crystals import (
    DominantWeight, affine, cli, graphs, parse_gallery, weyl_dimension, word,
)
from gallery_crystals.affine import (
    AffineRoot,
    WallCheck,
    _crossing_roots,
    crossing_sets,
    random_gallery,
)
from gallery_crystals.cli import run
from _support import oracle_plactic_classes, recording_insert

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWorkedExamples:
    def test_word(self, capsys):
        code, out, _ = invoke(capsys, "word", "--rank", "5", "3|1,2|5|2")
        assert code == 0 and out == "2 5 1 2 3\n"

    def test_apply_lowering(self, capsys):
        code, out, _ = invoke(
            capsys, "apply", "--rank", "5", "--op", "f", "--i", "2", "3|1,2|5|2"
        )
        assert code == 0 and out == "3|1,2|5|3\n"

    def test_apply_absent_prints_zero(self, capsys):
        code, out, _ = invoke(
            capsys, "apply", "--rank", "5", "--op", "f", "--i", "1", "3|1,2|5|2"
        )
        assert code == 0 and out == "0\n"

    def test_apply_times(self, capsys):
        code, out, _ = invoke(
            capsys, "apply", "--rank", "2", "--op", "f", "--i", "1", "--times", "2", "1|1"
        )
        assert code == 0 and out == "2|2\n"

    def test_normal_form(self, capsys):
        code, out, _ = invoke(capsys, "normal-form", "--rank", "3", "1|2|1|3|2|1")
        assert code == 0 and out == "1,2|1\n"

    def test_dominant(self, capsys):
        assert invoke(capsys, "dominant", "--rank", "3", "1,2|1")[1] == "true\n"
        assert invoke(capsys, "dominant", "--rank", "3", "2|3|1")[1] == "false\n"

    def test_weight(self, capsys):
        assert invoke(capsys, "weight", "--rank", "3", "1,2|1")[1] == "2 1 0\n"

    def test_signature(self, capsys):
        code, out, _ = invoke(capsys, "signature", "--rank", "5", "--i", "2", "3|1,2|5|2")
        assert code == 0 and out == "-+0+\n"

    def test_from_word_and_concat(self, capsys):
        assert invoke(capsys, "from-word", "--rank", "3", "1 3 2")[1] == "2|3|1\n"
        assert invoke(capsys, "concat", "--rank", "3", "1,2", "1")[1] == "1,2|1\n"

    def test_equivalent(self, capsys):
        code, out, _ = invoke(capsys, "equivalent", "--rank", "5", "3|1,2|5|2", "3|2|1|5|2")
        assert code == 0 and out == "true\n"

    def test_validate_canonicalizes(self, capsys):
        assert invoke(capsys, "validate", "--rank", "5", "3|1,2|5|2")[1] == "3|1,2|5|2\n"


class TestStructuredOutput:
    def test_component_json(self, capsys):
        code, out, _ = invoke(
            capsys, "component", "--rank", "3", "--format", "json", "1,2|1"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["rank"] == 3
        assert len(doc["vertices"]) == 8 and len(doc["edges"]) == 8
        assert {"from", "to", "i"} == set(doc["edges"][0])
        # edge endpoints index into the vertex list
        for edge in doc["edges"]:
            assert 0 <= edge["from"] < 8 and 0 <= edge["to"] < 8

    def test_component_dot(self, capsys):
        code, out, _ = invoke(capsys, "component", "--rank", "2", "--format", "dot", "1")
        assert code == 0
        assert out.startswith("digraph crystal {")
        assert 'v0 -> v1 [label="1"];' in out

    def test_blambda(self, capsys):
        code, out, _ = invoke(
            capsys, "blambda", "--rank", "3", "--format", "json", "--lambda", "1,1"
        )
        assert code == 0 and len(json.loads(out)["vertices"]) == 8

    def test_decompose_json(self, capsys):
        code, out, _ = invoke(
            capsys, "decompose", "--rank", "3", "--format", "json", "--shape", "1,1,1"
        )
        doc = json.loads(out)
        assert doc["total_galleries"] == 27
        table = {tuple(entry["lambda"]): entry["multiplicity"] for entry in doc["entries"]}
        assert table == {(3, 0): 1, (1, 1): 2, (0, 0): 1}

    def test_phi_json(self, capsys):
        code, out, _ = invoke(capsys, "phi", "--rank", "3", "--format", "json", "1|2|1")
        assert json.loads(out) == {"lambda": [1, 1], "tableau": "1,2|1", "mu": [2, 1, 0]}

    def test_fiber(self, capsys):
        code, out, _ = invoke(
            capsys,
            "fiber",
            "--rank",
            "3",
            "--lambda",
            "1,1",
            "--tableau",
            "1,2|1",
            "--shape",
            "1,1,1",
            "--format",
            "json",
        )
        assert json.loads(out) == {"fiber": ["2|1|1", "1|2|1"]}

    def test_image_weights(self, capsys):
        code, out, _ = invoke(
            capsys, "image-weights", "--rank", "3", "--format", "json", "--shape", "1,1"
        )
        entries = {tuple(e["lambda"]): e["multiplicity"] for e in json.loads(out)}
        assert entries == {(2, 0): 1, (0, 1): 1}

    def test_crossings_json(self, capsys):
        code, out, _ = invoke(
            capsys, "crossings", "--rank", "3", "--format", "json", "3|2|1"
        )
        assert json.loads(out) == [
            {"segment": 0, "roots": [{"a": 1, "b": 2, "m": 0}, {"a": 1, "b": 3, "m": 0}]},
            {"segment": 1, "roots": [{"a": 2, "b": 3, "m": 0}]},
            {"segment": 2, "roots": []},
        ]

    def test_appendix_check(self, capsys):
        code, out, _ = invoke(
            capsys,
            "appendix-check",
            "--rank",
            "3",
            "--format",
            "json",
            "--gamma",
            "1",
            "--delta",
            "",
            "--seed",
            "11",
            "--cases",
            "25",
        )
        doc = json.loads(out)
        assert doc["disjoint"] and doc["stabilizer"]
        assert doc["random_cases"] == 25 and doc["random_failures"] == 0

    def test_oracle_classes(self, capsys):
        code, out, _ = invoke(
            capsys, "oracle-classes", "--rank", "3", "--format", "json", "--max-len", "2"
        )
        classes = [[tuple(w) for w in cls] for cls in json.loads(out)]
        # at this cutoff every class is a singleton: the words joined to the
        # empty word (via the length-3 staircase) are too long to report
        flattened = [w for cls in classes for w in cls]
        assert len(flattened) == 1 + 3 + 9
        assert sorted(flattened, key=lambda w: (len(w), w)) == sorted(
            set(flattened), key=lambda w: (len(w), w)
        )
        assert [()] in classes

    @pytest.mark.parametrize("rank, max_len", [(2, 10), (3, 6), (4, 4), (6, 3)])
    def test_oracle_classes_match_the_rewriting_oracle(self, capsys, rank, max_len):
        code, out, _ = invoke(
            capsys, "oracle-classes", "--rank", str(rank), "--format", "json",
            "--max-len", str(max_len),
        )
        assert code == 0
        assert json.loads(out) == [
            [list(w) for w in cls] for cls in oracle_plactic_classes(max_len, rank)
        ]

    def test_path_json(self, capsys):
        code, out, _ = invoke(capsys, "path", "--rank", "3", "--format", "json", "1,2|1")
        assert json.loads(out) == {
            "rank": 3,
            "vertices": [[0, 0, 0], [1, 0, 0], [2, 1, 0]],
        }

    def test_path_svg(self, capsys):
        code, out, _ = invoke(capsys, "path", "--rank", "3", "--format", "svg", "2|3|1")
        assert code == 0
        assert out.startswith("<svg ") and "<polyline" in out and "polygon" in out


# The least each subcommand takes: every gallery, word, shape and lambda empty.
EMPTY_ARGV = {
    "validate": [""],
    "word": [""],
    "from-word": [""],
    "concat": ["", ""],
    "weight": [""],
    "dominant": [""],
    "signature": ["--i", "1", ""],
    "apply": ["--op", "f", "--i", "1", ""],
    "normal-form": [""],
    "equivalent": ["", ""],
    "oracle-classes": ["--max-len", "0"],
    "component": [""],
    "blambda": ["--lambda", ""],
    "decompose": ["--shape", ""],
    "phi": [""],
    "fiber": ["--lambda", "", "--tableau", "", "--shape", ""],
    "image-weights": ["--shape", ""],
    "crossings": [""],
    "appendix-check": [],
    "path": [""],
}

# Small valid and malformed requests of each subcommand; which are valid
# depends on the rank they are sent with.
SWEEP_ARGV = {
    "validate": [["1|2"], ["3|1,2|5|2"], ["2,1"], ["1,x"], ["1||2"], ["1,2,3"]],
    "word": [["3|1,2"], ["1,,2"], ["0"]],
    "from-word": [["1 2 1"], ["123"], ["1x"], ["12 0"]],
    "concat": [["1", "2"], ["1", "x"], ["2,1", ""]],
    "weight": [["1|2"], ["1,2,3"], ["a"]],
    "dominant": [["1|2"], ["2|1"], ["-1"]],
    "signature": [["--i", "1", "1|2"], ["--i", "0", "1"], ["--i", "9", "1"], ["--i", "x", "1"]],
    "apply": [["--op", "e", "--i", "1", "--times", "2", "2|1"], ["--op", "f", "--i", "3", "1"],
              ["--op", "g", "--i", "1", "1"], ["--op", "f", "--i", "1", "--times", "-1", "1"]],
    "normal-form": [["2|1|3"], ["1,1"]],
    "equivalent": [["1|2", "2|1"], ["1", ","]],
    "oracle-classes": [["--max-len", "2"], ["--max-len", "-1"], ["--max-len", "x"]],
    "component": [["2|1"], ["1,2,3,4"], ["x|"]],
    "blambda": [["--lambda", "1"], ["--lambda", "1,0"], ["--lambda", "0,1,1"],
                ["--lambda", "-1,0"], ["--lambda", "a"]],
    "decompose": [["--shape", "1,1"], ["--shape", "2,1"], ["--shape", "0"],
                  ["--shape", "1,,1"], ["--shape", "4"]],
    "phi": [["3|1,2"], ["2,2"]],
    "fiber": [["--lambda", "1", "--tableau", "1", "--shape", "1"],
              ["--lambda", "1,0", "--tableau", "1", "--shape", "1"],
              ["--lambda", "0,1", "--tableau", "1", "--shape", "1"],
              ["--lambda", "x", "--tableau", "1", "--shape", "1"],
              ["--lambda", "1", "--tableau", "2,1", "--shape", "1"]],
    "image-weights": [["--shape", "1,2"], ["--shape", "1"], ["--shape", "-1"], ["--shape", "x"]],
    "crossings": [["3|1,2"], ["1,"]],
    "appendix-check": [["--gamma", "1|2", "--delta", "2", "--seed", "1", "--cases", "3"],
                       ["--gamma", "x"], ["--seed", "x"]],
    "path": [["1|2|3"], ["3,3"]],
}


class TestErrorsAndDeterminism:
    def test_domain_error_json(self, capsys):
        code, out, err = invoke(capsys, "validate", "--rank", "3", "2,1")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "non-increasing-column"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["signature", "--rank", "3", "--i", "3", "1"], "index-out-of-range"),
            (["apply", "--rank", "3", "--op", "f", "--i", "7", "1|2"], "index-out-of-range"),
            # The index is checked even when no step is taken.
            (["apply", "--rank", "3", "--op", "f", "--i", "7", "--times", "0", "1|2"],
             "index-out-of-range"),
            (["apply", "--rank", "3", "--op", "e", "--i", "3", "--times", "0", ""],
             "index-out-of-range"),
            (["apply", "--rank", "3", "--op", "e", "--i", "7", "--times", "0", "2,1"],
             "non-increasing-column"),
        ],
    )
    def test_domain_error_table(self, capsys, argv, error):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == error

    def test_svg_needs_rank_three(self, capsys):
        code, out, err = invoke(capsys, "path", "--rank", "4", "--format", "svg", "1")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "svg-rank-unsupported"

    @pytest.mark.parametrize("command", ["blambda", "fiber"])
    @pytest.mark.parametrize("lam, count", [("", 0), ("1", 1), ("1,0,0", 3)])
    def test_lambda_coordinate_count(self, capsys, command, lam, count):
        argv = [command, "--rank", "3", "--lambda", lam]
        if command == "fiber":
            argv += ["--tableau", "1", "--shape", "1"]
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "parse-error", "message": f"lambda has {count} coordinates; rank 3 needs 2"
        }

    @pytest.mark.parametrize("lam", ["0,1", "1000000,0"])
    def test_invalid_label_report_is_bounded(self, capsys, lam):
        # The label check counts the tableau's column lengths against lambda
        # and writes lambda, never listing underline(lambda)'s m_1 + m_2 columns.
        start = time.perf_counter()
        argv = ("fiber", "--rank", "3", "--lambda", lam, "--tableau", "1", "--shape", "1")
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and len(err) < 1024
        assert json.loads(err) == {
            "error": "invalid-label",
            "message": f"tableau shape (1,) is not underline(lambda) for lambda = {lam}",
        }

    def test_usage_error(self, capsys):
        assert invoke(capsys, "word", "3|1,2|5|2")[0] == 2  # missing --rank

    def test_unknown_command(self, capsys):
        assert invoke(capsys, "frobnicate", "--rank", "3")[0] == 2

    @pytest.mark.parametrize(
        "command, rank",
        [
            # oracle-classes keeps the ids of the time it was the only command here.
            pytest.param(row.name, rank,
                         id=rank if row.name == "oracle-classes" else f"{row.name}-{rank}")
            for row in cli.COMMANDS
            for rank in ("1", "0", "-3")
        ],
    )
    def test_oracle_classes_needs_rank_two(self, capsys, command, rank):
        code, out, err = invoke(capsys, command, "--rank", rank, *EMPTY_ARGV[command])
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "invalid-rank", "message": f"rank must be an integer >= 2, got {rank}"
        }

    def test_no_request_raises(self, capsys):
        """Each subcommand, format, rank and input ends with an exit code."""
        failures = []
        for row in cli.COMMANDS:
            for fmt in row.formats:
                for rank in ("4", "3", "2", "1", "0", "-3", "10000", "1000000000"):
                    for argv in (EMPTY_ARGV[row.name], *SWEEP_ARGV[row.name]):
                        request = [row.name, "--rank", rank, "--format", fmt, *argv]
                        try:
                            code = run(request)
                        except Exception as exc:
                            failures.append(f"{shlex.join(request)}: {exc!r}")
                        else:
                            assert code in (0, 1, 2), request
                        capsys.readouterr()
        assert failures == []

    def test_byte_determinism(self, capsys):
        args = ("decompose", "--rank", "3", "--format", "json", "--shape", "2,1")
        first = invoke(capsys, *args)
        second = invoke(capsys, *args)
        assert first == second


class TestRejectedOptions:
    UNPRODUCED_FORMATS = [
        ("word", "svg", ["1"]),
        ("validate", "dot", ["1"]),
        ("from-word", "json", ["12"]),
        ("concat", "json", ["1", "2"]),
        ("normal-form", "json", ["1"]),
        ("component", "svg", ["1"]),
        ("blambda", "svg", ["--lambda", "1,1"]),
        ("decompose", "dot", ["--shape", "1"]),
        ("path", "dot", ["1"]),
    ]
    PRODUCED_FORMATS = [
        ("normal-form", ("text",), ["1|2|1"]),
        ("component", ("text", "json", "dot"), ["1"]),
        ("path", ("text", "json", "svg"), ["1"]),
        ("decompose", ("text", "json"), ["--shape", "1"]),
    ]
    NEGATIVE_COUNTS = [
        ["apply", "--rank", "3", "--op", "f", "--i", "1", "--times", "-1", "1"],
        ["oracle-classes", "--rank", "3", "--max-len", "-1"],
        ["appendix-check", "--rank", "3", "--seed", "1", "--cases", "-5"],
    ]

    @pytest.mark.parametrize("command, fmt, argv", UNPRODUCED_FORMATS)
    def test_format_not_produced(self, capsys, command, fmt, argv):
        code, out, _ = invoke(capsys, command, "--rank", "3", "--format", fmt, *argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("command, formats, argv", PRODUCED_FORMATS)
    def test_formats_produced(self, capsys, command, formats, argv):
        for fmt in formats:
            assert invoke(capsys, command, "--rank", "3", "--format", fmt, *argv)[0] == 0

    def test_seed_only_for_appendix_check(self, capsys):
        assert invoke(capsys, "word", "--rank", "3", "--seed", "1", "1")[0] == 2
        assert invoke(capsys, "appendix-check", "--rank", "3", "--seed", "1")[0] == 0

    def test_cases_needs_seed(self, capsys):
        code, out, _ = invoke(capsys, "appendix-check", "--rank", "3", "--seed", "1")
        assert code == 0 and out.endswith("random: 100/100 ok\n")
        for cases in ("0", "4", "100000000000"):
            code, out, err = invoke(capsys, "appendix-check", "--rank", "3", "--cases", cases)
            assert code == 1 and out == ""
            assert json.loads(err)["error"] == "parse-error"

    @pytest.mark.parametrize("argv", NEGATIVE_COUNTS)
    def test_negative_count(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 2 and out == ""


class TestRepeatedRuns:
    """One process serves many requests with one parser; none leaks into the next."""

    def test_no_state_carries_over(self, capsys):
        assert invoke(capsys, "appendix-check", "--rank", "3", "--seed", "1") == (
            0, "disjoint: true\nstabilizer: true\nrandom: 100/100 ok\n", ""
        )
        assert invoke(capsys, "appendix-check", "--rank", "3") == (
            0, "disjoint: true\nstabilizer: true\n", ""
        )
        apply = ("apply", "--rank", "2", "--op", "f", "--i", "1")
        assert invoke(capsys, *apply, "--times", "3", "1|1|1") == (0, "2|2|2\n", "")
        assert invoke(capsys, *apply, "1|1|1") == (0, "1|1|2\n", "")
        code, out, err = invoke(capsys, "word", "3|1,2|5|2")
        assert code == 2 and out == "" and "--rank" in err
        assert invoke(capsys, "word", "--rank", "5", "3|1,2|5|2") == (0, "2 5 1 2 3\n", "")

    def test_parser_built_once(self, capsys, monkeypatch):
        # Canonical requests build no parser at all; the first request that
        # is not canonical builds the tree, and later ones reuse it.
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        assert invoke(capsys, "word", "--rank", "3", "1") == (0, "1\n", "")
        assert invoke(capsys, "weight", "--rank", "3", "1,2|1") == (0, "2 1 0\n", "")
        assert built == []
        assert invoke(capsys, "word", "--rank=3", "1") == (0, "1\n", "")
        # the top parser and one subparser per row
        assert built.count("gallery-crystals") == 1 and len(built) == 1 + len(cli.COMMANDS)
        built.clear()
        assert invoke(capsys, "weight", "--rank=3", "1,2|1") == (0, "2 1 0\n", "")
        code, _, err = invoke(capsys, "word", "--rank", "3")
        assert code == 2 and "required: gallery" in err
        assert built == []

    def test_canonical_request_imports_no_argparse(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        code = ("import sys; from gallery_crystals import cli; "
                "cli.run(['word', '--rank', '3', '1']); sys.exit('argparse' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                              timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"1\n", b"")


class TestStrictNumbers:
    # int() reads each of these as a number: "\u0661" is an Arabic-Indic one,
    # "1_0" is 10 and "+2" is 2.
    PARSE_ERRORS = [
        ["validate", "--rank", "3", "\u0661|\u0662"],
        ["from-word", "--rank", "3", "\u0661\u0662"],
        ["decompose", "--rank", "3", "--shape", "1_0"],
        ["blambda", "--rank", "3", "--lambda", "+2,0"],
        ["blambda", "--rank", "3", "--lambda", "\u0661,0"],
        # int() refuses more than 4,300 digits by default
        ["validate", "--rank", "3", "1" * 5000],
        ["word", "--rank", "3", "1" * 5000],
        ["from-word", "--rank", "10", "1 " + "1" * 5000],
        ["decompose", "--rank", "3", "--shape", "1" * 5000],
        ["blambda", "--rank", "3", "--lambda", "9" * 60000 + ",1"],
    ]
    NEGATIVE_VALUES = [
        (["blambda", "--rank", "3", "--lambda= -1, 0"], "not-dominant"),
        (["decompose", "--rank", "3", "--shape=-1"], "shape-invalid"),
    ]
    # One request per integer option.
    INTEGER_USAGE_ERRORS = [
        ["validate", "--rank", "\u0663", "1|2"],
        ["signature", "--rank", "3", "--i", "1_0", "1|2"],
        ["apply", "--rank", "3", "--op", "f", "--i", "1", "--times", "\u0662", "1|1"],
        ["oracle-classes", "--rank", "3", "--max-len", "+2"],
        ["appendix-check", "--rank", "3", "--seed", "\u0661"],
        ["appendix-check", "--rank", "3", "--seed", "1", "--cases", "1_0"],
    ]
    # int() refuses more than 4,300 digits; argparse must not name the converter.
    TOO_MANY_DIGITS = [
        ["word", "--rank", "1" * 5000, "1"],
        ["apply", "--rank", "3", "--op", "f", "--i", "1", "--times", "1" * 5000, "1"],
        ["appendix-check", "--rank", "3", "--seed", "1" * 5000],
    ]
    # str.strip removes U+001C, which int() alone refuses.
    PADDED = [
        (["word", "--rank", "3\x1c", "1|2"], ["word", "--rank", "3", "1|2"]),
        (["apply", "--rank", "3", "--op", "f", "--i", "1", "--times", "\x1c2", "1"],
         ["apply", "--rank", "3", "--op", "f", "--i", "1", "--times", "2", "1"]),
    ]

    @pytest.mark.parametrize("argv", PARSE_ERRORS)
    def test_parse_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "parse-error"

    @pytest.mark.parametrize("argv, error", NEGATIVE_VALUES)
    def test_negative_values_keep_their_codes(self, capsys, argv, error):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == error

    def test_spaces_around_numbers_allowed(self, capsys):
        code, out, _ = invoke(capsys, "image-weights", "--rank", "3", "--shape", " 1 , 1 ")
        assert code == 0 and out == "0,1 -> 1\n2,0 -> 1\n"

    @pytest.mark.parametrize("argv", INTEGER_USAGE_ERRORS)
    def test_integer_option_usage_error(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv", TOO_MANY_DIGITS)
    def test_too_many_digits_usage_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert "invalid" in err or "expected" in err
        assert "_int" not in err and "_count" not in err

    @pytest.mark.parametrize("padded, plain", PADDED)
    def test_padded_integer_options_run(self, capsys, padded, plain):
        expected = invoke(capsys, *plain)
        assert expected[0] == 0
        assert invoke(capsys, *padded) == expected

    def test_integer_options_keep_minus_and_spaces(self, capsys):
        argv = ("appendix-check", "--rank", " 3 ", "--seed=-3", "--cases", " 2")
        expected = "disjoint: true\nstabilizer: true\nrandom: 2/2 ok\n"
        assert invoke(capsys, *argv) == (0, expected, "")
        code, out, err = invoke(capsys, "signature", "--rank", "3", "--i", "-1", "1")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "index-out-of-range"


class TestTooLarge:
    EIGHT_DOMINOES = "2,2,2,2,2,2,2,2"  # 10^8 galleries at rank 5
    LONG_COLUMNS = "|".join([",".join(map(str, range(1, 71)))] * 300)
    # 29,999 random one-box columns at rank 141
    RANDOM_BOXES = "|".join(map(str, random.Random(1).choices(range(1, 142), k=29_999)))
    # each letter of 1..141 twenty times, shuffled: 2,820 one-box columns whose
    # weight has orbit 1, and a long raise to the source
    TWENTY_EACH = "|".join(map(str, random.Random(1).sample(list(range(1, 142)) * 20, k=2820)))

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("decompose", ["--rank", "5", "--shape", EIGHT_DOMINOES]),
            ("image-weights", ["--rank", "5", "--shape", EIGHT_DOMINOES]),
            ("fiber", ["--rank", "5", "--lambda", "1,0,0,0", "--tableau", "1",
                       "--shape", EIGHT_DOMINOES]),
            ("blambda", ["--rank", "3", "--lambda", "100,100"]),  # 1,030,301 vertices
            ("component", ["--rank", "3", "|".join(["1"] * 500)]),  # B(500,0): 125,751
            ("oracle-classes", ["--rank", "3", "--max-len", "20"]),
            # ranks with more than SIZE_LIMIT positive roots, on any command
            ("crossings", ["--rank", "10000", "1"]),
            ("weight", ["--rank", "1000000000", ""]),
            ("appendix-check", ["--rank", "3000"]),
            # (1 + cases) x 3 positive roots
            ("appendix-check", ["--rank", "3", "--seed", "1", "--cases", "100000000"]),
            # 300 columns of 4,970 affine roots each
            ("crossings", ["--rank", "141", "--format", "json", LONG_COLUMNS]),
            ("blambda", ["--rank", "2", "--lambda", "9999"]),  # 10,000 x 9,999 cells
            # the word count stops a few terms past the limit
            ("oracle-classes", ["--rank", "2", "--max-len", "1000000000"]),
            # one power per column length, not one factor per column
            ("decompose", ["--rank", "141", "--shape", ",".join(["70"] * 20_000)]),
            # one insertion gives lambda, and nothing is raised before sizing
            ("component", ["--rank", "141", RANDOM_BOXES]),
            # 1 + sum(m_i) bounds the vertices before the Weyl product
            ("blambda", ["--rank", "141", "--lambda", ",".join(["9" * 4000] + ["0"] * 139)]),
            ("blambda", ["--rank", "141", "--lambda", ",".join(["9" * 4000] * 5 + ["0"] * 135)]),
            # weight orbit 1, so only the label's lambda sizes it before the raise
            ("component", ["--rank", "141", TWENTY_EACH]),
        ],
    )
    def test_rejected_up_front(self, capsys, command, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, command, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "too-large"

    def test_count_past_str_given_by_bit_length(self, capsys):
        # comb(141, 70)^200 has 8,255 digits, more than str() writes.
        argv = ["decompose", "--rank", "141", "--shape", ",".join(["70"] * 200)]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "too-large",
            "message": "the request would enumerate at least 2^27419 galleries; the limit is 10000",
        }

    def test_path_coordinates_counted(self, capsys):
        # (columns + 1) x rank coordinates: 7,092 x 141 = 999,972 fit, 7,093 x 141 do not.
        assert invoke(capsys, "path", "--rank", "141", "|".join(["1"] * 7091))[0] == 0
        code, out, err = invoke(capsys, "path", "--rank", "141", "|".join(["1"] * 7092))
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "too-large",
            "message": "the request would enumerate 1000113 path coordinates; the limit is 1000000",
        }
        svg = ["path", "--rank", "3", "--format", "svg", "|".join(["1"] * 65_000)]
        assert invoke(capsys, *svg)[0] == 0

    def test_largest_rank_runs(self, capsys):
        # comb(141, 2) = 9,870 positive roots; comb(142, 2) = 10,011.
        assert invoke(capsys, "crossings", "--rank", "141", "1")[0] == 0
        assert invoke(capsys, "weight", "--rank", "141", "")[0] == 0
        code, _, err = invoke(capsys, "weight", "--rank", "142", "")
        assert code == 1 and json.loads(err)["error"] == "too-large"

    @pytest.mark.parametrize("argv", [
        ["blambda", "--rank", "3", "--lambda", "1,1"],  # 8 vertices of 1 + 2 boxes
        ["component", "--rank", "3", "1,2|1"],  # the same crystal on another shape
    ])
    def test_crystal_cells_counted(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "CELL_LIMIT", 24)
        assert invoke(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "CELL_LIMIT", 23)
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == "" and json.loads(err)["error"] == "too-large"

    def test_component_sized_before_raising(self, capsys, monkeypatch):
        # `component` reads lambda off the gallery's label, one insertion,
        # and raises the gallery only once the request is sized.
        digest = hashlib.sha256()
        for argv in [
            ["--rank", "3", g] + fmt
            for g in ("1,2|1", "3|2|1", "")
            for fmt in ([], ["--format", "json"], ["--format", "dot"])
        ] + [["--rank", "4", "2|1,3|4"], ["--rank", "2", "--format", "json", "2|1|2|2"],
             ["--rank", "5", "--format", "dot", "5|2,4|1,3"]]:
            code, out, _ = invoke(capsys, "component", *argv)
            digest.update(f"{argv}\n{code}\n{out}\n".encode())
        assert digest.hexdigest() == (
            "acf3c9e76fb2e8839d41460ec5e9026e937a0c87ef0f484b3dc02be873174917"
        )

        def refuse(gallery):
            raise AssertionError("a gallery was raised")

        monkeypatch.setattr(graphs, "_raise_to_source", refuse)
        for rank, gallery, message in [
            ("3", "|".join(["1"] * 500), "125751 crystal vertices; the limit is 10000"),
            ("2", "|".join(["2"] * 1000), "1001000 crystal cells; the limit is 1000000"),
            ("141", self.TWENTY_EACH, f"{self._twenty_each_vertices()} crystal vertices; "
                                      "the limit is 10000"),
        ]:
            code, out, err = invoke(capsys, "component", "--rank", rank, gallery)
            assert (code, out) == (1, "")
            assert json.loads(err) == {
                "error": "too-large", "message": f"the request would enumerate {message}"
            }

    def _twenty_each_vertices(self) -> int:
        # |B(lambda)| with lambda, the columns of each length below 141, read
        # off the rows of the word's insertion tableau.
        rows = [len(row) for row in recording_insert(word(parse_gallery(self.TWENTY_EACH, 141)))[0]]
        rows += [0] * 141
        return weyl_dimension(DominantWeight(tuple(rows[i - 1] - rows[i] for i in range(1, 141))))

    def test_cell_limit(self, capsys):
        # One row of 999 boxes has 1,000 vertices: 999,000 cells fit, and
        # B(20,20) at rank 3 has 9,261 vertices of 60 boxes: 555,660 cells.
        cli._check_graph(DominantWeight((999,)), 999)
        cli._check_graph(DominantWeight((20, 20)), 60)
        code, out, err = invoke(capsys, "blambda", "--rank", "2", "--lambda", "1000")
        assert code == 1 and out == "" and json.loads(err)["error"] == "too-large"
        assert "1001000 crystal cells" in json.loads(err)["message"]

    def test_affine_roots_counted(self, capsys):
        # Each column 1 at rank 3 crosses (1, 2) and (1, 3): 5,000 columns
        # list 10,000 affine roots, 5,001 list 10,002.
        assert invoke(capsys, "crossings", "--rank", "3", "|".join(["1"] * 5000))[0] == 0
        code, out, err = invoke(capsys, "crossings", "--rank", "3", "|".join(["1"] * 5001))
        assert code == 1 and out == "" and json.loads(err)["error"] == "too-large"

    def test_affine_root_count_matches_crossing_sets(self):
        rng = random.Random(5)
        for rank in range(2, 10):
            for _ in range(200):
                g = random_gallery(rng, rank, max_columns=8)
                assert _crossing_roots(g) == sum(map(len, crossing_sets(g)))

    def test_long_splice_runs(self, capsys):
        # The checks list the C(141, 2) staircase roots, however long the pair.
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "appendix-check", "--rank", "141",
            "--gamma", self.LONG_COLUMNS, "--delta", self.LONG_COLUMNS,
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (0, "disjoint: true\nstabilizer: true\n", "")

    def test_random_pairs_counted_with_roots(self, capsys, monkeypatch):
        # One staircase per pair lists exactly comb(rank, 2) roots, so the
        # 101 x comb(14, 2) = 9,191 and 101 x comb(15, 2) = 10,605 roots are exact.
        listed = []
        staircase = affine._staircase

        def counted(gamma, delta):
            k, start, segments = staircase(gamma, delta)
            listed.append(sum(map(len, segments)))
            return k, start, segments

        monkeypatch.setattr(affine, "_staircase", counted)
        assert invoke(capsys, "appendix-check", "--rank", "14", "--seed", "1")[0] == 0
        assert listed == [comb(14, 2)] * 101
        code, _, err = invoke(capsys, "appendix-check", "--rank", "15", "--seed", "1")
        assert code == 1 and json.loads(err)["error"] == "too-large"
        assert invoke(capsys, "appendix-check", "--rank", "15")[0] == 0

    @pytest.mark.parametrize("rank, max_len", [(7, 0), (5, 1), (4, 3), (3, 5)])
    def test_small_oracle_searches_run(self, capsys, rank, max_len):
        code, out, err = invoke(
            capsys, "oracle-classes", "--rank", str(rank), "--max-len", str(max_len)
        )
        assert code == 0 and out and err == ""

    def test_oracle_search_just_past_the_limit_rejected(self, capsys):
        # The words up to --max-len letters are counted exactly.
        for rank, max_len, words in [(3, 9, 29_524), (2, 13, 16_383)]:
            code, out, err = invoke(
                capsys, "oracle-classes", "--rank", str(rank), "--max-len", str(max_len)
            )
            assert code == 1 and out == ""
            assert json.loads(err) == {
                "error": "too-large",
                "message": f"the request would enumerate {words} words; the limit is 10000",
            }

    @pytest.mark.parametrize("rank, max_len, words", [(3, 8, 9_841), (2, 12, 8_191)])
    def test_oracle_search_at_the_limit_runs(self, capsys, rank, max_len, words):
        code, out, err = invoke(
            capsys, "oracle-classes", "--rank", str(rank), "--format", "json",
            "--max-len", str(max_len),
        )
        assert code == 0 and err == ""
        assert sum(map(len, json.loads(out))) == words


def test_closed_stdout_exits_quietly():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        # about 116 kB of JSON, more than a pipe buffer holds
        [sys.executable, "-m", "gallery_crystals", "blambda", "--rank", "4",
         "--lambda", "2,2,2", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader goes away before any output
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# One request per subcommand and --format value, then inputs the benchmark's
# cli-session never sends: empty galleries, shapes and fibers, counts of 0.
GOLDEN_REQUESTS = """
validate --rank 5 3|1,2|5|2
validate --rank 5 --format json 3|1,2|5|2
word --rank 5 3|1,2|5|2
word --rank 5 --format json 3|1,2|5|2
from-word --rank 3 "1 3 2"
concat --rank 3 1,2 1
weight --rank 3 1,2|1
weight --rank 3 --format json 1,2|1
dominant --rank 3 2|3|1
dominant --rank 3 --format json 1,2|1
signature --rank 5 --i 2 3|1,2|5|2
signature --rank 5 --i 2 --format json 3|1,2|5|2
apply --rank 5 --op f --i 2 3|1,2|5|2
apply --rank 5 --op e --i 1 --times 2 --format json 2|2,3|1
normal-form --rank 3 1|2|1|3|2|1
equivalent --rank 5 3|1,2|5|2 3|2|1|5|2
equivalent --rank 3 --format json 1|2 2|1
oracle-classes --rank 3 --max-len 2
oracle-classes --rank 2 --max-len 3 --format json
component --rank 3 1,2|1
component --rank 3 --format json 1,2|1
component --rank 3 --format dot 2|1
blambda --rank 3 --lambda 1,1
blambda --rank 4 --lambda 0,1,0 --format json
blambda --rank 3 --lambda 2,0 --format dot
decompose --rank 3 --shape 2,1
decompose --rank 4 --shape 1,2,1 --format json
phi --rank 4 2|1,3|4
phi --rank 4 --format json 2|1,3|4
fiber --rank 3 --lambda 1,1 --tableau 1,2|1 --shape 1,1,1
fiber --rank 3 --lambda 1,1 --tableau 1,2|1 --shape 2,1 --format json
image-weights --rank 3 --shape 2,1
image-weights --rank 4 --shape 1,1,2 --format json
crossings --rank 3 3|2|1
crossings --rank 4 --format json 1,3|2,4|1
appendix-check --rank 3 --gamma 1|1 --delta 2
appendix-check --rank 4 --gamma 1,2 --delta 3|4 --seed 7 --cases 20 --format json
path --rank 3 1,2|1
path --rank 4 --format json 1,2|3
path --rank 3 --format svg 2|3|1
validate --rank 3 ""
validate --rank 3 --format json ""
word --rank 3 ""
word --rank 3 --format json ""
from-word --rank 3 ""
concat --rank 3 "" ""
weight --rank 3 ""
weight --rank 3 --format json ""
dominant --rank 3 ""
dominant --rank 3 --format json ""
signature --rank 3 --i 1 ""
signature --rank 3 --i 1 --format json ""
apply --rank 3 --op f --i 1 ""
apply --rank 3 --op f --i 1 --format json ""
apply --rank 2 --op f --i 1 --times 0 1|1
apply --rank 3 --op e --i 2 --times 0 ""
normal-form --rank 3 ""
equivalent --rank 3 "" ""
equivalent --rank 3 --format json "" ""
component --rank 3 ""
component --rank 3 --format json ""
component --rank 3 --format dot ""
phi --rank 3 ""
phi --rank 3 --format json ""
crossings --rank 3 ""
crossings --rank 3 --format json ""
path --rank 3 ""
path --rank 3 --format json ""
path --rank 3 --format svg ""
appendix-check --rank 3
appendix-check --rank 3 --format json --seed 3 --cases 0
blambda --rank 3 --lambda 0,0 --format dot
oracle-classes --rank 4 --max-len 0
decompose --rank 3 --shape ""
decompose --rank 3 --shape "" --format json
image-weights --rank 3 --shape ""
image-weights --rank 3 --shape "" --format json
fiber --rank 3 --lambda 0,0 --tableau "" --shape ""
fiber --rank 3 --lambda 0,0 --tableau "" --shape "" --format json
fiber --rank 3 --lambda 1,1 --tableau 1,2|1 --shape 1
fiber --rank 3 --lambda 1,1 --tableau 1,2|1 --shape 1 --format json
"""
# sha256 over each request line, its exit code and its stdout
GOLDEN_SHA256 = "f05ee23d38f85b227d2661cabf26dd21b81244f9ec0e60b93b7ae1cbf9ab776e"


class TestGolden:
    def test_outputs_unchanged(self, capsys):
        digest = hashlib.sha256()
        for line in GOLDEN_REQUESTS.strip().splitlines():
            code, out, _ = invoke(capsys, *shlex.split(line))
            digest.update(f"{line}\n{code}\n{out}\n".encode())
        assert digest.hexdigest() == GOLDEN_SHA256

    def test_failing_splice_witnesses(self, capsys, monkeypatch):
        # The staircase splice never fails on real galleries, so the report's
        # failure fields are reached with stand-in checks.
        root = AffineRoot(1, 3, 2)
        disjoint, stabilizer = WallCheck(False, (0, 2, root)), WallCheck(False, (1, root))
        monkeypatch.setattr(cli, "splice_checks", lambda gamma, delta: (disjoint, stabilizer))
        argv = ("appendix-check", "--rank", "3", "--seed", "5", "--cases", "4")
        assert invoke(capsys, *argv) == (
            0, "disjoint: false\nstabilizer: false\nrandom: 0/4 ok\n", ""
        )
        code, out, err = invoke(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(
            {
                "disjoint": False,
                "stabilizer": False,
                "disjoint_witness": {"segments": [0, 2], "root": {"a": 1, "b": 3, "m": 2}},
                "stabilizer_witness": {"segment": 1, "root": {"a": 1, "b": 3, "m": 2}},
                "random_cases": 4,
                "random_failures": 4,
            },
            indent=2,
        ) + "\n"


def readme_examples() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("gallery-crystals ")]


def readme_argv(line: str) -> list[str]:
    # "command  # first output line  (a remark)"; a "> file" redirect is dropped.
    argv = shlex.split(line.partition("#")[0])[1:]
    return argv[: argv.index(">")] if ">" in argv else argv


@pytest.mark.parametrize("line", readme_examples())
def test_readme_example(capsys, line):
    comment = line.partition("#")[2]
    code, out, err = invoke(capsys, *readme_argv(line))
    assert code == 0 and err == ""
    if comment.strip():
        assert out.splitlines()[0] == comment.strip().split("  ")[0]


def _split(argv: list) -> tuple:
    """A canonical request's command, (flag, value) pairs and positionals."""
    row = next(row for row in cli.COMMANDS if row.name == argv[0])
    cut = len(argv) - sum(not flags[0].startswith("-") for flags, _ in row.arguments)
    return argv[0], list(zip(argv[1:cut:2], argv[2:cut:2])), argv[cut:]


def _workload_style(argv: list) -> list:
    # As the benchmark's cli-session writes a request: --rank, then --format
    # spelled out, then the other options, then the positionals.
    command, pairs, positionals = _split(argv)
    options = dict(pairs)
    head = ["--rank", options.pop("--rank"), "--format", options.pop("--format", "text")]
    return [command, *head, *chain.from_iterable(options.items()), *positionals]


def _mutations(argv: list, rng: random.Random) -> list:
    """Spellings of a canonical request that argparse reads otherwise or refuses."""
    command, pairs, positionals = _split(argv)
    k = rng.randrange(len(pairs))
    flag, value = pairs[k]
    before, after = list(chain(*pairs[:k])), list(chain(*pairs[k + 1:]))
    options = [*before, flag, value, *after]
    spellings = [
        [*before, f"{flag}={value}", *after, *positionals],
        [*before, flag[:-1], value, *after, *positionals],  # abbreviated
        ["--ra" if token == "--rank" else token for token in [*options, *positionals]],
        [*options, flag, value, *positionals],  # repeated
        [*before, flag, "-" + value, *after, *positionals],  # negative
        [*options, *("-" + positional for positional in positionals)],  # option-like
        [*before, *after, *positionals, flag, value],  # after the positionals
        [*options, "--", *positionals],
        [*before, *after, *positionals],  # missing
        [*options, *positionals, "1"],  # one positional too many
        [*options, *positionals[:-1]],  # one too few, or none missing
        [*options, "--bogus", "1", *positionals],
    ]
    help_request = [*options, *positionals]
    help_request.insert(rng.randrange(len(help_request) + 1), "-h")
    return [[command, *spelling] for spelling in (*spellings, help_request)]


class TestCanonicalRequests:
    """`run` reads a canonical request off `COMMANDS` without argparse; every
    namespace it makes must be the one argparse makes, and every request
    argparse refuses must reach argparse."""

    def test_agrees_with_argparse(self, capsys):
        golden = [shlex.split(line) for line in GOLDEN_REQUESTS.strip().splitlines()]
        hot = golden + [_workload_style(argv) for argv in golden]
        sweep = [[row.name, "--rank", "3", "--format", fmt, *argv]
                 for row in cli.COMMANDS for fmt in row.formats
                 for argv in (EMPTY_ARGV[row.name], *SWEEP_ARGV[row.name])]
        listed = [
            *TestStrictNumbers.PARSE_ERRORS,
            *(argv for argv, _ in TestStrictNumbers.NEGATIVE_VALUES),
            *TestStrictNumbers.INTEGER_USAGE_ERRORS,
            *TestStrictNumbers.TOO_MANY_DIGITS,
            *(padded for padded, _ in TestStrictNumbers.PADDED),
            *TestRejectedOptions.NEGATIVE_COUNTS,
            *([command, "--rank", "3", "--format", fmt, *argv]
              for command, fmt, argv in TestRejectedOptions.UNPRODUCED_FORMATS),
            *([command, "--rank", "3", "--format", fmt, *argv]
              for command, formats, argv in TestRejectedOptions.PRODUCED_FORMATS
              for fmt in formats),
            *map(readme_argv, readme_examples()),
        ]
        rng = random.Random(1)
        mutated = [spelling for argv in hot + sweep for spelling in _mutations(argv, rng)]
        outcomes = Counter()
        for argv in hot + sweep + listed + mutated:
            fast = cli._parse_canonical(argv)
            try:
                expected = vars(cli.build_parser().parse_args(argv))
            except SystemExit as exc:
                outcomes["exit"] += 1
                captured = capsys.readouterr()
                assert fast is None, argv
                assert invoke(capsys, *argv) == (exc.code, captured.out, captured.err), argv
            else:
                outcomes["argparse" if fast is None else "fast"] += 1
                assert fast is None or vars(fast) == expected, argv
        # Each outcome is reached often: help and usage errors, spellings only
        # argparse reads, and canonical requests.
        assert min(outcomes.values()) > 300, outcomes
        # The requests the benchmark and the golden digest send stay on the fast path.
        assert [argv for argv in hot if cli._parse_canonical(argv) is None] == []

    def test_repeated_option_is_not_canonical(self):
        # argparse keeps the last value, so only this test tells the two apart.
        assert cli._parse_canonical(["word", "--rank", "3", "--rank", "4", "1"]) is None
