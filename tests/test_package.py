"""The package's public names."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gallery_crystals

ROOT = Path(__file__).resolve().parent.parent


def relative_import_names() -> list[str]:
    """The names that the package's own ``from .module import ...`` lines bind."""
    tree = ast.parse(Path(gallery_crystals.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_all_is_what_the_relative_imports_bind():
    names = relative_import_names()
    assert len(set(names)) == len(names)
    assert sorted(gallery_crystals.__all__) == sorted(names)
    for name in names:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(gallery_crystals, name), types.ModuleType), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gallery_crystals import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gallery_crystals.__all__)


@pytest.mark.parametrize(
    "name",
    ["empty_gallery", "pairing", "make_label", "staircase_gallery",
     "weight_of_full_column_word", "positive_roots", "rsk_insert"],
)
def test_aliases_are_gone(name):
    # Each restated a public operation: Gallery(n), mu.pairing(i), MVLabel(...),
    # the staircase word gallery, its weight, the pairs a < b, and a word's
    # insertion, normal_form(gallery_from_word(letters, n)).
    assert not hasattr(gallery_crystals, name)
    assert not hasattr(gallery_crystals.plactic, name)


@pytest.mark.parametrize("name", ["Tag", "dominance_leq", "oracle_plactic_classes"])
def test_names_for_tests_only_are_gone(name):
    # i_signature returns its tags as a string ("+-0"); the dominance order,
    # which no label can fail, and the rewriting search, which normal forms
    # replace, are test oracles in tests/_support.
    assert not hasattr(gallery_crystals, name)
    assert not hasattr(gallery_crystals.operators, name)
    assert not hasattr(gallery_crystals.galleries, name)


@pytest.mark.parametrize("name", ["splice_disjointness", "stabilizer_condition", "_splice_checks"])
def test_half_splice_checks_are_gone(name):
    # Each ran the whole staircase loop and kept half of its answer;
    # splice_checks returns both wall checks from one loop.
    assert not hasattr(gallery_crystals, name)
    assert not hasattr(gallery_crystals.affine, name)


def test_dominant_galleries_wrapper_is_gone():
    # decompose and fiber both run the one search, graphs._dominant_galleries.
    assert not hasattr(gallery_crystals, "dominant_galleries")
    assert not hasattr(gallery_crystals.graphs, "dominant_galleries")


def test_cli_defines_no_list_joiner():
    # Comma and space lists are written by galleries' joiners alone.
    assert not hasattr(importlib.import_module("gallery_crystals.cli"), "_csv")
    assert gallery_crystals.galleries._column_text.cache_parameters()["maxsize"] == 4096


def test_cli_reads_no_private_affine_name():
    # The CLI answers through the public crossing_sets and splice_checks; the
    # one private name it reads is the count of crossed roots, which sizes a
    # crossings request before anything is listed.
    tree = ast.parse(Path(gallery_crystals.__file__).with_name("cli.py").read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "affine"
        for alias in node.names
    ]
    assert {"crossing_sets", "splice_checks"} <= set(imported)
    assert [name for name in imported if name.startswith("_")] == ["_crossing_roots"]


@pytest.mark.parametrize("name", ["BrokenColumn"])
def test_unreachable_errors_are_gone(name):
    # A bumped column holds exactly one of i and i+1, so it always strictly
    # increases and no operator can raise this error.
    assert not hasattr(gallery_crystals, name)
    assert not hasattr(gallery_crystals.errors, name)


@pytest.mark.parametrize(
    "owner, method",
    [("WeightVector", "__add__"), ("Gallery", "__len__"), ("WeightVector", "is_dominant")],
)
def test_unused_methods_are_gone(owner, method):
    # Nothing called them: weights are added through their counts, a
    # gallery's length is len(g.columns), and to_dominant_weight applies
    # the one dominance rule to the counts itself.
    assert not hasattr(getattr(gallery_crystals, owner), method)


def test_cli_import_skips_dataclasses_and_inspect():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, gallery_crystals.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


def test_pyproject_matches_the_package():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["version"] == gallery_crystals.__version__
    module, _, attribute = project["scripts"]["gallery-crystals"].partition(":")
    entry = getattr(importlib.import_module(module), attribute)
    assert entry is gallery_crystals.cli.main
