"""The package's public names."""

import ast
import types
from pathlib import Path

import gallery_crystals


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
