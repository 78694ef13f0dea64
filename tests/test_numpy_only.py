"""The numpy-only rule: modules under src/flowcast import the standard
library, numpy and flowcast itself, nothing else. The sources are parsed
with ast, so no module is imported to check it."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flowcast"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "flowcast"}


def foreign_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports in source that are not allowed."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names} - ALLOWED


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text()) == set()


def test_a_foreign_import_is_caught_wherever_it_sits():
    source = ("from __future__ import annotations\nimport os, numpy.linalg\n"
              "from . import tensor\nfrom flowcast.data import load_csv\n"
              "import scipy.sparse\n\ndef f():\n    from torch import nn\n")
    assert foreign_imports(source) == {"scipy", "torch"}
