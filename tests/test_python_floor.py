"""Every module of the package and every tool parses under the grammar of
the oldest Python that ``pyproject.toml`` admits (``requires-python``), so
syntax newer than that floor fails on any interpreter that runs the tests,
not only on one of the floor's version."""

import ast
import glob
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "nhq", "*.py")) + glob.glob(os.path.join(ROOT, "tools", "*.py")))


def floor() -> tuple:
    """(major, minor) of ``requires-python = ">=major.minor"``, read with a
    regex: ``tomllib`` needs Python 3.11."""
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', fh.read(), re.MULTILINE)
    return int(match[1]), int(match[2])


def test_the_floor_grammar_refuses_newer_syntax():
    assert floor() == (3, 10)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor())


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: os.path.relpath(path, ROOT))
def test_the_source_parses_under_the_floor_grammar(path):
    with open(path, encoding="utf-8") as fh:
        ast.parse(fh.read(), filename=path, feature_version=floor())
