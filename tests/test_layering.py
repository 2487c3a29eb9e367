"""The packed monomial format stays inside ``nhq.repspace``.

The contraction kernel packs each monomial into one int (``_Codec``) and
multiplies on those ints (``_times``, ``_times_tau``, ``_contract``,
``_contract_packed``).  The reduction-ideal check keeps its traces,
entries and re-expansion in that form (``_boundary_entries``,
``_packed_trace``, ``_traced``, ``_ratio``), and an ``IdealImage`` holds
them with their ``codec``.  Only ``repspace`` may know that format, so
that changing it touches one module: no other module of the package
imports those names or reads them as attributes.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "nhq")
PACKED = {
    "_Codec",
    "_times",
    "_times_tau",
    "_contract",
    "_contract_packed",
    "_boundary_entries",
    "_packed_trace",
    "_traced",
    "_ratio",
    "codec",
}
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def packed_names_used(source: str) -> set:
    """The names of ``PACKED`` that ``source`` imports or reads as attributes."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names if alias.name in PACKED)
        elif isinstance(node, ast.Attribute) and node.attr in PACKED:
            found.add(node.attr)
    return found


def test_the_check_sees_both_forms():
    assert packed_names_used("from .repspace import _Codec, tau\n") == {"_Codec"}
    assert packed_names_used("from . import repspace\nrepspace._times(a, b, c, d)\n") == {"_times"}
    assert packed_names_used("from .repspace import _contract_letters\n") == set()
    assert packed_names_used("image = ideal_image(q, d, v, w, g, p)\nimage.codec\n") == {"codec"}


@pytest.mark.parametrize("module", [m for m in MODULES if m != "repspace.py"])
def test_only_repspace_knows_the_packed_format(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert packed_names_used(fh.read()) == set()
