"""``rational_nullspace`` against sympy's exact nullspace.

sympy is a test-only oracle here; the library does not depend on it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhq.repspace import rational_nullspace

sympy = pytest.importorskip("sympy")

_integers = st.integers(-4, 4).map(Fraction)
_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
_entries = st.one_of(st.just(Fraction(0)), _integers, _rationals)


@st.composite
def _matrices(draw):
    """Integer or rational matrices up to 6x8, some with repeated or
    combined rows so that the rank drops."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entries = _integers if draw(st.booleans()) else _entries
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for r in range(1, nrows):
        if draw(st.integers(0, 3)) == 0:
            a, b = draw(_integers), draw(_rationals)
            rows[r] = [a * x + b * y for x, y in zip(rows[r - 1], rows[0])]
    return rows, ncols


def _to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_matrices())
def test_rational_nullspace_matches_sympy(case):
    rows, ncols = case
    basis = rational_nullspace(rows, ncols)
    assert len(basis) == len(_to_sympy(rows).nullspace())
    for vec in basis:
        assert len(vec) == ncols
        assert all(type(c) is Fraction for c in vec)
        for row in rows:
            assert sum((a * x for a, x in zip(row, vec)), Fraction(0)) == 0
    if basis:
        assert _to_sympy(basis).rank() == len(basis)
