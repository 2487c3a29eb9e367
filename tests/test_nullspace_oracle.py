"""``rational_nullspace`` against sympy's exact nullspace.

sympy is a test-only oracle here; the library does not depend on it, and
only the sympy comparison is skipped when it is missing.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhq.repspace import rational_nullspace

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
    sympy = pytest.importorskip("sympy")
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


def test_integer_rows_give_fraction_entries():
    # int / int is a float in Python (-1.5 == Fraction(-3, 2) too), so the
    # entry types are checked, not only their values
    assert rational_nullspace([[2, 3]], 2) == [[Fraction(-3, 2), Fraction(1)]]
    for rows, ncols in (([[2, 3]], 2), ([[1, 2, 0], [3, 1, 5]], 3), ([[0, 4]], 2)):
        basis = rational_nullspace(rows, ncols)
        assert basis
        for vec in basis:
            assert all(type(c) is Fraction for c in vec)  # never a float
            for row in rows:
                assert sum(a * x for a, x in zip(row, vec)) == 0
