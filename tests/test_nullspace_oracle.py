"""``rational_nullspace`` against dense elimination and sympy.

The library eliminates on sparse rows; the dense Gauss-Jordan sweep it
replaced is kept here as an oracle, and the reduced echelon form is unique,
so both must give the same basis exactly.  sympy is a test-only oracle; the
library does not depend on it, and only the sympy comparison is skipped
when it is missing.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhq import repspace
from nhq.repspace import rational_nullspace
from nhq.sampling import a3p


def dense_nullspace(matrix, ncols):
    """Nullspace basis by Gauss-Jordan elimination on dense rows: every
    elimination step sweeps every column."""
    rows = [[Fraction(c) for c in row] for row in matrix]
    nrows = len(rows)
    pivot_col_of_row = []
    lead = 0
    for col in range(ncols):
        pivot = None
        for r in range(lead, nrows):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        pv = rows[lead][col]
        rows[lead] = [c / pv for c in rows[lead]]
        for r in range(nrows):
            if r != lead and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [c - factor * d for c, d in zip(rows[r], rows[lead])]
        pivot_col_of_row.append(col)
        lead += 1
        if lead == nrows:
            break
    basis = []
    for free in range(ncols):
        if free in pivot_col_of_row:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivot_col_of_row):
            vec[pc] = -rows[r][free]
        basis.append(vec)
    return basis


def _tau_kernel_matrices(monkeypatch, dims):
    """The matrices ``tau_kernel`` hands to ``rational_nullspace``."""
    captured = []
    true_nullspace = repspace.rational_nullspace

    def recording(matrix, ncols):
        captured.append((matrix, ncols))
        return true_nullspace(matrix, ncols)

    monkeypatch.setattr(repspace, "rational_nullspace", recording)
    for dim in dims:
        repspace.tau_kernel(a3p(), dim)
    return captured


def test_sparse_elimination_equals_dense_on_tau_kernel_matrices(monkeypatch):
    dims = [(1, 1, 1, 1), (2, 2, 2, 1), (1, 3, 2, 1), (3, 2, 3, 1), (3, 3, 3, 3)]
    captured = _tau_kernel_matrices(monkeypatch, dims)
    assert [len(m) for m, _ in captured][-1] == 180 and captured[-1][1] == 36
    for matrix, ncols in captured:
        assert rational_nullspace(matrix, ncols) == dense_nullspace(matrix, ncols)


def test_sparse_elimination_equals_dense_on_seeded_sparse_matrices():
    rng = random.Random(1010)
    for case in range(200):
        nrows, ncols = rng.randint(1, 30), rng.randint(1, 20)
        fill = rng.choice((0.05, 0.15, 0.4))

        def entry():
            if rng.random() >= fill:
                return 0
            if case % 2:
                return rng.choice((-1, 1)) * rng.randint(1, 3)
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        for r in range(1, nrows):  # dependent rows, so that the rank drops
            if rng.random() < 0.2:
                a, b = rng.randint(-2, 2), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                rows[r] = [a * x + b * y for x, y in zip(rows[r - 1], rows[0])]
        basis = rational_nullspace(rows, ncols)
        assert basis == dense_nullspace(rows, ncols), case
        for vec in basis:
            assert all(type(c) is Fraction for c in vec)

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
