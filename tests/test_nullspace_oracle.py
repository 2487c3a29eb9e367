"""``rational_nullspace`` against dense elimination and sympy.

The library takes and eliminates sparse rows {col: entry}, keeping ``int``
entries while the pivots are +-1; the dense Gauss-Jordan sweep it replaced
is kept here as an oracle on the same rows made dense, and the reduced
echelon form is unique, so both must give the same basis exactly.  sympy
is a test-only oracle; the library does not depend on it, and only the
sympy comparison is skipped when it is missing.
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


def _sparse(matrix):
    """The dense ``matrix`` as sparse rows {col: nonzero entry}."""
    return [{col: c for col, c in enumerate(row) if c} for row in matrix]


def _dense(rows, ncols):
    """The sparse ``rows`` as dense rows of ``ncols`` entries."""
    return [[row.get(col, 0) for col in range(ncols)] for row in rows]


def _tau_kernel_matrices(monkeypatch, dims):
    """The sparse rows ``tau_kernel`` hands to ``rational_nullspace``."""
    captured = []
    true_nullspace = repspace.rational_nullspace

    def recording(rows, ncols):
        captured.append((rows, ncols))
        return true_nullspace(rows, ncols)

    monkeypatch.setattr(repspace, "rational_nullspace", recording)
    for dim in dims:
        repspace.tau_kernel(a3p(), dim)
    return captured


def test_sparse_elimination_equals_dense_on_tau_kernel_matrices(monkeypatch):
    dims = [(1, 1, 1, 1), (2, 2, 2, 1), (1, 3, 2, 1), (3, 2, 3, 1), (3, 3, 3, 3)]
    captured = _tau_kernel_matrices(monkeypatch, dims)
    assert [len(m) for m, _ in captured][-1] == 180 and captured[-1][1] == 36
    for rows, ncols in captured:
        assert all(type(c) is int and c for row in rows for c in row.values())
        assert rational_nullspace(rows, ncols) == dense_nullspace(_dense(rows, ncols), ncols)


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
        basis = rational_nullspace(_sparse(rows), ncols)
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
    basis = rational_nullspace(_sparse(rows), ncols)
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
    assert rational_nullspace([{0: 2, 1: 3}], 2) == [[Fraction(-3, 2), Fraction(1)]]
    for rows, ncols in (([[2, 3]], 2), ([[1, 2, 0], [3, 1, 5]], 3), ([[0, 4]], 2)):
        basis = rational_nullspace(_sparse(rows), ncols)
        assert basis
        for vec in basis:
            assert all(type(c) is Fraction for c in vec)  # never a float
            for row in rows:
                assert sum(a * x for a, x in zip(row, vec)) == 0


@pytest.mark.parametrize(
    "rows, ncols",
    [
        ([{0: 1, 1: -1}, {1: 1, 2: -1}], 3),  # +1 pivots
        ([{0: -1, 2: 1}, {1: -1, 3: 1}, {0: 1, 1: 1, 4: 1}], 5),  # -1 pivots, a -1 made by elimination
        ([{0: 3, 1: 1}, {2: 7, 3: -2}, {0: 2, 4: 5}], 5),  # non-unit pivots
        ([{0: 1, 1: 2, 2: 3}, {0: 1, 1: 5}, {1: -1, 3: 7}], 4),  # a unit pivot, then non-unit ones
        ([{0: Fraction(3, 2), 1: 1}, {0: 1, 2: Fraction(-1, 3)}], 3),  # Fraction entries
    ],
    ids=["plus-one", "minus-one", "non-unit", "mixed", "fractions"],
)
def test_no_basis_entry_is_a_float(rows, ncols):
    # an int entry divided by an int pivot with / would be a float; every
    # entry of every basis vector is a Fraction, whatever the pivots
    given = [dict(row) for row in rows]
    basis = rational_nullspace(rows, ncols)
    assert rows == given  # the caller's rows are not changed
    assert basis == dense_nullspace(_dense(rows, ncols), ncols)
    assert basis
    for vec in basis:
        assert not any(isinstance(c, float) for c in vec)
        assert all(type(c) is Fraction for c in vec)
        for row in rows:
            assert sum(a * vec[col] for col, a in row.items()) == 0
