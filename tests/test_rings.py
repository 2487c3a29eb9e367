from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhq.rings import HBarPolynomial, as_fraction


def test_trailing_zeros_dropped():
    assert HBarPolynomial((1, 0, 0)) == HBarPolynomial((1,))
    assert not HBarPolynomial((0, 0))
    assert HBarPolynomial(()).coeffs == ()


def test_arithmetic():
    h = HBarPolynomial.h()
    p = 2 + 3 * h
    assert p.coeffs == (2, 3)
    assert (p * p).coeffs == (4, 12, 9)
    assert (p - p).coeffs == ()
    assert (-p).coeffs == (-2, -3)
    assert p * Fraction(1, 2) == HBarPolynomial((1, Fraction(3, 2)))


def test_h_division():
    h = HBarPolynomial.h()
    assert (h * 5).div_h() == HBarPolynomial.constant(5)
    assert HBarPolynomial.zero().is_divisible_by_h()
    with pytest.raises(ArithmeticError):
        HBarPolynomial.one().div_h()


def test_shift_and_terms():
    p = HBarPolynomial((1, 2))
    assert p.shift(2).coeffs == (0, 0, 1, 2)
    assert p.constant_term() == 1
    assert p.coefficient(1) == 2
    assert p.coefficient(9) == 0


def test_str_forms():
    h = HBarPolynomial.h()
    assert str(HBarPolynomial.zero()) == "0"
    assert str(HBarPolynomial.one()) == "1"
    assert str(h) == "h"
    assert str(2 * h) == "2*h"
    assert str(h * h) == "h^2"
    assert str(1 - h) == "1 - h"
    assert str(HBarPolynomial.constant(Fraction(-3, 2))) == "-3/2"


@pytest.mark.parametrize("c", [0, 3, -1, Fraction(3, 2)])
def test_a_constant_hashes_as_the_scalar_it_equals(c):
    # equal objects hash equal, so a constant is found in a set or a dict
    # keyed by its scalar, and the scalar in one keyed by the constant
    p = HBarPolynomial.constant(c)
    assert p == c and hash(p) == hash(c)
    assert p in {c} and c in {p}
    assert {c: "v"}.get(p) == "v" and {p: "v"}.get(c) == "v"
    assert len({p, c, Fraction(c)}) == 1


def test_exactness_rejects_floats():
    with pytest.raises(TypeError):
        HBarPolynomial((0.5,))


# ---------------------------------------------------------------------------
# Oracle: the ring with every coefficient a Fraction


class FractionPolynomial:
    """The reference ring: dense polynomials in h whose coefficients are all
    ``Fraction``, every result rebuilt through the validating constructor."""

    def __init__(self, coeffs=()):
        buf = [as_fraction(c) for c in coeffs]
        while buf and buf[-1] == 0:
            buf.pop()
        self.coeffs = tuple(buf)

    @staticmethod
    def coerce(value):
        if isinstance(value, FractionPolynomial):
            return value
        return FractionPolynomial((value,))

    def __add__(self, other):
        a, b = self.coeffs, FractionPolynomial.coerce(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPolynomial(out)

    def __neg__(self):
        return FractionPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-FractionPolynomial.coerce(other))

    def __mul__(self, other):
        a, b = self.coeffs, FractionPolynomial.coerce(other).coeffs
        if not a or not b:
            return FractionPolynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return FractionPolynomial(out)

    def shift(self, k):
        return FractionPolynomial((0,) * k + self.coeffs) if self.coeffs else self

    def div_h(self):
        assert not self.coeffs or self.coeffs[0] == 0
        return FractionPolynomial(self.coeffs[1:])

    def __hash__(self):
        # a constant hashes as its scalar, as HBarPolynomial's do
        if len(self.coeffs) > 1:
            return hash(self.coeffs)
        return hash(self.coeffs[0] if self.coeffs else 0)

    def __str__(self):
        pieces = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            hk = "h" if k == 1 else f"h^{k}"
            if k == 0:
                pieces.append(str(c))
            elif c in (1, -1):
                pieces.append(("-" if c < 0 else "") + hk)
            else:
                pieces.append(f"{c}*{hk}")
        if not pieces:
            return "0"
        return pieces[0] + "".join(
            f" - {body[1:]}" if body.startswith("-") else f" + {body}" for body in pieces[1:]
        )


_rationals = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 4])
)
_coefficients = st.lists(st.one_of(st.integers(-6, 6), _rationals), max_size=5)


def _assert_matches(got: HBarPolynomial, want: FractionPolynomial) -> None:
    assert got.coeffs == want.coeffs
    assert hash(got) == hash(want)
    assert str(got) == str(want)
    assert not got.coeffs or got.coeffs[-1] != 0
    for c in got.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_coefficients, _coefficients, st.integers(-4, 4), _rationals, st.integers(0, 3))
def test_ring_matches_fraction_oracle(a, b, n, q, k):
    p, r = HBarPolynomial(a), HBarPolynomial(b)
    fp, fr = FractionPolynomial(a), FractionPolynomial(b)
    _assert_matches(p, fp)
    _assert_matches(p + r, fp + fr)
    _assert_matches(p - r, fp - fr)
    _assert_matches(-p, -fp)
    _assert_matches(p * r, fp * fr)
    _assert_matches(p * n, fp * n)
    _assert_matches(n * p, fp * n)
    _assert_matches(p * q, fp * q)
    _assert_matches(p + n, fp + n)
    _assert_matches(n - p, FractionPolynomial.coerce(n) - fp)
    _assert_matches(p.shift(k), fp.shift(k))
    _assert_matches(p.shift(k + 1).div_h(), fp.shift(k + 1).div_h())
    assert (p == r) == (fp.coeffs == fr.coeffs)


def test_integral_fractions_are_stored_as_ints():
    assert HBarPolynomial((Fraction(4, 2),)).coeffs == (2,)
    assert type(HBarPolynomial((Fraction(4, 2),)).coeffs[0]) is int
    assert type(HBarPolynomial.constant(Fraction(-6, 3)).coeffs[0]) is int
    half = HBarPolynomial.constant(Fraction(1, 2))
    assert [type(c) for c in (half + half).coeffs] == [int]
    assert [type(c) for c in (half * 2).coeffs] == [int]
    assert (half * 2).coeffs == (1,)
