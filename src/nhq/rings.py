"""Exact coefficient arithmetic: rationals and dense polynomials in h.

Every identity in this package is checked by exact equality, and the
deformation parameter h stays a formal polynomial variable.  Scalars are
``int`` when integral and ``fractions.Fraction`` otherwise: almost every
coefficient that normal ordering and straightening produce is an integer,
and ``Fraction(2) == 2`` with the same hash and ``str``, so both forms
compare, hash and print alike.  The accessors ``coefficient`` and
``constant_term`` return a ``Fraction``, so a quotient of two of them is
exact.  Nothing here ever becomes a float.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError, _in_range


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _exact(value):
    """``value`` validated by ``as_fraction``, as an ``int`` when integral."""
    if type(value) is int:
        return value
    value = as_fraction(value)
    return value.numerator if value.denominator == 1 else value


class HBarPolynomial:
    """Polynomial in h over the rationals, stored densely by degree.

    No trailing zero coefficients are kept; the zero polynomial has an empty
    coefficient tuple.  Each coefficient is an ``int`` or a non-integral
    ``Fraction``.  Instances are immutable and hashable.

    The public constructor validates every coefficient.  Arithmetic results
    skip that through ``_with_coeffs``, which trusts its argument.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        buf = [_exact(c) for c in coeffs]
        while buf and buf[-1] == 0:
            buf.pop()
        object.__setattr__(self, "coeffs", tuple(buf))

    @staticmethod
    def _with_coeffs(buf) -> "HBarPolynomial":
        """A polynomial holding ``buf``, a fresh list of ``int`` and
        ``Fraction`` values made by this ring's arithmetic: trailing zeros
        are trimmed and integral ``Fraction`` values become ``int``, with no
        further validation."""
        while buf and not buf[-1]:
            buf.pop()
        out = object.__new__(HBarPolynomial)
        object.__setattr__(
            out,
            "coeffs",
            tuple([c if type(c) is int or c.denominator != 1 else c.numerator for c in buf]),
        )
        return out

    def __setattr__(self, name, value):
        raise AttributeError("HBarPolynomial is immutable")

    @classmethod
    def constant(cls, c) -> "HBarPolynomial":
        return cls((as_fraction(c),))

    @classmethod
    def zero(cls) -> "HBarPolynomial":
        return _ZERO

    @classmethod
    def one(cls) -> "HBarPolynomial":
        return _ONE

    @classmethod
    def h(cls, power: int = 1) -> "HBarPolynomial":
        return cls((0,) * power + (1,))

    @staticmethod
    def coerce(value) -> "HBarPolynomial":
        if isinstance(value, HBarPolynomial):
            return value
        return HBarPolynomial((value,))

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree in h; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        """The coefficient of h^k, 0 for every int k past the degree or
        below 0; a k that is not an ``int``, a ``bool`` too, is refused."""
        if _in_range(k, len(self.coeffs) - 1, 0):
            return Fraction(self.coeffs[k])
        if type(k) is not int:
            raise DimensionError(f"power {k!r} of h is not an integer")
        return Fraction(0)

    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    def is_divisible_by_h(self) -> bool:
        return not self.coeffs or self.coeffs[0] == 0

    def div_h(self) -> "HBarPolynomial":
        """Exact division by h; raises if the constant term is nonzero."""
        if not self.is_divisible_by_h():
            raise ArithmeticError(f"{self} is not divisible by h")
        return HBarPolynomial._with_coeffs(list(self.coeffs[1:]))

    def shift(self, k: int) -> "HBarPolynomial":
        """Multiply by h**k."""
        if not self.coeffs or k == 0:
            return self
        return HBarPolynomial._with_coeffs([0] * k + list(self.coeffs))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "HBarPolynomial":
        a, b = self.coeffs, HBarPolynomial.coerce(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return HBarPolynomial._with_coeffs(out)

    __radd__ = __add__

    def __neg__(self) -> "HBarPolynomial":
        return HBarPolynomial._with_coeffs([-c for c in self.coeffs])

    def __sub__(self, other) -> "HBarPolynomial":
        a, b = self.coeffs, HBarPolynomial.coerce(other).coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return HBarPolynomial._with_coeffs(out)

    def __rsub__(self, other) -> "HBarPolynomial":
        return HBarPolynomial.coerce(other) - self

    def __mul__(self, other) -> "HBarPolynomial":
        a = self.coeffs
        if type(other) is int:
            if not other:
                return _ZERO
            return HBarPolynomial._with_coeffs([c * other for c in a])
        b = HBarPolynomial.coerce(other).coeffs
        if not a or not b:
            return _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return HBarPolynomial._with_coeffs(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = HBarPolynomial.coerce(other)
        if not isinstance(other, HBarPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its scalar (zero equals 0), so it hashes as one
        coeffs = self.coeffs
        return hash(coeffs) if len(coeffs) > 1 else hash(coeffs[0] if coeffs else 0)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                body = str(c)
            else:
                hk = "h" if k == 1 else f"h^{k}"
                if c == 1:
                    body = hk
                elif c == -1:
                    body = "-" + hk
                else:
                    body = f"{c}*{hk}"
            pieces.append(body)
        out = pieces[0]
        for body in pieces[1:]:
            if body.startswith("-"):
                out += " - " + body[1:]
            else:
                out += " + " + body
        return out

    def __repr__(self) -> str:
        return f"HBarPolynomial({self})"


_ZERO = HBarPolynomial()
_ONE = HBarPolynomial((1,))
