"""Sparse free-module elements shared by all the algebra layers.

Every element type is a finite map from basis keys to exact coefficients
with no stored zeros.  ``LinearCombination`` holds what does not depend on
the storage: the context in each subclass's own ``__slots__``, the
compatibility check and the ``terms`` view.  ``_PackedSums`` is the one
store of the elements keyed by combinatorial data; kernels reach it through
``int_terms``, ``bilinear``, ``rekeyed`` and ``from_ints``.  Its rational
form, ``int`` numerators over one denominator with no common factor, is
also that of ``repspace``'s packed operators, which put one dict of
numerators in it with ``lowest_terms``.  The exact
nullspace of a rational matrix given by sparse rows
(``rational_nullspace``) lives here too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import MismatchError
from .rings import HBarPolynomial, _exact


class LinearCombination:
    """Finite formal linear combination over an exact coefficient ring: the
    parts that do not depend on its storage."""

    __slots__ = ("terms",)

    #: coefficient coercion; subclasses with Fraction coefficients override
    _coerce = staticmethod(HBarPolynomial.coerce)

    def __init__(self, *context):
        """Set the subclass's context slots, in their order."""
        for name, value in zip(self.__slots__, context):
            object.__setattr__(self, name, value)

    def _context(self) -> tuple:
        """The subclass's own slot values: ``(quiver,)`` or ``(quiver, dim)``."""
        return tuple([getattr(self, name) for name in self.__slots__])

    def _check_compatible(self, other) -> None:
        if type(other) is not type(self) or self._context() != other._context():
            raise MismatchError(
                f"incompatible operands: {type(self).__name__} vs {type(other).__name__}"
            )

    def is_zero(self) -> bool:
        return not self

    def items(self):
        return self.terms.items()

    def coefficient(self, key):
        return self.terms.get(key, self._coerce(0))

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}(0)"
        body = ", ".join(f"{k!r}: {v}" for k, v in self.terms.items())
        return f"{type(self).__name__}({{{body}}})"


class _PackedSums(LinearCombination):
    """The packed store of the elements keyed by combinatorial data:
    necklaces, paths, path pairs, height configurations, Sym(HH0) monomials
    and gl_d basis elements, each over a quiver.

    ``_sums`` holds one dict per power of h, from each coded key to a
    nonzero ``int`` numerator over the one positive denominator ``_den``.
    The form is canonical: ``_den`` and the numerators share no factor, and
    no power past the last nonzero one is kept.  A class contributes only
    its key coding, a bijection that normalises nothing: ``_code_key``
    sends a public key to its coded key and ``_public_key`` sends it back.
    A public constructor keeps its (key, coefficients) pairs in ``_given``
    and codes and packs them on the first read of the packed form, so that
    a key's checks (a necklace's cyclic composability) run once per
    element; ``terms`` is built from the packed form on its first read.  A
    ``_rational`` class holds at most the power h^0, and its view and
    ``coefficient`` are ``Fraction``s.  No kernel builds an
    ``HBarPolynomial``: only the view does.
    """

    __slots__ = ("_sums", "_den", "_given")

    _rational = False
    #: the key coding: a public key to its coded key, and back (identity here)
    _code_key = _public_key = staticmethod(lambda key: key)

    def __init__(self, quiver, terms=None):
        super().__init__(quiver)
        items = terms.items() if isinstance(terms, dict) else terms or ()
        object.__setattr__(self, "_given", [(key, self._scalars(c)) for key, c in items])

    def _scalars(self, c) -> tuple:
        """The scalar ``c`` as the coefficients of its powers of h: a
        rational, or an ``HBarPolynomial`` unless the class is rational."""
        return c.coeffs if isinstance(c, HBarPolynomial) and not self._rational else (_exact(c),)

    @classmethod
    def _from_sums(cls, context: tuple, sums: tuple, den: int):
        """The element over ``context`` of the canonical packed ``(sums,
        den)`` of ``_canonical``."""
        out = object.__new__(cls)
        for name, value in zip(cls.__slots__, context):
            object.__setattr__(out, name, value)
        object.__setattr__(out, "_sums", sums)
        object.__setattr__(out, "_den", den)
        return out

    def __getattr__(self, name):  # called for an unset slot
        if name == "terms":
            object.__setattr__(self, name, _view(self._sums, self._den, self._public_key, self._rational))
        elif name in ("_sums", "_den"):
            sums, den = _pack([(self._code_key(key), coeffs) for key, coeffs in self._given])
            object.__setattr__(self, "_sums", sums)
            object.__setattr__(self, "_den", den)
            object.__delattr__(self, "_given")
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def __bool__(self) -> bool:
        return bool(self._sums)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._context() == other._context() and self._den == other._den and self._sums == other._sums

    def __add__(self, other, sign=1):
        self._check_compatible(other)
        den = lcm(self._den, other._den)
        parts = [(self._sums, den // self._den, 0), (other._sums, sign * (den // other._den), 0)]
        return self._summed(parts, den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return self._summed([(self._sums, -1, 0)], self._den)

    def scale(self, c):
        """Times a scalar: its h^j part moves each power j places up."""
        nums, dc = numerators(self._scalars(c))
        parts = [(self._sums, m, j) for j, m in enumerate(nums) if m]
        return self._summed(parts, self._den * dc)

    def is_divisible_by_h(self) -> bool:
        return not self._sums or not self._sums[0]

    def div_h(self):
        if not self.is_divisible_by_h():
            raise ArithmeticError(f"{type(self).__name__} is not divisible by h")
        return self._from_sums(self._context(), self._sums[1:], self._den)

    def constant_part(self):
        """Reduce coefficients mod h."""
        return from_ints(type(self), self._context(), self._sums[:1], self._den)

    def _summed(self, parts, den: int):
        """The element of this type and context whose numerators over
        ``den`` sum ``factor`` times the packed ``sums`` moved ``shift``
        powers of h up, over the ``(sums, factor, shift)`` ``parts``."""
        out: list = []
        for sums, factor, shift in parts:
            out += [{} for _ in range(shift + len(sums) - len(out))]
            for out_k, sums_k in zip(out[shift:], sums):
                get = out_k.get
                for key, m in sums_k.items():
                    out_k[key] = get(key, 0) + factor * m
        return from_ints(type(self), self._context(), out, den)


def _canonical(sums: list, den: int) -> tuple:
    """The canonical packed form of the per-power dicts ``sums`` of
    numerators over ``den``: zeros and trailing empty powers dropped, and
    the common factor of ``den`` and every numerator divided out."""
    sums = [{key: m for key, m in sums_k.items() if m} for sums_k in sums]
    while sums and not sums[-1]:
        sums.pop()
    if den != 1:
        g = gcd(den, *[m for sums_k in sums for m in sums_k.values()])
        if g != 1:
            den //= g
            sums = [{key: m // g for key, m in sums_k.items()} for sums_k in sums]
    return tuple(sums), den


def lowest_terms(packed: dict, den: int) -> tuple:
    """The canonical (numerators, den) of the dict ``packed`` of numerators
    over ``den``, as ``_canonical`` makes each power's: zeros dropped and
    the common factor of ``den`` and every numerator divided out."""
    sums, den = _canonical([packed], den)
    return sums[0] if sums else {}, den


def numerators(values) -> tuple:
    """The ``int`` numerators of the exact rationals ``values`` over their
    least common denominator, and that denominator: the one coercion of
    rational coefficients into both packed stores."""
    den = lcm(*[a.denominator for a in values])
    return [a.numerator * (den // a.denominator) for a in values], den


def _pack(pairs) -> tuple:
    """The canonical packed form of the (coded key, coefficients of the
    powers of h) ``pairs``, a repeated key summed."""
    flat = [(k, key, c) for key, coeffs in pairs for k, c in enumerate(coeffs) if c]
    nums, den = numerators([c for _, _, c in flat])
    sums = [{} for _ in range(max([len(coeffs) for _, coeffs in pairs], default=0))]
    for (k, key, _), m in zip(flat, nums):
        sums[k][key] = sums[k].get(key, 0) + m
    return _canonical(sums, den)


def _view(sums, den: int, public_key, rational: bool) -> dict:
    """{public key: coefficient} of a packed form: an ``HBarPolynomial``,
    or a ``Fraction`` for a ``rational`` class.  Keys with the same
    numerators share one (immutable) polynomial."""
    if rational:
        return {public_key(key): Fraction(m, den) for sums_k in sums for key, m in sums_k.items()}
    terms, coeffs = {}, {}
    for key in dict.fromkeys([key for sums_k in sums for key in sums_k]):
        nums = tuple([sums_k.get(key, 0) for sums_k in sums])
        coeff = coeffs.get(nums)
        if coeff is None:
            buf = list(nums) if den == 1 else [Fraction(m, den) for m in nums]
            coeff = coeffs[nums] = HBarPolynomial._with_coeffs(buf)
        terms[public_key(key)] = coeff
    return terms


# ---------------------------------------------------------------------------
# The kernels' access to packed forms


def int_terms(x: _PackedSums) -> tuple:
    """{coded key: [(power of h, numerator), ...]} of ``x``'s packed form,
    and the denominator of every numerator."""
    terms: dict = {}
    for k, sums_k in enumerate(x._sums):
        for key, m in sums_k.items():
            terms.setdefault(key, []).append((k, m))
    return terms, x._den


def from_ints(cls, context: tuple, sums, den: int = 1):
    """The element of ``cls`` over ``context`` whose numerators over
    ``den`` are the per-power dicts ``sums``; zeros, empty top powers and
    common factors are dropped.  The one constructor of kernel results."""
    return cls._from_sums(context, *_canonical(sums, den))


def bilinear(x: _PackedSums, y: _PackedSums, product) -> tuple:
    """(sums, den) of the bilinear map sending each pair of coded keys
    (kx, ky) to ``product(kx, ky)``, a dict {coded key: int} or None, on
    ``x`` and ``y``: per-power numerators over the product of their
    denominators, the powers of h of the two operands adding up."""
    (xs, dx), (ys, dy) = int_terms(x), int_terms(y)
    sums = [{} for _ in range(len(x._sums) + len(y._sums) - 1)]
    for kx, u in xs.items():
        for ky, v in ys.items():
            counts = product(kx, ky)
            if not counts:
                continue
            for i, a in u:
                for j, b in v:
                    w, sums_k = a * b, sums[i + j]
                    get = sums_k.get
                    for key, count in counts.items():
                        sums_k[key] = get(key, 0) + w * count
    return sums, dx * dy


def rekeyed(x: _PackedSums, f) -> tuple:
    """(sums, den) of ``x`` with each coded key sent to ``f(key)``, and
    dropped where that is None; keys that meet are summed."""
    out = []
    for sums_k in x._sums:
        out_k: dict = {}
        for key, m in sums_k.items():
            key = f(key)
            if key is not None:
                out_k[key] = out_k.get(key, 0) + m
        out.append(out_k)
    return out, x._den


def rational_nullspace(rows, ncols):
    """Basis of {x : A x = 0} over the rationals; A given as sparse rows
    ``{col: exact entry}``, which are left unchanged.

    Gauss-Jordan elimination on copies holding the nonzero entries only, so
    each step touches only the pivot row's nonzero columns.  Entries stay
    ``int`` while every pivot is +-1; another pivot divides as a
    ``Fraction``.  The reduced echelon form is unique, so the basis (one
    ``Fraction`` vector per free column) does not depend on the storage.
    """
    rows = [{col: v for col, c in row.items() if (v := _exact(c))} for row in rows]
    reduced: dict = {}  # pivot column: its row, 1 there and 0 at the other pivots
    for col in range(ncols):
        at = next((r for r, row in enumerate(rows) if col in row), None)
        if at is None:
            continue
        pivot_row = rows.pop(at)
        pv = pivot_row[col]
        if pv != 1:
            inverse = -1 if pv == -1 else 1 / Fraction(pv)
            pivot_row = {c: v * inverse for c, v in pivot_row.items()}
        for row in [*rows, *reduced.values()]:
            factor = row.get(col)
            if factor is None:
                continue
            for c, v in pivot_row.items():
                value = row.get(c, 0) - factor * v
                if value:
                    row[c] = value
                else:
                    del row[c]
        reduced[col] = pivot_row
    basis = []
    for free in range(ncols):
        if free not in reduced:
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            for pc, row in reduced.items():
                vec[pc] = Fraction(-row.get(free, 0))
            basis.append(vec)
    return basis
