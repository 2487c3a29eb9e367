"""Polynomials and Rees-Weyl operators on the cotangent space of a quiver
representation space.

Coordinates are matrix entries (a)_{p,q} of arrows and (a')_{p,q} of their
reverses; quantum mode replaces (a')_{p,q} by the derivative d/d(a)_{q,p}
with the Rees commutation rule [d/d(a)_{j,i}, (a)_{k,l}] = h d_{jk} d_{il}.
Polynomials and operators share one packed storage: (a')_{p,q} sits where
d/d(a)_{q,p} does, and operators are normal-ordered, multiplications left
of derivatives.  The infinitesimal gl action tau, its kernel, gauge-element
actions on coordinates, the packed traces of both rings, the blockwise
quantum moment operator and the packed check of the reduction-ideal
decomposition all live here.  Every trace, block matrix and moment block
is a weighted sum of contractions of coded configurations, summed by one
front-end, ``contracted``, within ``work.MAX_INDEX_ASSIGNMENTS``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import work
from .errors import DimensionError, MismatchError
from .linear import (
    LinearCombination,
    _PackedSums,
    bilinear,
    from_ints,
    int_terms,
    lowest_terms,
    numerators,
    rational_nullspace,
)
from .quiver import _LETTER, Letter, Quiver, _code, _ends, make_dimension_vector, moment_pairs
from .rings import HBarPolynomial, _exact, as_fraction
from .schedler import ideal_normal_forms


def _check_coord_bounds(quiver, dim, arrow, starred, row, col):
    a = quiver.arrows[arrow]
    rmax, cmax = (dim[a.source], dim[a.target]) if starred else (dim[a.target], dim[a.source])
    if not (1 <= row <= rmax and 1 <= col <= cmax):
        name = a.name + ("'" if starred else "")
        raise DimensionError(
            f"({name})_{{{row},{col}}} out of range for block {rmax}x{cmax}"
        )


# ---------------------------------------------------------------------------
# Packed elements: coordinate polynomials and the Rees-Weyl algebra

# The tuple form of an element, its ``terms``: a Weyl monomial is
# (positions, derivatives), each a sorted tuple of ((arrow, row, col), exp),
# a derivative keyed by the coordinate it differentiates, so d(a)_{r,c}
# pairs with (a)_{r,c}; a polynomial monomial is a sorted tuple of
# ((arrow, starred, row, col), exp).
#
# Both rings hold their terms packed: one int key per monomial and power of
# h, with an int numerator over the element's one denominator, in the
# layout of a ``_Codec``: the rational form of the keyed store
# (``linear._PackedSums``), canonical by ``linear.lowest_terms``.
# With the n coordinates (arrow, row, col) of the codec's arrows in sorted
# order and a field width w, bits [k w, (k + 1) w) hold the exponent of
# coordinate k, bits [(n + k) w, (n + k + 1) w) that of its derivative (in
# a polynomial, that of its conjugate (a')_{c,r}) and the bits from 2 n w
# on the power of h: the h field, on top, so no power outgrows it.  A
# polynomial's keys all lie below it.  A product of monomials with nothing
# to contract is the sum of their keys; each contraction of d_v with x_v
# drops one unit from both fields and adds one to the h field.  w fits
# ``_top``, a bound on the exponents that products add up, so no field
# carries into the next.  A binary operation on two layouts re-packs both
# into their join (``_join``).


class _PackedOperator(LinearCombination):
    """The packed storage of ``WeylElement`` and ``PolyElement`` and their
    linear structure.

    ``_codec``, ``_packed`` ({int key: nonzero int numerator}), ``_den``
    (the one positive int denominator of every numerator) and ``_top``
    live here, so an element's context stays its own ``__slots__``.  The
    form is canonical, as the keyed store's is: ``_den`` and the numerators
    share no factor, so two equal elements hold equal numerators and
    denominators once re-packed into one layout.  A public constructor
    packs its terms at once, and an element with no terms takes the empty
    packed form (``_EMPTY_CODEC``) without packing; ``terms`` is built from
    the packed form on its first read and kept, and is the only place a
    ``Fraction`` or ``HBarPolynomial`` is made.  Arithmetic reads and makes
    packed forms only, on numerators: a product's denominator is the
    product of its operands', a sum's their lcm, and the common factor is
    divided out (``_lowest``) only when the denominator is not 1.  Where
    the rings differ, the class says which it is (``_quantum``) and reads a
    scalar as the coefficients of its powers of h (``_scalars``).
    """

    __slots__ = ("_codec", "_packed", "_den", "_top")

    def __init__(self, quiver: Quiver, dim, terms=None):
        super().__init__(quiver, tuple(dim))
        packed = _pack(self, terms) if terms else (_EMPTY_CODEC, {}, 1, 0)
        for slot, value in zip(_PackedOperator.__slots__, packed):
            object.__setattr__(self, slot, value)

    @classmethod
    def _from_packed(cls, quiver: Quiver, dim, codec, packed: dict, den: int, top: int):
        """The element of the canonical numerators ``packed`` over ``den``
        in ``codec``, exponents at most ``top``."""
        out = object.__new__(cls)
        out.quiver, out.dim, out._codec, out._packed, out._den, out._top = quiver, dim, codec, packed, den, top
        return out

    def __getattr__(self, name):  # called for an unset slot
        if name != "terms":
            raise AttributeError(name)
        object.__setattr__(self, name, self._codec.unpack(self._packed, self._den, self._quantum))
        return self.terms

    def _lowest(self, packed: dict, den: int, top=None, codec=None):
        """The element of this type and context of the numerators
        ``packed``, zeros allowed, over ``den``, put in canonical form."""
        return self._from_packed(self.quiver, self.dim, codec or self._codec, *lowest_terms(packed, den), top or self._top)

    def __bool__(self) -> bool:
        return bool(self._packed)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self._context() != other._context() or self._den != other._den:
            return False
        _, _, a, b = _join(self, other, False)
        return a == b

    def __add__(self, other, sign=1):
        self._check_compatible(other)
        codec, top, a, b = _join(self, other, False)
        den = math.lcm(self._den, other._den)
        fa = den // self._den
        out = dict(a) if fa == 1 else {key: fa * c for key, c in a.items()}
        _add_scaled(out, b.items(), ((0, sign * (den // other._den)),), 0)
        return self._lowest(out, den, top, codec)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        negated = {key: -c for key, c in self._packed.items()}
        return self._from_packed(self.quiver, self.dim, self._codec, negated, self._den, self._top)

    def scale(self, c):
        """Times a scalar: c h^j moves each key j units up the h field, its
        numerator over the scalars' common denominator times the element's."""
        nums, den = numerators(self._scalars(c))
        out: dict = {}
        _add_scaled(out, self._packed.items(), enumerate(nums), self._codec.hunit)
        return self._lowest(out, self._den * den)

    __rmul__ = scale


class WeylElement(_PackedOperator):
    """Normal-ordered differential operator with Q[h] coefficients."""

    __slots__ = ("quiver", "dim")

    _quantum = True
    _scalars = staticmethod(lambda c: HBarPolynomial.coerce(c).coeffs)

    @classmethod
    def constant(cls, quiver, dim, c) -> "WeylElement":
        return cls(quiver, dim, {((), ()): c})

    @classmethod
    def position(cls, quiver, dim, arrow, row, col, coeff=1) -> "WeylElement":
        _check_coord_bounds(quiver, dim, arrow, False, row, col)
        return cls(quiver, dim, {((((arrow, row, col), 1),), ()): coeff})

    @classmethod
    def derivative(cls, quiver, dim, arrow, row, col, coeff=1) -> "WeylElement":
        """The operator d/d(a)_{row,col}; equals the token [a']_{col,row}."""
        _check_coord_bounds(quiver, dim, arrow, False, row, col)
        return cls(quiver, dim, {((), (((arrow, row, col), 1),)): coeff})

    @classmethod
    def operator_token(cls, quiver, dim, letter: Letter, row, col, coeff=1) -> "WeylElement":
        """[a]_{row,col} for plain letters, [a']_{row,col} for starred ones."""
        if letter.starred:
            return cls.derivative(quiver, dim, letter.arrow, col, row, coeff)
        return cls.position(quiver, dim, letter.arrow, row, col, coeff)

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return weyl_mul(self, other)
        return self.scale(other)

    def is_divisible_by_h(self) -> bool:
        hunit = self._codec.hunit
        return all(key >= hunit for key in self._packed)

    def div_h(self) -> "WeylElement":
        if not self.is_divisible_by_h():
            raise ArithmeticError("operator is not divisible by h")
        hunit = self._codec.hunit
        lowered = {key - hunit: c for key, c in self._packed.items()}
        return self._from_packed(self.quiver, self.dim, self._codec, lowered, self._den, self._top)

    def rees_degrees(self) -> set:
        """All h-grading degrees present: derivative count plus h power.
        The derivative count, the sum of a key's derivative fields, is
        read one bit plane of the fields at a time, each plane over all
        the distinct tops (derivative half and h field) at once."""
        codec = self._codec
        split = codec.split
        tops = list({key >> split for key in self._packed})
        degrees = [top >> split for top in tops]
        for b in range(codec.width):
            ones = codec._ones << b
            degrees = [d + ((top & ones).bit_count() << b) for d, top in zip(degrees, tops)]
        return set(degrees)


class PolyElement(_PackedOperator):
    """Polynomial on the cotangent space with exact rational coefficients."""

    __slots__ = ("quiver", "dim")

    _quantum = False
    _coerce = staticmethod(as_fraction)
    _scalars = staticmethod(lambda c: (_exact(c),))  # a rational only: TypeError on Q[h]

    @classmethod
    def constant(cls, quiver, dim, c) -> "PolyElement":
        return cls(quiver, dim, {(): c})

    @classmethod
    def coordinate(cls, quiver, dim, arrow, starred, row, col, coeff=1) -> "PolyElement":
        _check_coord_bounds(quiver, dim, arrow, starred, row, col)
        return cls(quiver, dim, {(((arrow, starred, row, col), 1),): coeff})

    def __mul__(self, other):
        if isinstance(other, PolyElement):
            return poly_mul(self, other)
        return self.scale(other)


def _pack(x: _PackedOperator, terms) -> tuple:
    """(codec, numerators, den, top) of a public constructor's ``terms`` (a
    dict or (monomial, coefficient) pairs) for ``x``, in a codec with fields
    for their arrows as wide as their largest exponent needs, in canonical
    form; zero coefficients are dropped first."""
    items = terms.items() if isinstance(terms, dict) else terms or ()
    items = [(mono, coeffs) for mono, c in items if any(coeffs := x._scalars(c))]
    if not x._quantum:  # (a')_{r,c} to the field of d(a)_{c,r}
        items = [
            (
                (
                    tuple([((a, r, c), e) for (a, starred, r, c), e in mono if not starred]),
                    tuple([((a, c, r), e) for (a, starred, r, c), e in mono if starred]),
                ),
                coeffs,
            )
            for mono, coeffs in items
        ]
    exps = [(var, exp) for (pos, der), _ in items for var, exp in pos + der]
    top = max([exp for _, exp in exps], default=0)
    codec = _codec(x.quiver, x.dim, tuple(sorted({var[0] for var, _ in exps})), _width(top))
    keyed = []
    for (pos, der), coeffs in items:
        key = sum([e * codec.position(v)[0] for v, e in pos] + [e * codec.derivative(v)[0] for v, e in der])
        keyed += [(key + j * codec.hunit, a) for j, a in enumerate(coeffs) if a]
    nums, den = numerators([a for _, a in keyed])
    packed: dict = {}
    for (key, _), m in zip(keyed, nums):
        packed[key] = packed.get(key, 0) + m
    return codec, *lowest_terms(packed, den), top


def _join(x: _PackedOperator, y: _PackedOperator, product: bool) -> tuple:
    """(codec, top, x's packed terms, y's) in the join of their layouts:
    the union of their arrows, fields as wide as the wider one's and, for
    a ``product``, wide enough for the sum of their tops."""
    cx, cy = x._codec, y._codec
    top = x._top + y._top if product else max(x._top, y._top)
    width = max(cx.width, cy.width, top.bit_length())
    if cx is cy and width == cx.width:
        return cx, top, x._packed, y._packed
    codec = _codec(x.quiver, x.dim, tuple(sorted({*cx.arrows, *cy.arrows})), width)
    return codec, top, cx.repack(x._packed.items(), codec), cy.repack(y._packed.items(), codec)


def _add_scaled(out: dict, pairs, scale, hunit: int) -> None:
    """Add sum a h^j over the (j, a) ``scale`` pairs times the packed (key,
    c) ``pairs`` into ``out``; h^j adds j units to the h field."""
    get = out.get
    for j, a in scale:
        if a:
            shift = j * hunit
            for key, c in pairs:
                key += shift
                out[key] = get(key, 0) + a * c


def _halves(codec, terms: dict) -> list:
    """(key, c, position half, derivative half, the nonzero-field mask of
    each half) of every packed term."""
    low, split, nonzero = codec.low, codec.split, codec.nonzero
    return [(k, c, p := k & low, d := k >> split & low, nonzero(p), nonzero(d)) for k, c in terms.items()]


def _normal_order(x: WeylElement, y: WeylElement, commutator: bool) -> WeylElement:
    """x y, or x y - y x, on packed terms.  A pair of monomials gives the
    sum of their keys and the contractions of the left one's derivatives
    with the right one's positions.  In a commutator the sums cancel, the
    other order's contractions are subtracted, and a pair whose derivative
    fields miss the other's position fields both ways (one AND of their
    nonzero-field masks each) is skipped."""
    if x._context() != y._context():
        raise MismatchError("operator operands disagree on quiver or dimensions")
    codec, top, xs, ys = _join(x, y, True)
    contract, right = codec.contractions, _halves(codec, ys)
    out: dict = {}
    get = out.get
    for k1, c1, p1, d1, n1, m1 in _halves(codec, xs):
        for k2, c2, p2, d2, n2, m2 in right:
            xy, yx = m1 & n2, commutator and m2 & n1
            if commutator and not (xy or yx):
                continue
            key, c = k1 + k2, c1 * c2
            if not commutator:
                out[key] = get(key, 0) + c
            for step, f in contract(d1, p2, xy) if xy else ():
                out[key - step] = get(key - step, 0) + c * f
            for step, f in contract(d2, p1, yx) if yx else ():
                out[key - step] = get(key - step, 0) - c * f
    return x._lowest(out, x._den * y._den, top, codec)


def weyl_mul(x: WeylElement, y: WeylElement) -> WeylElement:
    """The normal-ordered product x y."""
    return _normal_order(x, y, False)


def weyl_commutator(x: WeylElement, y: WeylElement) -> WeylElement:
    """xy - yx, from the contracted terms of each order only."""
    return _normal_order(x, y, True)


def classical_symbol(op: WeylElement) -> PolyElement:
    """Set h to zero and read operators as coordinates: d(a)_{r,c} -> (a')_{c,r}.
    The polynomial keeps op's h-free keys, in op's codec, over its
    denominator less the factor the dropped keys alone shared with it."""
    hunit = op._codec.hunit
    packed = {key: c for key, c in op._packed.items() if key < hunit}
    return PolyElement._from_packed(op.quiver, op.dim, op._codec, *lowest_terms(packed, op._den), op._top)


def poly_mul(x: PolyElement, y: PolyElement) -> PolyElement:
    """The product x y: each pair of monomials gives the sum of their keys."""
    if x._context() != y._context():
        raise MismatchError("polynomial operands disagree on quiver or dimensions")
    codec, top, xs, ys = _join(x, y, True)
    right = list(ys.items())
    out: dict = {}
    get = out.get
    for k1, c1 in xs.items():
        for k2, c2 in right:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    return x._lowest(out, x._den * y._den, top, codec)


def poisson(f: PolyElement, g: PolyElement) -> PolyElement:
    """Symplectic bracket with {(a)_{ij}, (a')_{ji}} = 1 on conjugate pairs.

    Conjugates share a field number v.  A pair of monomials m1 m2 gives, for
    each v where one holds (a)_{ij} and the other (a')_{ji}, (m1_v m2'_v -
    m1'_v m2_v) times their product with one unit off both of v's fields:
    the single contractions of a Weyl product, without their h."""
    if f._context() != g._context():
        raise MismatchError("poisson operands disagree on quiver or dimensions")
    codec, top, fs, gs = _join(f, g, True)
    mask, width, lift, right = codec.mask, codec.width, 1 + (1 << codec.split), _halves(codec, gs)
    out: dict = {}
    get = out.get
    for k1, c1, p1, d1, n1, m1 in _halves(codec, fs):
        for k2, c2, p2, d2, n2, m2 in right:
            common = m1 & n2 | n1 & m2
            while common:
                bit = common & -common
                common ^= bit
                at = bit.bit_length() - width
                factor = (p1 >> at & mask) * (d2 >> at & mask) - (d1 >> at & mask) * (p2 >> at & mask)
                if factor:
                    key = k1 + k2 - (lift << at)
                    out[key] = get(key, 0) + c1 * c2 * factor
    return f._lowest(out, f._den * g._den, top, codec)


# ---------------------------------------------------------------------------
# gl_d, tau, characters


class GlElement(_PackedSums):
    """Element of gl_d: rational combination of elementary matrices
    e^i_{p,q}, keyed by (i, p, q) and held in the store's one power of h."""

    __slots__ = ("quiver", "dim")

    _coerce = staticmethod(as_fraction)
    _rational = True

    def __init__(self, quiver: Quiver, dim, terms=None):
        object.__setattr__(self, "dim", tuple(dim))
        terms = list(terms.items() if isinstance(terms, dict) else terms or ())
        for (i, p, q), _ in terms:
            if not (1 <= p <= self.dim[i] and 1 <= q <= self.dim[i]):
                raise DimensionError(f"e^{i}_{{{p},{q}}} out of range")
        super().__init__(quiver, terms)

    @classmethod
    def elementary(cls, quiver, dim, i, p, q, coeff=1) -> "GlElement":
        return cls(quiver, dim, {(i, p, q): coeff})

    @classmethod
    def identity(cls, quiver, dim) -> "GlElement":
        terms = {}
        for i in range(len(quiver.vertices)):
            for p in range(1, dim[i] + 1):
                terms[(i, p, p)] = 1
        return cls(quiver, dim, terms)


def gl_basis(quiver: Quiver, dim):
    for i in range(len(quiver.vertices)):
        for p in range(1, dim[i] + 1):
            for q in range(1, dim[i] + 1):
                yield (i, p, q)


def gl_commutator(v: GlElement, w: GlElement) -> GlElement:
    if v._context() != w._context():
        raise MismatchError("gl operands disagree on quiver or dimensions")

    def bracket(a, b):
        (i, p, q), (j, u, t) = a, b
        counts: dict = {}
        if i == j:
            if q == u:
                counts[i, p, t] = 1
            if t == p:
                counts[i, u, q] = counts.get((i, u, q), 0) - 1
        return counts

    return from_ints(GlElement, v._context(), *bilinear(v, w, bracket))


def tau_pairs(quiver: Quiver, dim, i: int, p: int, q: int):
    """The signed terms of tau(e^i_{p,q}) = sum sign * x_pos d_der, as
    ``(sign, pos, der)`` coordinate keys: (1, (a, j, p), (a, j, q)) for each
    arrow a with s(a) = i and (-1, (a, q, j), (a, p, j)) for t(a) = i, j
    over the block at the arrow's other end.  Each term is already normal
    ordered, position left of derivative."""
    for ai, arrow in enumerate(quiver.arrows):
        if arrow.source == i:
            for j in range(1, dim[arrow.target] + 1):
                yield 1, (ai, j, p), (ai, j, q)
        if arrow.target == i:
            for j in range(1, dim[arrow.source] + 1):
                yield -1, (ai, q, j), (ai, p, j)


def _arrows_at(quiver: Quiver, vertices) -> tuple:
    """The arrows with an end in ``vertices``."""
    return tuple(ai for ai, a in enumerate(quiver.arrows) if a.source in vertices or a.target in vertices)


def _tau_terms(quiver: Quiver, dim, items, codec) -> dict:
    """tau of the gl element of the ((i, p, q), int c) ``items``, packed in
    ``codec``: each term x_pos d_der is one key of two units."""
    out: dict = {}
    for (i, p, q), c in items:
        for sign, pos, der in tau_pairs(quiver, dim, i, p, q):
            key = codec.position(pos)[0] + codec.derivative(der)[0]
            out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def tau(quiver: Quiver, dim, v: GlElement, constant=0) -> WeylElement:
    """Infinitesimal gl_d action as a first-order differential operator,
    plus the scalar ``constant`` of Q[h] when one is given.

    It reads v's ``int`` numerators and denominator (``linear.int_terms``)
    and puts the constant's coefficients over the same denominator, so no
    ``Fraction`` is multiplied.  Its fields are as wide as those of the
    moment blocks (top 2), which ``verify qmoment`` compares it with, and
    its constant h chi is added in the same codec, so nothing on either
    side is re-packed."""
    dim = tuple(dim)
    if (quiver, dim) != v._context():
        raise MismatchError("gl element disagrees on quiver or dimensions")
    terms, den = int_terms(v)  # a gl element holds h^0 only
    codec = _codec(quiver, dim, _arrows_at(quiver, {i for i, _, _ in terms}), _width(2))
    packed = _tau_terms(quiver, dim, [(key, m) for key, ((_, m),) in terms.items()], codec)
    nums, dc = numerators(HBarPolynomial.coerce(constant).coeffs)
    if dc != 1:
        packed = {key: dc * c for key, c in packed.items()}
    _add_scaled(packed, ((0, den),), enumerate(nums), codec.hunit)
    return WeylElement._from_packed(quiver, dim, codec, *lowest_terms(packed, den * dc), 1)


def gauge_act(quiver: Quiver, dim, i: int, p: int, q: int, f: PolyElement) -> PolyElement:
    """Action of the (p, q) entry of the gauge derivation at vertex i.

    On a coordinate of a letter x (plain or starred) the value is
    d_{s(x),i} d_{p,col} (x)_{row,q} - d_{t(x),i} d_{row,q} (x)_{p,col},
    extended to polynomials by the Leibniz rule.  It reads the tuple form
    of f, independent of the packed kernels it is checked against.
    """
    if not (1 <= p <= dim[i] and 1 <= q <= dim[i]):
        raise DimensionError(f"gauge indices ({p},{q}) out of range at vertex {i}")
    out = []
    for mono, coeff in f.items():
        for var, exp in mono:
            arrow, starred, row, col = var
            letter = Letter(arrow, starred)
            replacements = []
            if letter.source(quiver) == i and p == col:
                replacements.append((1, (arrow, starred, row, q)))
            if letter.target(quiver) == i and row == q:
                replacements.append((-1, (arrow, starred, p, col)))
            for sign, new_var in replacements:
                exps = dict(mono)
                exps[var] -= 1
                exps[new_var] = exps.get(new_var, 0) + 1
                out.append((tuple(sorted((v, e) for v, e in exps.items() if e)), coeff * exp * sign))
    return PolyElement(quiver, dim, out)


def tau_kernel(quiver: Quiver, dim) -> list:
    """Exact basis of {v in gl_d : tau(v) = 0}, from one sparse int row
    {basis index: coefficient} per monomial of tau of the basis."""
    dim = make_dimension_vector(quiver, dim)
    basis = list(gl_basis(quiver, dim))
    codec = _codec(quiver, dim, tuple(range(len(quiver.arrows))), 1)
    rows: dict = {}
    for b, key in enumerate(basis):
        for mono, c in _tau_terms(quiver, dim, [(key, 1)], codec).items():
            rows.setdefault(mono, {})[b] = c
    return [
        GlElement(quiver, dim, {key: c for key, c in zip(basis, vec) if c})
        for vec in rational_nullspace(list(rows.values()), len(basis))
    ]


# ---------------------------------------------------------------------------
# Index contraction

@lru_cache(maxsize=256)
def _coordinate_fields(quiver: Quiver, dim: tuple, arrows: tuple) -> tuple:
    """The coordinates (arrow, row, col) of the sorted ``arrows`` in sorted
    order, the field number of each, and the polynomial variables of the
    low and the high fields."""
    coords = tuple(
        (ai, row, col)
        for ai in arrows
        for row in range(1, dim[quiver.arrows[ai].target] + 1)
        for col in range(1, dim[quiver.arrows[ai].source] + 1)
    )
    plain = tuple((a, False, row, col) for a, row, col in coords)
    starred = tuple((a, True, col, row) for a, row, col in coords)
    return coords, {v: k for k, v in enumerate(coords)}, (plain, starred)


class _Codec:
    """One layout of packed monomials (see the comment above
    ``_PackedOperator``), shared by both rings, and its unpacking to either
    tuple form.  Only the coordinates of ``arrows`` get fields, so a key
    grows with the arrows used, not with the quiver.  ``_codec`` makes one
    per layout."""

    __slots__ = ("arrows", "field", "width", "mask", "split", "low", "hshift", "hunit",
                 "_coords", "_variables", "_ones", "_rest", "_high")

    def __init__(self, quiver: Quiver, dim: tuple, arrows: tuple, width: int):
        # a key's bits: both halves of a field per coordinate, and the h field
        fields = sum([dim[quiver.arrows[ai].target] * dim[quiver.arrows[ai].source] for ai in arrows])
        message = "packed keys need {amount} bits, above the limit {limit}"
        work.check((2 * fields + 1) * width, work.MAX_KEY_BITS, message)
        self.arrows = arrows
        self._coords, self.field, self._variables = _coordinate_fields(quiver, dim, arrows)
        self.width = width
        self.mask = (1 << width) - 1
        self.split = len(self._coords) * width
        self.low = (1 << self.split) - 1
        self.hshift = 2 * self.split
        self.hunit = 1 << self.hshift
        # the lowest bit of each field of a half, the bits below each top
        # bit, and the top bits
        self._ones = self.low // self.mask
        self._rest, self._high = self._ones * ((1 << width - 1) - 1), self._ones << width - 1

    def position(self, var):
        """The operator token (unit, shift, drop) of the coordinate ``var`` =
        (arrow, row, col): ``shift`` is that of d_var's field and ``drop``
        the Rees correction's step, a unit off that field and one onto h's."""
        at = self.field[var] * self.width
        shift = self.split + at
        return 1 << at, shift, (1 << shift) - self.hunit

    def derivative(self, var):
        """The token of d_var, or in a polynomial of the coordinate
        conjugate to var."""
        return 1 << (self.split + self.field[var] * self.width), None, None

    def entry(self, letter: Letter, quantum: bool):
        """The token of the (row, col) entry of a letter's matrix, with
        [a']_{row,col} = d/d(a)_{col,row} for an operator and, in a
        polynomial, (a')_{row,col} in the field of d(a)_{col,row}."""
        arrow, starred = letter
        if starred:
            return lambda row, col: self.derivative((arrow, col, row))
        if quantum:
            return lambda row, col: self.position((arrow, row, col))
        return lambda row, col: (self.position((arrow, row, col))[0], None, None)

    def _fields(self, bits: int):
        """(number, exponent) of each nonzero field of a half of a key."""
        width, mask = self.width, self.mask
        while bits:
            k = ((bits & -bits).bit_length() - 1) // width
            exp = bits >> k * width & mask
            bits ^= exp << k * width
            yield k, exp

    def nonzero(self, bits: int) -> int:
        """The top bit of each nonzero field of a half of a key."""
        rest = self._rest
        return ((bits & rest) + rest | bits) & self._high

    def contractions(self, der: int, pos: int, common: int) -> list:
        """(step, factor) of each term of moving the derivative half ``der``
        past the position half ``pos`` that contracts some field v of the
        nonzero mask ``common``, k_v >= 1 times: k_v units off both fields
        and onto the h field, times C(der_v, k_v) C(pos_v, k_v) k_v!."""
        mask, lift = self.mask, 1 + (1 << self.split)
        per_field = []
        while common:
            bit = common & -common
            common ^= bit
            at = bit.bit_length() - self.width
            b, a = der >> at & mask, pos >> at & mask
            step = (lift << at) - self.hunit
            per_field.append(
                [(k * step, math.comb(b, k) * math.comb(a, k) * math.factorial(k)) for k in range(min(a, b) + 1)]
            )
        if len(per_field) == 1:
            return per_field[0][1:]
        combos = itertools.product(*per_field)
        next(combos)  # the first combination contracts nothing
        return [(sum([s for s, _ in combo]), math.prod([f for _, f in combo])) for combo in combos]

    def repack(self, pairs, dst: "_Codec") -> dict:
        """The packed (key, c) ``pairs`` as a dict in the layout of
        ``dst``, whose arrows include this one's and whose fields are as
        wide; each half is moved once per call."""
        if dst is self:
            return dict(pairs)
        spots = [dst.field[var] * dst.width for var in self._coords]
        memo, low, split, hshift, dsplit, dshift = {}, self.low, self.split, self.hshift, dst.split, dst.hshift

        def move(bits):
            found = memo.get(bits)
            if found is None:
                found = memo[bits] = sum([exp << spots[k] for k, exp in self._fields(bits)])
            return found

        return {move(key & low) + (move(key >> split & low) << dsplit) + (key >> hshift << dshift): c for key, c in pairs}

    def unpack(self, terms: dict, den: int, quantum: bool) -> dict:
        """The packed numerators ``terms`` over ``den`` in the tuple form of
        their ring: Weyl terms with ``HBarPolynomial`` coefficients, the
        powers of h of one monomial summed, or polynomial terms with
        ``Fraction`` ones.  Each half of a key and each coefficient is
        decoded once per call."""
        plain, starred = (self._coords, self._coords) if quantum else self._variables
        low, split, hshift = self.low, self.split, self.hshift
        lows, highs, coeffs, out = {}, {}, {}, {}
        for key, c in terms.items():
            bits = key & low
            pos = lows.get(bits)
            if pos is None:
                pos = lows[bits] = tuple([(plain[k], e) for k, e in self._fields(bits)])
            bits = key >> split & low
            der = highs.get(bits)
            if der is None:
                der = highs[bits] = tuple([(starred[k], e) for k, e in self._fields(bits)])
            if not quantum:
                out[tuple(sorted(pos + der)) if der else pos] = Fraction(c, den)
                continue
            power = key >> hshift
            coeff = coeffs.get((c, power))
            if coeff is None:
                value = c if den == 1 else Fraction(c, den)
                coeff = coeffs[c, power] = HBarPolynomial._with_coeffs([0] * power + [value])
            prev = out.setdefault((pos, der), coeff)
            if prev is not coeff:  # another power of h of the same monomial
                out[pos, der] = prev + coeff
        return out


_codec = lru_cache(maxsize=256)(_Codec)


def _width(top: int) -> int:
    """The field width for exponents up to ``top``."""
    return max(top.bit_length(), 1)


#: The layout of an element with no terms: it has no fields, so one serves
#: every quiver and dimension vector.
_EMPTY_CODEC = _Codec(None, (), (), _width(0))


def _times(acc: dict, token, mask: int, out: dict) -> None:
    """Add acc * token into ``out``, both packed term dicts.

    A token ``(unit, shift, drop)`` multiplies a key by adding ``unit``.  A
    quantum position x_v carries the shift of d_v's field: x_v moves left
    past d_v^b, so the key also gives b h (key / d_v), the key less
    ``drop``.  Every coefficient of a contraction is a positive int, so no
    sum here cancels.
    """
    unit, shift, drop = token
    get = out.get
    if shift is None:
        for key, c in acc.items():
            key += unit
            out[key] = get(key, 0) + c
        return
    for key, c in acc.items():
        k = key + unit
        out[k] = get(k, 0) + c
        b = key >> shift & mask
        if b:
            k = key - drop
            out[k] = get(k, 0) + c * b


def _plan_weight(plan) -> int:
    """The (source, token, destination) triples a contraction plan holds."""
    return sum([len(triples) for _, triples in plan[0]]) // 3


#: The bounded memo of contraction plans (``_plan``), a
#: ``work.GenerationalCache`` of at most ``work.CACHE_SIZE`` plans and
#: ``work.PLAN_WEIGHT`` triples, keyed by a contraction's shape: the (i, j)
#: variables of its slots in multiplication order, the length of each
#: variable's range and its free variables.  A plan holds only tuples of
#: ints, so CPython stops tracking it.
_plans = work.GenerationalCache(work.CACHE_SIZE, _plan_weight, work.PLAN_WEIGHT)


def _plan(pairs: tuple, lengths: tuple, free: tuple) -> tuple:
    """The index schedule of a contraction of the shape (``pairs``,
    ``lengths``, ``free``): slot t multiplies the token of its variables
    ``pairs[t]`` = (i, j), variable v takes ``lengths[v]`` values, and the
    ``free`` variables stay unsummed.

    A state is an assignment of the live variables, those met and still
    read by a later slot or free; each slot's states are numbered in the
    order they are first reached.  The plan is (steps, finals): one step
    (state count, triples) per slot, ``triples`` a flat tuple (source,
    token, destination, ...) in which the token of values (a, b) of (i,
    j), counted from 0, is number a lengths[j] + b; and ``finals``, the
    positions in their ranges of the ``free`` variables of each final
    state, one after the other.  Each variable not in ``free`` is summed as
    soon as the last slot reading it has been multiplied, so a cyclic
    word of m letters at dimension d takes O(m d^3) triples, not d^m."""
    last = {}
    for t, (i, j) in enumerate(pairs):
        last[i] = last[j] = t
    live, states, steps = (), {(): 0}, []
    for t, (i, j) in enumerate(pairs):
        new = tuple(v for v in dict.fromkeys((i, j)) if v not in live)
        grown = live + new
        live = tuple(v for v in grown if v in free or last[v] > t)
        at = [grown.index(v) for v in (i, j) + live]
        out, triples, width = {}, [], lengths[j]
        for key, s in states.items():
            for ext in itertools.product(*(range(lengths[v]) for v in new)):
                ks = key + ext
                d = out.setdefault(tuple([ks[p] for p in at[2:]]), len(out))
                triples += (s, ks[at[0]] * width + ks[at[1]], d)
        steps.append((len(out), tuple(triples)))
        states = out
    at = [live.index(v) for v in free]
    return tuple(steps), tuple([key[p] for key in states for p in at])


def _contract(slots, ranges, mask: int, free=()):
    """Sum over all index variables of the product of the slot tokens.

    ``slots`` lists ``(entry, i, j)`` in multiplication order; its token is
    ``entry(k_i, k_j)`` and ``ranges[v]`` holds the values of variable v.
    It runs the plan of its shape (``_plan``), read from the plan cache
    ``_plans`` and, on a miss, built and stored: each slot's tokens are
    made once, d_i d_j ``entry`` calls, and the sums are a list of packed
    term dicts indexed by state, starting from the unit ``{0: 1}``, each
    triple multiplying its source's sum by its token into its destination
    (``_times``).  Every free variable must occur in some slot.  The result
    maps each assignment of the ``free`` variables to the packed term dict
    of its entry.
    """
    shape = (tuple([(i, j) for _, i, j in slots]), tuple(map(len, ranges)), free)
    plan = _plans.get(shape)
    if plan is None:
        plan = _plan(*shape)
        _plans.put(shape, plan)
    steps, finals = plan
    sums = [{0: 1}]
    for (entry, i, j), (count, triples) in zip(slots, steps):
        tokens = [entry(row, col) for row in ranges[i] for col in ranges[j]]
        out = [{} for _ in range(count)]
        it = iter(triples)
        for s, k, d in zip(it, it, it):
            _times(sums[s], tokens[k], mask, out[d])
        sums = out
    n = len(free)
    return {
        tuple([ranges[v][x] for v, x in zip(free, finals[s * n : s * n + n])]): value for s, value in enumerate(sums)
    }


def _charge(quiver: Quiver, dim, letters, ends=None) -> None:
    """Refuse to contract words whose index assignments add up to more
    than ``work.MAX_INDEX_ASSIGNMENTS``; ``letters`` holds the letter codes of
    each item's words as one str.  An item counts the product of its index
    ranges: one per letter, the block size at its target; with ``ends`` =
    (rows, cols) each item is one open word, its first range the rows and
    one more range the cols."""
    size = {code: dim[target] for code, (_, target) in _ends(quiver).items()}.__getitem__
    if ends:
        corner = len(ends[0]) * len(ends[1])
        total = sum([corner * math.prod(map(size, s[1:])) for s in letters])
    else:
        total = sum([math.prod(map(size, s)) for s in letters])
    message = "contraction has {amount} index assignments, above the limit {limit}"
    work.check(total, work.MAX_INDEX_ASSIGNMENTS, message)


def _contract_packed(quiver: Quiver, dim, codec: _Codec, cfg, quantum: bool, ends=None) -> dict:
    """The packed sums of ``_contract`` for the coded configuration ``cfg``
    = (codes, heights, idems) in ``codec``: its letter matrices multiply in
    height order, operator tokens when ``quantum`` and coordinates
    otherwise.  The letters give the slots' tokens and the heights, the
    dimensions and ``ends`` the shape whose plan ``_contract`` runs, so
    configurations of one shape over other letters share a plan.  Without
    ``ends`` every word is a cycle and () maps to the trace, times dim[v]
    for each idempotent factor v.  With ``ends`` =
    (rows, cols) the one word is open and each (row, col) maps to that
    entry of its product; the empty open word is the identity matrix, the
    unit ``{0: 1}`` where row == col."""
    codes, heights, idems = cfg
    ranges, slots = [], []
    for s, hs in zip(codes, heights):
        first = len(ranges)
        for t, (code, height) in enumerate(zip(s, hs)):
            letter = _LETTER[code]
            nxt = t + 1 if ends else (t + 1) % len(s)
            slots.append((height, codec.entry(letter, quantum), first + t, first + nxt))
            ranges.append(range(1, dim[letter.target(quiver)] + 1))
    if ends:
        rows, cols = ends
        if not slots:
            return {(r, c): {0: 1} if r == c else {} for r in rows for c in cols}
        ranges = [rows, *ranges[1:], cols]
    slots.sort(key=lambda slot: slot[0])
    sums = _contract([slot[1:] for slot in slots], ranges, codec.mask, (0, len(ranges) - 1) if ends else ())
    scalar = math.prod([dim[v] for v in idems])
    return sums if scalar == 1 else {(): {key: c * scalar for key, c in sums[()].items()}}


def _kept_weight(value) -> int:
    """The pairs a trace-cache value holds: the (key, coefficient) pairs of
    a flat trace, or those of a kept image's four flat tuples, G's (cfg,
    coefficient) summands and the packed pairs of its P, T and D, P
    counted once when it is T's tuple."""
    if not value or type(value[0]) is not tuple:
        return len(value) >> 1
    G, P, T, D = value
    return (len(G) + len(T) + len(D) + (0 if P is T else len(P))) >> 1


#: The one bounded memo of traced results, a ``work.GenerationalCache``
#: read with ``get`` and stored with ``put`` by ``_closed_sum`` and
#: ``ideal_image``, within ``work.CACHE_SIZE`` entries and ``work.CACHE_WEIGHT``
#: pairs (``_kept_weight``).  It keeps two kinds of entry: the flat trace
#: pairs of a coded configuration (``_flat``) under (quiver, dim, arrows,
#: width, cfg), and what is kept of a generator image (``_image_parts``)
#: under ``(_image_parts, quiver, dim, vertex, word)``.  The values hold
#: only ``int`` and ``str``, so CPython stops tracking them.
_packed_trace = work.GenerationalCache(work.CACHE_SIZE, _kept_weight)


def _flat(terms: dict) -> tuple:
    """The items of ``terms`` as one flat tuple ``(key0, c0, key1, c1,
    ...)``, the form the trace cache keeps; read it in pairs with ``it =
    iter(flat); zip(it, it)``."""
    return tuple([x for term in terms.items() for x in term])


def clear_trace_cache() -> None:
    """Empty the one trace cache: the packed traces of coded
    configurations and the kept generator images."""
    _packed_trace.cache_clear()


def contracted(quiver: Quiver, dim, items, quantum: bool, ends=None, codec=None, den: int = 1):
    """The weighted sum of contractions over the (coded configuration,
    [(power of h, int numerator), ...]) ``items``, every numerator over
    ``den``, as ``linear.int_terms`` gives a ``QPAElement``'s: operator
    products when ``quantum``, and otherwise coordinate products read at
    h = 0, an item's other powers dropped.

    Without ``ends`` every item is closed and the result is the element
    sum m h^k Tr(cfg), an idempotent factor v scaling its item by dim[v].
    With ``ends`` = (rows, cols) every item is one open word (one
    component, no idempotents) and the result maps each (row, col) to that
    entry of the sum of their matrices.  The index assignments of all the
    items are charged together before any product (``_charge``).  Every
    item is accumulated into one dict per entry in one ``codec``, by
    default the one with fields for the items' arrows, sized for the
    longest item.  Closed items are summed by ``_closed_sum``, which
    ``_image_parts`` shares: quantum ones are read from the trace cache
    ``_packed_trace`` with ``get`` in that codec's layout and, on a miss,
    contracted and stored with ``put``; the others contract directly.  The
    results are fresh elements, the summed ``int`` numerators over ``den``
    in canonical form, so dividing by ``den`` multiplies nothing; reading
    their ``terms`` stores nothing in the cache."""
    if quantum:
        items = list(items)
    else:
        items = [(cfg, h0) for cfg, scale in items if (h0 := [(0, m) for k, m in scale if not k])]
    letters = ["".join(cfg[0]) for cfg, _ in items]
    _charge(quiver, dim, letters, ends)
    top = max(map(len, letters), default=0)
    if codec is None:
        arrows = {_LETTER[c].arrow for c in set().union(*letters)}
        codec = _codec(quiver, dim, tuple(sorted(arrows)), _width(top))
    cls = WeylElement if quantum else PolyElement
    make = lambda terms: cls._from_packed(quiver, dim, codec, *lowest_terms(terms, den), top)
    if ends is None:
        terms = _closed_sum(quiver, dim, codec, items, quantum)
        # a closed sum holds no zero, so over 1 it is canonical already
        return cls._from_packed(quiver, dim, codec, terms, 1, top) if den == 1 else make(terms)
    rows, cols = ends
    block = {(r, c): {} for r in rows for c in cols}
    for cfg, scale in items:
        for rc, terms in _contract_packed(quiver, dim, codec, cfg, quantum, ends).items():
            _add_scaled(block[rc], terms.items(), scale, codec.hunit)
    return {rc: make(terms) for rc, terms in block.items()}


def _closed_sum(quiver: Quiver, dim, codec: _Codec, items, quantum: bool, keep: bool = True) -> dict:
    """The packed ``int`` sum m h^k Tr(cfg) in ``codec``, without zeros,
    over closed (cfg, [(k, int m), ...]) ``items``, charging nothing.  A
    quantum trace is read from ``_packed_trace`` with ``get`` under
    (quiver, dim, arrows, width, cfg) and, on a miss, contracted in
    ``codec`` and, when ``keep``, stored with ``put``; a classical one is
    contracted the same way and not kept.  A lone quantum item of scale 1,
    as every ``trace_quantum`` of one configuration is, is its flat trace
    read into a fresh dict: a contraction's coefficients are positive, so
    the trace holds no zero and no key twice."""
    out: dict = {}
    get, hunit, read = out.get, codec.hunit, _packed_trace.get
    for cfg, scale in items:
        if quantum:
            key = (quiver, dim, codec.arrows, codec.width, cfg)
            traced = read(key)
            if traced is None:
                traced = _flat(_contract_packed(quiver, dim, codec, cfg, True)[()])
                if keep:
                    _packed_trace.put(key, traced)
            if len(items) == 1 and list(scale) == [(0, 1)]:
                it = iter(traced)
                return dict(zip(it, it))
        else:
            traced = _flat(_contract_packed(quiver, dim, codec, cfg, False)[()])
        for k, m in scale:
            shift = k * hunit
            it = iter(traced)
            for key, c in zip(it, it):
                key += shift
                out[key] = get(key, 0) + m * c
    return {key: c for key, c in out.items() if c}


# ---------------------------------------------------------------------------
# The reduction-ideal decomposition, packed and Rees-graded
#
# A generator at ``vertex`` with a v-letter marked word p is the spliced
# part (N = v + 2 letters) plus (-lambda + h r) times p.  Its check is four
# sums {coded cfg: int} of closed configurations
# (``schedler.ideal_normal_forms``), all traced in one codec: the
# straightened spliced part G and cycle P, p's word T = Tr_q(p), and the
# tau re-expansion E = sum M_{l1,l2} tau(-e_{l1,l2}), M the open word's
# matrix.  Each tau term x d closes the open word with one moment pair,
# the position token at height v + 1 and the derivative at v + 2, so E is
# the sum of the traces of those closed words.  An n-letter term c of an
# N'-letter part stands for c h^((N' - n)/2), an item of ``_closed_sum``
# with that power of h, so G and E sit at Rees grade N, P and T at grade
# v.  None depends on (r, lambda), and the decomposition target ==
# re_expand(chi), split by grade, is two exact comparisons:
# G + r h P - E = chi h T at grade N and, when lambda != 0, P = T at grade
# v.  So all of an ``IdealDecomposition`` but its (r, lambda) depends only
# on (quiver, dim, vertex, marked word), and ``ideal_image`` keeps those
# parts in the same trace cache under that key: a miss (``_image_parts``)
# keeps what chi reads, P, T and D = G - E as flat int tuples, and G's
# summands, its normal form as one flat tuple (cfg0, c0, cfg1, c1, ...).
# A hit reads them back, with nothing straightened, charged or summed, and
# binds them to any (r, lambda); G, which
# only ``target`` and ``expansion`` read, is summed again from the cached
# traces when it is read.  So the miss stores the traces of G's and P's
# normal forms in the ``_packed_trace`` cache, and only reads those of T's
# word and of E's closed words (``_closed_sum`` with ``keep`` False): the
# kept image holds T and D, so nothing reads them again, and E's words
# were 57-64% of the stored pairs of a cold ``solve_chi`` and almost never
# read back.  An E word that G stored (or a T word that P stored) is
# still a hit.


def _ideal_codec(quiver: Quiver, dim, vertex: int, word) -> _Codec:
    """The codec of every configuration of the generator of ``word`` at
    ``vertex``: fields for the word's arrows and those of tau at
    ``vertex``, sized for the word and one moment pair."""
    arrows = set(_arrows_at(quiver, (vertex,))).union(letter.arrow for letter in word)
    return _codec(quiver, dim, tuple(sorted(arrows)), _width(len(word) + 2))


def _graded(pairs, n: int) -> list:
    """The ``_closed_sum`` items of the (cfg, c) ``pairs`` of an n-letter
    part: a term of fewer letters at the power of h that makes up the
    difference, half a unit a letter."""
    return [(cfg, (((n - sum(map(len, cfg[0]))) // 2, c),)) for cfg, c in pairs]


def _ratio(lhs: dict, base: dict, shift: int):
    """The chi with lhs = chi base moved ``shift`` up on every key, or
    None, for two int dicts without zeros; chi = 0 when lhs is empty.  It
    is read at one key of base."""
    if not lhs:
        return Fraction(0)
    if len(lhs) != len(base):
        return None
    k0 = next(iter(base))
    a, b = base[k0], lhs.get(k0 + shift, 0)
    if not b:
        return None
    for key, c in base.items():
        if lhs.get(key + shift, 0) * a != b * c:
            return None
    return Fraction(b, a)


def _minus(a: dict, b: dict) -> dict:
    """a - b for two packed int dicts, without zeros."""
    out = dict(a)
    _add_scaled(out, b.items(), ((0, -1),), 0)
    return {key: c for key, c in out.items() if c}


@dataclass(eq=False)
class IdealDecomposition:
    """Tr_q of one reduction-ideal generator written as sum entry *
    (tau + lambda tr - h chi)(direction), in packed form, at the order-h
    weight ``r`` and deformation ``lam`` of its vertex (zero by default).

    ``word`` is the marked word of v letters; ``cycle`` (P), ``diagonal``
    (T) and ``difference`` (G - E) are traced packed int dicts of the
    comment above, and ``summands`` is the normal form of the spliced part
    G as one flat tuple (cfg0, c0, cfg1, c1, ...), coded cfgs and int
    coefficients, read as ``_closed_sum`` items (``_graded``); none depends
    on (r, lambda).  ``chi(r, lam)`` solves the character value from P, T
    and G - E alone, copying nothing at r = 0; ``chi_value``, its value at
    the bound (r, lambda), is solved on first read, None when no value
    makes the decomposition exact (``verified`` false).  Only ``target``
    and ``expansion`` read G, which is most of the weight and is not kept:
    it is summed again from its summands on its first read, and
    ``expanded`` = E is G - (G - E).  ``ideal_image`` is the one
    constructor.  The views, packed elements made on first read, are
    ``target`` = Tr_q(generator), ``expansion`` = sum entry tau(direction)
    - lambda Tr_q(p), ``re_expand(c)`` = expansion + c h Tr_q(p),
    ``trace_of_p`` = Tr_q(p) and ``pairs``, each nonzero open-word entry of
    the word with its direction -e_{l_first, l_last}, the one view that
    contracts the open word.  The routes through
    ``trace_quantum(ideal_generator(...))``, ``weyl_mul`` and ``tau`` are
    test oracles (``tests/test_reduction_oracles.py``)."""

    quiver: Quiver
    dim: tuple
    vertex: int
    word: tuple
    codec: _Codec
    summands: tuple
    cycle: dict
    diagonal: dict
    difference: dict
    r: Fraction | int = 0
    lam: Fraction | int = 0
    v = property(lambda self: len(self.word))

    @cached_property
    def spliced(self) -> dict:
        """G, summed from its ``summands`` under their charge."""
        it = iter(self.summands)
        items = _graded(zip(it, it), self.v + 2)
        _charge(self.quiver, self.dim, ["".join(cfg[0]) for cfg, _ in items])
        return _closed_sum(self.quiver, self.dim, self.codec, items, True)

    @cached_property
    def expanded(self) -> dict:
        """E = G - (G - E)."""
        return _minus(self.spliced, self.difference)

    def chi(self, r, lam) -> Fraction | None:
        """The chi with target == re_expand(chi) at (r, lam), None when no
        value makes the decomposition exact."""
        # grade v: -lambda P = -lambda T
        if lam and self.cycle != self.diagonal:
            return None
        # grade N, times the denominator of r: den (G - E) + num h P = den chi h T
        num, den, h = r.numerator, r.denominator, self.codec.hunit
        lhs = self.difference
        if num:
            lhs = {key: den * c for key, c in lhs.items()}
            _add_scaled(lhs, self.cycle.items(), ((1, num),), h)
            lhs = {key: c for key, c in lhs.items() if c}
        ratio = _ratio(lhs, self.diagonal, h)
        return None if ratio is None else ratio / den

    @cached_property
    def chi_value(self) -> Fraction | None:
        return self.chi(self.r, self.lam)

    verified = property(lambda self: self.chi_value is not None)

    def _element(self, top: dict, low=None, coeffs=()) -> WeylElement:
        """The element of ``top`` plus sum_j coeffs[j] h^j times ``low``,
        the rationals ``coeffs`` put over one denominator first."""
        den = 1
        if any(coeffs):
            nums, den = numerators(coeffs)
            top = {key: den * c for key, c in top.items()}
            _add_scaled(top, low.items(), enumerate(nums), self.codec.hunit)
            top, den = lowest_terms(top, den)
        return WeylElement._from_packed(self.quiver, self.dim, self.codec, top, den, self.v + 2)

    @cached_property
    def target(self) -> WeylElement:
        return self._element(self.spliced, self.cycle, (-self.lam, self.r))

    @cached_property
    def expansion(self) -> WeylElement:
        return self._element(self.expanded, self.diagonal, (-self.lam,))

    def re_expand(self, chi_value=None) -> WeylElement:
        cv = self.chi_value if chi_value is None else chi_value
        return self._element(self.expanded, self.diagonal, (-self.lam, cv)) if cv else self.expansion

    @cached_property
    def trace_of_p(self) -> WeylElement:
        return self._element(self.diagonal)

    @cached_property
    def pairs(self) -> tuple:
        ends = range(1, self.dim[self.vertex] + 1)
        word = ((_code(self.word),), (tuple(range(1, self.v + 1)),), ())
        entries = contracted(self.quiver, self.dim, [(word, ((0, 1),))], True, (ends, ends), self.codec)
        return tuple(
            (entry, GlElement.elementary(self.quiver, self.dim, self.vertex, l_first, l_last, -1))
            for (l_first, l_last), entry in sorted(entries.items(), key=lambda kv: kv[0])
            if entry
        )


def _image_parts(quiver: Quiver, dim: tuple, vertex: int, word: tuple) -> tuple:
    """What the trace cache keeps of the image of the generator of the
    marked ``word`` at ``vertex``: G's summands, its normal form as one
    flat tuple (cfg0, c0, ...), and P, T and D = G - E as flat int tuples
    (key0, c0, key1, c1, ...) (``_flat``), P the tuple of T when they are
    equal, as they are whenever the grade-v comparison holds.

    The four parts of ``schedler.ideal_normal_forms`` are charged once,
    together (``_charge``), and each is summed from the trace cache into a
    canonical int dict in the codec of ``_ideal_codec`` (``_closed_sum``,
    as ``contracted`` sums), an n-letter term of an N'-letter part at the
    power (N' - n)/2 of h; no element is built.  G and P store the traces
    they miss, T and E do not (see the comment above)."""
    parts = ideal_normal_forms(quiver, word, vertex)
    _charge(quiver, dim, ["".join(codes) for codes, _, _ in set().union(*parts)])
    codec, v = _ideal_codec(quiver, dim, vertex, word), len(word)
    items = [_graded(part.items(), n) for part, n in zip(parts, (v + 2, v, v, v + 2))]
    G, P = (_closed_sum(quiver, dim, codec, part, True) for part in items[:2])
    T, E = (_closed_sum(quiver, dim, codec, part, True, keep=False) for part in items[2:])
    kept_T = _flat(T)
    return _flat(parts[0]), kept_T if P == T else _flat(P), kept_T, _flat(_minus(G, E))


def ideal_image(quiver: Quiver, dim: tuple, vertex: int, word: tuple, r=0, lam=0) -> IdealDecomposition:
    """The decomposition of the generator of the marked ``word`` at
    ``vertex``, bound to ``r`` and ``lam``.  Its parts are kept in the one
    trace cache under (quiver, dim, vertex, word), free of (r, lambda); a
    miss makes them (``_image_parts``).  A hit straightens, charges and
    contracts nothing, and a refused miss leaves no entry.  Every call
    builds a fresh decomposition with dicts of its own, so no two callers
    share one."""
    key = (_image_parts, quiver, dim, vertex, word)
    entry = _packed_trace.get(key)
    if entry is None:
        entry = _image_parts(*key[1:])
        _packed_trace.put(key, entry)
    summands, *parts = entry
    codec = _ideal_codec(quiver, dim, vertex, word)
    kept = [dict(zip(it, it)) for it in map(iter, parts)]
    return IdealDecomposition(quiver, dim, vertex, word, codec, summands, *kept, r, lam)


# ---------------------------------------------------------------------------
# Block matrices and the quantum moment operator


@dataclass(frozen=True)
class BlockMatrix:
    """Matrix of operators (or polynomials) for an element of e_j A e_i."""

    source: int
    target: int
    entries: tuple

    def __getitem__(self, rowcol):
        row, col = rowcol
        return self.entries[row - 1][col - 1]


def _moment_block(quiver: Quiver, dim, codec, i: int, r=None) -> dict:
    """The entries {(p, q): (numerators, den)} of the moment block at
    vertex i, canonical and packed in ``codec`` (with fields for the arrows
    at i, for two token products): the signed two-letter open chains
    [a][a'] for t(a) = i and [a'][a] for s(a) = i (``moment_pairs``),
    height-1 factor first, summed by one ``contracted`` over 1, plus h r_i
    on the diagonal when r is given, each diagonal entry over the
    denominator of r_i."""
    ends = range(1, dim[i] + 1)
    chains = [(((_code(pair),), ((1, 2),), ()), ((0, sign),)) for sign, *pair in moment_pairs(quiver, i)]
    block = {pq: (entry._packed, 1) for pq, entry in contracted(quiver, dim, chains, True, (ends, ends), codec).items()}
    for p in ends if r is not None and r[i] else ():
        ri = as_fraction(r[i])
        diagonal = {key: ri.denominator * c for key, c in block[p, p][0].items()}
        diagonal[codec.hunit] = diagonal.get(codec.hunit, 0) + ri.numerator
        block[p, p] = lowest_terms(diagonal, ri.denominator)
    return block


def moment_block_matrix(quiver: Quiver, dim, r=None) -> dict:
    """Per-vertex operator matrices of the standard quantum moment element.

    Block i is sum_{t(a)=i} [a][a'] - sum_{s(a)=i} [a'][a], the matrix
    products ordered with the height-1 factor first, plus h r_i on the
    diagonal when r is given.
    """
    dim = make_dimension_vector(quiver, dim)
    out = {}
    for i in range(len(quiver.vertices)):
        codec, indices = _codec(quiver, dim, _arrows_at(quiver, {i}), _width(2)), range(1, dim[i] + 1)
        block = _moment_block(quiver, dim, codec, i, r)
        entries = tuple(
            tuple(WeylElement._from_packed(quiver, dim, codec, *block[p, q], 2) for q in indices) for p in indices
        )
        out[i] = BlockMatrix(i, i, entries)
    return out


def quantum_moment(quiver: Quiver, dim, v: GlElement, r=None) -> WeylElement:
    """tr of the moment block matrix against v (with the optional h r
    shift), summed on v's ``int`` numerators (``linear.int_terms``) over
    the lcm of the entries' denominators times v's."""
    dim = tuple(dim)
    if (quiver, dim) != v._context():
        raise MismatchError("gl element disagrees on quiver or dimensions")
    terms, den = int_terms(v)  # a gl element holds h^0 only
    vertices = {i for i, _, _ in terms}
    codec = _codec(quiver, dim, _arrows_at(quiver, vertices), _width(2))
    blocks = {i: _moment_block(quiver, dim, codec, i, r) for i in vertices}
    common = math.lcm(*[d for block in blocks.values() for _, d in block.values()])
    out: dict = {}
    for (i, p, q), ((_, m),) in terms.items():
        entry, d = blocks[i][q, p]
        _add_scaled(out, entry.items(), ((0, m * (common // d)),), codec.hunit)
    return WeylElement._from_packed(quiver, dim, codec, *lowest_terms(out, den * common), 2)
