"""Polynomials and Rees-Weyl operators on the cotangent space of a quiver
representation space.

Coordinates are matrix entries (a)_{p,q} of arrows and (a')_{p,q} of their
reverses; quantum mode replaces (a')_{p,q} by the derivative d/d(a)_{q,p}
with the Rees commutation rule [d/d(a)_{j,i}, (a)_{k,l}] = h d_{jk} d_{il}.
Operators are stored normal-ordered, multiplications left of derivatives.
The infinitesimal gl action tau, its kernel, gauge-element actions on
coordinates, trace characters, the blockwise quantum moment operator and
the packed check of the reduction-ideal decomposition all live here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import DimensionError, MismatchError, WorkLimitError
from .linear import LinearCombination, add_into
from .necklace import _LETTER
from .quiver import Letter, Path, PathAlgebraElement, Quiver, moment_pairs
from .rings import HBarPolynomial, as_fraction
from .schedler import CACHE_SIZE


def make_dimension_vector(quiver: Quiver, d) -> tuple[int, ...]:
    """Dimension vector as a tuple indexed by vertex; every vertex required."""
    if isinstance(d, dict):
        missing = [v for v in quiver.vertices if v not in d]
        if missing:
            raise DimensionError(f"dimension vector misses vertices {missing}")
        unknown = [v for v in d if not quiver.has_vertex(v)]
        if unknown:
            raise DimensionError(f"dimension vector names unknown vertices {unknown}")
        vec = tuple(d[v] for v in quiver.vertices)
    else:
        vec = tuple(d)
        if len(vec) != len(quiver.vertices):
            raise DimensionError(
                f"dimension vector has {len(vec)} entries for "
                f"{len(quiver.vertices)} vertices"
            )
    for value in vec:
        if not isinstance(value, int) or value < 1:
            raise DimensionError(f"dimension {value!r} is not a positive integer")
    return vec


def _check_coord_bounds(quiver, dim, arrow, starred, row, col):
    a = quiver.arrows[arrow]
    rmax, cmax = (dim[a.source], dim[a.target]) if starred else (dim[a.target], dim[a.source])
    if not (1 <= row <= rmax and 1 <= col <= cmax):
        name = a.name + ("'" if starred else "")
        raise DimensionError(
            f"({name})_{{{row},{col}}} out of range for block {rmax}x{cmax}"
        )


# ---------------------------------------------------------------------------
# Commutative coordinate polynomials

# Polynomial variable: (arrow, starred, row, col); monomial: sorted ((var, exp), ...)


class PolyElement(LinearCombination):
    """Polynomial on the cotangent space with exact rational coefficients."""

    __slots__ = ("quiver", "dim")

    _coerce = staticmethod(as_fraction)

    def __init__(self, quiver: Quiver, dim, terms=None):
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "dim", tuple(dim))
        super().__init__(terms)

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

    __rmul__ = LinearCombination.scale


def _merge_exponents(m1, m2):
    out = dict(m1)
    for var, exp in m2:
        out[var] = out.get(var, 0) + exp
    return tuple(sorted(out.items()))


def poly_mul(x: PolyElement, y: PolyElement) -> PolyElement:
    if x._context() != y._context():
        raise MismatchError("polynomial operands disagree on quiver or dimensions")
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            add_into(out, _merge_exponents(m1, m2), c1 * c2)
    return x._with_terms(out)


def poly_partial(f: PolyElement, var) -> PolyElement:
    out: dict = {}
    for mono, coeff in f.items():
        for k, (w, exp) in enumerate(mono):
            if w != var:
                continue
            rest = mono[:k] + ((w, exp - 1),) + mono[k + 1 :] if exp > 1 else mono[:k] + mono[k + 1 :]
            add_into(out, rest, coeff * exp)
    return f._with_terms(out)


def poisson(f: PolyElement, g: PolyElement) -> PolyElement:
    """Symplectic bracket with {(a)_{ij}, (a')_{ji}} = 1 on conjugate pairs."""
    if f._context() != g._context():
        raise MismatchError("poisson operands disagree on quiver or dimensions")
    coords = set()
    for element in (f, g):
        for mono, _ in element.items():
            for (arrow, starred, row, col), _exp in mono:
                coords.add((arrow, row, col) if not starred else (arrow, col, row))
    out: dict = {}
    for arrow, row, col in sorted(coords):
        pos = (arrow, False, row, col)
        mom = (arrow, True, col, row)
        for mono, c in poly_mul(poly_partial(f, pos), poly_partial(g, mom)).items():
            add_into(out, mono, c)
        for mono, c in poly_mul(poly_partial(f, mom), poly_partial(g, pos)).items():
            add_into(out, mono, -c)
    return f._with_terms(out)


def path_matrix_entry(quiver: Quiver, dim, path: Path, row: int, col: int) -> PolyElement:
    """The (row, col) coordinate of the matrix-valued function of a path."""
    dim = make_dimension_vector(quiver, dim)
    rmax, cmax = dim[path.target(quiver)], dim[path.source(quiver)]
    if not (1 <= row <= rmax and 1 <= col <= cmax):
        raise DimensionError(f"path entry ({row},{col}) out of range for block {rmax}x{cmax}")
    word = tuple((letter, t) for t, letter in enumerate(path.letters))
    return _contract_letters(quiver, dim, (word,), False, ((row,), (col,)))[row, col]


# ---------------------------------------------------------------------------
# The Rees-Weyl algebra

# Weyl monomial, the key of a term: (positions, derivatives), each a sorted
# tuple of ((arrow, row, col), exp); a derivative is keyed by the coordinate
# it differentiates, so d(a)_{r,c} pairs with (a)_{r,c}.
#
# Inside an index contraction (``_contract``) a monomial of either ring is
# one int.  With the n coordinates (arrow, row, col) of the arrows the
# contraction uses in sorted order and a field width w, bits [k w, (k + 1) w) hold the exponent of coordinate k and
# bits [(n + k) w, (n + k + 1) w) that of its derivative, for polynomials
# that of its conjugate (a')_{c,r}.  Multiplying by a token adds one unit to
# one field.  w is the bit length of the number of token products the
# contraction makes; each product raises one exponent by at most one, so no
# exponent exceeds that number and no field carries into the next.  The
# quantum coefficients are ints with the power of h implied: a product adds
# one factor, a Rees correction drops a position and a derivative and gains
# one h, so a key of degree n made by m products stands for c h^((m - n) / 2).
# Each result is unpacked to the tuple form once (``_Codec.unpack``); those
# of the reduction-ideal check only when a caller reads them.


class WeylElement(LinearCombination):
    """Normal-ordered differential operator with Q[h] coefficients."""

    __slots__ = ("quiver", "dim")

    def __init__(self, quiver: Quiver, dim, terms=None):
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "dim", tuple(dim))
        super().__init__(terms)

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

    __rmul__ = LinearCombination.scale

    def is_divisible_by_h(self) -> bool:
        return all(v.is_divisible_by_h() for v in self.terms.values())

    def div_h(self) -> "WeylElement":
        return self._with_terms({k: v.div_h() for k, v in self.items()})

    def rees_degrees(self) -> set:
        """All h-grading degrees present: derivative count plus h power."""
        out = set()
        for (_, ders), coeff in self.items():
            base = sum(exp for _, exp in ders)
            for k, c in enumerate(coeff.coeffs):
                if c:
                    out.add(base + k)
        return out


def _weyl_mono_mul(m1, m2, contracted_only=False):
    """Yield (monomial, h_power, integer factor) for a normal-ordered product;
    with ``contracted_only``, only the terms with h_power >= 1."""
    pos1, der1 = m1
    pos2, der2 = m2
    d1 = dict(der1)
    p2 = dict(pos2)
    common = sorted(v for v in d1 if v in p2)
    if not common:
        if not contracted_only:
            yield (_merge_exponents(pos1, pos2), _merge_exponents(der1, der2)), 0, 1
        return
    per_var = []
    for v in common:
        b, a = d1[v], p2[v]
        per_var.append(
            [
                (k, math.comb(b, k) * math.comb(a, k) * math.factorial(k))
                for k in range(min(a, b) + 1)
            ]
        )
    combos = itertools.product(*per_var)
    if contracted_only:
        next(combos)  # the first combination contracts nothing: h_power 0
    for combo in combos:
        k_total = 0
        factor = 1
        d1p = dict(d1)
        p2p = dict(p2)
        for v, (k, c) in zip(common, combo):
            k_total += k
            factor *= c
            d1p[v] -= k
            p2p[v] -= k
            if d1p[v] == 0:
                del d1p[v]
            if p2p[v] == 0:
                del p2p[v]
        mono = (
            _merge_exponents(pos1, tuple(sorted(p2p.items()))),
            _merge_exponents(tuple(sorted(d1p.items())), der2),
        )
        yield mono, k_total, factor


def weyl_mul(x: WeylElement, y: WeylElement) -> WeylElement:
    if x._context() != y._context():
        raise MismatchError("operator operands disagree on quiver or dimensions")
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            c12 = c1 * c2
            for mono, k, factor in _weyl_mono_mul(m1, m2):
                add_into(out, mono, (c12 * factor).shift(k))
    return x._with_terms(out)


def weyl_commutator(x: WeylElement, y: WeylElement) -> WeylElement:
    """xy - yx.  The uncontracted (h_power 0) term of m1 m2 is the same
    monomial as that of m2 m1, so only the contracted terms of each order
    are formed; a monomial pair in which neither side's derivatives meet
    the other side's positions commutes and costs no product."""
    if x._context() != y._context():
        raise MismatchError("operator operands disagree on quiver or dimensions")
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            terms = list(_weyl_mono_mul(m1, m2, True))
            terms += [(mono, k, -f) for mono, k, f in _weyl_mono_mul(m2, m1, True)]
            if terms:
                c12 = c1 * c2
                for mono, k, factor in terms:
                    add_into(out, mono, (c12 * factor).shift(k))
    return x._with_terms(out)


def classical_symbol(op: WeylElement) -> PolyElement:
    """Set h to zero and read operators as coordinates: d(a)_{r,c} -> (a')_{c,r}."""
    out: dict = {}
    for (pos, ders), coeff in op.items():
        c0 = coeff.constant_term()
        if c0 == 0:
            continue
        mono: dict = {}
        for (arrow, row, col), exp in pos:
            mono[(arrow, False, row, col)] = mono.get((arrow, False, row, col), 0) + exp
        for (arrow, row, col), exp in ders:
            mono[(arrow, True, col, row)] = mono.get((arrow, True, col, row), 0) + exp
        add_into(out, tuple(sorted(mono.items())), c0)
    return PolyElement(op.quiver, op.dim, out)


# ---------------------------------------------------------------------------
# gl_d, tau, characters


class GlElement(LinearCombination):
    """Element of gl_d: rational combination of elementary matrices e^i_{p,q}."""

    __slots__ = ("quiver", "dim")

    _coerce = staticmethod(as_fraction)

    def __init__(self, quiver: Quiver, dim, terms=None):
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "dim", tuple(dim))
        for (i, p, q) in (terms or {}):
            if not (1 <= p <= self.dim[i] and 1 <= q <= self.dim[i]):
                raise DimensionError(f"e^{i}_{{{p},{q}}} out of range")
        super().__init__(terms)

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
    out: dict = {}
    for (i, p, q), a in v.items():
        for (j, u, t), b in w.items():
            if i != j:
                continue
            if q == u:
                add_into(out, (i, p, t), a * b)
            if t == p:
                add_into(out, (i, u, q), -(a * b))
    return v._with_terms(out)


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


def tau(quiver: Quiver, dim, v: GlElement) -> WeylElement:
    """Infinitesimal gl_d action as a first-order differential operator."""
    if (quiver, tuple(dim)) != v._context():
        raise MismatchError("gl element disagrees on quiver or dimensions")
    out: dict = {}
    for (i, p, q), c in v.items():
        signed = {1: HBarPolynomial.constant(c), -1: HBarPolynomial.constant(-c)}
        for sign, pos, der in tau_pairs(quiver, dim, i, p, q):
            add_into(out, (((pos, 1),), ((der, 1),)), signed[sign])
    return WeylElement(quiver, dim, out)


def gauge_act(quiver: Quiver, dim, i: int, p: int, q: int, f: PolyElement) -> PolyElement:
    """Action of the (p, q) entry of the gauge derivation at vertex i.

    On a coordinate of a letter x (plain or starred) the value is
    d_{s(x),i} d_{p,col} (x)_{row,q} - d_{t(x),i} d_{row,q} (x)_{p,col},
    extended to polynomials by the Leibniz rule.
    """
    if not (1 <= p <= dim[i] and 1 <= q <= dim[i]):
        raise DimensionError(f"gauge indices ({p},{q}) out of range at vertex {i}")
    out: dict = {}
    for mono, coeff in f.items():
        for k, (var, exp) in enumerate(mono):
            arrow, starred, row, col = var
            letter = Letter(arrow, starred)
            rest = (
                mono[:k] + ((var, exp - 1),) + mono[k + 1 :]
                if exp > 1
                else mono[:k] + mono[k + 1 :]
            )
            replacements = []
            if letter.source(quiver) == i and p == col:
                replacements.append((1, (arrow, starred, row, q)))
            if letter.target(quiver) == i and row == q:
                replacements.append((-1, (arrow, starred, p, col)))
            for sign, new_var in replacements:
                add_into(
                    out,
                    _merge_exponents(rest, ((new_var, 1),)),
                    coeff * exp * sign,
                )
    return PolyElement(quiver, dim, out)


@dataclass(frozen=True)
class Character:
    """A functional sum_k c_k tr_k on gl_d."""

    quiver: Quiver
    values: tuple[Fraction, ...]

    def evaluate(self, v: GlElement) -> Fraction:
        total = Fraction(0)
        for (i, p, q), c in v.items():
            if p == q:
                total += self.values[i] * c
        return total

    def __str__(self) -> str:
        names = self.quiver.vertices
        return " + ".join(f"({c})*tr_{names[i]}" for i, c in enumerate(self.values))


def _out_degree_weight(quiver: Quiver, dim, k: int) -> int:
    return sum(dim[a.target] for a in quiver.arrows if a.source == k)


def chi_sign_variants(quiver: Quiver, dim, r=None) -> dict:
    """The printed sign variants of the character, for reports.

    ``main`` is the displayed closed form, the reduction character
    c_k = -sum_{s(a)=k} d_{t(a)} + r_k; ``statement`` flips the sign of
    the dimension sum; ``proof_line`` distributes the minus over both the
    dimension sum and r (which then picks up the out-degree multiplicity).
    """
    nv = len(quiver.vertices)
    rvec = list(r) if r is not None else [Fraction(0)] * nv
    weights = [_out_degree_weight(quiver, dim, k) for k in range(nv)]
    outdeg = [sum(1 for a in quiver.arrows if a.source == k) for k in range(nv)]
    return {
        "main": Character(
            quiver,
            tuple(Fraction(-weights[k]) + as_fraction(rvec[k]) for k in range(nv)),
        ),
        "statement": Character(
            quiver,
            tuple(Fraction(weights[k]) + as_fraction(rvec[k]) for k in range(nv)),
        ),
        "proof_line": Character(
            quiver,
            tuple(
                Fraction(-weights[k]) - outdeg[k] * as_fraction(rvec[k])
                for k in range(nv)
            ),
        ),
    }


def rational_nullspace(matrix, ncols):
    """Basis of {x : A x = 0} over the rationals; A given as a list of rows.

    Gauss-Jordan elimination on sparse rows ``{col: Fraction}`` holding the
    nonzero entries only, so each elimination step touches only the pivot
    row's nonzero columns.  The reduced echelon form is unique, so the
    basis (one vector per free column) does not depend on the storage.
    """
    rows = [
        {col: v for col, c in enumerate(row) if (v := as_fraction(c))} for row in matrix
    ]
    nrows = len(rows)
    pivot_col_of_row = []
    lead = 0
    for col in range(ncols):
        pivot = next((r for r in range(lead, nrows) if col in rows[r]), None)
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        pv = rows[lead][col]
        if pv != 1:
            rows[lead] = {c: v / pv for c, v in rows[lead].items()}
        pivot_row = rows[lead]
        for r in range(nrows):
            row = rows[r]
            factor = row.get(col)
            if r == lead or factor is None:
                continue
            for c, v in pivot_row.items():
                value = row.get(c, 0) - factor * v
                if value:
                    row[c] = value
                else:
                    del row[c]
        pivot_col_of_row.append(col)
        lead += 1
        if lead == nrows:
            break
    pivot_cols = set(pivot_col_of_row)
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivot_col_of_row):
            vec[pc] = -rows[r].get(free, Fraction(0))
        basis.append(vec)
    return basis


def tau_kernel(quiver: Quiver, dim) -> list:
    """Exact basis of {v in gl_d : tau(v) = 0}."""
    dim = make_dimension_vector(quiver, dim)
    basis = list(gl_basis(quiver, dim))
    columns = {}
    images = []
    for key in basis:
        img = tau(quiver, dim, GlElement.elementary(quiver, dim, *key))
        images.append(img)
        for mono in img.terms:
            columns.setdefault(mono, len(columns))
    nrows = len(columns)
    matrix = [[Fraction(0)] * len(basis) for _ in range(nrows)]
    for b, img in enumerate(images):
        for mono, coeff in img.items():
            matrix[columns[mono]][b] = coeff.constant_term()
    kernel = []
    for vec in rational_nullspace(matrix, len(basis)):
        terms = {key: c for key, c in zip(basis, vec) if c}
        kernel.append(GlElement(quiver, dim, terms))
    return kernel


# ---------------------------------------------------------------------------
# Index contraction

#: Largest number of index assignments (the brute-force term count, the
#: product of the index ranges) a contraction accepts.  The accumulated
#: terms grow with this count, not with the O(m d^3) tuples visited, so a
#: larger contraction is refused with ``WorkLimitError`` (a
#: ``DimensionError``) before any product.
MAX_INDEX_ASSIGNMENTS = 1 << 20


def _check_assignments(assignments: int) -> None:
    """Refuse ``assignments`` index assignments above the limit."""
    if assignments > MAX_INDEX_ASSIGNMENTS:
        raise WorkLimitError(
            f"contraction has {assignments} index assignments, "
            f"above the limit {MAX_INDEX_ASSIGNMENTS}"
        )


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
    """The packed monomials of one contraction (see the comment above
    ``WeylElement``) and their unpacking to the tuple form.

    Only the coordinates of ``arrows`` get fields, so a key grows with the
    arrows a contraction uses, not with the quiver.  ``factors`` is the
    most tokens any key is multiplied by.  Each of them raises one exponent
    by at most one, so no exponent exceeds ``factors`` and a field of
    ``factors.bit_length()`` bits holds it without carrying into the next.
    The unpacking memos live as long as the codec: one contraction, or
    one reduction-ideal decomposition (``IdealImage``).
    """

    __slots__ = ("quantum", "arrows", "field", "width", "mask", "split", "_names", "_halves", "_coeffs")

    def __init__(self, quiver: Quiver, dim, arrows, factors: int, quantum: bool):
        self.arrows = tuple(sorted(arrows))
        coords, self.field, variables = _coordinate_fields(quiver, tuple(dim), self.arrows)
        self.quantum = quantum
        self.width = max(factors.bit_length(), 1)
        self.mask = (1 << self.width) - 1
        self.split = len(coords) * self.width
        self._names = (coords, coords) if quantum else variables
        self._halves = ({}, {})
        self._coeffs = {}

    def position(self, var):
        """The token of the coordinate ``var`` = (arrow, row, col); quantum,
        it carries the shift of the field of d_var for the Rees correction."""
        at = self.field[var] * self.width
        return 1 << at, (self.split + at if self.quantum else None)

    def derivative(self, var):
        """The token of d_var, classically of the coordinate conjugate to var."""
        return 1 << (self.split + self.field[var] * self.width), None

    def entry(self, letter: Letter):
        """The token of the (row, col) entry of a letter's matrix, with
        [a']_{row,col} = d/d(a)_{col,row} and, classically, (a')_{row,col}
        in the field of d(a)_{col,row}."""
        arrow, starred = letter
        if starred:
            return lambda row, col: self.derivative((arrow, col, row))
        return lambda row, col: self.position((arrow, row, col))

    def _unpack_half(self, bits: int, high: int):
        """The sorted (var, exp) tuple of one half of a key, and its degree;
        only the nonzero fields are visited."""
        names, width, mask = self._names[high], self.width, self.mask
        found, degree = [], 0
        while bits:
            k = ((bits & -bits).bit_length() - 1) // width
            exp = bits >> k * width & mask
            bits ^= exp << k * width
            found.append((names[k], exp))
            degree += exp
        return tuple(found), degree

    def unpack(self, terms: dict, factors: int) -> dict:
        """The packed term dict ``terms``, made by ``factors`` token
        products, in the ring's tuple form.  A quantum key of degree n
        stands for its coefficient times h^((factors - n) / 2).  Each half
        of a key is decoded once per codec."""
        out = {}
        low, split, decode = (1 << self.split) - 1, self.split, self._unpack_half
        lows, highs = self._halves
        coeffs = self._coeffs
        for key, c in terms.items():
            bits = key & low
            pos = lows.get(bits)
            if pos is None:
                pos = lows[bits] = decode(bits, 0)
            bits = key >> split
            der = highs.get(bits)
            if der is None:
                der = highs[bits] = decode(bits, 1)
            if not self.quantum:
                out[tuple(sorted(pos[0] + der[0])) if der[0] else pos[0]] = Fraction(c)
                continue
            power = (factors - pos[1] - der[1]) >> 1
            coeff = coeffs.get((c, power))
            if coeff is None:
                coeff = coeffs[c, power] = HBarPolynomial._with_coeffs([0] * power + [c])
            out[pos[0], der[0]] = coeff
        return out


def _times(acc: dict, token, mask: int, out: dict) -> None:
    """Add acc * token into ``out``, both packed term dicts.

    A token ``(unit, shift)`` multiplies a key by adding ``unit``.  A
    quantum position x_v carries the shift of d_v's field: x_v moves left
    past d_v^b, so the key also gives b h (key / d_v), one unit less in
    that field, its h implied by the lower degree.  Every coefficient of a
    contraction is a positive int, so no sum here cancels.
    """
    unit, shift = token
    get = out.get
    if shift is None:
        for key, c in acc.items():
            key += unit
            out[key] = get(key, 0) + c
        return
    drop = 1 << shift
    for key, c in acc.items():
        k = key + unit
        out[k] = get(k, 0) + c
        b = key >> shift & mask
        if b:
            k = key - drop
            out[k] = get(k, 0) + c * b


def _times_tau(acc: dict, sign: int, position, derivative, mask: int, out: dict) -> None:
    """Add sign * acc * x_v * d_w into ``out``, for the quantum tokens of a
    position x_v and a derivative d_w: ``_times`` by each in turn, in one
    pass and with signed sums, so ``out`` may hold zeros."""
    unit, shift = position
    moved = derivative[0]  # the Rees correction keeps d_w and drops d_v
    unit += moved
    moved -= 1 << shift
    get = out.get
    for key, c in acc.items():
        c *= sign
        k = key + unit
        out[k] = get(k, 0) + c
        b = key >> shift & mask
        if b:
            k = key + moved
            out[k] = get(k, 0) + c * b


def _contract(slots, ranges, mask: int, free=()):
    """Sum over all index variables of the product of the slot tokens.

    ``slots`` lists ``(entry, i, j)`` in multiplication order; its token is
    ``entry(k_i, k_j)`` and ``ranges[v]`` holds the values of variable v.
    Accumulators are packed term dicts starting from the unit ``{0: 1}``,
    multiplied in place by ``_times``.  Each variable not in ``free`` is
    summed as soon as the last slot using it has been multiplied, so
    tr(M_1 ... M_m) costs O(m d^3) token products instead of O(d^m).  Every
    free variable must occur in some slot.  The result maps each assignment
    of the ``free`` variables to the packed term dict of its entry.
    """
    last = {}
    for t, (_, i, j) in enumerate(slots):
        last[i] = last[j] = t
    live = ()
    sums = {(): {0: 1}}
    for t, (entry, i, j) in enumerate(slots):
        new = tuple(v for v in dict.fromkeys((i, j)) if v not in live)
        grown = live + new
        live = tuple(v for v in grown if v in free or last[v] > t)
        at = [grown.index(v) for v in (i, j) + live]
        out = {}
        for key, acc in sums.items():
            for ext in itertools.product(*(ranges[v] for v in new)):
                ks = key + ext
                kept = tuple(ks[p] for p in at[2:])
                _times(acc, entry(ks[at[0]], ks[at[1]]), mask, out.setdefault(kept, {}))
        sums = out
    return {
        tuple(key[live.index(v)] for v in free): value for key, value in sums.items()
    }


def _contract_packed(quiver: Quiver, dim, words, quantum: bool, ends=None, codec=None):
    """The contraction of ``_contract_letters`` on packed keys: returns its
    codec (by default one with fields for the words' arrows, sized for
    their letters) and the packed sums of ``_contract``.  The empty open
    word is the identity matrix: each (row, col) entry is the unit
    ``{0: 1}`` if row == col and empty otherwise."""
    ranges, slots = [], []
    for word in words:
        first = len(ranges)
        for t, (letter, height) in enumerate(word):
            nxt = t + 1 if ends else (t + 1) % len(word)
            slots.append((height, (letter, first + t, first + nxt)))
            ranges.append(range(1, dim[letter.target(quiver)] + 1))
    slots.sort(key=lambda hs: hs[0])
    if ends:
        ranges = [ends[0], *ranges[1:], ends[1]]
    _check_assignments(math.prod(len(r) for r in ranges))
    if codec is None:
        arrows = {letter.arrow for _, (letter, _, _) in slots}
        codec = _Codec(quiver, dim, arrows, len(slots), quantum)
    if ends and not slots:
        rows, cols = ends
        return codec, {(r, c): {0: 1} if r == c else {} for r in rows for c in cols}
    slots = [(codec.entry(letter), i, j) for _, (letter, i, j) in slots]
    free = (0, len(ranges) - 1) if ends else ()
    return codec, _contract(slots, ranges, codec.mask, free)


def _contract_letters(quiver: Quiver, dim, words, quantum: bool, ends=None):
    """Contract the letter matrices of words of (letter, height) pairs.

    Factors multiply in height order: operator tokens when ``quantum``,
    coordinates otherwise.  The products run on packed keys
    (``_contract_packed``), and each result is unpacked once, here, into a
    ``WeylElement`` or ``PolyElement``.  Without ``ends`` every word is a
    closed cycle and the result is the trace.  With ``ends = (rows, cols)``
    there is one open word and the result maps (row, col) to that entry of
    its product.  Raises ``WorkLimitError`` when the number of index
    assignments exceeds ``MAX_INDEX_ASSIGNMENTS``.
    """
    codec, sums = _contract_packed(quiver, dim, words, quantum, ends)
    factors = sum(len(word) for word in words)
    zero = (WeylElement if quantum else PolyElement)(quiver, dim)
    if not ends:
        return zero._with_terms(codec.unpack(sums[()], factors))
    return {key: zero._with_terms(codec.unpack(terms, factors)) for key, terms in sums.items()}


# ---------------------------------------------------------------------------
# The reduction-ideal decomposition, packed and Rees-graded
#
# A generator at ``vertex`` with a v-letter marked word p is the spliced
# part (N = v + 2 letters) plus (-lambda + h r) times p.  Straightening
# (``schedler.ideal_normal_forms``) gives each part as {coded cfg: int}
# with the power of h implied by the letter count, and the contraction
# implies it by degree, so a key of degree k in the traced spliced part G
# stands for c h^((N - k)/2) and one in the traced cycle P, in Tr_q(p) = T
# and in the open-word entries for c h^((v - k)/2): G sits at grade N and
# P, T at grade v.  The tau re-expansion E adds two tokens to each entry,
# grade N.  All of them are int dicts in one codec, none depends on
# (r, lambda), and the decomposition target == re_expand(chi), split by
# grade, is two exact comparisons: G + r P - E = chi T at grade N and,
# when lambda != 0, P = T at grade v.


def _check_traces(quiver: Quiver, dim, configs) -> None:
    """Refuse to trace the sum of the coded configurations ``configs``
    (each given by its tuple of component codes) when their index
    assignments, the product of the letters' block sizes for each, add up
    to more than ``MAX_INDEX_ASSIGNMENTS``."""
    sizes = lambda codes: [dim[_LETTER[c].target(quiver)] for s in codes for c in s]
    _check_assignments(sum([math.prod(sizes(codes)) for codes in configs]))


def _boundary_entries(quiver: Quiver, dim, vertex: int, word):
    """The nonzero entries ((l_first, l_last), packed terms) of the operator
    matrix product of ``word``'s letters in word order, sorted by key, and
    their codec, with fields for the arrows of tau at ``vertex`` and sized
    for the two token products of a tau term on top of the word's letters.
    Every configuration of the generator of ``word`` at ``vertex`` packs
    in the same codec: its letters are the word's and a moment pair's."""
    ends = range(1, dim[vertex] + 1)
    arrows = {ai for ai, a in enumerate(quiver.arrows) if vertex in (a.source, a.target)}
    arrows.update(letter.arrow for letter in word)
    cycle = tuple((letter, t) for t, letter in enumerate(word))
    codec = _Codec(quiver, dim, arrows, len(word) + 2, True)
    _, entries = _contract_packed(quiver, dim, (cycle,), True, (ends, ends), codec)
    return codec, sorted((kv for kv in entries.items() if kv[1]), key=lambda kv: kv[0])


@lru_cache(maxsize=CACHE_SIZE)
def _packed_trace(quiver: Quiver, dim: tuple, arrows: tuple, width: int, cfg) -> tuple:
    """Tr_q of the coded configuration ``cfg`` = (codes, heights, idems) as
    ``(key, c)`` pairs, packed for the codec with fields for ``arrows`` of
    ``width`` bits; a key of degree k in the trace of n letters stands for
    the int c times h^((n - k)/2).  The values hold only ``int``, so
    CPython stops tracking them; ``clear_packed_traces`` empties the cache."""
    codes, heights, idems = cfg
    words = [tuple(zip(map(_LETTER.__getitem__, s), hs)) for s, hs in zip(codes, heights)]
    codec = _Codec(quiver, dim, arrows, (1 << width) - 1, True)
    _, sums = _contract_packed(quiver, dim, words, True, codec=codec)
    scalar = math.prod([dim[v] for v in idems])
    return tuple([(key, c * scalar) for key, c in sums[()].items()])


def clear_packed_traces() -> None:
    _packed_trace.cache_clear()


def _traced(quiver: Quiver, dim, codec: _Codec, terms: dict) -> dict:
    """The sum of c Tr_q(cfg) over {coded cfg: c} ``terms``, one packed int
    dict in ``codec``, zeros dropped; each trace comes from the cache."""
    layout = (quiver, dim, codec.arrows, codec.width)
    out: dict = {}
    get = out.get
    for cfg, c in terms.items():
        for key, t in _packed_trace(*layout, cfg):
            out[key] = get(key, 0) + c * t
    return {key: c for key, c in out.items() if c}


def _ratio(lhs: dict, base: dict):
    """The chi with lhs = chi base on every key of two int dicts, or None;
    chi = 0 when base is empty.  It is read at one key of base."""
    if not base:
        return None if lhs else Fraction(0)
    k0 = next(iter(base))
    a, b = base[k0], lhs.get(k0, 0)
    for key in lhs.keys() | base.keys():
        if lhs.get(key, 0) * a != b * base.get(key, 0):
            return None
    return Fraction(b) / a


@dataclass(eq=False)
class IdealImage:
    """One reduction-ideal generator's decomposition in packed form, for
    every (r, lambda) at once.

    ``v`` is the marked word's letter count; ``entries`` holds its nonzero
    open-word entries ((l_first, l_last), packed terms) and ``spliced`` (G),
    ``cycle`` (P), ``diagonal`` (T) and ``expanded`` (E) the packed int
    dicts of the comment above.  ``chi(r, lam)`` solves the character value
    at order-h weight r and deformation lam.  The views ``target(r, lam)``
    = Tr_q(generator), ``expansion(lam)`` = sum entry tau(direction) -
    lambda Tr_q(p), ``pairs`` (each entry with its direction
    -e_{l_first, l_last}) and ``trace_of_p`` = Tr_q(p) are unpacked when
    read, the last two once."""

    quiver: Quiver
    dim: tuple
    vertex: int
    v: int
    codec: _Codec
    entries: list
    spliced: dict
    cycle: dict
    diagonal: dict
    expanded: dict

    def chi(self, r, lam) -> Fraction | None:
        """The chi with target(r, lam) == expansion(lam) + chi h Tr_q(p),
        None when no value makes the decomposition exact."""
        # grade v: -lambda P = -lambda T
        if lam and self.cycle != self.diagonal:
            return None
        # grade N, times the denominator of r: den (G - E) + num P = den chi T
        num, den = r.numerator, r.denominator
        lhs = {key: den * c for key, c in self.spliced.items()}
        for key, c in self.expanded.items():
            lhs[key] = lhs.get(key, 0) - den * c
        if num:
            for key, c in self.cycle.items():
                lhs[key] = lhs.get(key, 0) + num * c
        ratio = _ratio({key: c for key, c in lhs.items() if c}, self.diagonal)
        return None if ratio is None else ratio / den

    def _unpack(self, top: dict, scale, low: dict) -> WeylElement:
        """The element of ``top`` at grade v + 2 plus ``scale`` times ``low``
        at grade v."""
        terms = self.codec.unpack(top, self.v + 2)
        if scale:
            low = {key: scale * c for key, c in low.items()}
            for mono, c in self.codec.unpack(low, self.v).items():
                add_into(terms, mono, c)
        return WeylElement(self.quiver, self.dim)._with_terms(terms)

    def target(self, r, lam) -> WeylElement:
        top = dict(self.spliced)
        if r:
            for key, c in self.cycle.items():
                add_into(top, key, r * c)
        return self._unpack(top, -lam, self.cycle)

    def expansion(self, lam) -> WeylElement:
        return self._unpack(self.expanded, -lam, self.diagonal)

    @cached_property
    def trace_of_p(self) -> WeylElement:
        return self._unpack({}, 1, self.diagonal)

    @cached_property
    def pairs(self) -> tuple:
        zero = WeylElement(self.quiver, self.dim)
        return tuple(
            (
                zero._with_terms(self.codec.unpack(terms, self.v)),
                GlElement.elementary(self.quiver, self.dim, self.vertex, l_first, l_last, -1),
            )
            for (l_first, l_last), terms in self.entries
        )


def ideal_image(quiver: Quiver, dim, vertex: int, word, spliced: dict, cycle: dict) -> IdealImage:
    """The decomposition of the generator whose straightened parts are
    ``spliced`` and ``cycle`` (``schedler.ideal_normal_forms`` of ``word``,
    the marked cycle, at ``vertex``).

    The index assignments of all the configurations it traces are charged
    together (``_check_traces``) before any contraction, as
    ``trace.trace_quantum`` charges a sum.  Each entry M_{l1,l2} is
    multiplied by the normal-ordered terms x_pos d_der of tau(-e_{l1,l2})
    (``tau_pairs``), the position token and then the derivative token, in
    one pass over its packed terms (``_times_tau``).  Nothing is unpacked
    until a view is read.
    """
    _check_traces(quiver, dim, [codes for codes, _, _ in spliced.keys() | cycle.keys()])
    codec, entries = _boundary_entries(quiver, dim, vertex, word)
    diagonal: dict = {}
    expansion: dict = {}
    for (l_first, l_last), terms in entries:
        if l_first == l_last:
            for key, c in terms.items():
                diagonal[key] = diagonal.get(key, 0) + c
        for sign, pos, der in tau_pairs(quiver, dim, vertex, l_first, l_last):
            _times_tau(terms, -sign, codec.position(pos), codec.derivative(der), codec.mask, expansion)
    G = _traced(quiver, dim, codec, spliced)
    P = _traced(quiver, dim, codec, cycle)
    E = {key: c for key, c in expansion.items() if c}
    return IdealImage(quiver, dim, vertex, len(word), codec, entries, G, P, diagonal, E)


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


def block_matrix(x, dim, mode: str = "classical") -> BlockMatrix:
    """Matrix-valued function (classical) or operator (quantum) of an element.

    Accepts a PathAlgebraElement homogeneous between two vertices, or (quantum
    mode only) a QPAElement whose terms are single height components; for the
    latter the entry operator products follow the heights.
    """
    from .schedler import QPAElement  # local import to avoid a cycle

    if mode not in ("classical", "quantum"):
        raise ValueError(f"unknown mode {mode!r}")
    quantum = mode == "quantum"

    if isinstance(x, PathAlgebraElement):
        quiver = x.quiver
        if not x.terms:
            raise ValueError("cannot infer the block of the zero element")
        endpoints = {(p.source(quiver), p.target(quiver)) for p in x.terms}
        if len(endpoints) != 1:
            raise ValueError("element is not homogeneous between two vertices")
        (src, dst) = endpoints.pop()
        words = [
            (tuple((letter, t) for t, letter in enumerate(path.letters)), coeff)
            for path, coeff in x.items()
        ]
    elif isinstance(x, QPAElement):
        if not quantum:
            raise ValueError("height configurations only have quantum matrices")
        quiver = x.quiver
        vertices = set()
        for cfg in x.terms:
            if len(cfg.codes) != 1 or cfg.idempotents:
                raise ValueError("quantum matrix needs single-component terms")
            comp = cfg.components[0]
            vertices.add(comp[0][0].target(quiver))
        if len(vertices) != 1:
            raise ValueError("element is not homogeneous between two vertices")
        src = dst = vertices.pop()
        words = [(cfg.components[0], coeff) for cfg, coeff in x.items()]
    else:
        raise TypeError(f"cannot form a block matrix of {type(x).__name__}")

    dim = make_dimension_vector(quiver, dim)
    ring = WeylElement if quantum else PolyElement
    rows, cols = range(1, dim[dst] + 1), range(1, dim[src] + 1)
    entries = {(row, col): ring(quiver, dim) for row in rows for col in cols}
    for word, coeff in words:
        block = _contract_letters(quiver, dim, (word,), quantum, (rows, cols))
        scalar = coeff if quantum else coeff.constant_term()
        for key, value in block.items():
            entries[key] = entries[key] + value.scale(scalar)
    return BlockMatrix(
        src, dst, tuple(tuple(entries[row, col] for col in cols) for row in rows)
    )


def _moment_entry(quiver: Quiver, dim, i: int, p: int, q: int, r=None) -> WeylElement:
    """The (p, q) entry of the moment block at vertex i: signed two-letter
    open chains [a][a'] for t(a) = i and [a'][a] for s(a) = i
    (``moment_pairs``), height-1 factor first, plus h r_i on the diagonal
    when r is given."""
    out: dict = {}
    for sign, first, second in moment_pairs(quiver, i):
        word = ((first, 1), (second, 2))
        chain = _contract_letters(quiver, dim, (word,), True, ((p,), (q,)))[p, q]
        for mono, c in chain.items():
            add_into(out, mono, c if sign > 0 else -c)
    if r is not None and p == q and r[i]:
        add_into(out, ((), ()), HBarPolynomial((0, as_fraction(r[i]))))
    return WeylElement(quiver, dim)._with_terms(out)


def moment_block_matrix(quiver: Quiver, dim, r=None) -> dict:
    """Per-vertex operator matrices of the standard quantum moment element.

    Block i is sum_{t(a)=i} [a][a'] - sum_{s(a)=i} [a'][a], the matrix
    products ordered with the height-1 factor first, plus h r_i on the
    diagonal when r is given.
    """
    dim = make_dimension_vector(quiver, dim)
    out = {}
    for i in range(len(quiver.vertices)):
        indices = range(1, dim[i] + 1)
        entries = tuple(
            tuple(_moment_entry(quiver, dim, i, p, q, r) for q in indices) for p in indices
        )
        out[i] = BlockMatrix(i, i, entries)
    return out


def quantum_moment(quiver: Quiver, dim, v: GlElement, r=None) -> WeylElement:
    """tr of the moment block matrix against v (with the optional h r shift)."""
    if (quiver, tuple(dim)) != v._context():
        raise MismatchError("gl element disagrees on quiver or dimensions")
    out: dict = {}
    for (i, p, q), c in v.items():
        c = HBarPolynomial.coerce(c)
        for mono, coeff in _moment_entry(quiver, dim, i, q, p, r).items():
            add_into(out, mono, coeff * c)
    return WeylElement(quiver, dim)._with_terms(out)
