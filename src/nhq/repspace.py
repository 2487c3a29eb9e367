"""Polynomials and Rees-Weyl operators on the cotangent space of a quiver
representation space.

Coordinates are matrix entries (a)_{p,q} of arrows and (a')_{p,q} of their
reverses; quantum mode replaces (a')_{p,q} by the derivative d/d(a)_{q,p}
with the Rees commutation rule [d/d(a)_{j,i}, (a)_{k,l}] = h d_{jk} d_{il}.
Operators are stored normal-ordered, multiplications left of derivatives.
The infinitesimal gl action tau, its kernel, gauge-element actions on
coordinates, trace characters, and the blockwise quantum moment operator
all live here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import DimensionError, MismatchError
from .linear import LinearCombination, add_into
from .quiver import Letter, Path, PathAlgebraElement, Quiver
from .rings import HBarPolynomial, as_fraction


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
    out = PolyElement(f.quiver, f.dim)
    for arrow, row, col in sorted(coords):
        pos = (arrow, False, row, col)
        mom = (arrow, True, col, row)
        out = out + (
            poly_mul(poly_partial(f, pos), poly_partial(g, mom))
            - poly_mul(poly_partial(f, mom), poly_partial(g, pos))
        )
    return out


def path_matrix_entry(quiver: Quiver, dim, path: Path, row: int, col: int) -> PolyElement:
    """The (row, col) coordinate of the matrix-valued function of a path."""
    dim = make_dimension_vector(quiver, dim)
    if path.is_trivial:
        n = dim[path.vertex]
        if not (1 <= row <= n and 1 <= col <= n):
            raise DimensionError("trivial path entry out of range")
        return PolyElement.constant(quiver, dim, 1 if row == col else 0)
    word = tuple((letter, t) for t, letter in enumerate(path.letters))
    return _contract_letters(quiver, dim, (word,), False, ((row,), (col,)))[row, col]


# ---------------------------------------------------------------------------
# The Rees-Weyl algebra

# Weyl monomial: (positions, derivatives), each a sorted tuple of
# ((arrow, row, col), exp); a derivative is keyed by the coordinate it
# differentiates, so d(a)_{r,c} pairs with (a)_{r,c}.


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


def _weyl_mono_mul(m1, m2):
    """Yield (monomial, h_power, integer factor) for a normal-ordered product."""
    pos1, der1 = m1
    pos2, der2 = m2
    d1 = dict(der1)
    p2 = dict(pos2)
    common = sorted(v for v in d1 if v in p2)
    if not common:
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
    for combo in itertools.product(*per_var):
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
    return weyl_mul(x, y) - weyl_mul(y, x)


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


def tau(quiver: Quiver, dim, v: GlElement) -> WeylElement:
    """Infinitesimal gl_d action as a first-order differential operator."""
    if (quiver, tuple(dim)) != v._context():
        raise MismatchError("gl element disagrees on quiver or dimensions")
    out: dict = {}
    for (i, p, q), c in v.items():
        for ai, arrow in enumerate(quiver.arrows):
            if arrow.source == i:
                for j in range(1, dim[arrow.target] + 1):
                    mono = ((((ai, j, p), 1),), (((ai, j, q), 1),))
                    add_into(out, mono, HBarPolynomial.constant(c))
            if arrow.target == i:
                for j in range(1, dim[arrow.source] + 1):
                    mono = ((((ai, q, j), 1),), (((ai, p, j), 1),))
                    add_into(out, mono, HBarPolynomial.constant(-c))
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


def chi_from_r(quiver: Quiver, dim, r=None) -> Character:
    """The reduction character: c_k = -sum_{s(a)=k} d_{t(a)} + r_k."""
    nv = len(quiver.vertices)
    rvec = list(r) if r is not None else [Fraction(0)] * nv
    values = tuple(
        Fraction(-_out_degree_weight(quiver, dim, k)) + as_fraction(rvec[k])
        for k in range(nv)
    )
    return Character(quiver, values)


def chi_sign_variants(quiver: Quiver, dim, r=None) -> dict:
    """The printed sign variants of the character, for reports.

    ``main`` is the displayed closed form; ``statement`` flips the sign of
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
    """Basis of {x : A x = 0} over the rationals; A given as a list of rows."""
    rows = [list(row) for row in matrix]
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
    pivot_cols = set(pivot_col_of_row)
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivot_col_of_row):
            vec[pc] = -rows[r][free]
        basis.append(vec)
    return basis


def tau_kernel(quiver: Quiver, dim) -> list:
    """Exact basis of {v in gl_d : tau(v) = 0}."""
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


def _contract(slots, ranges, unit, mul, free=()):
    """Sum over all index variables of the product of the slot factors.

    ``slots`` lists ``(entry, i, j)`` in multiplication order; its factor is
    ``entry(k_i, k_j)`` and ``ranges[v]`` holds the values of variable v.
    Each variable not in ``free`` is summed as soon as the last slot using
    it has been multiplied, so tr(M_1 ... M_m) costs O(m d^3) products
    instead of O(d^m).  Every free variable must occur in some slot.  The
    result maps each assignment of the ``free`` variables to its entry.
    """
    last = {}
    for t, (_, i, j) in enumerate(slots):
        last[i] = last[j] = t
    live = ()
    sums = {(): unit}
    for t, (entry, i, j) in enumerate(slots):
        new = tuple(v for v in dict.fromkeys((i, j)) if v not in live)
        grown = live + new
        live = tuple(v for v in grown if v in free or last[v] > t)
        at = [grown.index(v) for v in (i, j) + live]
        out = {}
        for key, acc in sums.items():
            for ext in itertools.product(*(ranges[v] for v in new)):
                ks = key + ext
                term = mul(acc, entry(ks[at[0]], ks[at[1]]))
                kept = tuple(ks[p] for p in at[2:])
                out[kept] = out[kept] + term if kept in out else term
        sums = out
    return {
        tuple(key[live.index(v)] for v in free): value for key, value in sums.items()
    }


def _contract_letters(quiver: Quiver, dim, words, quantum: bool, ends=None):
    """Contract the letter matrices of words of (letter, height) pairs.

    Factors multiply in height order: operator tokens when ``quantum``,
    coordinates otherwise.  Without ``ends`` every word is a closed cycle
    and the result is the trace.  With ``ends = (rows, cols)`` there is one
    open word and the result maps (row, col) to that entry of its product.
    """
    ring, mul = (WeylElement, weyl_mul) if quantum else (PolyElement, poly_mul)
    ranges, slots = [], []
    for word in words:
        first = len(ranges)
        for t, (letter, height) in enumerate(word):
            if quantum:
                entry = partial(WeylElement.operator_token, quiver, dim, letter)
            else:
                entry = partial(PolyElement.coordinate, quiver, dim, letter.arrow, letter.starred)
            nxt = t + 1 if ends else (t + 1) % len(word)
            slots.append((height, (entry, first + t, first + nxt)))
            ranges.append(range(1, dim[letter.target(quiver)] + 1))
    slots = [slot for _, slot in sorted(slots, key=lambda hs: hs[0])]
    unit = ring.constant(quiver, dim, 1)
    if not ends:
        return _contract(slots, ranges, unit, mul)[()]
    ranges[0] = ends[0]
    ranges.append(ends[1])
    return _contract(slots, ranges, unit, mul, free=(0, len(ranges) - 1))


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
            if len(cfg.components) != 1 or cfg.idempotents:
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
        if word:
            block = _contract_letters(quiver, dim, (word,), quantum, (rows, cols))
        else:
            block = {(row, row): ring.constant(quiver, dim, 1) for row in rows}
        scalar = coeff if quantum else coeff.constant_term()
        for key, value in block.items():
            entries[key] = entries[key] + value.scale(scalar)
    return BlockMatrix(
        src, dst, tuple(tuple(entries[row, col] for col in cols) for row in rows)
    )


def _moment_entry(quiver: Quiver, dim, i: int, p: int, q: int, r=None) -> WeylElement:
    """The (p, q) entry of the moment block at vertex i: signed two-letter
    open chains [a][a'] for t(a) = i and [a'][a] for s(a) = i, height-1 factor
    first, plus h r_i on the diagonal when r is given."""

    def chain(word):
        return _contract_letters(quiver, dim, (word,), True, ((p,), (q,)))[p, q]

    acc = WeylElement(quiver, dim)
    for ai, arrow in enumerate(quiver.arrows):
        plain, starred = Letter(ai, False), Letter(ai, True)
        if arrow.target == i:
            acc = acc + chain(((plain, 1), (starred, 2)))
        if arrow.source == i:
            acc = acc - chain(((starred, 1), (plain, 2)))
    if r is not None and p == q and r[i]:
        acc = acc + WeylElement.constant(
            quiver, dim, HBarPolynomial((0, as_fraction(r[i])))
        )
    return acc


def moment_block_matrix(quiver: Quiver, dim, r=None) -> dict:
    """Per-vertex operator matrices of the standard quantum moment element.

    Block i is sum_{t(a)=i} [a][a'] - sum_{s(a)=i} [a'][a], the matrix
    products ordered with the height-1 factor first, plus h r_i on the
    diagonal when r is given.
    """
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
    out = WeylElement(quiver, dim)
    for (i, p, q), c in v.items():
        out = out + _moment_entry(quiver, dim, i, q, p, r).scale(c)
    return out
