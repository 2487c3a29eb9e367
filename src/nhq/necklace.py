"""The necklace Lie algebra of a doubled quiver.

HH0 of the path algebra has a basis of necklaces: cyclic words up to
rotation, plus one idempotent class per vertex.  The Lie bracket contracts
letters a against a' with signs +1/-1 and merges the two punctured cycles;
the same contraction table defines the double bracket on the path algebra,
from which the necklace bracket is recovered by multiply-then-project.
This module also houses the moment element w = sum(a a' - a' a), its
deformation by a vertex-wise constant, and the reduction-complex map that
sends a framed gauge term (left, vertex, right) to left * w_vertex * right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CompositionError, ExpressionError, MismatchError
from .linear import LinearCombination, add_into
from .quiver import Letter, Path, PathAlgebraElement, Quiver, make_path, path_mul
from .rings import HBarPolynomial, as_fraction


@dataclass(frozen=True)
class Necklace:
    """A cyclic word in minimal rotation, or the class of a trivial path.

    ``letters`` empty means the idempotent class at ``vertex``; otherwise
    ``vertex`` is None and ``letters`` is the lexicographically minimal
    rotation under the total letter order.
    """

    vertex: int | None
    letters: tuple[Letter, ...]

    @property
    def is_idempotent(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)


def idempotent_class(vertex: int) -> Necklace:
    return Necklace(vertex, ())


def minimal_rotation_offset(letters) -> int:
    """Least offset of the lexicographically minimal rotation, in O(n).

    Duval's Lyndon factorisation (J. Algorithms 4, 1983) run over the
    doubled word: the minimal rotation starts at the last run of equal
    Lyndon factors that begins in the first copy.
    """
    s = tuple(letters) * 2
    n = len(s) // 2
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n:
            a, b = s[k], s[j]
            if a == b:
                k += 1
            elif a < b:
                k = i
            else:
                break
            j += 1
        while i <= k:
            i += j - k
    return start


def _check_cyclic(quiver: Quiver, letters) -> None:
    n = len(letters)
    for k in range(n):
        if letters[k].source(quiver) != letters[(k + 1) % n].target(quiver):
            raise CompositionError(
                f"word is not cyclically composable at position {k}"
            )


def canonical_necklace(quiver: Quiver, letters) -> Necklace:
    """Minimal rotation of a cyclically composable word."""
    letters = tuple(letters)
    if not letters:
        raise CompositionError("empty word; use idempotent_class for trivial cycles")
    _check_cyclic(quiver, letters)
    off = minimal_rotation_offset(letters)
    return Necklace(None, letters[off:] + letters[:off])


def necklace_key(n: Necklace):
    """Basis order: idempotent classes first by vertex, then (length, letters)."""
    if n.is_idempotent:
        return (0, n.vertex, ())
    return (1, len(n.letters), n.letters)


class HH0Element(LinearCombination):
    """Element of HH0 of the path algebra: a Q[h]-combination of necklaces."""

    __slots__ = ("quiver",)

    def __init__(self, quiver: Quiver, terms=None):
        object.__setattr__(self, "quiver", quiver)
        super().__init__(terms)

    @classmethod
    def of(cls, quiver: Quiver, necklace: Necklace, coeff=1) -> "HH0Element":
        return cls(quiver, {necklace: coeff})


def natural_projection(x: PathAlgebraElement) -> HH0Element:
    """Project the path algebra onto HH0: open paths die, cycles rotate."""
    quiver = x.quiver
    out = {}
    for path, coeff in x.items():
        if path.is_trivial:
            add_into(out, idempotent_class(path.vertex), coeff)
        elif path.source(quiver) == path.target(quiver):
            add_into(out, canonical_necklace(quiver, path.letters), coeff)
    return HH0Element(quiver, out)


def bracket_sign(u: Letter, v: Letter) -> int:
    """{u, v} on letters: +1 when v = u', -1 when u = v', else 0."""
    if u.arrow != v.arrow or u.starred == v.starred:
        return 0
    return -1 if u.starred else 1


def necklace_bracket(x: HH0Element, y: HH0Element) -> HH0Element:
    """Necklace Lie bracket: contract every letter pair (a_i, b_j) and merge.

    For cyclic words a_1..a_k and b_1..b_l, the (i, j) term contributes
    {a_i, b_j} times the cycle a_{i+1}..a_{i-1} b_{j+1}..b_{j-1}; an empty
    merge leaves the idempotent class at the contraction vertex.  Brackets
    with idempotent classes vanish.
    """
    if x.quiver != y.quiver:
        raise MismatchError("necklace_bracket operands live over different quivers")
    quiver = x.quiver
    # a merge of two composable cycles at a contracted pair is composable,
    # so only the operands are checked
    for operand in (x, y):
        for n in operand.terms:
            _check_cyclic(quiver, n.letters)
    out = {}
    for n1, c1 in x.items():
        if n1.is_idempotent:
            continue
        a = n1.letters
        for n2, c2 in y.items():
            if n2.is_idempotent:
                continue
            b = n2.letters
            coeff = c1 * c2
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    s = bracket_sign(ai, bj)
                    if s == 0:
                        continue
                    merged = a[i + 1 :] + a[:i] + b[j + 1 :] + b[:j]
                    if merged:
                        off = minimal_rotation_offset(merged)
                        key = Necklace(None, merged[off:] + merged[:off])
                    else:
                        key = idempotent_class(a[(i + 1) % len(a)].target(quiver))
                    add_into(out, key, coeff * s)
    return x._with_terms(out)


class TensorElement(LinearCombination):
    """Element of (path algebra) tensor (path algebra), keyed by path pairs."""

    __slots__ = ("quiver",)

    def __init__(self, quiver: Quiver, terms=None):
        object.__setattr__(self, "quiver", quiver)
        super().__init__(terms)

    def swap(self) -> "TensorElement":
        """Exchange the tensor factors."""
        return self._with_terms({(q, p): c for (p, q), c in self.items()})

    def mult(self) -> PathAlgebraElement:
        """Multiply the two factors together inside the path algebra."""
        out = PathAlgebraElement.zero(self.quiver)
        for (p, q), c in self.items():
            out = out + path_mul(
                PathAlgebraElement.of_path(self.quiver, p, c),
                PathAlgebraElement.of_path(self.quiver, q),
            )
        return out


def double_bracket(x: PathAlgebraElement, y: PathAlgebraElement) -> TensorElement:
    """The double bracket on the path algebra, expanded over letter pairs.

    On words p = p_1..p_m and q = q_1..q_n the biderivation extending the
    letter table is
        sum_{i,j} {p_i, q_j} (q_{<j} e p_{>i}) tensor (p_{<i} e q_{>j}),
    which is the unique extension by the Leibniz rule in the second slot and
    the twisted antisymmetry in the first.
    """
    if x.quiver != y.quiver:
        raise MismatchError("double_bracket operands live over different quivers")
    quiver = x.quiver
    out = {}
    for p, cp in x.items():
        if p.is_trivial:
            continue
        for q, cq in y.items():
            if q.is_trivial:
                continue
            coeff = cp * cq
            for i, pi in enumerate(p.letters):
                for j, qj in enumerate(q.letters):
                    s = bracket_sign(pi, qj)
                    if s == 0:
                        continue
                    first_letters = q.letters[:j] + p.letters[i + 1 :]
                    second_letters = p.letters[:i] + q.letters[j + 1 :]
                    first = (
                        Path(first_letters)
                        if first_letters
                        else Path.trivial(pi.source(quiver))
                    )
                    second = (
                        Path(second_letters)
                        if second_letters
                        else Path.trivial(pi.target(quiver))
                    )
                    add_into(out, (first, second), coeff * s)
    return TensorElement(quiver, out)


# ---------------------------------------------------------------------------
# Moment map and the reduction complex


@dataclass(frozen=True)
class MomentData:
    """The (deformed) moment element w - lambda with its vertex components."""

    quiver: Quiver
    lam: tuple[Fraction, ...]
    element: PathAlgebraElement
    components: tuple[PathAlgebraElement, ...]


def moment_map(quiver: Quiver, lam=None) -> MomentData:
    """w - lambda, with the component at vertex i equal to e_i (w - lambda) e_i.

    ``lam`` maps vertex names to rationals; omitted vertices default to 0.
    """
    nv = len(quiver.vertices)
    lam_vec = [Fraction(0)] * nv
    if lam:
        for name, value in lam.items():
            if not quiver.has_vertex(name):
                raise ExpressionError(f"unknown vertex {name!r} in lambda")
            lam_vec[quiver.vertex_index(name)] = as_fraction(value)
    components = []
    for i in range(nv):
        terms = {}
        for ai, arrow in enumerate(quiver.arrows):
            plain = Letter(ai, False)
            starred = Letter(ai, True)
            if arrow.target == i:
                add_into(terms, make_path(quiver, (plain, starred)), 1)
            if arrow.source == i:
                add_into(terms, make_path(quiver, (starred, plain)), -1)
        if lam_vec[i]:
            add_into(terms, Path.trivial(i), -lam_vec[i])
        components.append(PathAlgebraElement(quiver, terms))
    total = PathAlgebraElement.zero(quiver)
    for comp in components:
        total = total + comp
    return MomentData(quiver, tuple(lam_vec), total, tuple(components))


@dataclass(frozen=True)
class GaugeExpression:
    """Presentation of a gauge-group element: framed sums  coeff * left E_i right."""

    quiver: Quiver
    entries: tuple[tuple[HBarPolynomial, Path, int, Path], ...]


def make_gauge_expression(quiver: Quiver, entries) -> GaugeExpression:
    """Validate frames: left must start at the vertex and right must end there."""
    out = []
    for coeff, left, vertex, right in entries:
        if left.source(quiver) != vertex:
            raise CompositionError("left frame does not start at the gauge vertex")
        if right.target(quiver) != vertex:
            raise CompositionError("right frame does not end at the gauge vertex")
        out.append((HBarPolynomial.coerce(coeff), left, vertex, right))
    return GaugeExpression(quiver, tuple(out))


def xi(g: GaugeExpression, m: MomentData) -> PathAlgebraElement:
    """The reduction-complex differential: send left E_i right to left w_i right."""
    if g.quiver != m.quiver:
        raise MismatchError("gauge expression and moment data disagree on the quiver")
    quiver = g.quiver
    out = PathAlgebraElement.zero(quiver)
    for coeff, left, vertex, right in g.entries:
        piece = path_mul(
            path_mul(
                PathAlgebraElement.of_path(quiver, left, coeff),
                m.components[vertex],
            ),
            PathAlgebraElement.of_path(quiver, right),
        )
        out = out + piece
    return out
