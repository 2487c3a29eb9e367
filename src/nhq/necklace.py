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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import CompositionError, DimensionError, MismatchError, WorkLimitError
from .linear import LinearCombination, add_into
from .quiver import (
    Letter,
    Path,
    PathAlgebraElement,
    Quiver,
    compose_paths,
    make_path,
    moment_pairs,
    path_mul,
    vertex_vector,
)
from .rings import HBarPolynomial


class _LetterTable(dict):
    """code character -> ``Letter``, filled on first use.

    A code needs no quiver to decode: code o is ``Letter(o >> 1, bool(o &
    1))``.  Each letter is built once and shared by every decoded word.
    """

    __slots__ = ()

    def __missing__(self, c: str) -> Letter:
        o = ord(c)
        letter = self[c] = Letter(o >> 1, bool(o & 1))
        return letter


_LETTER = _LetterTable()


def _code(letters) -> str:
    """A word as one character per letter, ``chr(2*arrow + starred)``.

    Code order is the letter order, and the partner of code c (the letter
    with the other star) is ``chr(ord(c) ^ 1)``.
    """
    return "".join([chr(2 * letter[0] + letter[1]) for letter in letters])


class Necklace:
    """A cyclic word in minimal rotation, or the class of a trivial path.

    ``letters`` empty means the idempotent class at ``vertex``; otherwise
    ``vertex`` is None and ``letters`` is the lexicographically minimal
    rotation under the total letter order.

    A necklace is keyed by its letter code ``code`` (``_code``, one
    character per letter): equality and hash read ``(vertex, code)``, so
    hashing one reuses the str's cached hash.  Necklaces built from a code
    (``_coded``), as the bracket's results are, decode their ``letters`` on
    first read.  ``vertex``, ``code`` and ``letters`` are read-only.
    """

    __slots__ = ("_vertex", "_code", "_letters")

    def __init__(self, vertex: int | None, letters):
        letters = tuple(letters)
        self._vertex = vertex
        self._code = _code(letters)
        self._letters = letters

    @property
    def vertex(self) -> int | None:
        return self._vertex

    @property
    def code(self) -> str:
        return self._code

    @property
    def letters(self) -> tuple[Letter, ...]:
        letters = self._letters
        if letters is None:
            letters = self._letters = tuple(map(_LETTER.__getitem__, self._code))
        return letters

    @property
    def is_idempotent(self) -> bool:
        return not self._code

    def __len__(self) -> int:
        return len(self._code)

    def __eq__(self, other):
        if type(other) is not Necklace:
            return NotImplemented
        return self._code == other._code and self._vertex == other._vertex

    def __hash__(self):
        return hash((self._vertex, self._code))

    def __repr__(self) -> str:
        return f"Necklace(vertex={self._vertex!r}, letters={self.letters!r})"


def _coded(code: str, vertex: int | None = None) -> Necklace:
    """The necklace of a coded word in least rotation (``vertex`` None) or,
    with ``code`` empty, the idempotent class at ``vertex``; its letters
    are decoded on first read."""
    n = object.__new__(Necklace)
    n._vertex = vertex
    n._code = code
    n._letters = None
    return n


def idempotent_class(vertex: int) -> Necklace:
    return _coded("", vertex)


def _rotation_start(s: str) -> int:
    """Least offset of the least rotation of the nonempty coded word ``s``.

    That rotation begins with the longest cyclic run c^R of the least code
    c, so only the starts of such runs are candidates (one when c occurs
    once).  Their rotations are compared as str slices, in C; strict <
    keeps the least offset.
    """
    c = min(s)
    if s.count(c) == 1:
        return s.find(c)
    n = len(s)
    ss = s + s
    run = c
    while len(run) < n and run + c in ss:
        run += c
    r = len(run)
    if r == n:
        return 0
    best = i = ss.find(run)
    least = ss[i : i + n]
    # runs of length r are disjoint; only starts in the first copy count
    i = ss.find(run, i + r, n - 1 + r)
    while i >= 0:
        rotation = ss[i : i + n]
        if rotation < least:
            best, least = i, rotation
        i = ss.find(run, i + r, n - 1 + r)
    return best


def minimal_rotation_offset(letters) -> int:
    """Least offset of the lexicographically minimal rotation of a word.

    The letters are coded one character each (``_code``) and the rotation
    is found by ``_rotation_start``'s longest-run candidate search.  An
    empty word has offset 0.
    """
    s = _code(letters)
    return _rotation_start(s) if s else 0


def _check_cyclic(quiver: Quiver, s: str) -> None:
    """Raise CompositionError unless the coded word ``s`` is cyclically
    composable; its letters come from the code -> ``Letter`` table."""
    ends = {c: (_LETTER[c].source(quiver), _LETTER[c].target(quiver)) for c in set(s)}
    n = len(s)
    for k in range(n):
        if ends[s[k]][0] != ends[s[(k + 1) % n]][1]:
            raise CompositionError(
                f"word is not cyclically composable at position {k}"
            )


def _cycle_code(quiver: Quiver, letters) -> str:
    """The code of the minimal rotation of a cyclically composable word."""
    s = _code(letters)
    if not s:
        raise CompositionError("empty word; use idempotent_class for trivial cycles")
    _check_cyclic(quiver, s)
    off = _rotation_start(s)
    return s[off:] + s[:off]


def canonical_necklace(quiver: Quiver, letters) -> Necklace:
    """Minimal rotation of a cyclically composable word."""
    return _coded(_cycle_code(quiver, letters))


def necklace_key(n: Necklace):
    """Basis order: idempotent classes first by vertex, then (length, code).

    Code order is the letter order, so cycles sort by (length, letters)."""
    code = n._code
    if not code:
        return (0, n._vertex, "")
    return (1, len(code), code)


class _PackedSums(LinearCombination):
    """Holds the packed storage of ``HH0Element`` below its own
    ``__slots__``, so that its context stays the quiver alone."""

    __slots__ = ("_sums", "_den")


class HH0Element(_PackedSums):
    """Element of HH0 of the path algebra: a Q[h]-combination of necklaces.

    It is stored packed: ``_sums`` holds one dict per power of h, from the
    key of each necklace (its code, or its vertex for an idempotent class,
    so the two never collide) to a nonzero ``int`` numerator over the one
    positive denominator ``_den``.  The form is canonical: ``_den`` and
    the numerators share no factor, and no power past the last nonzero one
    is kept.  Each form is built from the other on its first read and
    kept: ``terms`` ({``Necklace``: ``HBarPolynomial``}) from the packed
    form, the packed form from a public constructor's ``terms``.  ``+``,
    ``-``, ``scale``, ``==``, the bracket and ``natural_projection`` read
    and make packed forms only.
    """

    __slots__ = ("quiver",)

    def __init__(self, quiver: Quiver, terms=None):
        object.__setattr__(self, "quiver", quiver)
        super().__init__(terms)

    @classmethod
    def of(cls, quiver: Quiver, necklace: Necklace, coeff=1) -> "HH0Element":
        return cls(quiver, {necklace: coeff})

    @staticmethod
    def _from_sums(quiver: Quiver, sums, den: int) -> "HH0Element":
        """The element of the packed ``(sums, den)`` of ``_canonical``."""
        out = object.__new__(HH0Element)
        object.__setattr__(out, "quiver", quiver)
        object.__setattr__(out, "_sums", sums)
        object.__setattr__(out, "_den", den)
        return out

    def __getattr__(self, name):  # called for an unset slot
        if name == "terms":
            object.__setattr__(self, name, _view(self._sums, self._den))
        elif name in _PackedSums.__slots__:
            pairs = [(n._code or n._vertex, c.coeffs) for n, c in self.terms.items()]
            for slot, value in zip(_PackedSums.__slots__, _pack(pairs)):
                object.__setattr__(self, slot, value)
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def __bool__(self) -> bool:
        return bool(self._sums)

    def __eq__(self, other) -> bool:
        if type(other) is not HH0Element:
            return NotImplemented
        return self.quiver == other.quiver and self._den == other._den and self._sums == other._sums

    def __add__(self, other, sign=1):
        self._check_compatible(other)
        xs, ys, dx, dy = self._sums, other._sums, self._den, other._den
        den = lcm(dx, dy)
        fx, fy = den // dx, sign * (den // dy)
        out = [{key: fx * m for key, m in sums_k.items()} for sums_k in xs]
        out += [{} for _ in range(len(ys) - len(xs))]
        for out_k, sums_k in zip(out, ys):
            get = out_k.get
            for key, m in sums_k.items():
                out_k[key] = get(key, 0) + fy * m
        return HH0Element._from_sums(self.quiver, *_canonical(out, den))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        sums = tuple([{key: -m for key, m in sums_k.items()} for sums_k in self._sums])
        return HH0Element._from_sums(self.quiver, sums, self._den)

    def scale(self, c):
        """Times a rational or an ``HBarPolynomial``: its h^j part moves
        each power j places up."""
        coeffs = HBarPolynomial.coerce(c).coeffs
        dc = lcm(*[a.denominator for a in coeffs])
        nums = [a.numerator * (dc // a.denominator) for a in coeffs]
        out = [{} for _ in range(len(self._sums) + len(nums) - 1)]
        for j, a in enumerate(nums):
            if a:
                for out_k, sums_k in zip(out[j:], self._sums):
                    get = out_k.get
                    for key, m in sums_k.items():
                        out_k[key] = get(key, 0) + a * m
        return HH0Element._from_sums(self.quiver, *_canonical(out, self._den * dc))


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


def _pack(pairs) -> tuple:
    """The canonical packed form of the (necklace key, h-coefficients)
    ``pairs``, a repeated key summed."""
    den = lcm(*[c.denominator for _, coeffs in pairs for c in coeffs])
    sums = [{} for _ in range(max([len(coeffs) for _, coeffs in pairs], default=0))]
    for key, coeffs in pairs:
        for sums_k, c in zip(sums, coeffs):
            if c:
                sums_k[key] = sums_k.get(key, 0) + c.numerator * (den // c.denominator)
    return _canonical(sums, den)


def _view(sums, den: int) -> dict:
    """{``Necklace``: ``HBarPolynomial``} of a packed form; each necklace
    is built from its key, its letters decoded only when read."""
    terms = {}
    for key in dict.fromkeys([key for sums_k in sums for key in sums_k]):
        nums = [sums_k.get(key, 0) for sums_k in sums]
        coeff = HBarPolynomial._with_coeffs(nums if den == 1 else [Fraction(m, den) for m in nums])
        terms[_coded(key) if type(key) is str else idempotent_class(key)] = coeff
    return terms


def natural_projection(x: PathAlgebraElement) -> HH0Element:
    """Project the path algebra onto HH0: open paths die, cycles rotate."""
    quiver = x.quiver
    pairs = []
    for path, coeff in x.items():
        if path.is_trivial:
            pairs.append((path.vertex, coeff.coeffs))
        elif path.source(quiver) == path.target(quiver):
            pairs.append((_cycle_code(quiver, path.letters), coeff.coeffs))
    return HH0Element._from_sums(quiver, *_pack(pairs))


def bracket_sign(u: Letter, v: Letter) -> int:
    """{u, v} on letters: +1 when v = u', -1 when u = v', else 0."""
    if u.arrow != v.arrow or u.starred == v.starred:
        return 0
    return -1 if u.starred else 1


def _period(s: str) -> int:
    """Least p > 0 such that rotating the coded word ``s`` by p leaves it
    unchanged."""
    return (s + s).find(s, 1)


def _merge_counts(a: str, p: int, b: str, q: int) -> dict:
    """{coded merge in least rotation: nonzero int}: the bracket of the
    coded cyclic words ``a`` and ``b`` of periods ``p`` and ``q``.

    Code a_i contracts only with its partner in ``b``, so partners come
    from a partner-to-positions index of ``b``.  The three counting rules
    of ``necklace_bracket`` make every count a plain integer.  An empty
    merge is keyed by "".
    """
    k, l = len(a), len(b)
    mult = (k // p) * (l // q)
    partners = {}
    for j in range(q):
        partners.setdefault(chr(ord(b[j]) ^ 1), []).append(j)
    aa, bb = a + a, b + b
    counts = {}
    for i in range(p):
        ai = a[i]
        for j in partners.get(ai, ()):
            # merge (i-1, j-1) links to (i, j): not the start of its chain
            if a[i - 1] == b[j] and b[j - 1] == ai:
                continue
            length, u, v = 1, i, j
            while a[(u + 1) % p] == b[v] and b[(v + 1) % q] == a[u]:
                u, v, length = (u + 1) % p, (v + 1) % q, length + 1
            if length % 2 == 0:
                continue
            merged = aa[i + 1 : i + k] + bb[j + 1 : j + l]
            if merged:
                off = _rotation_start(merged)
                merged = merged[off:] + merged[:off]
            counts[merged] = counts.get(merged, 0) + (-mult if ord(ai) & 1 else mult)
    return {key: count for key, count in counts.items() if count}


#: Most letters the merges of one necklace bracket, or the tensor terms of
#: one double bracket, may hold, as counted by ``_check_merge_letters``.
#: Output and time grow with this count, so a larger bracket is refused with
#: ``WorkLimitError`` (a ``DimensionError``) before any merge is formed.
MAX_MERGE_LETTERS = 1 << 24


def _check_merge_letters(xs, ys, what: str) -> None:
    """Refuse the bracket of two lists of coded terms ``(code, period,
    Counter of one period's codes, coefficient)`` whose merges could hold
    more than ``MAX_MERGE_LETTERS`` letters: for each term pair, the
    contracting code pairs of the grid the bracket walks times the k + l - 2
    letters of a merge."""
    total = 0
    for a, _, ca, _ in xs:
        for b, _, cb, _ in ys:
            pairs = sum([m * cb[chr(ord(c) ^ 1)] for c, m in ca.items()])
            total += pairs * (len(a) + len(b) - 2)
    if total > MAX_MERGE_LETTERS:
        raise WorkLimitError(
            f"{what} hold up to {total} letters, above the limit {MAX_MERGE_LETTERS}"
        )


def necklace_bracket(x: HH0Element, y: HH0Element) -> HH0Element:
    """Necklace Lie bracket: contract every letter pair (a_i, b_j) and merge.

    For cyclic words a_1..a_k and b_1..b_l, the (i, j) term contributes
    {a_i, b_j} times the cycle a_{i+1}..a_{i-1} b_{j+1}..b_{j-1}; an empty
    merge leaves the idempotent class at the contraction vertex.  Brackets
    with idempotent classes vanish.

    Each operand is read in its packed form (``HH0Element``): its cycle
    terms are codes with ``int`` numerators, checked on their codes, so no
    necklace is built or decoded.  Merges are str slices, rotated by
    ``_rotation_start`` and counted under their coded key, and the result
    is packed under those keys.  A bracket whose merges could hold more
    than ``MAX_MERGE_LETTERS`` letters raises ``WorkLimitError`` before
    any merge is formed.

    Each distinct merge is rotated once, by three exact counting rules
    (indices are cyclic):

    - Periods.  If a has period p and b period q, merges (i, j), (i+p, j)
      and (i, j+q) are the same word with the same sign, so i runs over
      one period of a and j over one period of b, with multiplicity
      (k/p)(l/q).
    - Telescoping chains.  When a_{i+1} = b_j and b_{j+1} = a_i, merges
      (i, j) and (i+1, j+1) are the same cyclic word (b_j a_{i+2}..a_{i-1}
      a_i b_{j+2}..b_{j-1} rotated) and their signs are opposite (a_{i+1}
      = a_i').  So each diagonal chain of such links is walked once from
      its start: an even chain cancels, an odd one counts once with the
      sign of its start.  A closed loop has no start; its signs alternate
      around it, so its length is even and it cancels.  The link rule
      depends only on i mod p and j mod q, so the chains are walked on the
      period-reduced grid.
    - Integer sums.  Signs and multiplicities add up as plain ints per
      operand-term pair.  Each operand holds ``int`` numerators over one
      denominator, one per power of h, so every key's coefficient sums as
      ints, one per power of h, over the product of the two denominators;
      the result is that packed form after one common-factor reduction.
    """
    if x.quiver != y.quiver:
        raise MismatchError("necklace_bracket operands live over different quivers")
    quiver = x.quiver
    (xs, dx), (ys, dy) = _int_terms(x), _int_terms(y)
    # a merge of two composable cycles at a contracted pair is composable,
    # so only the operands are checked
    for a, _, _, _ in xs + ys:
        _check_cyclic(quiver, a)
    _check_merge_letters(xs, ys, "bracket merges")
    # sums[k]: {key: numerator of its h^k coefficient over dx * dy}
    sums = [{} for _ in range(len(x._sums) + len(y._sums) - 1)]
    for a, p, _, u in xs:
        for b, q, _, v in ys:
            counts = _merge_counts(a, p, b, q)
            if "" in counts:
                # only two one-letter words merge to nothing
                counts[_LETTER[a].target(quiver)] = counts.pop("")
            for i, ui in u:
                for j, vj in v:
                    w, sums_k = ui * vj, sums[i + j]
                    get = sums_k.get
                    for key, count in counts.items():
                        sums_k[key] = get(key, 0) + w * count
    return HH0Element._from_sums(quiver, *_canonical(sums, dx * dy))


def _int_terms(element: HH0Element):
    """The cycle terms of ``element``'s packed form as ``(code, period,
    Counter of one period's codes, ((power of h, numerator), ...))``, and
    the denominator of every numerator."""
    powers: dict = {}
    for k, sums_k in enumerate(element._sums):
        for key, m in sums_k.items():
            if type(key) is str:
                powers.setdefault(key, []).append((k, m))
    out = []
    for s, u in powers.items():
        p = _period(s)
        out.append((s, p, Counter(s[:p]), u))
    return out, element._den


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
        quiver = self.quiver
        out = {}
        for (p, q), c in self.items():
            pq = compose_paths(quiver, p, q)
            if pq is not None:
                add_into(out, pq, c)
        return PathAlgebraElement.zero(quiver)._with_terms(out)


def double_bracket(x: PathAlgebraElement, y: PathAlgebraElement) -> TensorElement:
    """The double bracket on the path algebra, expanded over letter pairs.

    On words p = p_1..p_m and q = q_1..q_n the biderivation extending the
    letter table is
        sum_{i,j} {p_i, q_j} (q_{<j} e p_{>i}) tensor (p_{<i} e q_{>j}),
    which is the unique extension by the Leibniz rule in the second slot and
    the twisted antisymmetry in the first.  Each contracting letter pair
    forms one term of k + l - 2 letters, so a double bracket whose terms
    could hold more than ``MAX_MERGE_LETTERS`` letters raises
    ``WorkLimitError`` before any term is formed; paths have no rotations,
    so the count runs over all letters, not one period.

    Each operand term is coded once as a str (``_code``); p_i contracts
    only with its partner code, found in a partner-to-positions index of q.
    Tensor terms are counted per operand-term pair under coded keys, an
    empty factor keyed by its vertex, and each distinct factor is decoded
    to a ``Path`` once, at the end, through ``_LETTER``.
    """
    if x.quiver != y.quiver:
        raise MismatchError("double_bracket operands live over different quivers")
    quiver = x.quiver

    def coded(element):
        """(code, length, codes, coefficient) per nontrivial path term."""
        words = [(_code(p.letters), c) for p, c in element.items() if not p.is_trivial]
        return [(s, len(s), Counter(s), c) for s, c in words]

    xs, ys = coded(x), coded(y)
    _check_merge_letters(xs, ys, "double bracket terms")
    # the empty factors of a contraction of code c sit at its source and target
    letters = {c for _, _, counts, _ in xs for c in counts}
    ends = {c: (_LETTER[c].source(quiver), _LETTER[c].target(quiver)) for c in letters}
    indexed = []
    for b, _, _, cb in ys:
        partners = {}
        for j, c in enumerate(b):
            partners.setdefault(chr(ord(c) ^ 1), []).append(j)
        indexed.append((b, partners, cb))
    out = {}
    for a, _, _, ca in xs:
        for b, partners, cb in indexed:
            counts = {}
            for i, c in enumerate(a):
                js = partners.get(c)
                if js is None:
                    continue
                sign = -1 if ord(c) & 1 else 1
                source, target = ends[c]
                head, tail = a[i + 1 :], a[:i]
                for j in js:
                    key = (b[:j] + head or source, tail + b[j + 1 :] or target)
                    counts[key] = counts.get(key, 0) + sign
            coeff = ca * cb
            for key, count in counts.items():
                if count:
                    add_into(out, key, coeff * count)
    paths = {
        f: Path(tuple(map(_LETTER.__getitem__, f))) if isinstance(f, str) else Path.trivial(f)
        for f in {f for pair in out for f in pair}
    }
    return TensorElement(quiver)._with_terms({(paths[p], paths[q]): c for (p, q), c in out.items()})


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
    lam_vec = vertex_vector(quiver, lam)
    components = []
    for i in range(len(quiver.vertices)):
        terms = {}
        for sign, first, second in moment_pairs(quiver, i):
            add_into(terms, make_path(quiver, (first, second)), sign)
        if lam_vec[i]:
            add_into(terms, Path.trivial(i), -lam_vec[i])
        components.append(PathAlgebraElement(quiver, terms))
    total = PathAlgebraElement.zero(quiver)
    for comp in components:
        total = total + comp
    return MomentData(quiver, lam_vec, total, tuple(components))


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
    out = {}
    for coeff, left, vertex, right in g.entries:
        piece = path_mul(
            path_mul(
                PathAlgebraElement.of_path(quiver, left, coeff),
                m.components[vertex],
            ),
            PathAlgebraElement.of_path(quiver, right),
        )
        for path, c in piece.items():
            add_into(out, path, c)
    return PathAlgebraElement.zero(quiver)._with_terms(out)
