"""The necklace Lie algebra of a doubled quiver.

HH0 of the path algebra has a basis of necklaces: cyclic words up to
rotation, plus one idempotent class per vertex.  The Lie bracket contracts
letters a against a' with signs +1/-1 and merges the two punctured cycles;
the same contraction table defines the double bracket on the path algebra,
from which the necklace bracket is recovered by multiply-then-project.
This module also houses the moment element w = sum(a a' - a' a), its
deformation by a vertex-wise constant, and the reduction-complex map that
sends a framed gauge term (left, vertex, right) to left * w_vertex * right.
Both brackets are refused past ``work.MAX_MERGE_LETTERS`` merge letters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import work
from .errors import CompositionError, DimensionError, MismatchError, _in_range
from .linear import _PackedSums, bilinear, from_ints, int_terms, rekeyed
from .quiver import (
    _LETTER,
    Letter,
    Path,
    PathAlgebraElement,
    Quiver,
    _code,
    _code_path,
    _compose,
    _decode_path,
    _ends,
    make_path,
    moment_pairs,
    path_mul,
    vertex_vector,
)
from .rings import HBarPolynomial


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


def _coded(key) -> Necklace:
    """The necklace of a coded key (``HH0Element``'s): a code in least
    rotation, or the vertex of an idempotent class.  Its letters are
    decoded on first read."""
    n = object.__new__(Necklace)
    n._vertex, n._code = (None, key) if type(key) is str else (key, "")
    n._letters = None
    return n


def idempotent_class(vertex: int) -> Necklace:
    return _coded(vertex)


def _rotation_start(s: str) -> int:
    """Least offset of the least rotation of the nonempty coded word
    ``s``: ``_run_start`` from its least code and that code's count."""
    c = min(s)
    return _run_start(s, c, s.count(c))


def _run_start(s: str, c: str, m: int) -> int:
    """Least offset of the least rotation of the nonempty coded word ``s``,
    whose least code ``c`` occurs ``m`` times.

    That rotation begins with the longest cyclic run c^R of c, so only the
    starts of such runs are candidates (one when m is 1).  Their rotations
    are compared as str slices, in C; strict < keeps the least offset.
    The necklace bracket knows c and m of each merge from its operands.
    """
    if m == 1:
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
    composable."""
    ends = _ends(quiver)
    n = len(s)
    for k in range(n):
        if ends[s[k]][0] != ends[s[(k + 1) % n]][1]:
            raise CompositionError(
                f"word is not cyclically composable at position {k}"
            )


def _least_rotation(s: str) -> str:
    """The least rotation of the nonempty coded word ``s``."""
    off = _rotation_start(s)
    return s[off:] + s[:off]


def canonical_necklace(quiver: Quiver, letters) -> Necklace:
    """Minimal rotation of a cyclically composable word."""
    s = _code(letters)
    if not s:
        raise CompositionError("empty word; use idempotent_class for trivial cycles")
    _check_cyclic(quiver, s)
    return _coded(_least_rotation(s))


def necklace_key(n: Necklace):
    """Basis order: idempotent classes first by vertex, then (length, code).

    Code order is the letter order, so cycles sort by (length, letters)."""
    return _key_order(n._code or n._vertex)


def _key_order(key) -> tuple:
    """``necklace_key`` of the necklace of a coded key (``HH0Element``)."""
    return (1, len(key), key) if type(key) is str else (0, key, "")


class HH0Element(_PackedSums):
    """Element of HH0 of the path algebra: a Q[h]-combination of necklaces.

    Its coded key (``linear._PackedSums``) is a necklace's code, or its
    vertex for an idempotent class, so the two never collide.  Coding a
    public constructor's necklace checks that its word is cyclically
    composable (``_check_cyclic``), or its vertex one of the quiver's,
    once, when the constructor packs it; the bracket and
    ``natural_projection`` make only composable words and check nothing.
    """

    __slots__ = ("quiver",)

    @classmethod
    def of(cls, quiver: Quiver, necklace: Necklace, coeff=1) -> "HH0Element":
        return cls(quiver, {necklace: coeff})

    def _code_key(self, necklace: Necklace):
        if necklace._code:
            _check_cyclic(self.quiver, necklace._code)
        elif not _in_range(necklace._vertex, len(self.quiver.vertices) - 1, 0):
            raise CompositionError(f"unknown vertex index {necklace._vertex!r}")
        return necklace._code or necklace._vertex

    _public_key = staticmethod(_coded)


def natural_projection(x: PathAlgebraElement) -> HH0Element:
    """Project the path algebra onto HH0: open paths die, cycles rotate."""
    ends = _ends(x.quiver)

    def cycle(p):
        if type(p) is not str:
            return p
        return _least_rotation(p) if ends[p[-1]][0] == ends[p[0]][1] else None

    return from_ints(HH0Element, (x.quiver,), *rekeyed(x, cycle))


def bracket_sign(u: Letter, v: Letter) -> int:
    """{u, v} on letters: +1 when v = u', -1 when u = v', else 0."""
    if u.arrow != v.arrow or u.starred == v.starred:
        return 0
    return -1 if u.starred else 1


def _period(s: str) -> int:
    """Least p > 0 such that rotating the coded word ``s`` by p leaves it
    unchanged."""
    return (s + s).find(s, 1)


def _merge_counts(a: str, p: int, ca: Counter, b: str, q: int, cb: Counter) -> dict:
    """{coded merge in least rotation: nonzero int}: the bracket of the
    coded cyclic words ``a`` and ``b`` of periods ``p`` and ``q``, whose
    periods hold the codes ``ca`` and ``cb``.

    Code a_i contracts only with its partner in ``b``, so partners come
    from a partner-to-positions index of ``b``.  A merge at a_i holds the
    codes of a and b less one a_i and one partner a_i', so its least code
    and that code's count depend only on a_i: a table read from the
    operands' code counts gives them once per code, and each merge's
    rotation (``_run_start``) starts from them.  The three counting rules
    of ``necklace_bracket`` make every count a plain integer.  An empty
    merge is keyed by "" and not rotated.
    """
    k, l = len(a), len(b)
    ra, rb = k // p, l // q
    mult = ra * rb
    partners = {}
    for j in range(q):
        partners.setdefault(chr(ord(b[j]) ^ 1), []).append(j)
    # dropping a_i and a_i' empties at most two codes, so a merge's least
    # code is one of the three least codes of a and b
    totals = [(u, ra * ca[u] + rb * cb[u]) for u in sorted(ca.keys() | cb.keys())[:3]]
    least = {}
    for c in partners:
        d = chr(ord(c) ^ 1)
        least[c] = next(((u, m) for u, t in totals if (m := t - (u == c) - (u == d))), ("", 0))
    aa, bb = a + a, b + b
    counts = {}
    for i in range(p):
        ai = a[i]
        js = partners.get(ai)
        if js is None:
            continue
        prev, head = a[i - 1], aa[i + 1 : i + k]
        c, m = least[ai]
        sign = -mult if ord(ai) & 1 else mult
        for j in js:
            # merge (i-1, j-1) links to (i, j): not the start of its chain
            if prev == b[j] and b[j - 1] == ai:
                continue
            length, u, v = 1, i, j
            while a[(u + 1) % p] == b[v] and b[(v + 1) % q] == a[u]:
                u, v, length = (u + 1) % p, (v + 1) % q, length + 1
            if length % 2 == 0:
                continue
            merged = head + bb[j + 1 : j + l]
            if m:
                off = _run_start(merged, c, m)
                merged = merged[off:] + merged[:off]
            counts[merged] = counts.get(merged, 0) + sign
    return {key: count for key, count in counts.items() if count}


def _check_merge_letters(xs: dict, ys: dict, what: str) -> None:
    """Refuse the bracket of two dicts of coded words {code: (period,
    Counter of one period's codes)} whose merges could hold more than
    ``work.MAX_MERGE_LETTERS`` letters: for each word pair, the contracting
    code pairs of the grid the bracket walks times the k + l - 2 letters of
    a merge."""
    total = 0
    for a, (_, ca) in xs.items():
        for b, (_, cb) in ys.items():
            pairs = sum([m * cb[chr(ord(c) ^ 1)] for c, m in ca.items()])
            total += pairs * (len(a) + len(b) - 2)
    work.check(total, work.MAX_MERGE_LETTERS, what + " hold up to {amount} letters, above the limit {limit}")


def necklace_bracket(x: HH0Element, y: HH0Element) -> HH0Element:
    """Necklace Lie bracket: contract every letter pair (a_i, b_j) and merge.

    For cyclic words a_1..a_k and b_1..b_l, the (i, j) term contributes
    {a_i, b_j} times the cycle a_{i+1}..a_{i-1} b_{j+1}..b_{j-1}; an empty
    merge leaves the idempotent class at the contraction vertex.  Brackets
    with idempotent classes vanish.

    Each operand is read in its packed form (``HH0Element``): its cycle
    terms are codes with ``int`` numerators, so no necklace is built or
    decoded.  Merges are str slices, counted under their coded key in
    least rotation, and the result is packed under those keys.  A merge's
    least code and its count come from a per-pair table of
    ``_merge_counts`` (a merge at a_i lacks one a_i and one a_i'), so
    each rotation is one ``_run_start`` from them, with no scan of the
    merged word for them.  The operands' words were checked when they
    were packed, and a merge of two composable cycles at a contracted pair
    is composable, so nothing is checked here.  A bracket whose merges
    could hold more than ``work.MAX_MERGE_LETTERS`` letters raises
    ``WorkLimitError`` before any merge is formed.

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
    x._check_compatible(y)
    quiver = x.quiver
    xs, ys = _cycles(x), _cycles(y)
    _check_merge_letters(xs, ys, "bracket merges")

    def merges(a, b):
        if type(a) is not str or type(b) is not str:
            return None
        counts = _merge_counts(a, *xs[a], b, *ys[b])
        if "" in counts:
            # only two one-letter words merge to nothing
            counts[_LETTER[a].target(quiver)] = counts.pop("")
        return counts

    return from_ints(HH0Element, (quiver,), *bilinear(x, y, merges))


def _cycles(element: HH0Element) -> dict:
    """{code: (period, Counter of one period's codes)} of the cycle terms
    of ``element``'s packed form."""
    out = {}
    for s in int_terms(element)[0]:
        if type(s) is str:
            p = _period(s)
            out[s] = (p, Counter(s[:p]))
    return out


class TensorElement(_PackedSums):
    """Element of (path algebra) tensor (path algebra), keyed by pairs of
    coded paths (``quiver._code_path``)."""

    __slots__ = ("quiver",)

    _code_key = staticmethod(lambda pair: (_code_path(pair[0]), _code_path(pair[1])))
    _public_key = staticmethod(lambda pair: (_decode_path(pair[0]), _decode_path(pair[1])))

    def swap(self) -> "TensorElement":
        """Exchange the tensor factors."""
        return from_ints(TensorElement, (self.quiver,), *rekeyed(self, lambda pq: (pq[1], pq[0])))

    def mult(self) -> PathAlgebraElement:
        """Multiply the two factors together inside the path algebra."""
        ends = _ends(self.quiver)
        return from_ints(PathAlgebraElement, (self.quiver,), *rekeyed(self, lambda pq: _compose(ends, *pq)))


def double_bracket(x: PathAlgebraElement, y: PathAlgebraElement) -> TensorElement:
    """The double bracket on the path algebra, expanded over letter pairs.

    On words p = p_1..p_m and q = q_1..q_n the biderivation extending the
    letter table is
        sum_{i,j} {p_i, q_j} (q_{<j} e p_{>i}) tensor (p_{<i} e q_{>j}),
    which is the unique extension by the Leibniz rule in the second slot and
    the twisted antisymmetry in the first.  Each contracting letter pair
    forms one term of k + l - 2 letters, so a double bracket whose terms
    could hold more than ``work.MAX_MERGE_LETTERS`` letters raises
    ``WorkLimitError`` before any term is formed; paths have no rotations,
    so the count runs over all letters, not one period.

    Each operand is read in its packed form, its paths coded as strs
    (``quiver._code_path``); p_i contracts only with its partner code,
    found in a partner-to-positions index of q.  Tensor terms are counted
    per operand-term pair under coded keys, an empty factor keyed by its
    vertex, and packed under those keys.
    """
    x._check_compatible(y)
    ends = _ends(x.quiver)

    def words(element):
        """{code: (length, Counter of its codes)} per nontrivial path term."""
        return {s: (len(s), Counter(s)) for s in int_terms(element)[0] if type(s) is str}

    xs, ys = words(x), words(y)
    _check_merge_letters(xs, ys, "double bracket terms")
    partners = {}
    for b in ys:
        index = partners[b] = {}
        for j, c in enumerate(b):
            index.setdefault(chr(ord(c) ^ 1), []).append(j)

    def terms(a, b):
        if type(a) is not str or type(b) is not str:
            return None
        index, counts = partners[b], {}
        for i, c in enumerate(a):
            js = index.get(c)
            if js is None:
                continue
            sign = -1 if ord(c) & 1 else 1
            # the empty factors of a contraction of code c sit at its source and target
            source, target = ends[c]
            head, tail = a[i + 1 :], a[:i]
            for j in js:
                key = (b[:j] + head or source, tail + b[j + 1 :] or target)
                counts[key] = counts.get(key, 0) + sign
        return counts

    return from_ints(TensorElement, (x.quiver,), *bilinear(x, y, terms))


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
        terms = [(make_path(quiver, (first, second)), sign) for sign, first, second in moment_pairs(quiver, i)]
        terms.append((Path.trivial(i), -lam_vec[i]))
        components.append(PathAlgebraElement(quiver, terms))
    total = sum(components, PathAlgebraElement.zero(quiver))
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
    out = PathAlgebraElement.zero(quiver)
    for coeff, left, vertex, right in g.entries:
        out = out + path_mul(
            path_mul(
                PathAlgebraElement.of_path(quiver, left, coeff),
                m.components[vertex],
            ),
            PathAlgebraElement.of_path(quiver, right),
        )
    return out
