"""The quantum path algebra: height configurations and skein straightening.

A configuration is a symmetric product of cyclic words whose letters carry
pairwise-distinct integer heights, together with a multiset of heightless
idempotent factors.  Only the relative order of heights is data, so every
configuration is stored with heights renumbered to 1..N, each component
linearized to start at its minimal height, and components sorted by that
minimal height.

The rewriting core brings a configuration to its PBW normal form: blocks
sorted by the necklace basis order, heights contiguous block by block, each
block's heights following the canonical rotation of its necklace.  One
rewrite exchanges an adjacent height pair (h, h+1) carried by letters u
(lower) and u'; writing X for the original and X' for the exchanged
configuration, X = X' - h*{u,u'}*X'' where X'' merges the two punctured
components (different components) or splits the punctured component into
its two arcs as a symmetric product (same component), empty pieces turning
into idempotent factors.  Each swap lowers the inversion count against the
normal-form height order and each correction has two fewer letters, so the
recursion terminates; confluence is a tested invariant, not an assumption.
The default strategy swaps the lowest inverted pair, which is insertion
sort: it moves each letter down in one run, and only the swaps with the
letter's partner contract anything.

Every correction costs one factor +-h and exactly two letters, so in the
expansion of an N-letter configuration the coefficient of an n-letter term
is an integer times h^((N - n)/2).  The rewriting kernel therefore works on
plain ``int`` coefficients with the power of h implied by the letter count.
Outside the kernel a configuration has one form, from straightening to the
trace cache: its coded key (codes, heights, idempotents), one ``str`` per
component (one character per letter, ``quiver._code``), one tuple of
``int`` heights per component and the sorted idempotent vertices.  A
``HeightConfiguration`` stores that key and decodes its ``Letter``s only
when read; the normal forms and the packed sums of a ``QPAElement`` are
coded keys.

The kernel and its cache key a configuration by its height form (word,
succ, idempotents) instead (``_height_form``): ``word`` holds the letter
code at each height as one ``str``, and ``succ`` the 0-based height of the
next letter of the same component.  The form is canonical as it stands: no
rotation to the least height, no sort of components.  Letters at positions
i < j contract to the cycles of succ o (i j) without i and j, the other
letters kept in their order: two cycles merge, one cycle splits, and a
cycle left empty becomes an idempotent factor (``_contracted``).

The cache keys each height form by one ``str`` (``_form_key``), laid out
as ``head + chr(N) + word + succ + idems``: ``head`` is ``chr`` of the
number of arrows (two letter codes each) followed by each code's target
vertex as a character (``_quiver_key``), and ``succ`` and the sorted
``idems`` hold one character per successor and per idempotent vertex,
made by ``chr``.  The cache is a ``work.GenerationalCache``, which holds
each key as it is.  The kernel reads it with ``get`` and stores with
``put``; a miss hands
``_rewrite`` the parts ``_contracted`` built the key from, so no key is
ever split.  Under each key the cache holds one flat tuple ``(coded
key0, c0, coded key1, c1, ...)`` per normal form, all ``str`` and
``int``: CPython stops tracking such tuples, and never tracks a ``str``,
so full garbage collections skip the cache.  Coded keys with the same
block lengths share one heights tuple (``_blocks``), equal block codes are
one interned ``str``, and each form's own canonical term ``(coded key,
1)`` is one tuple shared through ``_TERMS``, which also serves as the whole
entry of a form without corrections.  After 60 pbw benchmark rounds (seed
1) the 31,083 entries take 8.4 MB under ``tracemalloc``, 270 B each.
``_normal_terms`` turns the ints into packed sums, restoring h^((N -
n)/2) as a shift of the power, for ``straighten``, ``qpa_mul``,
``moment_lift`` and ``ideal_generator``.
``straighten`` and ``qpa_mul`` put each coded configuration (each operand
term) in height form once, on entry; the moment and ideal configurations
are one cycle each and are built in height form.  ``ideal_normal_forms``
hands the int forms of a generator's two parts, which do not depend
on (r, lambda), to the packed reduction-ideal check as they are, once for
every parameter set, with the closed words traced for Tr_q(p) and the tau
re-expansion.

Each call of those five passes a budget of its own down with the memo, a
list of the height swaps computed for it (cached normal forms cost none),
and is refused past ``work.MAX_REWRITES``: a long word can take minutes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from sys import intern

from . import work
from .errors import CompositionError
from .linear import _PackedSums, bilinear, from_ints, int_terms, rekeyed
from .necklace import (
    HH0Element,
    Necklace,
    _coded,
    _key_order,
    _rotation_start,
    bracket_sign,
    necklace_key,
)
from .quiver import _LETTER, Letter, Quiver, _code, moment_pairs, vertex_vector
from .rings import as_fraction


class HeightConfiguration:
    """Normalized configuration: components of (letter, height) pairs plus
    idempotent factors.  Heights are exactly 1..N; each component starts at
    its minimal height; components are sorted by starting height.

    It stores the kernel's key ``(codes, heights, idempotents)``, which
    equality and hash read; ``components`` decodes it through
    ``quiver._LETTER`` on each read, so a configuration holds no
    ``Letter``.  ``_config`` builds one from a key.  Attributes are read-only.
    """

    __slots__ = ("_key",)

    def __init__(self, components, idempotents):
        comps = [tuple(comp) for comp in components]
        codes = tuple([_code([letter for letter, _ in comp]) for comp in comps])
        heights = tuple([tuple([h for _, h in comp]) for comp in comps])
        self._key = (codes, heights, tuple(idempotents))

    codes = property(lambda self: self._key[0])
    heights = property(lambda self: self._key[1])
    idempotents = property(lambda self: self._key[2])
    letter_count = property(lambda self: sum(map(len, self._key[0])))
    is_unit = property(lambda self: not self._key[0] and not self._key[2])

    @property
    def components(self) -> tuple[tuple[tuple[Letter, int], ...], ...]:
        codes, heights, _ = self._key
        return tuple([tuple(zip(map(_LETTER.__getitem__, s), hs)) for s, hs in zip(codes, heights)])

    def __eq__(self, other):
        return self._key == other._key if type(other) is HeightConfiguration else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self) -> str:
        return f"HeightConfiguration(components={self.components!r}, idempotents={self.idempotents!r})"


def _config(key) -> HeightConfiguration:
    """The configuration of a coded key ``(codes, heights, idempotents)``."""
    cfg = object.__new__(HeightConfiguration)
    cfg._key = key
    return cfg


#: Quivers whose key heads are kept (``_quiver_key``).
_QUIVER_TABLES = 64

#: Block-length layouts whose stacked heights are kept (``_stacked``); the
#: pbw benchmark meets about 70.
_LAYOUTS = 1 << 10

@lru_cache(maxsize=_QUIVER_TABLES)
def _quiver_key(quiver: Quiver) -> str:
    """The head of the straighten cache's keys for a quiver: ``chr`` of the
    number of arrows, then the target vertex of each of their two letter
    codes, in code order, as one character each.  A normal form depends on
    the quiver only through these targets (the idempotent factor a
    correction leaves), so quivers with the same targets share entries.
    The count is of arrows, not codes: ``quiver.MAX_ARROWS`` arrows have
    one code more than ``chr`` takes."""
    targets = [letter.target(quiver) for letter in quiver.letters()]
    return chr(len(quiver.arrows)) + "".join(map(chr, targets))


def _form_key(head, word, succ, idems) -> str:
    """The straighten cache's key of a configuration in height form ``(word,
    succ, idems)`` over the quiver of ``head`` (``_quiver_key``): one str
    ``head + chr(N) + word + succ + idems``, each successor and each sorted
    idempotent vertex one character (``chr``)."""
    return "".join((head, chr(len(word)), word, "".join(map(chr, succ)), "".join(map(chr, idems))))


def _normalize(codes, heights, idems):
    """The normalized coded configuration of distinct positive heights:
    heights ranked to 1..N, each component rotated to start at its minimal
    height, components sorted by that height, idempotents sorted."""
    rank = {h: k for k, h in enumerate(sorted([h for hs in heights for h in hs]), 1)}
    comps = []
    for s, hs in zip(codes, heights):
        hs = [rank[h] for h in hs]
        start = hs.index(min(hs))
        comps.append((hs[start], s[start:] + s[:start], tuple(hs[start:] + hs[:start])))
    comps.sort()
    return tuple([c[1] for c in comps]), tuple([c[2] for c in comps]), tuple(sorted(idems))


def make_configuration(quiver: Quiver, components, idempotents=()) -> HeightConfiguration:
    """Validate and normalize a raw configuration.

    Components must be cyclically composable and all heights distinct; the
    idempotent factors must name vertices of the quiver.
    """
    comps = [tuple(comp) for comp in components]
    seen = set()
    for comp in comps:
        if not comp:
            raise CompositionError("empty component")
        n = len(comp)
        for k, (letter, h) in enumerate(comp):
            if not isinstance(h, int) or h < 1:
                raise CompositionError(f"height {h!r} is not a positive integer")
            if h in seen:
                raise CompositionError(f"duplicate height {h}")
            seen.add(h)
            nxt = comp[(k + 1) % n][0]
            if letter.source(quiver) != nxt.target(quiver):
                raise CompositionError(
                    f"component word is not cyclically composable at height {h}"
                )
    for v in idempotents:
        if not (0 <= v < len(quiver.vertices)):
            raise CompositionError(f"unknown vertex index {v} in idempotent factor")
    cfg = HeightConfiguration(comps, idempotents)
    return _config(_normalize(cfg.codes, cfg.heights, cfg.idempotents))


def canonical_configuration(quiver: Quiver, necklaces, extra_idempotents=()) -> HeightConfiguration:
    """The PBW normal-form configuration of a multiset of necklaces."""
    keys = [n.code or n.vertex for n in necklaces] + list(extra_idempotents)
    return _config(_canonical_key(keys))


def _canonical_key(keys) -> tuple:
    """The coded PBW normal-form configuration of the necklace keys
    ``keys`` (``HH0Element``'s): the words sorted as ``necklace_key``
    sorts their necklaces, stacked block by block."""
    codes = tuple(sorted([k for k in keys if type(k) is str], key=_key_order))
    return codes, _blocks(codes), tuple(sorted([k for k in keys if type(k) is not str]))


def _blocks(codes):
    """The heights of words ``codes`` stacked in order: 1..N, block by
    block, one shared tuple for words of the same lengths (``_stacked``)."""
    return _stacked(tuple(map(len, codes)))


@lru_cache(maxsize=_LAYOUTS)
def _stacked(lengths):
    """The heights 1..N of blocks of ``lengths`` letters, block by block."""
    t, blocks = 1, []
    for n in lengths:
        blocks.append(tuple(range(t, t + n)))
        t += n
    return tuple(blocks)


def _height_form(codes, heights) -> tuple:
    """``(word, succ)`` of coded components whose heights are 1..N, in any
    rotation and any order: the letter code at each height as one str, and
    the 0-based height of the next letter of the same component."""
    n = sum(map(len, codes))
    word, succ = [""] * n, [0] * n
    for s, hs in zip(codes, heights):
        for c, h, nxt in zip(s, hs, hs[1:] + hs[:1]):
            word[h - 1] = c
            succ[h - 1] = nxt - 1
    return "".join(word), tuple(succ)


def _canonical_targets(word, succ):
    """The normal-form position of the letter at each position 0..N - 1 of
    a configuration in height form, and the codes of its blocks in
    normal-form order, each in least rotation.

    The components are the cycles of ``succ``, each walked from its least
    height, in increasing order of that height.  Code order is the letter
    order, so blocks sort by (length, least rotation) as ``necklace_key``
    sorts their necklaces; equal words keep the order of their least
    heights."""
    n = len(word)
    blocks = []
    first, left, seen = 0, n, set()
    while left:
        cycle = [first]
        x = succ[first]
        while x != first:
            cycle.append(x)
            x = succ[x]
        s = "".join(map(word.__getitem__, cycle))
        off = _rotation_start(s)
        # first is unique, so the positions in least rotation are never compared
        blocks.append((len(s), intern(s[off:] + s[:off]), first, cycle[off:] + cycle[:off]))
        left -= len(s)
        if left:
            seen.update(cycle)
            first += 1
            while first in seen:
                first += 1
    blocks.sort()
    seq = [0] * n
    t = 0
    for block in blocks:
        for x in block[3]:
            seq[x] = t
            t += 1
    return seq, tuple([block[1] for block in blocks])


def is_canonical(quiver: Quiver, cfg: HeightConfiguration) -> bool:
    seq, _ = _canonical_targets(*_height_form(cfg.codes, cfg.heights))
    return seq == list(range(len(seq)))


_PICKERS = {
    "first": lambda invs, rng: invs[0],
    "last": lambda invs, rng: invs[-1],
    "middle": lambda invs, rng: invs[len(invs) // 2],
    "random": lambda invs, rng: rng.choice(invs),
}

def _contracted(head, word, succ, order, idems, i, j):
    """The correction of contracting the letters at positions i < j of a
    configuration whose letters are ``word`` in height order, the one at
    position k being the one at height order[k] of ``succ`` (the kernel
    moves letters in ``word`` and ``order`` only); ``head`` and the str
    ``idems`` are the parts of its key.  It is returned as its
    straighten-cache key (``_form_key``) and its parts ``(head, word, succ,
    idems)``, ``succ`` a list of ints: a miss of ``get`` hands those parts
    to ``_rewrite``, and ``put`` stores its expansion under the key.

    With a and b the heights of the two letters in ``succ``, it is the
    cycles of succ o (a b) with a and b removed, the other letters kept in
    their order.  Letters in two cycles merge them, letters in one cycle
    split it; a cycle left empty becomes the idempotent factor at its
    dropped letter's target.  A kept letter's new position is its index in
    the order of the kept letters.  The key is one ``str.join``, each
    successor one ``chr``, as ``_form_key`` makes it."""
    a, b = order[i], order[j]
    t = list(succ)
    t[a], t[b] = succ[b], succ[a]
    # cut a, then b, out of its cycle, its predecessor stepping over it; a
    # cycle of one letter is left empty (when a and b merge two loops, b's
    # is the one left, and partner loops share their vertex)
    if t[a] == a:
        idems = "".join(sorted(idems + head[1 + ord(word[i])]))
    else:
        t[t.index(a)] = t[a]
        t[a] = -1
    if t[b] == b:
        idems = "".join(sorted(idems + head[1 + ord(word[j])]))
    else:
        t[t.index(b)] = t[b]
    kept = order.copy()
    del kept[j], kept[i]
    succ = list(map(kept.index, map(t.__getitem__, kept)))
    word = "".join((word[:i], word[i + 1 : j], word[j + 1 :]))
    return "".join((head, chr(len(kept)), word, "".join(map(chr, succ)), idems)), (head, word, succ, idems)


def _rewrite(head, word, succ, idems, pick, rng, memo, budget):
    """Expand the configuration in height form ``(word, succ, idems)`` with
    N letters over the quiver of ``head``, the parts of its straighten-cache
    key (``_form_key``: ``succ`` a sequence of ints, ``idems`` the str of
    vertex characters), over the normal-form basis as one flat tuple
    ``(cfg0, c0, cfg1, c1, ...)`` of coded cfgs and nonzero ``int`` c, read
    in pairs with ``it = iter(entry); zip(it, it)``: the coefficient of an
    n-letter cfg is c*h^((N - n)/2).  Each correction term is read from
    ``memo`` with ``get`` under the key ``_contracted`` makes and, on a
    miss, expanded the same way from the parts it makes with the key and
    stored with ``put``.  The height swaps each form computes are added to
    ``budget[0]``, which the top-level call shares with every form.

    A pick moves the letter above a descent down past ``top - low``
    letters, one height swap each.  The pickers swap once per pick, except
    the default ``_PICKERS["first"]``: it always swaps the lowest descent,
    which is insertion sort, so the letter's whole run down to its
    insertion point is one pick.  On that route the contracting swaps of a
    run are found by searching it for the moving letter's partner, and only
    they call ``bracket_sign``; the other pickers call it at every swap.
    Each contracting swap costs a correction.

    Letters move in ``word`` and ``order`` only; ``succ`` stays the form's
    own.  A correction does not depend on which swap of a run makes it, as
    the moving letter is one of the two it drops, so it is cut
    (``_contracted``) from the order the run started from.

    The form's own term, its canonical cfg with coefficient 1, is shared
    through ``_TERMS``: equal canonical cfgs across entries are one tuple,
    and a form without corrections returns the one ``(cfg, 1)`` entry."""
    # The target normal-form position of every letter is fixed once here;
    # the swap chain below strictly lowers the inversion count against it,
    # so the chain terminates no matter how rotation or block-order ties
    # were broken (ties only exist between identical words, for which all
    # choices produce the same normal form).
    seq, necklaces = _canonical_targets(word, succ)
    n_letters = len(seq)
    order = list(range(n_letters))
    runs = pick is _PICKERS["first"]
    read, store = memo.get, memo.put
    out: dict = {}  # zeros are dropped at the end
    get = out.get
    swaps = 0
    top = 1  # on the default route, seq[:top] is sorted

    while True:
        if runs:
            while top < n_letters and seq[top - 1] < seq[top]:
                top += 1
            if top >= n_letters:
                break
            low = bisect_left(seq, seq[top], 0, top)
        else:
            inverted = [h for h in range(1, n_letters) if seq[h - 1] > seq[h]]
            if not inverted:
                break
            top = pick(inverted, rng)
            low = top - 1
        # the letter v at position top swaps with the letter u below it, at
        # positions top - 1, top - 2, ..., low in turn
        v = word[top]
        swaps += top - low
        if runs:
            u = chr(ord(v) ^ 1)  # v's partner, the only letter it contracts with
            i = word.rfind(u, low, top)
        else:
            u, i = word[low], low
        while i >= 0:
            sign = bracket_sign(_LETTER[u], _LETTER[v])
            if sign:
                # Correction: it costs one factor -sign*h and two letters,
                # which is what keeps every coefficient a bare int.
                key, form = _contracted(head, word, succ, order, idems, i, top)
                entry = read(key)
                if entry is None:
                    entry = _rewrite(*form, pick, rng, memo, budget)
                    store(key, entry)
                it = iter(entry)
                for cfg, c in zip(it, it):
                    out[cfg] = get(cfg, 0) - sign * c
            i = word.rfind(u, low, i) if runs else -1
        # v lands at position low, its target with it
        word = word[:low] + v + word[low:top] + word[top + 1 :]
        order.insert(low, order.pop(top))
        seq.insert(low, seq.pop(top))

    # corrections charged themselves as they returned; this form's own
    # swaps are charged last, so a refusal leaves only finished forms cached
    budget[0] += swaps
    work.check(budget[0], work.MAX_REWRITES, "straightening needs more rewrites than the limit {limit}")
    term = _TERMS.get((necklaces, idems))
    if term is None:
        if len(_TERMS) >= work.CACHE_SIZE:
            _TERMS.clear()
        term = _TERMS[necklaces, idems] = ((necklaces, _blocks(necklaces), tuple(map(ord, idems))), 1)
    # corrections have fewer letters, so this form's own cfg is new to out
    out[term[0]] = 1
    flat = [x for item in out.items() if item[1] for x in item]
    return term if len(flat) == 2 else tuple(flat)


#: Default-strategy normal forms of configurations in height form: the one
#: cache behind ``straighten``, ``qpa_mul``, ``moment_lift`` and the ideal
#: generators, keyed by one ``str`` (``_form_key``), each value the flat
#: tuple ``(cfg0, c0, cfg1, c1, ...)`` of coded cfgs and ints that
#: ``_rewrite`` makes.
_normal_form = work.GenerationalCache(work.CACHE_SIZE)


#: The canonical term ``((codes, heights, idems), 1)`` of each form
#: ``_rewrite`` has expanded, by any strategy, under (block codes, idems
#: str): every entry with that term shares it.  It is emptied with the
#: straighten cache and when it reaches ``work.CACHE_SIZE`` terms.
_TERMS: dict = {}


def _expanded(head, word, succ, idems, budget, pick=_PICKERS["first"], rng=None, memo=_normal_form) -> tuple:
    """The flat expansion of a configuration in height form ``(word, succ,
    idems)``, ``idems`` as ints, by ``pick``: read from ``memo``, by default
    the straighten cache, under its key (``_form_key``) and, on a miss, made
    by ``_rewrite`` from these parts, charged to ``budget``, and stored."""
    key = _form_key(head, word, succ, idems)
    entry = memo.get(key)
    if entry is None:
        entry = _rewrite(head, word, succ, "".join(map(chr, idems)), pick, rng, memo, budget)
        memo.put(key, entry)
    return entry


def _normal_terms(quiver, configs, pick=_PICKERS["first"], rng=None, memo=_normal_form) -> list:
    """Per power of h, {coded cfg: int numerator}: the sum over ``configs``
    of ``scale`` times the normal form of a configuration in height form
    ``(word, succ, idems, scale)``, ``scale`` given as ((power of h, int
    numerator), ...), straightened by ``pick`` into ``memo``.

    The kernel's int coefficient c of an n-letter term gets back its
    h^((N - n)/2), N being the letter count of its configuration, as a
    shift of its power; terms are summed under their coded keys.  The
    kernel may compute ``work.MAX_REWRITES`` height swaps for all of
    ``configs`` together, in one budget of this call."""
    head, budget = _quiver_key(quiver), [0]
    sums: list = []
    for word, succ, idems, scale in configs:
        n_letters = len(word)
        top = max([k for k, _ in scale]) + n_letters // 2  # the highest power a term reaches
        sums += [{} for _ in range(top + 1 - len(sums))]
        it = iter(_expanded(head, word, succ, idems, budget, pick, rng, memo))
        for key, c in zip(it, it):
            shift = (n_letters - sum(map(len, key[0]))) >> 1
            for k, m in scale:
                sums_k = sums[k + shift]
                sums_k[key] = sums_k.get(key, 0) + m * c
    return sums


def clear_straighten_cache() -> None:
    """Empty the straighten cache and its table of shared terms."""
    _normal_form.cache_clear()
    _TERMS.clear()


class QPAElement(_PackedSums):
    """Element of the quantum path algebra in PBW normal form, keyed by
    coded configurations ``(codes, heights, idempotents)``."""

    __slots__ = ("quiver",)

    _code_key = staticmethod(lambda cfg: cfg._key)
    _public_key = staticmethod(_config)

    @classmethod
    def unit(cls, quiver: Quiver) -> "QPAElement":
        return cls(quiver, {canonical_configuration(quiver, ()): 1})

    def __mul__(self, other):
        if isinstance(other, QPAElement):
            return qpa_mul(self, other)
        return self.scale(other)

    __rmul__ = _PackedSums.scale


def straighten(
    quiver: Quiver,
    cfg: HeightConfiguration,
    strategy: str = "first",
    rng=None,
) -> QPAElement:
    """Expand a configuration over the PBW normal-form basis.

    ``strategy`` picks which inverted adjacent height pair is rewritten next
    ("first", "last", "middle", or "random" with an ``rng``); all strategies
    produce the same element.

    The default strategy reads and fills the module's bounded straighten
    cache (``clear_straighten_cache`` empties it).  Any other strategy
    memoizes in a fresh ``GenerationalCache`` of its own call only, so
    confluence checks never see the shared results.  Past ``work.MAX_REWRITES``
    height swaps the call raises ``WorkLimitError``.
    """
    pick = _PICKERS.get(strategy)
    if pick is None:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {', '.join(_PICKERS)}"
        )
    if strategy == "random" and rng is None:
        raise ValueError("strategy 'random' needs an rng")
    memo = _normal_form if strategy == "first" else work.GenerationalCache(work.CACHE_SIZE)
    codes, heights, idems = _normalize(cfg.codes, cfg.heights, cfg.idempotents)
    config = (*_height_form(codes, heights), idems, ((0, 1),))
    return from_ints(QPAElement, (quiver,), _normal_terms(quiver, [config], pick, rng, memo))


def qpa_mul(x: QPAElement, y: QPAElement) -> QPAElement:
    """Stack y above x: shift y's heights past x's, then straighten.  Each
    term of either operand is put in height form once; a stacked word is
    x's word followed by y's."""
    x._check_compatible(y)
    (xs, dx), (ys, dy) = int_terms(x), int_terms(y)
    xs, ys = ([(*_height_form(*key[:2]), key[2], c) for key, c in terms.items()] for terms in (xs, ys))

    def stacked():
        for word_x, succ_x, idems_x, u in xs:
            shift = len(word_x)
            for word_y, succ_y, idems_y, v in ys:
                succ = succ_x + tuple([k + shift for k in succ_y])
                scale = [(i + j, a * b) for i, a in u for j, b in v]
                yield word_x + word_y, succ, tuple(sorted(idems_x + idems_y)), scale

    return from_ints(QPAElement, (x.quiver,), _normal_terms(x.quiver, stacked()), dx * dy)


def qpa_comm(x: QPAElement, y: QPAElement) -> QPAElement:
    return qpa_mul(x, y) - qpa_mul(y, x)


# ---------------------------------------------------------------------------
# The PBW isomorphism with Sym(HH0)[h]


def make_sym_monomial(necklaces) -> tuple:
    return tuple(sorted(necklaces, key=necklace_key))


class SymElement(_PackedSums):
    """Element of the symmetric algebra on HH0 over Q[h], keyed by tuples
    of coded necklaces (``HH0Element``'s keys)."""

    __slots__ = ("quiver",)

    _code_key = staticmethod(lambda monomial: tuple([n.code or n.vertex for n in monomial]))
    _public_key = staticmethod(lambda key: tuple(map(_coded, key)))

    @classmethod
    def of(cls, quiver: Quiver, necklaces, coeff=1) -> "SymElement":
        return cls(quiver, {make_sym_monomial(necklaces): coeff})

    def __mul__(self, other):
        if isinstance(other, SymElement):
            return sym_mul(self, other)
        return self.scale(other)

    __rmul__ = _PackedSums.scale


def sym_mul(x: SymElement, y: SymElement) -> SymElement:
    x._check_compatible(y)
    product = lambda m1, m2: {tuple(sorted(m1 + m2, key=_key_order)): 1}
    return from_ints(SymElement, (x.quiver,), *bilinear(x, y, product))


def lift(m: SymElement) -> QPAElement:
    """The PBW section: each sorted monomial goes to its canonical configuration."""
    return from_ints(QPAElement, (m.quiver,), *rekeyed(m, _canonical_key))


def lift_necklace_combination(x: HH0Element) -> QPAElement:
    """Embed an HH0 element into the quantum path algebra degree-one part:
    each coded necklace goes straight to its canonical configuration, the
    lift of the monomial of that necklace alone."""
    return from_ints(QPAElement, (x.quiver,), *rekeyed(x, lambda key: _canonical_key((key,))))


def lift_necklace(quiver: Quiver, n: Necklace) -> QPAElement:
    """The lift of the monomial of the necklace ``n`` alone: its coded key
    goes straight to its canonical configuration."""
    return from_ints(QPAElement, (quiver,), [{_canonical_key((n.code or n.vertex,)): 1}])


def project(x: QPAElement) -> SymElement:
    """Forget heights; inverse of lift on normal forms."""
    monomial = lambda cfg: tuple(sorted(cfg[0] + cfg[2], key=_key_order))
    return from_ints(SymElement, (x.quiver,), *rekeyed(x, monomial))


def moment_lift(quiver: Quiver) -> QPAElement:
    """The standard quantum moment element sum_a (a,1)(a',2) - (a',1)(a,2)."""
    configs = [
        (_code((first, second)), (1, 0), (), ((0, sign),))
        for i in range(len(quiver.vertices))
        for sign, first, second in moment_pairs(quiver, i)
    ]
    return from_ints(QPAElement, (quiver,), _normal_terms(quiver, configs))


# ---------------------------------------------------------------------------
# Generators of the quantum reduction ideal


@dataclass(frozen=True)
class ReductionParameters:
    """Vertex-wise parameters: the order-h weight r and the deformation
    lambda.  Every entry must be an exact rational (``rings.as_fraction``);
    it is kept as given."""

    r: tuple[Fraction, ...]
    lam: tuple[Fraction, ...]

    def __post_init__(self):
        for value in (*self.r, *self.lam):
            as_fraction(value)


def make_params(quiver: Quiver, r=None, lam=None) -> ReductionParameters:
    return ReductionParameters(vertex_vector(quiver, r), vertex_vector(quiver, lam))


def marked_word(quiver: Quiver, p: Necklace, vertex: int, mark: int):
    """Rotate p so the marked visit to ``vertex`` sits at the end of the word."""
    if p.is_idempotent:
        if p.vertex != vertex:
            raise CompositionError("idempotent generator must be marked at its own vertex")
        return ()
    letters = p.letters
    if not (0 <= mark < len(letters)):
        raise CompositionError(f"mark {mark} out of range for a {len(letters)}-letter cycle")
    if letters[mark].source(quiver) != vertex:
        raise CompositionError(
            f"cycle does not pass through vertex index {vertex} at mark {mark}"
        )
    return letters[mark + 1 :] + letters[: mark + 1]


def _ideal_parts(quiver, word, vertex):
    """The configurations of the generator of the marked ``word`` at
    ``vertex``: the spliced moment configurations in height form ``(word,
    succ, idems, sign)``, N = v + 2 letters at heights in word order around
    one cycle; p's cycle of v letters (the idempotent factor at ``vertex``
    when v = 0) in height form and as a coded key; and {normalized coded
    cfg: sign} of the closed words whose traces sum to the tau
    re-expansion E: p's word at heights 1..v and a moment pair, its
    unstarred letter at v + 1 and starred one at v + 2."""
    base = _code(word)
    v = len(base)
    heights = tuple(range(1, v + 1))
    ring = heights + (v + 1, 0)  # the successor of each height of the spliced cycle
    moments, closed = [], {}
    for sign, first, second in moment_pairs(quiver, vertex):
        pair = _code((first, second))
        moments.append((base + pair, ring, (), sign))
        # a closed word starts at height 1, where p's first letter sits;
        # with v = 0 it is rotated to start at its unstarred letter
        tail = (v + 2, v + 1) if first.starred else (v + 1, v + 2)
        key = ((pair[::-1],), ((1, 2),), ()) if tail == (2, 1) else ((base + pair,), (heights + tail,), ())
        closed[key] = closed.get(key, 0) + sign
    cycle = (base, heights[:-1] + (0,), ()) if v else ("", (), (vertex,))
    coded = ((base,), (heights,), ()) if v else ((), (), (vertex,))
    return moments, cycle, coded, {key: c for key, c in closed.items() if c}


def ideal_generator(
    quiver: Quiver,
    p: Necklace,
    vertex: int,
    mark: int = 0,
    params: ReductionParameters | None = None,
) -> QPAElement:
    """Generator of the quantum reduction ideal attached to (p, marked visit).

    The moment component at the marked vertex is spliced into p at the mark,
    heights running in word order around the spliced cycle, minus lambda_i
    times p, plus h r_i times p; everything is returned in normal form.
    """
    if params is None:
        params = make_params(quiver)
    moments, cycle, _, _ = _ideal_parts(quiver, marked_word(quiver, p, vertex, mark), vertex)
    lam, r = params.lam[vertex], params.r[vertex]
    den = lcm(lam.denominator, r.denominator)
    configs = [(*cfg, ((0, sign * den),)) for *cfg, sign in moments]
    tail = [(k, int(c * den)) for k, c in ((0, -lam), (1, r)) if c]
    if tail:
        configs.append((*cycle, tail))
    return from_ints(QPAElement, (quiver,), _normal_terms(quiver, configs), den)


def ideal_normal_forms(quiver: Quiver, word, vertex: int) -> tuple:
    """The four parts of the reduction-ideal check of (p, marked visit) in
    the kernel's form, each a dict {coded cfg: nonzero int}: ``(spliced,
    cycle, diagonal, expanded)``.  ``word`` is ``marked_word(quiver, p,
    vertex, mark)``.

    ``spliced`` and ``cycle`` are the two Rees-homogeneous parts of every
    ``ideal_generator`` of (p, marked visit), straightened.  With v the
    letters of p, an n-letter term c of ``spliced`` stands for c h^((v + 2
    - n)/2) and one of ``cycle`` for c h^((v - n)/2); the generator at
    parameters (r, lambda) is spliced + (-lambda + h r) cycle, so neither
    part depends on them.  Both share one budget of ``work.MAX_REWRITES``
    height swaps, as ``ideal_generator`` has.  ``diagonal`` holds p's
    marked word at heights 1..v, whose trace is Tr_q(p), and ``expanded``
    the closed words of ``_ideal_parts``; these two are not straightened."""
    moments, cycle, coded, closed = _ideal_parts(quiver, word, vertex)
    head, budget = _quiver_key(quiver), [0]

    def summed(configs):
        out: dict = {}
        for word, succ, idems, sign in configs:
            it = iter(_expanded(head, word, succ, idems, budget))
            for key, c in zip(it, it):
                out[key] = out.get(key, 0) + sign * c
        return {key: c for key, c in out.items() if c}

    return summed(moments), summed([(*cycle, 1)]), {coded: 1}, closed
