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

Every correction costs one factor +-h and exactly two letters, so in the
expansion of an N-letter configuration the coefficient of an n-letter term
is an integer times h^((N - n)/2).  The rewriting kernel therefore works on
plain ``int`` coefficients with the power of h implied by the letter count,
and the straighten cache holds ``(cfg, int)`` pairs; ``_normal_terms`` is
the one boundary that restores h^((N - n)/2) for ``straighten``,
``qpa_mul``, ``moment_lift`` and ``ideal_generator``.  A correction drops
the letters at heights h and h + 1 of a configuration with heights 1..N,
so it is renumbered by moving the heights above h + 1 down by two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CompositionError, ExpressionError, MismatchError
from .linear import LinearCombination, add_into
from .necklace import (
    Necklace,
    bracket_sign,
    idempotent_class,
    minimal_rotation_offset,
    necklace_key,
)
from .quiver import Letter, Quiver
from .rings import HBarPolynomial, as_fraction


@dataclass(frozen=True)
class HeightConfiguration:
    """Normalized configuration: components of (letter, height) pairs plus
    idempotent factors.  Heights are exactly 1..N; each component starts at
    its minimal height; components are sorted by starting height."""

    components: tuple[tuple[tuple[Letter, int], ...], ...]
    idempotents: tuple[int, ...]

    @property
    def letter_count(self) -> int:
        return sum(map(len, self.components))

    @property
    def is_unit(self) -> bool:
        return not self.components and not self.idempotents


def _normalize_raw(components, idempotents):
    comps = [tuple(comp) for comp in components]
    heights = sorted(h for comp in comps for (_, h) in comp)
    rank = {h: k + 1 for k, h in enumerate(heights)}
    normed = []
    for comp in comps:
        comp = tuple((letter, rank[h]) for (letter, h) in comp)
        start = min(range(len(comp)), key=lambda k: comp[k][1])
        normed.append(comp[start:] + comp[:start])
    normed.sort(key=lambda c: c[0][1])
    return tuple(normed), tuple(sorted(idempotents))


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
    comps_n, idems_n = _normalize_raw(comps, idempotents)
    return HeightConfiguration(comps_n, idems_n)


def canonical_configuration(quiver: Quiver, necklaces, extra_idempotents=()) -> HeightConfiguration:
    """The PBW normal-form configuration of a multiset of necklaces."""
    words = sorted(
        (n for n in necklaces if not n.is_idempotent), key=necklace_key
    )
    idems = sorted(
        [n.vertex for n in necklaces if n.is_idempotent] + list(extra_idempotents)
    )
    comps = []
    t = 1
    for neck in words:
        n = len(neck.letters)
        comps.append(tuple(zip(neck.letters, range(t, t + n))))
        t += n
    return HeightConfiguration(tuple(comps), tuple(idems))


def _canonical_targets(quiver: Quiver, comps):
    """The normal-form height of the letter at each height 1..N of a
    normalized configuration (entry h - 1 for height h), and the necklaces
    of its blocks in normal-form order."""
    blocks = []
    for ci, comp in enumerate(comps):
        word = tuple([letter for (letter, _) in comp])
        off = minimal_rotation_offset(word)
        neck = Necklace(None, word[off:] + word[:off])
        # ci is unique, so the necklace itself is never compared
        blocks.append((necklace_key(neck), comp[0][1], ci, off, neck))
    blocks.sort()
    seq = [0] * sum(map(len, comps))
    necklaces = []
    t = 1
    for _, _, ci, off, neck in blocks:
        comp = comps[ci]
        necklaces.append(neck)
        for _, h in comp[off:] + comp[:off]:
            seq[h - 1] = t
            t += 1
    return seq, necklaces


def is_canonical(quiver: Quiver, cfg: HeightConfiguration) -> bool:
    seq, _ = _canonical_targets(quiver, cfg.components)
    return seq == list(range(1, len(seq) + 1))


def _arc_length(a: int, b: int, n: int) -> int:
    """Number of positions strictly between a and b, walking forward mod n."""
    return (b - a - 1) % n


_PICKERS = {
    "first": lambda invs, rng: invs[0],
    "last": lambda invs, rng: invs[-1],
    "middle": lambda invs, rng: invs[len(invs) // 2],
    "random": lambda invs, rng: rng.choice(invs),
}

_ONE = HBarPolynomial.one()

#: Entries kept by each module-level cache (default-strategy normal forms
#: here, quantum traces in ``trace``); the least recently used is evicted.
CACHE_SIZE = 1 << 16


def _drop_pair(pieces, idems, h):
    """Normalize a correction term cut from a configuration with heights
    1..N by dropping the letters at heights h and h + 1: heights above h + 1
    move down by two, each piece is rotated to start at its minimal height
    (swaps move the minimum, so kept components need it too) and the pieces
    are sorted by that height.  Equal to ``_normalize_raw`` on the same
    input, without its sort and rank table."""
    comps = []
    for piece in pieces:
        # renumbering keeps the order of heights, so the minimum stays put
        heights = [k for (_, k) in piece]
        start = heights.index(min(heights))
        piece = piece[start:] + piece[:start]
        comps.append(tuple([(letter, k - 2 if k > h else k) for (letter, k) in piece]))
    comps.sort(key=_start_height)
    return tuple(comps), tuple(sorted(idems))


def _start_height(comp):
    return comp[0][1]


def _rewrite(quiver, comps, idems, pick, rng, normal_form):
    """Expand a normalized configuration of N letters over the normal-form
    basis as ``(cfg, c)`` pairs with ``int`` c: the coefficient of an
    n-letter cfg is c*h^((N - n)/2).  ``normal_form(quiver, comps, idems)``
    expands each normalized correction term the same way."""
    # The target normal-form height of every position is fixed once here;
    # the swap chain below strictly lowers the inversion count against it,
    # so the chain terminates no matter how rotation or block-order ties
    # were broken (ties only exist between identical words, for which all
    # choices produce the same normal form).
    seq, necklaces = _canonical_targets(quiver, comps)
    state = [list(comp) for comp in comps]
    pos_of = {h: (ci, pi) for ci, comp in enumerate(state) for pi, (_, h) in enumerate(comp)}
    n_letters = len(seq)
    out: dict = {}

    while True:
        inverted = [h for h in range(1, n_letters) if seq[h - 1] > seq[h]]
        if not inverted:
            break
        h = pick(inverted, rng)
        ci, pi = pos_of[h]
        cj, pj = pos_of[h + 1]
        u = state[ci][pi][0]
        v = state[cj][pj][0]

        sign = bracket_sign(u, v)
        if sign:
            # Correction: drop the two contracted letters from the pre-swap
            # configuration.  It costs one factor -sign*h and two letters,
            # which is what keeps every coefficient a bare int.
            pieces = [c for k, c in enumerate(state) if k != ci and k != cj]
            new_idems = list(idems)
            if ci != cj:
                len_i, len_j = len(state[ci]), len(state[cj])
                merged = [state[ci][(pi + 1 + k) % len_i] for k in range(len_i - 1)]
                merged += [state[cj][(pj + 1 + k) % len_j] for k in range(len_j - 1)]
                if merged:
                    pieces.append(merged)
                else:
                    new_idems.append(u.target(quiver))
            else:
                n = len(state[ci])
                arc_b = [state[ci][(pi + 1 + k) % n] for k in range(_arc_length(pi, pj, n))]
                arc_a = [state[ci][(pj + 1 + k) % n] for k in range(_arc_length(pj, pi, n))]
                if arc_a:
                    pieces.append(arc_a)
                else:
                    new_idems.append(u.target(quiver))
                if arc_b:
                    pieces.append(arc_b)
                else:
                    new_idems.append(v.target(quiver))
            for cfg, c in normal_form(quiver, *_drop_pair(pieces, new_idems, h)):
                add_into(out, cfg, -sign * c)

        # The swap exchanges heights h and h + 1 between two positions, so
        # the height lookup and the target sequence swap two entries each.
        state[ci][pi] = (u, h + 1)
        state[cj][pj] = (v, h)
        pos_of[h], pos_of[h + 1] = (cj, pj), (ci, pi)
        seq[h - 1], seq[h] = seq[h], seq[h - 1]

    add_into(out, canonical_configuration(quiver, necklaces, extra_idempotents=idems), 1)
    return tuple(out.items())


@lru_cache(maxsize=CACHE_SIZE)
def _normal_form(quiver, comps, idems):
    """Default-strategy expansion of a normalized configuration; the one
    cache behind ``straighten``, ``qpa_mul``, ``moment_lift`` and the ideal
    generators.  Entries are ``(cfg, int)`` pairs, as ``_rewrite`` makes
    them."""
    return _rewrite(quiver, comps, idems, _PICKERS["first"], None, _normal_form)


def _normal_terms(quiver, comps, idems, scale=_ONE, normal_form=_normal_form):
    """``scale`` times the normal form of a normalized configuration, as
    ``(cfg, HBarPolynomial)`` pairs: the one place where the kernel's int
    coefficient c of an n-letter cfg gets back its h^((N - n)/2), N being
    the letter count of ``comps``."""
    n_letters = sum(map(len, comps))
    return [
        (cfg, scale.scaled_shift(c, (n_letters - cfg.letter_count) >> 1))
        for cfg, c in normal_form(quiver, comps, idems)
    ]


def clear_straighten_cache() -> None:
    _normal_form.cache_clear()


class QPAElement(LinearCombination):
    """Element of the quantum path algebra in PBW normal form."""

    __slots__ = ("quiver",)

    def __init__(self, quiver: Quiver, terms=None):
        object.__setattr__(self, "quiver", quiver)
        super().__init__(terms)

    @classmethod
    def unit(cls, quiver: Quiver) -> "QPAElement":
        return cls(quiver, {HeightConfiguration((), ()): 1})

    def __mul__(self, other):
        if isinstance(other, QPAElement):
            return qpa_mul(self, other)
        return self.scale(other)

    __rmul__ = LinearCombination.scale

    def div_h(self) -> "QPAElement":
        return self._with_terms({k: v.div_h() for k, v in self.items()})

    def is_divisible_by_h(self) -> bool:
        return all(v.is_divisible_by_h() for v in self.terms.values())


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

    The default strategy reads and fills the module's bounded LRU cache
    (``clear_straighten_cache`` empties it).  Any other strategy memoizes in
    a cache of its own call only, so confluence checks never see the shared
    results.
    """
    pick = _PICKERS.get(strategy)
    if pick is None:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {', '.join(_PICKERS)}"
        )
    if strategy == "random" and rng is None:
        raise ValueError("strategy 'random' needs an rng")
    if strategy == "first":
        normal_form = _normal_form
    else:
        @lru_cache(maxsize=None)
        def normal_form(quiver, comps, idems):
            return _rewrite(quiver, comps, idems, pick, rng, normal_form)

    comps, idems = _normalize_raw(cfg.components, cfg.idempotents)
    return QPAElement(quiver, _normal_terms(quiver, comps, idems, normal_form=normal_form))


def qpa_mul(x: QPAElement, y: QPAElement) -> QPAElement:
    """Stack y above x: shift y's heights past x's, then straighten.  The
    stacked components are normalized already: x's start below y's."""
    if x.quiver != y.quiver:
        raise MismatchError("qpa_mul operands live over different quivers")
    quiver = x.quiver
    out: dict = {}
    for cfg_x, cx in x.items():
        shift = cfg_x.letter_count
        for cfg_y, cy in y.items():
            comps = cfg_x.components + tuple(
                tuple((letter, h + shift) for (letter, h) in comp)
                for comp in cfg_y.components
            )
            idems = tuple(sorted(cfg_x.idempotents + cfg_y.idempotents))
            for cfg, c in _normal_terms(quiver, comps, idems, cx * cy):
                add_into(out, cfg, c)
    return x._with_terms(out)


def qpa_comm(x: QPAElement, y: QPAElement) -> QPAElement:
    return qpa_mul(x, y) - qpa_mul(y, x)


# ---------------------------------------------------------------------------
# The PBW isomorphism with Sym(HH0)[h]


def make_sym_monomial(necklaces) -> tuple:
    return tuple(sorted(necklaces, key=necklace_key))


class SymElement(LinearCombination):
    """Element of the symmetric algebra on HH0 over Q[h]."""

    __slots__ = ("quiver",)

    def __init__(self, quiver: Quiver, terms=None):
        object.__setattr__(self, "quiver", quiver)
        super().__init__(terms)

    @classmethod
    def of(cls, quiver: Quiver, necklaces, coeff=1) -> "SymElement":
        return cls(quiver, {make_sym_monomial(necklaces): coeff})

    def __mul__(self, other):
        if isinstance(other, SymElement):
            return sym_mul(self, other)
        return self.scale(other)

    __rmul__ = LinearCombination.scale

    def constant_part(self) -> "SymElement":
        """Reduce coefficients mod h."""
        return SymElement(
            self.quiver,
            {k: HBarPolynomial.constant(v.constant_term()) for k, v in self.items()},
        )


def sym_mul(x: SymElement, y: SymElement) -> SymElement:
    if x.quiver != y.quiver:
        raise MismatchError("sym_mul operands live over different quivers")
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            add_into(out, make_sym_monomial(m1 + m2), c1 * c2)
    return x._with_terms(out)


def lift(m: SymElement) -> QPAElement:
    """The PBW section: each sorted monomial goes to its canonical configuration."""
    out = {}
    for monomial, coeff in m.items():
        add_into(out, canonical_configuration(m.quiver, monomial), coeff)
    return QPAElement(m.quiver, out)


def lift_necklace(quiver: Quiver, n: Necklace) -> QPAElement:
    return lift(SymElement.of(quiver, (n,)))


def project(x: QPAElement) -> SymElement:
    """Forget heights; inverse of lift on normal forms."""
    out: dict = {}
    for cfg, coeff in x.items():
        necklaces = [
            Necklace(None, tuple(letter for (letter, _) in comp))
            for comp in cfg.components
        ]
        necklaces += [idempotent_class(v) for v in cfg.idempotents]
        add_into(out, make_sym_monomial(necklaces), coeff)
    return SymElement(x.quiver, out)


def moment_lift(quiver: Quiver) -> QPAElement:
    """The standard quantum moment element sum_a (a,1)(a',2) - (a',1)(a,2)."""
    out: dict = {}
    for ai in range(len(quiver.arrows)):
        plain, starred = Letter(ai, False), Letter(ai, True)
        for word, scale in (
            (((plain, 1), (starred, 2)), _ONE),
            (((starred, 1), (plain, 2)), -_ONE),
        ):
            for cfg, c in _normal_terms(quiver, (word,), (), scale):
                add_into(out, cfg, c)
    return QPAElement(quiver, out)


# ---------------------------------------------------------------------------
# Generators of the quantum reduction ideal


@dataclass(frozen=True)
class ReductionParameters:
    """Vertex-wise parameters: the order-h weight r and the deformation lambda."""

    r: tuple[Fraction, ...]
    lam: tuple[Fraction, ...]


def make_params(quiver: Quiver, r=None, lam=None) -> ReductionParameters:
    nv = len(quiver.vertices)

    def vec(mapping):
        out = [Fraction(0)] * nv
        if mapping:
            for name, value in mapping.items():
                if not quiver.has_vertex(name):
                    raise ExpressionError(f"unknown vertex {name!r}")
                out[quiver.vertex_index(name)] = as_fraction(value)
        return tuple(out)

    return ReductionParameters(vec(r), vec(lam))


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
        params = ReductionParameters(
            (Fraction(0),) * len(quiver.vertices),
            (Fraction(0),) * len(quiver.vertices),
        )
    word = marked_word(quiver, p, vertex, mark)
    v = len(word)
    base = tuple((letter, k + 1) for k, letter in enumerate(word))
    out: dict = {}
    for ai, arrow in enumerate(quiver.arrows):
        plain, starred = Letter(ai, False), Letter(ai, True)
        if arrow.target == vertex:
            comp = base + ((plain, v + 1), (starred, v + 2))
            for cfg, c in _normal_terms(quiver, (comp,), ()):
                add_into(out, cfg, c)
        if arrow.source == vertex:
            comp = base + ((starred, v + 1), (plain, v + 2))
            for cfg, c in _normal_terms(quiver, (comp,), (), -_ONE):
                add_into(out, cfg, c)
    tail = HBarPolynomial((-params.lam[vertex], params.r[vertex]))
    if tail:
        if v:
            for cfg, c in _normal_terms(quiver, (base,), (), tail):
                add_into(out, cfg, c)
        else:
            add_into(out, HeightConfiguration((), (vertex,)), tail)
    return QPAElement(quiver, out)
