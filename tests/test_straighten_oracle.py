"""The coded integer straightening kernel against the tuple route with
HBarPolynomial coefficients that it replaced.

``reference_straighten`` is the former route: configurations are tuples of
(Letter, height) pairs, every correction multiplies its expansion by
-sign*h in the coefficient ring, and every correction term is renumbered by
``normalize_raw`` (sort all heights, rank them, rotate, sort the
components).  The library's kernel instead works on coded configurations
(one str of letter codes and one tuple of int heights per component),
accumulates plain ints, renumbers a correction from its two dropped
heights, and restores h^((N - n)/2) once, at the boundary.
Both must agree exactly on every public entry point, and both must take
the same rewrite tree: the same height swaps, in the same order.
"""

import functools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nhq import (
    HBarPolynomial,
    Letter,
    QPAElement,
    ideal_generator,
    idempotent_class,
    make_params,
    moment_lift,
    qpa_mul,
    straighten,
)
import nhq.schedler as schedler
from linear_oracle import add_into
from nhq.necklace import Necklace, bracket_sign, minimal_rotation_offset, necklace_key
from nhq.sampling import (
    random_coefficient,
    random_configuration,
    random_necklace,
    small_quivers,
)
from nhq.schedler import (
    _PICKERS,
    HeightConfiguration,
    _drop_pair,
    canonical_configuration,
    clear_straighten_cache,
    marked_word,
)

SETTINGS = settings(max_examples=30, derandomize=True, database=None, deadline=None)
H = HBarPolynomial.h()
STRATEGIES = ("first", "last", "middle", "random")


def normalize_raw(components, idempotents):
    """Heights ranked to 1..N, each component rotated to start at its
    minimal height, components sorted by it."""
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


def canonical_targets(comps):
    """The normal-form height of the letter at each height 1..N of
    normalized tuple components, and the necklaces of its blocks in
    normal-form order."""
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


def arc_length(a: int, b: int, n: int) -> int:
    """Number of positions strictly between a and b, walking forward mod n."""
    return (b - a - 1) % n


def reference_rewrite(quiver, comps, idems, pick, rng, memo, swaps=None):
    """HBarPolynomial-valued expansion of a normalized configuration; each
    height swap is appended to ``swaps`` as the pair of letters it moves."""
    key = (comps, idems)
    if key in memo:
        return memo[key]
    seq, necklaces = canonical_targets(comps)
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
        if swaps is not None:
            swaps.append((u, v))
        sign = bracket_sign(u, v)
        if sign:
            if ci != cj:
                len_i, len_j = len(state[ci]), len(state[cj])
                rem_i = [state[ci][(pi + 1 + k) % len_i] for k in range(len_i - 1)]
                rem_j = [state[cj][(pj + 1 + k) % len_j] for k in range(len_j - 1)]
                merged = tuple(rem_i + rem_j)
                new_comps = [tuple(c) for k, c in enumerate(state) if k not in (ci, cj)]
                new_idems = list(idems)
                if merged:
                    new_comps.append(merged)
                else:
                    new_idems.append(u.target(quiver))
            else:
                n = len(state[ci])
                arc_b = [state[ci][(pi + 1 + k) % n] for k in range(arc_length(pi, pj, n))]
                arc_a = [state[ci][(pj + 1 + k) % n] for k in range(arc_length(pj, pi, n))]
                new_comps = [tuple(c) for k, c in enumerate(state) if k != ci]
                new_idems = list(idems)
                if arc_a:
                    new_comps.append(tuple(arc_a))
                else:
                    new_idems.append(u.target(quiver))
                if arc_b:
                    new_comps.append(tuple(arc_b))
                else:
                    new_idems.append(v.target(quiver))
            factor = H if sign > 0 else -H
            sub = reference_rewrite(
                quiver, *normalize_raw(new_comps, new_idems), pick, rng, memo, swaps
            )
            for cfg, c in sub:
                add_into(out, cfg, -(c * factor))
        state[ci][pi] = (u, h + 1)
        state[cj][pj] = (v, h)
        pos_of[h], pos_of[h + 1] = (cj, pj), (ci, pi)
        seq[h - 1], seq[h] = seq[h], seq[h - 1]
    add_into(
        out,
        canonical_configuration(quiver, necklaces, extra_idempotents=idems),
        HBarPolynomial.one(),
    )
    memo[key] = tuple(out.items())
    return memo[key]


def reference_straighten(quiver, comps, idems, strategy="first", rng=None, swaps=None):
    comps, idems = normalize_raw(comps, idems)
    out = reference_rewrite(quiver, comps, idems, _PICKERS[strategy], rng, {}, swaps)
    return QPAElement(quiver, dict(out))


def reference_qpa_mul(x, y):
    out = QPAElement(x.quiver)
    for cfg_x, cx in x.items():
        shift = cfg_x.letter_count
        for cfg_y, cy in y.items():
            comps = cfg_x.components + tuple(
                tuple((letter, h + shift) for (letter, h) in comp)
                for comp in cfg_y.components
            )
            term = reference_straighten(x.quiver, comps, cfg_x.idempotents + cfg_y.idempotents)
            out = out + term.scale(cx * cy)
    return out


def reference_moment_lift(quiver):
    out = QPAElement(quiver)
    for ai in range(len(quiver.arrows)):
        a, a_star = Letter(ai, False), Letter(ai, True)
        out = out + reference_straighten(quiver, (((a, 1), (a_star, 2)),), ())
        out = out - reference_straighten(quiver, (((a_star, 1), (a, 2)),), ())
    return out


def reference_ideal_generator(quiver, p, vertex, mark, params):
    word = marked_word(quiver, p, vertex, mark)
    v = len(word)
    base = tuple((letter, k + 1) for k, letter in enumerate(word))
    out = QPAElement(quiver)
    for ai, arrow in enumerate(quiver.arrows):
        a, a_star = Letter(ai, False), Letter(ai, True)
        if arrow.target == vertex:
            out = out + reference_straighten(quiver, (base + ((a, v + 1), (a_star, v + 2)),), ())
        if arrow.source == vertex:
            out = out - reference_straighten(quiver, (base + ((a_star, v + 1), (a, v + 2)),), ())
    tail = HBarPolynomial((-params.lam[vertex], params.r[vertex]))
    if v:
        out = out + reference_straighten(quiver, (base,), ()).scale(tail)
    else:
        out = out + QPAElement(quiver, {canonical_configuration(quiver, (), (vertex,)): tail})
    return out


def _assert_single_monomials(element, n_letters):
    """Each coefficient is c*h^((N - n)/2) for the term's letter count n."""
    for cfg, coeff in element.items():
        k = (n_letters - cfg.letter_count) // 2
        assert (n_letters - cfg.letter_count) % 2 == 0
        assert coeff.coeffs[:k] == (0,) * k and len(coeff.coeffs) == k + 1, (cfg, coeff)
        assert type(coeff.coeffs[k]) is int


QUIVERS = small_quivers()
seeds = st.integers(0, 2**32 - 1)


@SETTINGS
@given(seeds)
def test_straighten_matches_reference_for_every_strategy(seed):
    for quiver in QUIVERS:
        _check_straighten(quiver, seed)


def _check_straighten(quiver, seed):
    rng = random.Random(seed)
    cfg = random_configuration(rng, quiver, max_letters=8, max_idempotents=2)
    expected = reference_straighten(quiver, cfg.components, cfg.idempotents)
    for strategy in STRATEGIES:
        got = straighten(quiver, cfg, strategy=strategy, rng=random.Random(seed))
        assert got == expected, strategy
        _assert_single_monomials(got, cfg.letter_count)


@SETTINGS
@given(seeds)
def test_qpa_mul_matches_reference(seed):
    for quiver in QUIVERS:
        _check_qpa_mul(quiver, seed)


def _check_qpa_mul(quiver, seed):
    rng = random.Random(seed)

    def element():
        x = QPAElement(quiver)
        for _ in range(rng.randint(1, 2)):
            cfg = random_configuration(rng, quiver, max_letters=4)
            x = x + straighten(quiver, cfg).scale(random_coefficient(rng, with_h=True))
        return x

    x, y = element(), element()
    assert qpa_mul(x, y) == reference_qpa_mul(x, y)


def test_moment_lift_matches_reference():
    for quiver in QUIVERS:
        assert moment_lift(quiver) == reference_moment_lift(quiver)
        _assert_single_monomials(moment_lift(quiver), 2)


@SETTINGS
@given(seeds)
def test_ideal_generator_matches_reference(seed):
    for quiver in QUIVERS:
        _check_ideal_generator(quiver, seed)


def _check_ideal_generator(quiver, seed):
    rng = random.Random(seed)
    p = random_necklace(rng, quiver, 4, allow_idempotent=False)
    names = quiver.vertices
    params = make_params(
        quiver,
        r={v: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for v in names},
        lam={v: Fraction(rng.randint(-3, 3)) for v in names},
    )
    for mark, letter in enumerate(p.letters):
        vertex = letter.source(quiver)
        assert ideal_generator(quiver, p, vertex, mark, params) == reference_ideal_generator(
            quiver, p, vertex, mark, params
        )
    vertex = rng.randrange(len(names))
    e = idempotent_class(vertex)
    assert ideal_generator(quiver, e, vertex, 0, params) == reference_ideal_generator(
        quiver, e, vertex, 0, params
    )


@SETTINGS
@given(seeds)
def test_drop_pair_equals_normalize_raw(seed):
    """Renumbering a coded correction from its two dropped heights gives
    the coded form of the tuple route's full sort-and-rank normalization."""
    for quiver in QUIVERS:
        _check_drop_pair(quiver, seed)


def _check_drop_pair(quiver, seed):
    rng = random.Random(seed)
    cfg = random_configuration(rng, quiver, max_letters=9, max_idempotents=2)
    n = cfg.letter_count
    if n < 2:
        return
    # scramble heights (as swaps do), then drop the letters at h and h + 1
    heights = list(range(1, n + 1))
    rng.shuffle(heights)
    it = iter(heights)
    comps = [[(letter, next(it)) for (letter, _) in comp] for comp in cfg.components]
    h = rng.randint(1, n - 1)
    pieces = []
    for comp in comps:
        kept = [pair for pair in comp if pair[1] not in (h, h + 1)]
        if kept:
            # any rotation of a piece is valid input
            r = rng.randrange(len(kept))
            pieces.append(kept[r:] + kept[:r])
    rng.shuffle(pieces)
    idems = list(cfg.idempotents) + [rng.randrange(len(quiver.vertices))]
    comps, idems_n = normalize_raw(pieces, idems)
    cut, expected = HeightConfiguration(pieces, ()), HeightConfiguration(comps, idems_n)
    coded = [(code, list(hs)) for code, hs in zip(cut.codes, cut.heights)]
    assert _drop_pair(coded, idems, h) == (expected.codes, expected.heights, idems_n)


@SETTINGS
@given(seeds)
def test_coded_route_takes_the_tuple_oracles_rewrite_tree(seed):
    """For the first and the random strategy, the coded kernel's normal form
    equals the tuple oracle's, and so do its height swaps, letter pair by
    letter pair.  The random strategy calls schedler's ``bracket_sign`` once
    per swap, so the spy sees every swap; the first strategy moves each
    letter in one insertion run and calls it only at a contracting swap, so
    the spy sees the oracle's swaps of nonzero sign, in order, and the
    budget charged is the oracle's swap count.  The shared cache is cleared
    first, so the first strategy computes every normal form it needs."""
    for quiver in QUIVERS:
        rng = random.Random(seed)
        cfg = random_configuration(rng, quiver, max_letters=8, max_idempotents=2)
        for strategy in ("first", "random"):
            expected_swaps, swaps = [], []
            expected = reference_straighten(
                quiver, cfg.components, cfg.idempotents, strategy, random.Random(seed), expected_swaps
            )

            def counted(u, v):
                swaps.append((u, v))
                return bracket_sign(u, v)

            clear_straighten_cache()
            schedler.bracket_sign = counted
            try:
                got = straighten(quiver, cfg, strategy=strategy, rng=random.Random(seed))
            finally:
                schedler.bracket_sign = bracket_sign
            assert got == expected, strategy
            if strategy == "first":
                assert swaps == [(u, v) for u, v in expected_swaps if bracket_sign(u, v)]
                assert schedler.MAX_REWRITES - schedler._rewrites_left[0] == len(expected_swaps)
            else:
                assert swaps == expected_swaps, strategy


def _one_swap_first(invs, rng):
    """The first picker, but not the registered one: one swap per pick."""
    return invs[0]


def _expanded(quiver, coded, pick):
    """``_rewrite`` of a coded configuration with ``pick`` at every level,
    memoized for this call only, and the height swaps it charged."""

    @functools.lru_cache(maxsize=None)
    def normal_form(qkey, codes, heights, idems):
        return schedler._rewrite(qkey, codes, heights, idems, pick, None, normal_form)

    schedler._rewrites_left[0] = schedler.MAX_REWRITES
    out = normal_form(schedler._quiver_key(quiver), *coded)
    return out, schedler.MAX_REWRITES - schedler._rewrites_left[0]


@SETTINGS
@given(seeds)
def test_insertion_runs_take_the_one_swap_route(seed):
    """The default picker's insertion run makes, in one step, the swaps a
    first-descent picker makes one pick at a time: the same ``(coded cfg,
    c)`` tuples, in the same order, for the same number of height swaps."""
    for quiver in QUIVERS:
        rng = random.Random(seed)
        cfg = random_configuration(rng, quiver, max_letters=9, max_idempotents=2)
        coded = (cfg.codes, cfg.heights, cfg.idempotents)
        runs = _expanded(quiver, coded, _PICKERS["first"])
        assert runs == _expanded(quiver, coded, _one_swap_first)
