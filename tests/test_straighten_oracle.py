"""The coded integer straightening kernel against the tuple route with
HBarPolynomial coefficients that it replaced.

``reference_straighten`` is the former route: configurations are tuples of
(Letter, height) pairs, every correction multiplies its expansion by
-sign*h in the coefficient ring, and every correction term is renumbered by
``normalize_raw`` (sort all heights, rank them, rotate, sort the
components).  The library's kernel instead works on configurations in
height form (the letter code at each height as one str, and the height of
each letter's successor in its component), accumulates plain ints, cuts a
correction as the cycles of the successor permutation times one
transposition, and restores h^((N - n)/2) once, at the boundary.
Both must agree exactly on every public entry point, and on the default
strategy both must take the same rewrite tree: the same height swaps, in
the same order.
"""

import random
import sys
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
from nhq.quiver import _LETTER, MAX_ARROWS, Arrow, Quiver, _code
from nhq.sampling import (
    random_coefficient,
    random_configuration,
    random_necklace,
    small_quivers,
)
from nhq.schedler import (
    _PICKERS,
    HeightConfiguration,
    _contracted,
    _form_key,
    _height_form,
    _quiver_key,
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


def coded_form(word, succ, idems):
    """The coded key of a configuration in height form: each cycle of
    ``succ`` walked from its least height, in increasing order of that
    height, heights counted from 1."""
    seen, codes, heights = set(), [], []
    for first in range(len(word)):
        if first in seen:
            continue
        cycle = [first]
        while succ[cycle[-1]] != first:
            cycle.append(succ[cycle[-1]])
        seen.update(cycle)
        codes.append("".join(word[x] for x in cycle))
        heights.append(tuple(x + 1 for x in cycle))
    return tuple(codes), tuple(heights), idems


def split_key(key) -> tuple:
    """``(head, word, succ, idems)`` of a straighten-cache key
    (``schedler._form_key``): ``succ`` as a list of ints and ``idems`` as
    its str of vertex characters, the parts ``schedler._rewrite`` takes.
    The library never decodes a key: the kernel hands on the parts it
    builds each key from."""
    m = 2 * ord(key[0]) + 1  # the head's length
    n = ord(key[m])
    w = m + 1 + n  # where succ starts
    return key[:m], key[m + 1 : w], list(map(ord, key[w : w + n])), key[w + n :]


def key_form(key):
    """``(word, succ, idems)`` of a straighten-cache key, ``succ`` and
    ``idems`` as tuples of ints."""
    _, word, succ, idems = split_key(key)
    return word, tuple(succ), tuple(map(ord, idems))


def reference_cut(quiver, comps, idems, ci, pi, cj, pj):
    """The correction term of contracting the letter u at position pi of
    component ci with the letter v at position pj of component cj: the two
    components merge, or the one splits into its two arcs, and an empty
    piece becomes the idempotent factor at its dropped letter's target."""
    u, v = comps[ci][pi][0], comps[cj][pj][0]
    new_idems = list(idems)
    if ci != cj:
        len_i, len_j = len(comps[ci]), len(comps[cj])
        rem_i = [comps[ci][(pi + 1 + k) % len_i] for k in range(len_i - 1)]
        rem_j = [comps[cj][(pj + 1 + k) % len_j] for k in range(len_j - 1)]
        merged = tuple(rem_i + rem_j)
        new_comps = [tuple(c) for k, c in enumerate(comps) if k not in (ci, cj)]
        if merged:
            new_comps.append(merged)
        else:
            new_idems.append(u.target(quiver))
    else:
        n = len(comps[ci])
        arc_b = [comps[ci][(pi + 1 + k) % n] for k in range(arc_length(pi, pj, n))]
        arc_a = [comps[ci][(pj + 1 + k) % n] for k in range(arc_length(pj, pi, n))]
        new_comps = [tuple(c) for k, c in enumerate(comps) if k != ci]
        if arc_a:
            new_comps.append(tuple(arc_a))
        else:
            new_idems.append(u.target(quiver))
        if arc_b:
            new_comps.append(tuple(arc_b))
        else:
            new_idems.append(v.target(quiver))
    return new_comps, new_idems


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
            factor = H if sign > 0 else -H
            sub = reference_rewrite(
                quiver,
                *normalize_raw(*reference_cut(quiver, state, idems, ci, pi, cj, pj)),
                pick,
                rng,
                memo,
                swaps,
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


def _cut_oracle(quiver, cfg, i, j):
    """The tuple oracle's correction of contracting the letters at heights
    i + 1 and j + 1 of the normalized ``cfg``, as a coded key."""
    comps = cfg.components
    (ci, pi), (cj, pj) = (
        next((c, p) for c, comp in enumerate(comps) for p, (_, h) in enumerate(comp) if h == k + 1) for k in (i, j)
    )
    cut = HeightConfiguration(*normalize_raw(*reference_cut(quiver, comps, cfg.idempotents, ci, pi, cj, pj)))
    return cut.codes, cut.heights, cut.idempotents


def _cut(quiver, cfg, i, j, order=None):
    """The kernel's correction of the same pair, decoded to a coded key;
    the parts ``_contracted`` returns with its key are the key's own.
    With ``order`` the letters are first relabelled as the kernel moves
    them: the letter at position k is the one at height order[k] of the
    successor permutation it is handed."""
    word, succ = _height_form(cfg.codes, cfg.heights)
    if order is None:
        order = list(range(len(word)))
    else:
        relabelled = [0] * len(word)
        for k, nxt in enumerate(succ):
            relabelled[order[k]] = order[nxt]
        succ = tuple(relabelled)
    idems = "".join(map(chr, cfg.idempotents))
    key, form = _contracted(_quiver_key(quiver), word, succ, order, idems, i, j)
    assert split_key(key) == form  # the parts handed on are the key's
    return coded_form(*key_form(key))


@SETTINGS
@given(seeds)
def test_contraction_equals_normalize_raw_of_the_tuple_cut(seed):
    """Every contracting pair of a configuration, idempotents included, cut
    as the cycles of succ o (i j) without i and j, decodes to the tuple
    oracle's merge or split, normalized by the full sort and rank; and so
    it does from any relabelling of the letters the kernel may hand it."""
    for quiver in QUIVERS:
        rng = random.Random(seed)
        cfg = random_configuration(rng, quiver, max_letters=9, max_idempotents=2)
        word, _ = _height_form(cfg.codes, cfg.heights)
        order = list(range(len(word)))
        rng.shuffle(order)
        pairs = [
            (i, j)
            for j in range(len(word))
            for i in range(j)
            if bracket_sign(_LETTER[word[i]], _LETTER[word[j]])
        ]
        for i, j in pairs:
            expected = _cut_oracle(quiver, cfg, i, j)
            assert _cut(quiver, cfg, i, j) == expected
            assert _cut(quiver, cfg, i, j, order) == expected


def test_contraction_edge_cases(J, L2):
    """A loop against a loop merges to an idempotent; u directly before v
    in one cycle leaves v's target and the other arc; the 2-cycle (u v)
    leaves both targets."""
    x, y = Letter(0, False), Letter(1, False)
    cases = [
        # a loop against a loop: the merged cycle is empty
        (J, [((x, 1),), ((x.star(), 2),)], (0, 1), ((), (), (0,))),
        # u directly before v in one cycle: arc u..v is empty
        (L2, [((x, 1), (x.star(), 2), (y, 3), (y.star(), 4))], (0, 1), ((_code((y, y.star())),), ((1, 2),), (0,))),
        # the 2-cycle (u v): both arcs are empty
        (J, [((x, 1), (x.star(), 2)), ((x, 3),)], (0, 1), ((_code((x,)),), ((1,),), (0, 0))),
    ]
    for quiver, comps, (i, j), expected in cases:
        cfg = schedler.make_configuration(quiver, comps)
        assert _cut_oracle(quiver, cfg, i, j) == expected
        assert _cut(quiver, cfg, i, j) == expected


@SETTINGS
@given(seeds)
def test_height_form_round_trips(seed):
    """Coded key -> height form -> coded key is the identity on normalized
    configurations, the empty one and idempotents alone included."""
    assert _height_form((), ()) == ("", ())
    for quiver in QUIVERS:
        rng = random.Random(seed)
        cfg = random_configuration(rng, quiver, max_letters=9, max_idempotents=2)
        idempotents_alone = schedler.make_configuration(quiver, [], cfg.idempotents)
        for cfg in (cfg, idempotents_alone, canonical_configuration(quiver, ())):
            key = (cfg.codes, cfg.heights, cfg.idempotents)
            assert coded_form(*_height_form(cfg.codes, cfg.heights), cfg.idempotents) == key


@SETTINGS
@given(seeds)
def test_coded_route_takes_the_tuple_oracles_rewrite_tree(seed):
    """For every strategy, the coded kernel's normal form equals the tuple
    oracle's, and schedler's ``bracket_sign`` is called only at a
    contracting swap: every strategy moves a letter in one run and
    searches it for the letter's partner.  The default strategy picks the
    lowest descent, as the oracle's first strategy does one swap at a
    time, so there the spy sees the oracle's swaps of nonzero sign, in
    order, and the budget charged is the oracle's swap count.  The shared
    cache is cleared first, so the first strategy computes every normal
    form it needs."""
    for quiver in QUIVERS:
        rng = random.Random(seed)
        cfg = random_configuration(rng, quiver, max_letters=8, max_idempotents=2)
        for strategy in STRATEGIES:
            expected_swaps, swaps = [], []
            expected = reference_straighten(
                quiver, cfg.components, cfg.idempotents, strategy, random.Random(seed), expected_swaps
            )

            def counted(u, v):
                swaps.append((u, v))
                return bracket_sign(u, v)

            # the budget the call hands its expansion, read after the call
            budgets, expanded = [], schedler._expanded
            clear_straighten_cache()
            schedler.bracket_sign = counted
            schedler._expanded = lambda *args: budgets.append(args[4]) or expanded(*args)
            try:
                got = straighten(quiver, cfg, strategy=strategy, rng=random.Random(seed))
            finally:
                schedler.bracket_sign = bracket_sign
                schedler._expanded = expanded
            assert got == expected, strategy
            assert all(bracket_sign(u, v) for u, v in swaps), strategy
            if strategy == "first":
                assert swaps == [(u, v) for u, v in expected_swaps if bracket_sign(u, v)]
                assert budgets == [[len(expected_swaps)]]


def test_forms_past_256_letters_key_by_chr_and_straighten_alike(J):
    """A successor past 255 does not fit a byte; the keys hold it as one
    ``chr`` all the same: a 299-letter configuration, a 297-letter cycle of
    x below the loops x* and x, straightens to what the "last" strategy
    gives.  Each of its corrections has 297 letters, and ``_contracted``'s
    key of the one of x's cycle and the idempotent the two loops leave is
    the one ``_form_key`` makes of it."""
    x = Letter(0, False)
    n = 297
    cycle = tuple((x, h) for h in range(1, n + 1))
    cfg = schedler.make_configuration(J, [cycle, ((x.star(), n + 1),), ((x, n + 2),)])
    clear_straighten_cache()
    first = straighten(J, cfg)
    assert first == straighten(J, cfg, strategy="last")
    assert {c.letter_count for c in first.terms} == {n + 2, n}
    word, succ = _height_form((_code([x] * n),), (tuple(range(1, n + 1)),))
    key = _form_key(_quiver_key(J), word, succ, (0,))
    assert key_form(key) == (word, succ, (0,))
    info = schedler._normal_form.cache_info()
    assert schedler._normal_form.get(key) is not None
    assert schedler._normal_form.cache_info()[:2] == (info.hits + 1, info.misses)


def test_keys_of_a_quiver_with_the_most_arrows_round_trip():
    """A quiver of ``MAX_ARROWS`` arrows has ``sys.maxunicode + 1`` letter
    codes, one more than ``chr`` takes, so the key's head counts arrows: a
    form of the last arrow z: v -> w and its reverse, the highest two codes,
    round-trips through ``_form_key`` and ``split_key``, and contracting the
    two leaves the idempotents at z's source and target, in its key and in
    the parts handed on with it."""
    quiver = Quiver(("v", "w"), (Arrow("x", 0, 0),) * (MAX_ARROWS - 1) + (Arrow("z", 0, 1),))
    head = _quiver_key.__wrapped__(quiver)  # not kept in the quiver cache
    assert head[0] == chr(MAX_ARROWS) and head[-2:] == chr(1) + chr(0)
    z = Letter(MAX_ARROWS - 1, False)
    word, succ = _height_form((_code([z.star(), z]),), ((1, 2),))
    assert word == chr(sys.maxunicode) + chr(sys.maxunicode - 1)
    key = _form_key(head, word, succ, (1,))
    assert split_key(key) == (head, word, list(succ), chr(1))
    cut, form = _contracted(head, word, succ, [0, 1], "", 0, 1)
    assert split_key(cut) == form == (head, "", [], chr(0) + chr(1))
