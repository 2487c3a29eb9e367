"""Necklace canonicalisation checked against reference algorithms.

The rotation kernel ``_rotation_start`` (the longest-run candidate search
``_run_start`` on coded words, handed the least code and its count) and
``minimal_rotation_offset`` are compared with Duval's Lyndon-factorisation
loop and with a minimum over all n rotations, and ``necklace_bracket`` (one
composability check per operand, one rotation per odd telescoping chain on
the period-reduced grid, each merge's least code and count read from its
operands) with the bracket that canonicalised every merge through a full
check and the brute-force rotation.  ``bracket_sign``, which compares letter fields,
is checked against its definition through ``Letter.star``.
"""

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhq.necklace
from nhq import (
    CompositionError,
    HH0Element,
    Letter,
    Necklace,
    idempotent_class,
    make_quiver,
    necklace_bracket,
)
from linear_oracle import add_into
from nhq.necklace import _code, _rotation_start, _run_start, bracket_sign, minimal_rotation_offset
from nhq.quiver import MAX_ARROWS
from nhq.rings import HBarPolynomial
from nhq.sampling import (
    jordan,
    two_loop,
    random_closed_word,
    random_coefficient,
    random_hh0,
    small_quivers,
)

SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


# -- references --------------------------------------------------------------


def reference_bracket_sign(u: Letter, v: Letter) -> int:
    """{u, v} on letters by its definition: +1 when v = u', -1 when u = v'."""
    if v != u.star():
        return 0
    return -1 if u.starred else 1


def duval_rotation_offset(letters) -> int:
    """Least offset of the minimal rotation, in O(n): Duval's Lyndon
    factorisation (J. Algorithms 4, 1983) run over the doubled word; the
    minimal rotation starts at the last run of equal Lyndon factors that
    begins in the first copy."""
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


def brute_force_rotation_offset(letters) -> int:
    """O(n^2): the first offset whose rotation is least among all n."""
    keys = [(l.arrow, l.starred) for l in letters]
    n = len(keys)
    return min(range(n), key=lambda o: keys[o:] + keys[:o])


def reference_canonical_necklace(quiver, letters) -> Necklace:
    letters = tuple(letters)
    n = len(letters)
    for k in range(n):
        if letters[k].source(quiver) != letters[(k + 1) % n].target(quiver):
            raise CompositionError(f"word is not cyclically composable at position {k}")
    off = brute_force_rotation_offset(letters)
    return Necklace(None, letters[off:] + letters[:off])


def reference_bracket(x: HH0Element, y: HH0Element) -> HH0Element:
    """The bracket with a full canonicalisation of every merged word."""
    quiver = x.quiver
    out = {}
    for n1, c1 in x.items():
        if n1.is_idempotent:
            continue
        a = n1.letters
        for n2, c2 in y.items():
            if n2.is_idempotent:
                continue
            b = n2.letters
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    s = reference_bracket_sign(ai, bj)
                    if s == 0:
                        continue
                    merged = a[i + 1 :] + a[:i] + b[j + 1 :] + b[:j]
                    if merged:
                        key = reference_canonical_necklace(quiver, merged)
                    else:
                        key = idempotent_class(a[(i + 1) % len(a)].target(quiver))
                    add_into(out, key, c1 * c2 * s)
    return HH0Element(quiver, out)


# -- minimal rotation --------------------------------------------------------


def _rotate(word, off):
    return word[off:] + word[:off]


def _letters(arrows):
    return st.builds(Letter, st.integers(0, arrows - 1), st.booleans())


@st.composite
def words(draw):
    """Words over 1-3 arrows of up to about 40 letters, a third of them periodic."""
    arrows = draw(st.integers(1, 3))
    if draw(st.integers(0, 2)):
        return tuple(draw(st.lists(_letters(arrows), min_size=1, max_size=40)))
    base = draw(st.lists(_letters(arrows), min_size=1, max_size=6))
    return tuple(base) * draw(st.integers(1, 40 // len(base)))


@SETTINGS
@given(words())
def test_minimal_rotation_matches_brute_force(word):
    expected = _rotate(word, brute_force_rotation_offset(word))
    assert _rotate(word, minimal_rotation_offset(word)) == expected


@SETTINGS
@given(words(), st.integers(0, 39))
def test_minimal_rotation_is_rotation_invariant(word, shift):
    rotated = _rotate(word, shift % len(word))
    canonical = _rotate(word, minimal_rotation_offset(word))
    assert _rotate(rotated, minimal_rotation_offset(rotated)) == canonical


#: arrow indices for the kernel property: low ones, and the highest the code covers
ARROWS = (0, 1, 2, 1000, MAX_ARROWS - 2, MAX_ARROWS - 1)


@st.composite
def shaped_words(draw):
    """Words of the shapes the longest-run search treats apart: random,
    all-equal, periodic, alternating (c c')^m with an optional defect, and
    words whose longest run of the least letter wraps around the end."""
    arrows = draw(st.lists(st.sampled_from(ARROWS), min_size=1, max_size=3, unique=True))
    letter = st.builds(Letter, st.sampled_from(arrows), st.booleans())
    shape = draw(st.sampled_from(["random", "equal", "periodic", "alternating", "wrap"]))
    if shape == "random":
        return tuple(draw(st.lists(letter, min_size=1, max_size=40)))
    if shape == "equal":
        return (draw(letter),) * draw(st.integers(1, 40))
    if shape == "periodic":
        base = draw(st.lists(letter, min_size=1, max_size=6))
        return tuple(base) * draw(st.integers(1, 40 // len(base)))
    c = draw(letter)
    if shape == "alternating":
        word = (c, c.star()) * draw(st.integers(1, 20))
        return word + tuple(draw(st.lists(letter, max_size=2)))
    pool = draw(st.lists(letter, min_size=1, max_size=10)) + [c, c.star()]
    least = min(pool)
    middle = tuple(l for l in pool if l != least)
    head, tail = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return (least,) * head + middle + (least,) * tail


@SETTINGS
@given(shaped_words())
def test_rotation_kernel_matches_duval_and_brute_force(word):
    expected = brute_force_rotation_offset(word)
    assert duval_rotation_offset(word) == expected
    assert _rotation_start(_code(word)) == expected
    assert minimal_rotation_offset(word) == expected


def test_code_keeps_the_letter_order_and_pairs_partners():
    letters = sorted(Letter(a, s) for a in ARROWS for s in (False, True))
    codes = [_code((l,)) for l in letters]
    assert codes == sorted(codes) and len(set(codes)) == len(codes)
    for l, c in zip(letters, codes):
        assert _code((l.star(),)) == chr(ord(c) ^ 1)
    # the highest arrow a quiver may have still has a code
    assert _code((Letter(MAX_ARROWS - 1, True),)) == chr(sys.maxunicode)


def test_minimal_rotation_of_periodic_words_takes_the_least_offset():
    x, xs, y, ys = Letter(0, False), Letter(0, True), Letter(1, False), Letter(1, True)
    for n in (1, 2, 7, 40):
        assert minimal_rotation_offset((x,) * n) == 0
    for k in (1, 2, 5, 20):
        assert minimal_rotation_offset((ys, x) * k) == 1
        assert minimal_rotation_offset((x, ys) * k) == 0
    assert minimal_rotation_offset((ys, xs, y) * 3) == 1


# -- necklace bracket --------------------------------------------------------


def test_bracket_sign_matches_its_definition_on_every_letter_pair():
    pairs = 0
    for quiver in small_quivers():
        letters = list(quiver.letters())
        for u in letters:
            for v in letters:
                assert bracket_sign(u, v) == reference_bracket_sign(u, v), (u, v)
                pairs += bool(bracket_sign(u, v))
    assert pairs == 2 * sum(len(q.arrows) for q in small_quivers())


def test_bracket_matches_reference_on_small_quivers():
    rng = random.Random(404)
    for quiver in small_quivers():
        for _ in range(40):
            x = random_hh0(rng, quiver, max_len=7, max_terms=3)
            y = random_hh0(rng, quiver, max_len=7, max_terms=3)
            assert necklace_bracket(x, y) == reference_bracket(x, y)


def _operand_word(rng, quiver, kind):
    """A closed word of one of the shapes the counting rules act on."""
    w = random_closed_word(rng, quiver, 4)
    c = rng.choice(list(quiver.letters()))
    if kind == "power":
        return w * rng.randint(1, 6)
    if kind == "alternating":
        return (c, c.star()) * rng.randint(1, 6)
    # an alternating run in front of a closed word, so chains have starts
    return (w[0], w[0].star()) * rng.randint(1, 4) + w


@st.composite
def structured_operands(draw):
    """(x, y) on one of the small quivers: combinations of periodic powers
    w^r, alternating words (c c')^m, alternating runs and idempotents."""
    quiver = draw(st.sampled_from(small_quivers()))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["power", "alternating", "run", "idempotent"])

    def operand():
        terms = {}
        for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
            if kind == "idempotent":
                key = idempotent_class(rng.randrange(len(quiver.vertices)))
            else:
                key = nhq.canonical_necklace(quiver, _operand_word(rng, quiver, kind))
            terms[key] = random_coefficient(rng, with_h=True)
        return HH0Element(quiver, terms)

    return operand(), operand()


@SETTINGS
@given(structured_operands())
def test_bracket_matches_reference_on_periodic_and_alternating_operands(operands):
    x, y = operands
    assert necklace_bracket(x, y) == reference_bracket(x, y)


def _count_rotations(monkeypatch):
    """The lengths of the words the bracket rotates: it calls the run
    search ``_run_start`` with each merge's least code and its count."""
    calls = []
    rotate = nhq.necklace._run_start

    def counted(s, c, m):
        calls.append(len(s))
        return rotate(s, c, m)

    monkeypatch.setattr(nhq.necklace, "_run_start", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 7, 60])
def test_jordan_power_bracket_rotates_once(monkeypatch, n):
    quiver = jordan()
    x, xs = Letter(0, False), Letter(0, True)
    a = HH0Element.of(quiver, Necklace(None, (x,) * n))
    b = HH0Element.of(quiver, Necklace(None, (xs, xs)))
    expected = HH0Element.of(quiver, Necklace(None, (x,) * (n - 1) + (xs,)), 2 * n)
    calls = _count_rotations(monkeypatch)
    assert necklace_bracket(a, b) == expected
    assert len(calls) == 1
    assert necklace_bracket(a, b) == reference_bracket(a, b)


def test_long_jordan_pair_cancels_its_even_chains(monkeypatch):
    """Two 50-letter words made of alternating runs: the diagonal chains
    through the runs are long, the even ones cancel without a rotation and
    each odd one is rotated once, into a term of its own."""
    quiver = jordan()
    x, xs = Letter(0, False), Letter(0, True)
    a_word = (x, x) + (xs, x) * 10 + (xs,) * 3 + (x, xs) * 12 + (x,)
    b_word = (xs, xs) + (x, xs) * 11 + (x,) * 2 + (xs, x) * 11 + (xs,) * 2
    assert len(a_word) == len(b_word) == 50
    a = HH0Element.of(quiver, nhq.canonical_necklace(quiver, a_word), HBarPolynomial((2, 1)))
    b = HH0Element.of(quiver, nhq.canonical_necklace(quiver, b_word), -3)
    pairs = sum(bool(bracket_sign(u, v)) for u in a_word for v in b_word)
    calls = _count_rotations(monkeypatch)
    got = necklace_bracket(a, b)
    assert got == reference_bracket(a, b)
    assert len(calls) == len(got.terms)
    assert 8 * len(calls) < pairs


# -- exact int sums over a common denominator ---------------------------------


def _poly(*coeffs):
    return HBarPolynomial([Fraction(c) for c in coeffs])


#: the letters of the two-loop quiver by name
_LOOP = {"x": Letter(0, False), "x'": Letter(0, True), "y": Letter(1, False), "y'": Letter(1, True)}


def test_bracket_sums_h_powers_over_coprime_denominators():
    """Coefficients with powers of h and coprime denominators on both
    operands, so the common denominators and the per-power sums all act."""
    quiver = two_loop()
    cls = lambda word: nhq.canonical_necklace(quiver, [_LOOP[c] for c in word.split()])
    x = HH0Element(quiver, {
        cls("x x y'"): _poly("1/2", "1/3"),
        cls("x y' y"): _poly(0, "-5/7"),
        cls("x' y"): _poly("3/11", 0, "1/13"),
    })
    y = HH0Element(quiver, {
        cls("x' y' y"): _poly(0, 0, "2/5"),
        cls("x x' y"): _poly("7/9"),
        cls("y x' x'"): _poly("-1/4", "3/8"),
    })
    got = necklace_bracket(x, y)
    assert got == reference_bracket(x, y)
    assert max(c.degree for c in got.terms.values()) == 4
    assert any(type(c) is Fraction for p in got.terms.values() for c in p.coeffs)


def test_bracket_drops_keys_whose_sums_cancel():
    """[y] arises from {[xy], [x']} and {[x'y], [x]} with opposite signs and
    equal coefficient products, so it cancels; [xy] stays."""
    quiver = two_loop()
    cls = lambda word: nhq.canonical_necklace(quiver, [_LOOP[c] for c in word.split()])
    x = HH0Element(
        quiver, {cls("x y"): _poly("1/2"), cls("x' y"): _poly("1/3"), cls("x x y"): _poly(0, 1)}
    )
    y = HH0Element(quiver, {cls("x"): _poly("3/5"), cls("x'"): _poly("2/5")})
    got = necklace_bracket(x, y)
    assert got == reference_bracket(x, y)
    assert set(got.terms) == {cls("x y")}
    assert got.terms[cls("x y")] == _poly(0, "4/5")
    # with no term left, the bracket is zero
    assert necklace_bracket(x - HH0Element.of(quiver, cls("x x y"), _poly(0, 1)), y).is_zero()


def test_bracket_empty_merges_keep_their_own_vertices():
    """Loops at two vertices: {[x], [x']} and {[y], [y']} merge to nothing,
    each leaving the idempotent class of its own loop's vertex."""
    quiver = make_quiver(["1", "2"], [("x", "1", "1"), ("a", "1", "2"), ("y", "2", "2")])
    x, y = Letter(0, False), Letter(2, False)
    cls = lambda *word: nhq.canonical_necklace(quiver, word)
    u = HH0Element(quiver, {cls(x): _poly("1/2", 1), cls(y): _poly("2/3")})
    v = HH0Element(quiver, {cls(x.star()): _poly(0, "3/7"), cls(y.star()): _poly(5)})
    got = necklace_bracket(u, v)
    assert got == reference_bracket(u, v)
    assert got.terms == {
        idempotent_class(0): _poly(0, "3/14", "3/7"),
        idempotent_class(1): _poly("10/3"),
    }


def test_bracket_rejects_hand_built_non_composable_operands(A2):
    """A hand-built necklace that does not close up never reaches the
    bracket: the constructor of its element refuses it."""
    a = Letter(0, False)
    good = HH0Element.of(A2, Necklace(None, (a, a.star())))
    with pytest.raises(CompositionError):
        necklace_bracket(HH0Element.of(A2, Necklace(None, (a, a.star(), a))), good)
    with pytest.raises(CompositionError):
        necklace_bracket(good, HH0Element.of(A2, Necklace(None, (a, a.star(), a))))
    with pytest.raises(CompositionError):
        HH0Element.of(A2, Necklace(None, (a, a.star(), a)))


# -- each merge's least code, read from the operands -------------------------


def _loop_element(word: str, coeff=1) -> HH0Element:
    """The necklace of a space-separated two-loop word, times ``coeff``."""
    quiver = two_loop()
    return HH0Element.of(quiver, nhq.canonical_necklace(quiver, [_LOOP[c] for c in word.split()]), coeff)


@pytest.mark.parametrize(
    "a, b",
    [
        ("x y", "x' x' y"),
        ("x y y'", "x' y"),
        ("x y' y'", "x' x' x' y"),
        ("x y", "x' y'"),
        ("x y'", "x' y' y'"),
        ("x x' y", "x' y'"),
    ],
)
def test_merges_that_lose_every_least_code_take_the_next(a, b):
    """a holds one x, so contracting it with an x' of b leaves the merge
    with no x: its least code is x' when b has another, else y or y'."""
    x, y = _loop_element(a, _poly(1, "1/2")), _loop_element(b, -2)
    got = necklace_bracket(x, y)
    assert got == reference_bracket(x, y)
    assert any(_LOOP["x"] not in n.letters for n in got.terms)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_merges_of_one_repeated_code(n):
    """[x^n] with [x'.x'] and with [x'], and [x'^n] with [x]: the merges
    are words of one code, or empty for n = 1 against one letter."""
    quiver = jordan()
    x, xs = Letter(0, False), Letter(0, True)
    power = lambda letter, k: HH0Element.of(quiver, Necklace(None, (letter,) * k))
    for a, b in ((power(x, n), power(xs, 2)), (power(x, n), power(xs, 1)), (power(xs, n), power(x, 1))):
        assert necklace_bracket(a, b) == reference_bracket(a, b)
    # {x, x'} = 1 at each of the n letters of x^n
    expected = power(x, n - 1) if n > 1 else HH0Element.of(quiver, idempotent_class(0))
    assert necklace_bracket(power(x, n), power(xs, 1)) == expected.scale(n)


@pytest.mark.parametrize(
    "a, b, merge",
    [
        # a's arc x x y' x, b's arc x y y: the run across the seam starts the least rotation
        ("y x x y' x", "y' x y y", "x x y y x x y'"),
        # b's arc x y' y: the run at the start of a's arc does
        ("y x x y' x", "y' x y' y", "x x y' x x y' y"),
        # a's arc x x' x, b's arc x y x: the run that wraps round the merge's end does
        ("y x x' x", "y' x y x", "x x x' x x y"),
    ],
)
def test_equal_runs_of_the_least_code_across_the_seam(a, b, merge):
    """The merge at a's y and b's y' holds two equally long runs of x, one
    spanning the seam between a's arc and b's arc; the least rotation
    starts at one of them."""
    x, y = _loop_element(a), _loop_element(b, _poly(0, 3))
    got = necklace_bracket(x, y)
    assert got == reference_bracket(x, y)
    assert _loop_element(merge).terms.keys() <= got.terms.keys()


def test_run_start_matches_duval_on_every_short_word():
    """Every word of up to 8 letters over 3 codes, its least code and count
    handed in as the bracket hands them."""
    codes = [_code((letter,)) for letter in (Letter(0, False), Letter(0, True), Letter(1, False))]
    words = 0
    for n in range(1, 9):
        for word in itertools.product(codes, repeat=n):
            s = "".join(word)
            c = min(s)
            assert _run_start(s, c, s.count(c)) == duval_rotation_offset(s), s
            words += 1
    assert words == sum(3**n for n in range(1, 9))


# -- letter semantics the rotation and the keys rely on -----------------------


def test_letter_is_an_arrow_star_pair():
    x, xs, y = Letter(0, False), Letter(0, True), Letter(1, False)
    assert Letter._fields == ("arrow", "starred")
    assert tuple(xs) == (0, True)
    assert x < xs < y
    assert sorted([y, xs, x]) == [x, xs, y]
    assert Letter(0, False) == x and hash(Letter(0, False)) == hash(x)
    assert len({x, Letter(0, False), xs, Letter(0, True)}) == 2
    assert repr(xs) == "Letter(arrow=0, starred=True)"
    assert x.star() == xs and xs.star() == x
