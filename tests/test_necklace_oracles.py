"""Linear-time necklace canonicalisation checked against brute-force references.

``minimal_rotation_offset`` (Duval's algorithm) is compared with a minimum
over all n rotations, and ``necklace_bracket`` (one composability check per
operand, rotation per merge) with the bracket that canonicalised every merge
through a full check and the brute-force rotation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhq import (
    CompositionError,
    HH0Element,
    Letter,
    Necklace,
    idempotent_class,
    necklace_bracket,
)
from nhq.linear import add_into
from nhq.necklace import bracket_sign, minimal_rotation_offset
from nhq.sampling import random_hh0, small_quivers

SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


# -- references --------------------------------------------------------------


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
                    s = bracket_sign(ai, bj)
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


def test_minimal_rotation_of_periodic_words_takes_the_least_offset():
    x, xs, y, ys = Letter(0, False), Letter(0, True), Letter(1, False), Letter(1, True)
    for n in (1, 2, 7, 40):
        assert minimal_rotation_offset((x,) * n) == 0
    for k in (1, 2, 5, 20):
        assert minimal_rotation_offset((ys, x) * k) == 1
        assert minimal_rotation_offset((x, ys) * k) == 0
    assert minimal_rotation_offset((ys, xs, y) * 3) == 1


# -- necklace bracket --------------------------------------------------------


def test_bracket_matches_reference_on_small_quivers():
    rng = random.Random(404)
    for quiver in small_quivers():
        for _ in range(40):
            x = random_hh0(rng, quiver, max_len=7, max_terms=3)
            y = random_hh0(rng, quiver, max_len=7, max_terms=3)
            assert necklace_bracket(x, y) == reference_bracket(x, y)


def test_bracket_rejects_hand_built_non_composable_operands(A2):
    a = Letter(0, False)
    bad = HH0Element.of(A2, Necklace(None, (a, a.star(), a)))
    good = HH0Element.of(A2, Necklace(None, (a, a.star())))
    with pytest.raises(CompositionError):
        necklace_bracket(bad, good)
    with pytest.raises(CompositionError):
        necklace_bracket(good, bad)


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
