"""Named test quivers and seeded random generators for the verify suites.

All randomness flows through an explicit ``random.Random`` so every suite
is reproducible from its seed.  Closed words are sampled by exact dynamic
programming over walk counts in the doubled quiver, so sampling never
rejects and never stalls.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .necklace import HH0Element, canonical_necklace, idempotent_class
from .quiver import Quiver, make_quiver
from .repspace import GlElement
from .rings import HBarPolynomial
from .schedler import HeightConfiguration, SymElement, make_configuration, make_sym_monomial


def jordan() -> Quiver:
    """One vertex, one loop."""
    return make_quiver(["v"], [("x", "v", "v")])


def a2() -> Quiver:
    """Two vertices joined by one arrow 1 -> 2."""
    return make_quiver(["1", "2"], [("a", "1", "2")])


def a3p() -> Quiver:
    """The cyclic triangle with a framing leg: a0:0->1, a1:1->2, a2:2->0, p:inf->0."""
    return make_quiver(
        ["0", "1", "2", "inf"],
        [("a0", "0", "1"), ("a1", "1", "2"), ("a2", "2", "0"), ("p", "inf", "0")],
    )


def two_loop() -> Quiver:
    return make_quiver(["v"], [("x", "v", "v"), ("y", "v", "v")])


def small_quivers() -> list[Quiver]:
    """A fixed family with at most two arrows, for exhaustive coordinate checks."""
    return [
        jordan(),
        a2(),
        two_loop(),
        make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]),
        make_quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")]),
        make_quiver(["1", "2"], [("a", "1", "2"), ("x", "1", "1")]),
    ]


def random_quiver(rng: random.Random, max_vertices: int = 3, max_arrows: int = 4) -> Quiver:
    nv = rng.randint(1, max_vertices)
    na = rng.randint(1, max_arrows)
    vertices = [f"v{i}" for i in range(nv)]
    arrows = [
        (f"a{k}", vertices[rng.randrange(nv)], vertices[rng.randrange(nv)])
        for k in range(na)
    ]
    return make_quiver(vertices, arrows)


def random_closed_word(rng: random.Random, quiver: Quiver, max_len: int, min_len: int = 1):
    """A uniformly chosen closed word of a random admissible length <= max_len.

    One ``randrange`` over every closed word is unranked in order: into a
    (length, basepoint) pair, then letter by letter, each letter weighted
    by the closed words that go on with it."""
    letters = list(quiver.letters())
    nv = len(quiver.vertices)
    # walks[k][u][w]: number of composable words y_1..y_k with target(y_1)=u, source(y_k)=w
    step = [[0] * nv for _ in range(nv)]
    for letter in letters:
        step[letter.target(quiver)][letter.source(quiver)] += 1
    walks = [[[int(u == w) for w in range(nv)] for u in range(nv)]]
    for _ in range(max_len):
        last = walks[-1]
        walks.append([[sum([last[u][m] * step[m][w] for m in range(nv)]) for w in range(nv)] for u in range(nv)])
    starts = [(k, v) for k in range(min_len, max_len + 1) for v in range(nv)]
    total = sum([walks[k][v][v] for k, v in starts])
    if total == 0:
        raise ValueError("quiver admits no closed words in the requested range")
    pick = rng.randrange(total)
    for length, start in starts:
        if pick < walks[length][start][start]:
            break
        pick -= walks[length][start][start]
    word, current = [], start  # current: the target of the next letter
    for remaining in range(length - 1, -1, -1):
        for letter in letters:
            if letter.target(quiver) == current:
                c = walks[remaining][letter.source(quiver)][start]
                if pick < c:
                    break
                pick -= c
        word.append(letter)
        current = letter.source(quiver)
    return tuple(word)


def random_necklace(rng: random.Random, quiver: Quiver, max_len: int, allow_idempotent=True):
    if allow_idempotent and rng.random() < 0.15:
        return idempotent_class(rng.randrange(len(quiver.vertices)))
    return canonical_necklace(quiver, random_closed_word(rng, quiver, max_len))


def random_coefficient(rng: random.Random, with_h: bool = False) -> HBarPolynomial:
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if c == 0:
        c = Fraction(1)
    if with_h and rng.random() < 0.3:
        return HBarPolynomial((c, Fraction(rng.randint(-2, 2))))
    return HBarPolynomial.constant(c)


def random_hh0(
    rng: random.Random, quiver: Quiver, max_len: int = 5, max_terms: int = 3
) -> HH0Element:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[random_necklace(rng, quiver, max_len)] = random_coefficient(rng)
    return HH0Element(quiver, terms)


def random_sym_element(
    rng: random.Random, quiver: Quiver, max_len: int = 4, max_terms: int = 2,
    max_factors: int = 3,
) -> SymElement:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        necklaces = [
            random_necklace(rng, quiver, max_len)
            for _ in range(rng.randint(1, max_factors))
        ]
        terms[make_sym_monomial(necklaces)] = random_coefficient(rng, with_h=True)
    return SymElement(quiver, terms)


def random_configuration(
    rng: random.Random, quiver: Quiver, max_letters: int = 8, max_idempotents: int = 1
) -> HeightConfiguration:
    words = []
    budget = rng.randint(1, max_letters)
    while budget:
        try:
            word = random_closed_word(rng, quiver, budget)
        except ValueError:
            break
        words.append(word)
        budget -= len(word)
        if rng.random() < 0.3:
            break
    total = sum(len(w) for w in words)
    heights = list(range(1, total + 1))
    rng.shuffle(heights)
    components = []
    k = 0
    for word in words:
        components.append(tuple((letter, heights[k + i]) for i, letter in enumerate(word)))
        k += len(word)
    idempotents = [
        rng.randrange(len(quiver.vertices))
        for _ in range(rng.randint(0, max_idempotents))
    ]
    return make_configuration(quiver, components, idempotents)


def random_word(rng: random.Random, quiver: Quiver, max_len: int = 4):
    """A composable (not necessarily closed) word, grown leftward."""
    letters = list(quiver.letters())
    length = rng.randint(1, max_len)
    word = [rng.choice(letters)]
    while len(word) < length:
        head = word[0].target(quiver)
        candidates = [l for l in letters if l.source(quiver) == head]
        word.insert(0, rng.choice(candidates))
    return tuple(word)


def random_path_element(
    rng: random.Random, quiver: Quiver, max_len: int = 4, max_terms: int = 3
):
    from .quiver import Path, PathAlgebraElement, make_path

    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        if rng.random() < 0.2:
            key = Path.trivial(rng.randrange(len(quiver.vertices)))
        else:
            key = make_path(quiver, random_word(rng, quiver, max_len))
        terms[key] = random_coefficient(rng)
    return PathAlgebraElement(quiver, terms)


def random_dimension(rng: random.Random, quiver: Quiver, max_dim: int = 2):
    return tuple(rng.randint(1, max_dim) for _ in quiver.vertices)


def random_gl(rng: random.Random, quiver: Quiver, dim, max_terms: int = 2) -> GlElement:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randrange(len(quiver.vertices))
        p = rng.randint(1, dim[i])
        q = rng.randint(1, dim[i])
        terms[(i, p, q)] = Fraction(rng.randint(-3, 3)) or Fraction(1)
    return GlElement(quiver, dim, terms)


def all_dimension_vectors(quiver: Quiver, max_dim: int = 2):
    return list(itertools.product(range(1, max_dim + 1), repeat=len(quiver.vertices)))
