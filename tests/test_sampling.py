"""The seeded closed-word sampler against the three-loop unranking it
replaced.

``reference_closed_word`` decodes its one ``randrange`` in three loops:
the length, then the basepoint, then the letters, with the last letter a
case of its own.  ``sampling.random_closed_word`` unranks the same draw
over (length, basepoint) pairs and letters with the walk counts of length
0 as the identity matrix.  Both must give the same word from the same
generator and leave it in the same state, so every seeded suite draws the
same cases.
"""

import random

import pytest

from nhq.quiver import Quiver
from nhq.sampling import a3p, random_closed_word, random_quiver, small_quivers, two_loop


def reference_closed_word(rng: random.Random, quiver: Quiver, max_len: int, min_len: int = 1):
    """A uniformly chosen closed word of a random admissible length <= max_len."""
    letters = list(quiver.letters())
    nv = len(quiver.vertices)
    # walks[k][u][w]: number of composable words y_1..y_k with target(y_1)=u, source(y_k)=w
    step = [[0] * nv for _ in range(nv)]
    for letter in letters:
        step[letter.target(quiver)][letter.source(quiver)] += 1
    powers = [None, step]
    for _ in range(2, max_len + 1):
        last = powers[-1]
        nxt = [[0] * nv for _ in range(nv)]
        for u in range(nv):
            for m in range(nv):
                if last[u][m]:
                    for w in range(nv):
                        nxt[u][w] += last[u][m] * step[m][w]
        powers.append(nxt)
    weights = [
        sum(powers[k][v][v] for v in range(nv)) for k in range(min_len, max_len + 1)
    ]
    total = sum(weights)
    if total == 0:
        raise ValueError("quiver admits no closed words in the requested range")
    pick = rng.randrange(total)
    for k, w in zip(range(min_len, max_len + 1), weights):
        if pick < w:
            length = k
            break
        pick -= w
    # choose the basepoint, then the letters one by one with exact suffix counts
    for v in range(nv):
        c = powers[length][v][v]
        if pick < c:
            start = v
            break
        pick -= c
    word = []
    current = start  # target of the next letter to choose
    remaining = length
    while remaining:
        for letter in letters:
            if letter.target(quiver) != current:
                continue
            rest = letter.source(quiver)
            c = (
                1
                if remaining == 1 and rest == start
                else 0
                if remaining == 1
                else powers[remaining - 1][rest][start]
            )
            if pick < c:
                word.append(letter)
                current = rest
                remaining -= 1
                break
            pick -= c
        else:
            raise AssertionError("walk sampling ran out of letters")
    return tuple(word)


def _drawn(sample, seed, quiver, max_len, min_len):
    """The word ``sample`` draws from a generator seeded ``seed``, or its
    error, and the generator's next draw."""
    rng = random.Random(seed)
    try:
        word = sample(rng, quiver, max_len, min_len)
    except ValueError as error:
        word = str(error)
    return word, rng.random()


def _quivers():
    rng = random.Random(2005)
    return [a3p(), two_loop(), *small_quivers(), *[random_quiver(rng, 4, 5) for _ in range(12)]]


@pytest.mark.parametrize("quiver", _quivers())
def test_one_unranking_draws_the_reference_word_and_leaves_the_same_state(quiver):
    """Same word, or the same refusal, and the same next draw, for every
    quiver, length bound 1..8 and least length 1..2, over 30 seeds."""
    for max_len in range(1, 9):
        for min_len in (1, 2):
            for seed in range(30):
                expected = _drawn(reference_closed_word, seed, quiver, max_len, min_len)
                assert _drawn(random_closed_word, seed, quiver, max_len, min_len) == expected
