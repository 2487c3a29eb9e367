"""The index-contraction kernel against brute-force index enumeration.

The references below enumerate every index tuple and multiply the factors
one by one, O(d^m) products per m-letter word.  The library contracts each
index as soon as its last factor has been multiplied; both must give the
same exact element.
"""

import itertools
import random

from nhq import (
    HH0Element,
    PathAlgebraElement,
    PolyElement,
    QPAElement,
    WeylElement,
    block_matrix,
    make_path,
    path_matrix_entry,
    trace_classical,
    trace_quantum_config,
    weyl_mul,
)
from nhq.sampling import (
    a2,
    a3p,
    jordan,
    random_configuration,
    random_dimension,
    random_necklace,
    random_word,
    two_loop,
)


def reference_trace_quantum_config(quiver, dim, components, idempotents):
    """Tr_q of a raw configuration by enumerating every index tuple and
    multiplying the operator tokens in height order."""
    scalar = 1
    for v in idempotents:
        scalar *= dim[v]
    slots = []  # (height, ci, pi)
    for ci, comp in enumerate(components):
        for pi, (_, h) in enumerate(comp):
            slots.append((h, ci, pi))
    slots.sort()
    ranges = []
    index_of = {}
    for ci, comp in enumerate(components):
        for pi, (letter, _) in enumerate(comp):
            index_of[(ci, pi)] = len(ranges)
            ranges.append(range(1, dim[letter.target(quiver)] + 1))
    total = WeylElement(quiver, dim)
    for ks in itertools.product(*ranges):
        acc = WeylElement.constant(quiver, dim, 1)
        for _, ci, pi in slots:
            letter = components[ci][pi][0]
            row = ks[index_of[(ci, pi)]]
            col = ks[index_of[(ci, (pi + 1) % len(components[ci]))]]
            acc = weyl_mul(acc, WeylElement.operator_token(quiver, dim, letter, row, col))
        total = total + acc
    return total.scale(scalar)


def reference_trace_classical(quiver, dim, letters):
    """Tr of one necklace by enumerating every cyclic index tuple."""
    m = len(letters)
    ranges = [range(1, dim[l.target(quiver)] + 1) for l in letters]
    out = PolyElement(quiver, dim)
    for ks in itertools.product(*ranges):
        mono: dict = {}
        for t, letter in enumerate(letters):
            var = (letter.arrow, letter.starred, ks[t], ks[(t + 1) % m])
            mono[var] = mono.get(var, 0) + 1
        out = out + PolyElement(quiver, dim, {tuple(sorted(mono.items())): 1})
    return out


def reference_word_entry(quiver, dim, pairs, row, col, quantum):
    """(row, col) entry of an open word of (letter, height) pairs: every
    inner index tuple, factors multiplied in height order."""
    m = len(pairs)
    inner = [range(1, dim[pairs[t][0].target(quiver)] + 1) for t in range(1, m)]
    ring = WeylElement if quantum else PolyElement
    total = ring(quiver, dim)
    for chain in itertools.product(*inner):
        ks = (row,) + chain + (col,)
        ops = sorted((pairs[t][1], t) for t in range(m))
        acc = ring.constant(quiver, dim, 1)
        for _, t in ops:
            letter = pairs[t][0]
            if quantum:
                factor = WeylElement.operator_token(quiver, dim, letter, ks[t], ks[t + 1])
            else:
                factor = PolyElement.coordinate(
                    quiver, dim, letter.arrow, letter.starred, ks[t], ks[t + 1]
                )
            acc = acc * factor
        total = total + acc
    return total


QUIVERS = (jordan(), a2(), two_loop(), a3p())


def _interleaved(components):
    spans = sorted((min(h for _, h in c), max(h for _, h in c)) for c in components)
    return any(lo2 < hi1 for (_, hi1), (lo2, _) in zip(spans, spans[1:]))


def test_quantum_trace_of_raw_configurations_matches_enumeration():
    rng = random.Random(2005)
    interleaved = 0
    for q in QUIVERS:
        for _ in range(8):
            d = random_dimension(rng, q, max_dim=3)
            cfg = random_configuration(rng, q, max_letters=5)
            while not 2 <= len(cfg.components) <= 3:
                cfg = random_configuration(rng, q, max_letters=5)
            interleaved += _interleaved(cfg.components)
            expected = reference_trace_quantum_config(q, d, cfg.components, cfg.idempotents)
            assert trace_quantum_config(q, d, cfg.components, cfg.idempotents) == expected
    assert interleaved >= 16


def test_open_word_entries_match_enumeration():
    rng = random.Random(2006)
    for q in QUIVERS:
        for _ in range(4):
            d = random_dimension(rng, q, max_dim=3)
            word = random_word(rng, q, max_len=4)
            path = make_path(q, word)
            elem = PathAlgebraElement.of_path(q, path)
            in_order = tuple((letter, t + 1) for t, letter in enumerate(word))
            quantum = block_matrix(elem, d, "quantum")
            classical = block_matrix(elem, d, "classical")
            for row in range(1, d[path.target(q)] + 1):
                for col in range(1, d[path.source(q)] + 1):
                    ref_q = reference_word_entry(q, d, in_order, row, col, True)
                    ref_c = reference_word_entry(q, d, in_order, row, col, False)
                    assert quantum[row, col] == ref_q
                    assert classical[row, col] == ref_c
                    assert path_matrix_entry(q, d, path, row, col) == ref_c


def test_height_permuted_block_matrix_matches_enumeration():
    # single closed components with shuffled heights: the entry products
    # follow the heights, not the word order
    rng = random.Random(2007)
    for q in QUIVERS:
        for _ in range(3):
            d = random_dimension(rng, q, max_dim=3)
            cfg = random_configuration(rng, q, max_letters=4, max_idempotents=0)
            while len(cfg.components) != 1:
                cfg = random_configuration(rng, q, max_letters=4, max_idempotents=0)
            comp = cfg.components[0]
            m = block_matrix(QPAElement(q, {cfg: 1}), d, "quantum")
            n = d[comp[0][0].target(q)]
            for row in range(1, n + 1):
                for col in range(1, n + 1):
                    assert m[row, col] == reference_word_entry(q, d, comp, row, col, True)


def test_classical_trace_matches_commutative_enumeration():
    rng = random.Random(2008)
    for q in QUIVERS:
        for _ in range(5):
            d = random_dimension(rng, q, max_dim=3)
            neck = random_necklace(rng, q, 5, allow_idempotent=False)
            expected = reference_trace_classical(q, d, neck.letters)
            assert trace_classical(HH0Element.of(q, neck), d) == expected
