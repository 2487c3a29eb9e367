"""The index-contraction kernel against brute-force index enumeration.

The references below enumerate every index tuple and multiply the factors
one by one, O(d^m) products per m-letter word.  The library contracts each
index as soon as its last factor has been multiplied; both must give the
same exact element.  The library multiplies monomials packed into ints;
the tuple-keyed kernel it replaced (``contraction_oracle``) must give the
same elements, also where an exponent fills its bit field, and the
planned kernel, cold and on a cached plan, the same sums in the same order
as the index-tuple loop it replaced (``contraction_oracle.contract_packed``).
The tuple
token products are checked against the general ``weyl_mul`` and
``poly_mul``, and the commutator, which forms only contracted terms,
against the difference of the two products.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhq import (
    DimensionError,
    HBarPolynomial,
    HH0Element,
    PathAlgebraElement,
    PolyElement,
    QPAElement,
    WeylElement,
    WorkLimitError,
    block_matrix,
    make_configuration,
    make_path,
    path_matrix_entry,
    trace_classical,
    trace_quantum_config,
    weyl_commutator,
    weyl_mul,
)
from nhq import linear, repspace, work
from nhq.necklace import canonical_necklace
from nhq.quiver import Letter, Path, _code, make_quiver
from nhq.repspace import poly_mul
from nhq.sampling import (
    a2,
    a3p,
    all_dimension_vectors,
    jordan,
    random_closed_word,
    random_configuration,
    random_dimension,
    random_necklace,
    random_word,
    small_quivers,
    two_loop,
)
import contraction_oracle
from contraction_oracle import letter_entry, times_coordinate, times_token


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
H = HBarPolynomial.h()


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


def _weighted_entry(quiver, dim, terms, row, col, quantum):
    """The (row, col) entry of sum c M(key) over {path or one-component
    configuration: c} ``terms`` by enumeration, each c read at h = 0 when
    classical."""
    total = (WeylElement if quantum else PolyElement)(quiver, dim)
    for key, c in terms.items():
        if isinstance(key, Path):
            pairs = tuple((letter, t + 1) for t, letter in enumerate(key.letters))
        else:
            pairs = key.components[0]
        c = c if quantum else HBarPolynomial.coerce(c).constant_term()
        total = total + reference_word_entry(quiver, dim, pairs, row, col, quantum).scale(c)
    return total


def test_block_matrix_of_a_sum_reads_no_terms_view(monkeypatch):
    # sums of closed paths or of one-component configurations at one
    # vertex, with fractional and h coefficients, are read through their
    # coded keys and int numerators: no ``terms`` view is built, and each
    # entry is the coefficient-weighted sum of the terms' enumerated entries
    # (the classical ones at h = 0)
    rng = random.Random(2029)
    coeffs = (1, -2, Fraction(1, 2), H, Fraction(-1, 3) + H)
    views = []
    view = linear._view
    monkeypatch.setattr(linear, "_view", lambda *args: views.append(args) or view(*args))
    for q in QUIVERS:
        d = random_dimension(rng, q, max_dim=2)
        words = [random_closed_word(rng, q, 4)]
        for _ in range(100):
            word = random_closed_word(rng, q, 4)
            if len(words) < 3 and word[0].target(q) == words[0][0].target(q) and word not in words:
                words.append(word)
        assert len(words) >= 2
        paths = {make_path(q, word): rng.choice(coeffs) for word in words}
        # the lowest height first, so normalizing keeps each word's rotation
        heights = lambda word: [1] + rng.sample(range(2, 9), len(word) - 1)
        cfgs = {make_configuration(q, [tuple(zip(word, heights(word)))]): rng.choice(coeffs) for word in words}
        n = d[words[0][0].target(q)]
        for x, terms, modes in (
            (PathAlgebraElement(q, paths), paths, ("quantum", "classical")),
            (QPAElement(q, cfgs), cfgs, ("quantum",)),
        ):
            for mode in modes:
                got = block_matrix(x, d, mode)
                assert views == []
                for row in range(1, n + 1):
                    for col in range(1, n + 1):
                        assert got[row, col] == _weighted_entry(q, d, terms, row, col, mode == "quantum")
                views.clear()


def test_classical_trace_matches_commutative_enumeration():
    rng = random.Random(2008)
    for q in QUIVERS:
        for _ in range(5):
            d = random_dimension(rng, q, max_dim=3)
            neck = random_necklace(rng, q, 5, allow_idempotent=False)
            expected = reference_trace_classical(q, d, neck.letters)
            assert trace_classical(HH0Element.of(q, neck), d) == expected


# -- the in-place token products against the general products ----------------


def _coordinates(q, d):
    """(arrow, row, col) of every position coordinate of the representation space."""
    return [
        (ai, row, col)
        for ai, a in enumerate(q.arrows)
        for row in range(1, d[a.target] + 1)
        for col in range(1, d[a.source] + 1)
    ]


def _operators(q, d):
    """Operators with exponents up to 3 and Fraction times h-power coefficients."""
    coords = _coordinates(q, d)
    exponents = st.dictionaries(st.sampled_from(coords), st.integers(1, 3), max_size=3)
    coefficient = st.builds(
        lambda c, k: HBarPolynomial((0,) * k + (c,)),
        st.fractions(max_denominator=4).filter(bool),
        st.integers(0, 2),
    )
    return st.lists(st.tuples(exponents, exponents, coefficient), max_size=4).map(
        lambda terms: WeylElement(
            q, d, [((tuple(sorted(p.items())), tuple(sorted(r.items()))), c) for p, r, c in terms]
        )
    )


def _spaces(draw):
    q = draw(st.sampled_from(QUIVERS))
    return q, tuple(draw(st.integers(1, 2)) for _ in q.vertices)


@st.composite
def _token_products(draw):
    """A quiver, a dimension vector, an operator and one letter-matrix entry."""
    q, d = _spaces(draw)
    x = draw(_operators(q, d))
    letter = draw(st.sampled_from(list(q.letters())))
    row = draw(st.integers(1, d[letter.target(q)]))
    col = draw(st.integers(1, d[letter.source(q)]))
    return q, d, x, letter, row, col


@st.composite
def _operator_pairs(draw):
    q, d = _spaces(draw)
    return draw(_operators(q, d)), draw(_operators(q, d))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_token_products())
def test_token_product_matches_weyl_mul(case):
    q, d, x, letter, row, col = case
    out: dict = {}
    times_token(x.terms, letter_entry(letter, True)(row, col), out)
    expected = weyl_mul(x, WeylElement.operator_token(q, d, letter, row, col))
    assert WeylElement(q, d, out) == expected


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_token_products())
def test_coordinate_product_matches_poly_mul(case):
    # the drawn operator read as a polynomial: d(a)_{r,c} -> (a')_{c,r}, h = 1
    q, d, x, letter, row, col = case
    f = PolyElement(
        q,
        d,
        [
            (
                tuple(sorted([((a, False, r, c), e) for (a, r, c), e in pos]
                             + [((a, True, c, r), e) for (a, r, c), e in der])),
                sum(coeff.coeffs),
            )
            for (pos, der), coeff in x.items()
        ],
    )
    out: dict = {}
    times_coordinate(f.terms, letter_entry(letter, False)(row, col), out)
    coordinate = PolyElement.coordinate(q, d, letter.arrow, letter.starred, row, col)
    assert PolyElement(q, d, out) == poly_mul(f, coordinate)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_operator_pairs())
def test_commutator_matches_the_difference_of_products(pair):
    x, y = pair
    assert weyl_commutator(x, y) == weyl_mul(x, y) - weyl_mul(y, x)


def test_position_token_moves_past_a_derivative_power():
    # d^3 x = x d^3 + 3 h d^2, by the token product and by weyl_mul
    q, d = jordan(), (1,)
    v = (0, 1, 1)
    cube = WeylElement(q, d, {((), ((v, 3),)): 1})
    out: dict = {}
    times_token(cube.terms, letter_entry(Letter(0, False), True)(1, 1), out)
    assert out == {(((v, 1),), ((v, 3),)): 1, ((), ((v, 2),)): HBarPolynomial((0, 3))}
    assert WeylElement(q, d, out) == weyl_mul(cube, WeylElement.position(q, d, 0, 1, 1))


# -- the packed kernel against the tuple kernel --------------------------------


def _contracted(quiver, dim, words, quantum, ends=None):
    """``repspace.contracted`` of one item of weight 1: the words of
    (letter, height) pairs as one coded configuration."""
    codes = tuple(_code([letter for letter, _ in word]) for word in words)
    heights = tuple(tuple(height for _, height in word) for word in words)
    return repspace.contracted(quiver, dim, [((codes, heights, ()), ((0, 1),))], quantum, ends)


@st.composite
def _contractions(draw):
    """Closed configurations or one open word with its ends, on a quiver of
    ``small_quivers()``, for the quantum or the classical ring."""
    q = draw(st.sampled_from(small_quivers()))
    d = tuple(draw(st.integers(1, 3)) for _ in q.vertices)
    rng = random.Random(draw(st.integers(0, 2**32)))
    quantum = draw(st.booleans())
    if draw(st.booleans()):
        cfg = random_configuration(rng, q, max_letters=6, max_idempotents=0)
        return q, d, cfg.components, quantum, None
    word = random_word(rng, q, max_len=5)
    heights = list(range(1, len(word) + 1))
    rng.shuffle(heights)
    ends = (range(1, d[word[0].target(q)] + 1), range(1, d[word[-1].source(q)] + 1))
    return q, d, (tuple(zip(word, heights)),), quantum, ends


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_contractions())
def test_packed_contraction_matches_the_tuple_kernel(case):
    q, d, words, quantum, ends = case
    expected = contraction_oracle.contract_letters(q, d, words, quantum, ends)
    assert _contracted(q, d, words, quantum, ends) == expected


@st.composite
def _shapes(draw):
    """A closed configuration of several components with interleaved
    heights, or one open word with the ends of a block or the one-value
    ends (row,), (col,) of ``path_matrix_entry``; either ring."""
    q = draw(st.sampled_from(small_quivers()))
    d = tuple(draw(st.integers(1, 3)) for _ in q.vertices)
    rng = random.Random(draw(st.integers(0, 2**32)))
    quantum = draw(st.booleans())
    kind = draw(st.sampled_from(["closed", "block", "entry"]))
    if kind == "closed":
        while True:
            cfg = random_configuration(rng, q, max_letters=7, max_idempotents=0)
            if len(cfg.components) > 1 and _interleaved(cfg.components):
                return q, d, cfg.components, quantum, None
    word = random_word(rng, q, max_len=5)
    heights = list(range(1, len(word) + 1))
    rng.shuffle(heights)
    rows, cols = range(1, d[word[0].target(q)] + 1), range(1, d[word[-1].source(q)] + 1)
    if kind == "entry":
        rows, cols = (rng.choice(rows),), (rng.choice(cols),)
    return q, d, (tuple(zip(word, heights)),), quantum, (rows, cols)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_shapes())
def test_planned_contraction_equals_the_index_tuple_loop(case):
    # every contraction ``contracted`` runs, cold and on its cached plan,
    # gives the index-tuple loop's sums: the same assignments of the free
    # variables, the same terms, in the same order
    q, d, words, quantum, ends = case
    calls = []
    contract = repspace._contract
    repspace._plans.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repspace, "_contract", lambda *a: calls.append((a, contract(*a))) or calls[-1][1])
        _contracted(q, d, words, quantum, ends)
    ((args, cold),) = calls
    assert repspace._plans.cache_info()[:4] == (0, 1, work.CACHE_SIZE, 1)
    warm = contract(*args)
    assert repspace._plans.cache_info()[:4] == (1, 1, work.CACHE_SIZE, 1)
    expected = contraction_oracle.contract_packed(*args)
    ordered = lambda sums: [(key, list(terms.items())) for key, terms in sums.items()]
    assert ordered(cold) == ordered(warm) == ordered(expected)


def _jordan_word(text):
    """Letters of a Jordan word such as "x'x'x", heights in word order."""
    letters = [Letter(0, True) if t == "x'" else Letter(0, False) for t in text.split()]
    return tuple((letter, t + 1) for t, letter in enumerate(letters))


@pytest.mark.parametrize(
    "text,width,packed",
    [
        # Jordan at d = 1 has one coordinate: x^a d^b is the key a + (b << w)
        (" ".join(["x"] * 7), 3, {7: 1}),
        (" ".join(["x"] * 8), 4, {8: 1}),
        (" ".join(["x'"] * 15), 4, {15 << 4: 1}),
        (" ".join(["x'"] * 16), 5, {16 << 5: 1}),
        # the Rees correction reads the top of a full-width exponent:
        # d^b x = x d^b + b h d^(b-1), its h in the h field from bit 2 w on
        (" ".join(["x'"] * 7 + ["x"]), 4, {1 + (7 << 4): 1, (6 << 4) + (1 << 8): 7}),
        (" ".join(["x'"] * 15 + ["x"]), 5, {1 + (15 << 5): 1, (14 << 5) + (1 << 10): 15}),
        (" ".join(["x'"] + ["x"] * 7), 4, None),
        (" ".join(["x"] * 3 + ["x'"] * 4), 3, None),
        (" ".join(["x'", "x"] * 4), 4, None),
    ],
)
def test_exponents_that_fill_a_field(text, width, packed):
    J, d = jordan(), (1,)
    word = _jordan_word(text)
    letters = [letter for letter, _ in word]
    quantum = _contracted(J, d, (word,), True)
    assert quantum._codec.width == width
    if packed is not None:
        assert quantum._packed == packed
    assert quantum == contraction_oracle.contract_letters(J, d, (word,), True)
    assert quantum == reference_trace_quantum_config(J, d, (word,), ())
    classical = _contracted(J, d, (word,), False)
    assert classical == contraction_oracle.contract_letters(J, d, (word,), False)
    assert classical == reference_trace_classical(J, d, letters)


@pytest.mark.parametrize("quantum", [True, False], ids=["quantum", "classical"])
def test_the_empty_open_word_is_the_identity(quantum):
    ring = WeylElement if quantum else PolyElement
    for quiver in small_quivers():
        for dim in all_dimension_vectors(quiver, 2):
            one = ring.constant(quiver, dim, 1)
            for v in range(len(quiver.vertices)):
                ends = range(1, dim[v] + 1)
                block = _contracted(quiver, dim, ((),), quantum, (ends, ends))
                sums = {rc: entry._packed for rc, entry in block.items()}
                assert sums == {(r, c): {0: 1} if r == c else {} for r in ends for c in ends}
                zero = ring(quiver, dim)
                assert block == {(r, c): one if r == c else zero for r in ends for c in ends}
                # the trivial path's matrix is the same identity
                idempotent = PathAlgebraElement.trivial(quiver, v)
                matrix = block_matrix(idempotent, dim, "quantum" if quantum else "classical")
                assert matrix.entries == tuple(tuple(block[r, c] for c in ends) for r in ends)
                if not quantum:
                    for r, c in block:
                        assert path_matrix_entry(quiver, dim, Path.trivial(v), r, c) == block[r, c]


def test_fields_only_for_the_arrows_a_contraction_uses():
    # a key holds the coordinates of the word's arrows, not of the quiver
    many = make_quiver(["v"], [(f"a{i}", "v", "v") for i in range(1000)])
    word = ((Letter(999, True), 1), (Letter(3, False), 2), (Letter(999, False), 3))
    for quantum in (True, False):
        traced = _contracted(many, (2,), (word,), quantum)
        codec = traced._codec
        assert codec.split == 2 * 4 * codec.width  # two arrows of four coordinates
        expected = contraction_oracle.contract_letters(many, (2,), (word,), quantum)
        assert traced == expected


# -- the up-front work bound ---------------------------------------------------


def test_contraction_refuses_more_assignments_than_the_limit(monkeypatch):
    J = jordan()
    x, xs = Letter(0, False), Letter(0, True)
    word = tuple((letter, t + 1) for t, letter in enumerate((xs, x, x, xs, x, xs, x, xs)))
    with pytest.raises(DimensionError, match=f"above the limit {work.MAX_INDEX_ASSIGNMENTS}"):
        trace_quantum_config(J, (12,), (word,), ())
    with pytest.raises(DimensionError, match=r"has 2985984 index assignments"):
        trace_classical(HH0Element.of(J, canonical_necklace(J, (x,) * 6)), (12,))
    # the count is the product of the index ranges: 2^3 closed, and
    # 2 rows * 2 inner * 2 cols open
    monkeypatch.setattr(work, "MAX_INDEX_ASSIGNMENTS", 8)
    three = canonical_necklace(J, (x, xs, x))
    assert trace_classical(HH0Element.of(J, three), (2,)) == reference_trace_classical(
        J, (2,), three.letters
    )
    with pytest.raises(DimensionError, match="has 16 index assignments, above the limit 8"):
        trace_classical(HH0Element.of(J, canonical_necklace(J, (x, xs, x, xs))), (2,))
    two = PathAlgebraElement.of_path(J, make_path(J, (x, xs)))
    block_matrix(two, (2,), "quantum")
    with pytest.raises(DimensionError, match="has 16 index assignments"):
        block_matrix(PathAlgebraElement.of_path(J, make_path(J, (x, xs, x))), (2,), "quantum")


def test_a_sum_is_charged_as_a_whole(monkeypatch):
    # each word fits the limit, the sum of their index assignments does
    # not: a classical trace of 2^3 + 2^2, a block matrix of 2 * 2 * 2 + 2 * 2
    J = jordan()
    x, xs = Letter(0, False), Letter(0, True)
    d = (2,)
    monkeypatch.setattr(work, "MAX_INDEX_ASSIGNMENTS", 8)
    three, two = canonical_necklace(J, (x, xs, x)), canonical_necklace(J, (x, xs))
    # a term of h alone is read at h = 0: it is neither contracted nor charged
    necklaces = HH0Element(J, {three: 1, two: Fraction(1, 2), canonical_necklace(J, (x, xs, x, xs)): H})
    paths = {make_path(J, (x, xs)): 1, make_path(J, (x,)): Fraction(1, 2) + H}
    for one in (HH0Element.of(J, three), HH0Element.of(J, two)):
        trace_classical(one, d)
    for path in paths:
        block_matrix(PathAlgebraElement.of_path(J, path), d, "quantum")
    for call in (
        lambda: trace_classical(necklaces, d),
        lambda: block_matrix(PathAlgebraElement(J, paths), d, "quantum"),
        lambda: block_matrix(PathAlgebraElement(J, paths), d, "classical"),
    ):
        with pytest.raises(WorkLimitError, match="has 12 index assignments, above the limit 8"):
            call()
    monkeypatch.setattr(work, "MAX_INDEX_ASSIGNMENTS", 12)
    expected = reference_trace_classical(J, d, three.letters) + reference_trace_classical(J, d, two.letters).scale(
        Fraction(1, 2)
    )
    assert trace_classical(necklaces, d) == expected
    for mode in ("quantum", "classical"):
        block = block_matrix(PathAlgebraElement(J, paths), d, mode)
        for row in (1, 2):
            for col in (1, 2):
                assert block[row, col] == _weighted_entry(J, d, paths, row, col, mode == "quantum")


def test_contraction_refusal_is_a_work_limit_error(monkeypatch):
    J = jordan()
    x, xs = Letter(0, False), Letter(0, True)
    monkeypatch.setattr(work, "MAX_INDEX_ASSIGNMENTS", 8)
    four = HH0Element.of(J, canonical_necklace(J, (x, xs, x, xs)))
    word = tuple((letter, t + 1) for t, letter in enumerate((xs, x, x, xs)))
    for call in (
        lambda: trace_classical(four, (2,)),
        lambda: trace_quantum_config(J, (2,), (word,), ()),
    ):
        with pytest.raises(WorkLimitError) as info:
            call()
        assert isinstance(info.value, DimensionError)
        assert str(info.value) == "contraction has 16 index assignments, above the limit 8"
