"""Oracles for the reduction-ideal decomposition and the trace character.

``IdealDecomposition.verified`` is the exact ratio solve in
``decompose_ideal_image``, and ``kernel_constraint`` solves the character
once because it is affine in r (unit slope) and independent of lambda.
These tests keep the checks those shortcuts replace: re-expanding each
decomposition and comparing it with the traced generator, and re-solving
the character at every unit r.

The library checks a decomposition on packed int dicts, one per Rees grade
(``repspace.ideal_image``), and unpacks its elements only when they are
read.  The route it replaced is the oracle here: the target as
``trace_quantum(ideal_generator(...))``, chi read with ``HBarPolynomial``
arithmetic, and the entries and their re-expansion by the tuple kernel
(``contraction_oracle``).  The library traces Tr_q(p) and the
re-expansion as closed words, the marked word alone and followed by each
moment pair; the entries route they replaced, each entry times the
position and derivative tokens of tau's normal-ordered pairs
(``repspace.tau_pairs``) and the diagonal entries summed, is the oracle
for both.  The general route, a sum of ``weyl_mul(entry, tau(direction)
+ constant)``, is an oracle too, with tau written out arrow by arrow.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhq import (
    GlElement,
    HBarPolynomial,
    Letter,
    ReductionParameters,
    WeylElement,
    canonical_necklace,
    decompose_ideal_image,
    ideal_generator,
    kernel_constraint,
    make_params,
    solve_chi,
    tau,
    trace_quantum,
    weyl_mul,
)
from nhq import repspace, trace
from nhq.expr import format_element
from nhq.quiver import _code
from nhq.repspace import tau_pairs
from nhq.sampling import a2, a3p, all_dimension_vectors, jordan, small_quivers, two_loop
from nhq.schedler import marked_word
from nhq.trace import compare_report, enumerate_generators
import contraction_oracle
from contraction_oracle import times_token


def reference_tau(quiver, dim, v):
    """tau(v) arrow by arrow: e^i_{p,q} acts by sum_j x_{(a,j,p)} d_{(a,j,q)}
    over arrows leaving i and by -sum_j x_{(a,q,j)} d_{(a,p,j)} over arrows
    entering i."""
    out = WeylElement(quiver, dim)
    for (i, p, q), c in v.items():
        for ai, arrow in enumerate(quiver.arrows):
            if arrow.source == i:
                for j in range(1, dim[arrow.target] + 1):
                    term = weyl_mul(
                        WeylElement.position(quiver, dim, ai, j, p, c),
                        WeylElement.derivative(quiver, dim, ai, j, q),
                    )
                    out = out + term
            if arrow.target == i:
                for j in range(1, dim[arrow.source] + 1):
                    term = weyl_mul(
                        WeylElement.position(quiver, dim, ai, q, j, -c),
                        WeylElement.derivative(quiver, dim, ai, p, j),
                    )
                    out = out + term
    return out


def reference_re_expand(dec, lam, chi):
    """sum over dec.pairs of weyl_mul(entry, tau(direction) + (lambda - h chi)
    tr(direction)), tr the block trace at the generator's vertex."""
    quiver, dim = dec.quiver, dec.dim
    out = WeylElement(quiver, dim)
    for entry, direction in dec.pairs:
        w = reference_tau(quiver, dim, direction)
        tr_dir = sum(
            (c for (i, p, q), c in direction.items() if i == dec.vertex and p == q),
            Fraction(0),
        )
        const = HBarPolynomial((lam * tr_dir, -chi * tr_dir))
        if const:
            w = w + WeylElement.constant(quiver, dim, const)
        out = out + weyl_mul(entry, w)
    return out


def _seeded_params(rng, nv):
    def draw():
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nv))

    return ReductionParameters(draw(), draw())


def _cases():
    for name, quiver in (("jordan", jordan()), ("a2", a2()), ("two_loop", two_loop())):
        for dim in all_dimension_vectors(quiver, 2):
            yield pytest.param(quiver, dim, 3, id=f"{name}{dim}")
    yield pytest.param(a3p(), (2, 2, 2, 1), 2, id="a3p(2, 2, 2, 1)")


@pytest.mark.parametrize("quiver,dim,max_len", list(_cases()))
def test_verified_is_the_re_expansion_check(quiver, dim, max_len):
    rng = random.Random(str(dim))
    generators = enumerate_generators(quiver, max_len)
    assert generators
    for params in (None, _seeded_params(rng, len(quiver.vertices))):
        for necklace, vertex, mark in generators:
            dec = decompose_ideal_image(quiver, dim, necklace, vertex, mark, params)
            assert dec.verified == (dec.target - dec.re_expand()).is_zero()
            assert dec.verified
            lam = Fraction(0) if params is None else params.lam[vertex]
            seeded = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for chi in (Fraction(0), dec.chi_value, seeded):
                assert dec.re_expand(chi) == reference_re_expand(dec, lam, chi)


@st.composite
def _gl_elements(draw):
    quiver = draw(st.sampled_from(small_quivers()))
    dim = tuple(draw(st.integers(1, 3)) for _ in quiver.vertices)
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(dim) - 1))
        p, q = draw(st.integers(1, dim[i])), draw(st.integers(1, dim[i]))
        terms[i, p, q] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return quiver, dim, GlElement(quiver, dim, terms)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_gl_elements())
def test_tau_pairs_rebuild_tau(case):
    quiver, dim, v = case
    expected = reference_tau(quiver, dim, v)
    assert tau(quiver, dim, v) == expected
    # the token route of the decomposition: 1 * x_pos, then * d_der
    out: dict = {}
    for (i, p, q), c in v.items():
        for sign, pos, der in tau_pairs(quiver, dim, i, p, q):
            moved: dict = {}
            times_token({((), ()): HBarPolynomial.constant(c * sign)}, (pos, False), moved)
            times_token(moved, (der, True), out)
    assert WeylElement(quiver, dim, out) == expected


def oracle_entries(quiver, dim, p, vertex, mark):
    """The nonzero entries ((l_first, l_last), WeylElement) of the operator
    matrix product of the marked word's letters in word order, sorted, by
    the tuple kernel; the identity matrix for the empty word."""
    word = marked_word(quiver, p, vertex, mark)
    ends = range(1, dim[vertex] + 1)
    if word:
        cycle = tuple((letter, t) for t, letter in enumerate(word))
        entries = contraction_oracle.contract_letters(quiver, dim, (cycle,), True, (ends, ends))
    else:
        entries = {(l, l): WeylElement.constant(quiver, dim, 1) for l in ends}
    return sorted((key, e) for key, e in entries.items() if e)


def oracle_re_expansion(quiver, dim, vertex, entries):
    """(E, T) by the entries route: E = sum M_{l1,l2} tau(-e_{l1,l2}), each
    entry times tau's position and derivative tokens, and T the sum of the
    diagonal entries."""
    expanded = WeylElement(quiver, dim, contraction_oracle.tau_expansion(quiver, dim, vertex, entries))
    diagonal = WeylElement(quiver, dim)
    for (l_first, l_last), e in entries:
        if l_first == l_last:
            diagonal = diagonal + e
    return expanded, diagonal


def oracle_decomposition(quiver, dim, p, vertex, mark, params):
    """The decomposition by the route the packed check replaced.

    The target is ``trace_quantum(ideal_generator(...))``, with
    ``HBarPolynomial`` coefficients; the entries are the tuple kernel's
    open-word entries of the marked cycle, and the expansion the tau route
    of their terms minus lambda times their trace.  chi is read at the
    least monomial of Tr_q(p), one h-degree above its first nonzero one,
    and kept only when target == re_expand(chi)."""
    params = make_params(quiver) if params is None else params
    target = trace_quantum(ideal_generator(quiver, p, vertex, mark, params), dim)
    entries = oracle_entries(quiver, dim, p, vertex, mark)
    expansion, trace_of_p = oracle_re_expansion(quiver, dim, vertex, entries)
    expansion = expansion - trace_of_p.scale(params.lam[vertex])
    chi = Fraction(0)
    if trace_of_p:
        mono = min(trace_of_p.terms)
        coeff = trace_of_p.terms[mono]
        k = next(i for i, c in enumerate(coeff.coeffs) if c)
        gap = target.coefficient(mono) - expansion.coefficient(mono)
        chi = gap.coefficient(k + 1) / coeff.coefficient(k)
    re_expanded = expansion + trace_of_p.scale(HBarPolynomial((0, chi)))
    return SimpleNamespace(
        target=target,
        pairs=tuple(
            (e, GlElement.elementary(quiver, dim, vertex, l_first, l_last, -1))
            for (l_first, l_last), e in entries
        ),
        trace_of_p=trace_of_p,
        expansion=expansion,
        chi_value=chi if target == re_expanded else None,
    )


def _assert_matches_oracle(quiver, dim, p, vertex, mark, params, dec=None):
    if dec is None:
        dec = decompose_ideal_image(quiver, dim, p, vertex, mark, params)
    want = oracle_decomposition(quiver, dim, p, vertex, mark, params)
    assert dec.target == want.target
    assert dec.pairs == want.pairs
    assert dec.trace_of_p == want.trace_of_p
    assert dec.expansion == want.expansion
    assert dec.chi_value == want.chi_value
    assert dec.verified == (want.chi_value is not None)
    return dec


@st.composite
def _generators(draw):
    quiver = draw(st.sampled_from(small_quivers()))
    dim = tuple(draw(st.integers(1, 2)) for _ in quiver.vertices)
    generators = enumerate_generators(quiver, 3)
    p, vertex, mark = draw(st.sampled_from(generators))
    rng = random.Random(draw(st.integers(0, 2**32)))
    params = draw(st.sampled_from([None, _seeded_params(rng, len(quiver.vertices))]))
    return quiver, dim, p, vertex, mark, params


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_generators())
def test_packed_decomposition_matches_the_tuple_kernel(case):
    _assert_matches_oracle(*case)


@pytest.mark.parametrize("quiver", small_quivers(), ids=lambda q: ",".join(a.name for a in q.arrows))
def test_closed_word_traces_equal_the_entries_times_tau(quiver):
    # the image traces T and E from closed words; the open-word entries,
    # their diagonal sum and their tau re-expansion are the reference
    for dim in all_dimension_vectors(quiver, 2):
        for p, vertex, mark in enumerate_generators(quiver, 3):
            image = decompose_ideal_image(quiver, dim, p, vertex, mark)
            entries = oracle_entries(quiver, dim, p, vertex, mark)
            expanded, diagonal = oracle_re_expansion(quiver, dim, vertex, entries)
            assert image.expansion == expanded  # the element of ``image.expanded``
            assert image.trace_of_p == diagonal  # the element of ``image.diagonal``


def _nonzero_vectors(nv):
    value = st.builds(Fraction, st.integers(1, 3) | st.integers(-3, -1), st.integers(1, 2))
    return st.tuples(*[value] * nv)


@pytest.mark.parametrize("kind", ["none", "r", "lambda", "both"])
@pytest.mark.parametrize("quiver", small_quivers(), ids=lambda q: ",".join(a.name for a in q.arrows))
@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_decomposition_equals_the_traced_generator_oracle(quiver, kind, data):
    nv = len(quiver.vertices)
    dim = data.draw(st.tuples(*[st.integers(1, 2)] * nv))
    p, vertex, mark = data.draw(st.sampled_from(enumerate_generators(quiver, 3)))
    zero = (Fraction(0),) * nv
    r, lam = data.draw(_nonzero_vectors(nv)), data.draw(_nonzero_vectors(nv))
    cases = {
        "none": None,
        "r": ReductionParameters(r, zero),
        "lambda": ReductionParameters(zero, lam),
        "both": ReductionParameters(r, lam),
    }
    assert _assert_matches_oracle(quiver, dim, p, vertex, mark, cases[kind]).verified
    # one kept image, read back and bound to each of the four parameter sets
    for params in cases.values():
        dec = decompose_ideal_image(quiver, dim, p, vertex, mark, params)
        assert _assert_matches_oracle(quiver, dim, p, vertex, mark, params, dec).verified


@pytest.mark.parametrize("starred", [True, False])
def test_a_tau_term_raises_an_exponent_above_the_letter_count(starred):
    # the (1, 1) entry of a 7-letter Jordan power holds one coordinate to the
    # 7th; the tau terms of e_{1,1} at j = 1 raise it to the 8th, in a field
    # sized for the 9 token products of entry and tau term
    quiver, dim, m = jordan(), (2,), 7
    word, ends = (Letter(0, starred),) * m, range(1, dim[0] + 1)
    codec = repspace._ideal_codec(quiver, dim, 0, word)
    assert codec.width == 4
    open_word = ((_code(word),), (tuple(range(1, m + 1)),), ())
    packed = repspace.contracted(quiver, dim, [(open_word, ((0, 1),))], True, (ends, ends), codec)[1, 1]._packed
    entry = WeylElement(quiver, dim, codec.unpack(packed, 1, True))
    tops = []
    for _sign, pos, der in tau_pairs(quiver, dim, 0, 1, 1):
        moved: dict = {}
        out: dict = {}
        repspace._times(packed, codec.position(pos), codec.mask, moved)
        repspace._times(moved, codec.derivative(der), codec.mask, out)
        term = weyl_mul(
            WeylElement.position(quiver, dim, *pos), WeylElement.derivative(quiver, dim, *der)
        )
        product = WeylElement(quiver, dim, codec.unpack(out, 1, True))
        assert product == weyl_mul(entry, term)
        tops.append(max(e for mono in product.terms for half in mono for _, e in half))
    assert max(tops) == m + 1
    # the decomposition of that power and of mixed words, by both kernels
    power, other = [Letter(0, starred)] * m, [Letter(0, not starred)]
    for letters in (power, power[1:] + other):
        p = canonical_necklace(quiver, letters)
        dec = _assert_matches_oracle(quiver, dim, p, 0, 0, None)
        assert dec.verified
        assert dec.re_expand() == reference_re_expand(dec, Fraction(0), dec.chi_value)


@pytest.mark.parametrize(
    "quiver,dim",
    [(a3p(), (2, 2, 2, 1)), (a2(), (2, 1)), (jordan(), (2,))],
    ids=["a3p", "a2", "jordan"],
)
def test_character_is_affine_in_r_and_free_of_lambda(quiver, dim):
    nv = len(quiver.vertices)
    zero = (Fraction(0),) * nv
    _, base = solve_chi(quiver, dim)
    assert base is not None
    lam = tuple(Fraction(3 - 2 * i) for i in range(nv))
    for k in range(nv):
        unit = tuple(Fraction(int(i == k)) for i in range(nv))
        for params in (ReductionParameters(unit, zero), ReductionParameters(unit, lam)):
            _, shifted = solve_chi(quiver, dim, params)
            assert shifted is not None
            assert tuple(s - b for s, b in zip(shifted.values, base.values)) == unit


def test_a_target_outside_the_character_span_fails(wrong_spliced_int):
    quiver, dim = jordan(), (2,)
    # an h-free term without derivatives cannot be a multiple of h Tr_q(p)
    cycle = canonical_necklace(quiver, (Letter(0, False), Letter(0, True)))
    dec = decompose_ideal_image(quiver, dim, cycle, 0, 1)
    assert dec.chi_value is None
    assert dec.verified is False
    residual = dec.target - dec.re_expand()
    assert not residual.is_zero()
    report = compare_report("ideal", [(None, dec.target, dec.re_expand())])
    assert report.status == "failed"
    assert report.residual == format_element(residual)
    assert f"  residual: {report.residual}" in report.to_text()

    chi_report, chi = solve_chi(quiver, dim)
    assert chi is None and chi_report.status == "failed"
    assert kernel_constraint(quiver, dim).status == "failed"


@pytest.mark.parametrize("r,lam", [(0, 1), (1, 0)], ids=["lambda", "r"])
def test_a_wrong_int_in_the_traced_cycle_fails(monkeypatch, r, lam):
    # P enters the target as (-lambda + h r) P: at the cycle's own grade
    # through lambda, where it must equal Tr_q(p), and one grade up through r
    image_of = trace.ideal_image

    def bumped(*args):
        image = image_of(*args)
        key = max(image.cycle)
        image.cycle = {**image.cycle, key: image.cycle[key] + 1}
        return image

    monkeypatch.setattr(trace, "ideal_image", bumped)
    quiver, dim = jordan(), (2,)
    cycle = canonical_necklace(quiver, (Letter(0, False), Letter(0, True)))
    params = ReductionParameters((Fraction(r),), (Fraction(lam),))
    dec = decompose_ideal_image(quiver, dim, cycle, 0, 1, params)
    assert dec.chi_value is None and not dec.verified
    report = compare_report("ideal", [(None, dec.target, dec.re_expand())])
    assert report.residual == format_element(dec.target - dec.re_expand())
    # the bump is one unit of x_{2,2} d_{2,2} in P; it was made on the
    # image as it left ``repspace.ideal_image``, so the kept parts are clean
    monkeypatch.undo()
    x22 = ((0, 2, 2), 1)
    bump = WeylElement(quiver, dim, {((x22,), (x22,)): HBarPolynomial((-lam, r))})
    assert dec.target - decompose_ideal_image(quiver, dim, cycle, 0, 1, params).target == bump


def _ratio_oracle(lhs: dict, base: dict, shift: int):
    """The chi with lhs = chi base moved ``shift`` up, read at one key of
    base and checked on every key of both (the comparison ``IdealDecomposition.chi``
    made before it read the moved base in place), or None."""
    moved = {key + shift: c for key, c in base.items()}
    if not moved:
        return None if lhs else Fraction(0)
    k0 = next(iter(moved))
    a, b = moved[k0], lhs.get(k0, 0)
    if any(lhs.get(key, 0) * a != b * moved.get(key, 0) for key in lhs.keys() | moved.keys()):
        return None
    return Fraction(b, a)


def test_the_ratio_of_two_int_dicts_matches_the_full_comparison():
    shift = 1 << 6
    base = {1: 2, 5: -4}
    # as many keys as base, none of them a moved key of base: no chi
    assert repspace._ratio({2 + shift: 3, 7 + shift: 1}, base, shift) is None
    assert repspace._ratio({1 + shift: 3, 5 + shift: -6}, base, shift) == Fraction(3, 2)
    rng = random.Random(3030)
    for case in range(3000):
        base = {rng.randrange(16): rng.choice((-3, -1, 1, 2, 5)) for _ in range(rng.randint(0, 4))}
        chi = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        lhs = {key + shift: chi * c for key, c in base.items()}
        for _ in range(rng.choice((0, 0, 1, 2))):  # move, drop or add a key
            key = rng.randrange(16) + rng.choice((0, shift))
            lhs[key] = rng.choice((0, 0, 1, -2, chi))
        lhs = {key: c for key, c in lhs.items() if c}
        assert repspace._ratio(lhs, base, shift) == _ratio_oracle(lhs, base, shift), case
