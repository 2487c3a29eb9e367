"""The packed HH0 form against the ``HBarPolynomial`` route it replaced.

An ``HH0Element`` keeps ``int`` numerators over one denominator, one dict
per power of h keyed by necklace code (or vertex, for an idempotent
class), and builds its ``{Necklace: HBarPolynomial}`` terms only when they
are read.  Every packed operation is checked here through that view
against the old route (``linear_oracle``): term dicts summed, negated and
scaled as ``HBarPolynomial`` values, and the bracket of
``reference_bracket``, which canonicalises every merge of the two term
dicts.  The operands carry ``Fraction`` coefficients, powers of h and
idempotent classes, and half of them are bracket results, so packed before
any view exists.  The canonical-form cases pin that equal elements hold
equal packed forms, a spy pins that a Jacobi check builds neither a
polynomial nor a necklace, and two cases pin that a word's cyclic
composability is checked once, when a public constructor's element is
packed, and never on bracket results.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhq.necklace
from linear_oracle import add, natural_projection as project, scale
from nhq import (
    CompositionError,
    HH0Element,
    Letter,
    Necklace,
    PathAlgebraElement,
    idempotent_class,
    natural_projection,
    necklace_bracket,
)
from nhq.necklace import canonical_necklace
from nhq.quiver import make_path
from nhq.rings import HBarPolynomial
from nhq.sampling import a2, jordan, random_closed_word, small_quivers, two_loop
from test_necklace_oracles import reference_bracket

H = HBarPolynomial.h()
QUIVERS = small_quivers()

_COEFFICIENTS = st.one_of(
    st.fractions(max_denominator=6).filter(bool),
    # several powers of h, some of them Fraction
    st.lists(st.fractions(max_denominator=4), min_size=1, max_size=3).map(HBarPolynomial).filter(bool),
)


# -- operands ----------------------------------------------------------------


@st.composite
def _necklaces(draw, q):
    """A few seeded closed words, their duals (each letter starred, in
    reverse order, so that they contract with the words) and one
    idempotent class: the necklaces of one case."""
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
    words = [random_closed_word(random.Random(seed), q, 4) for seed in seeds]
    words += [tuple(letter.star() for letter in reversed(w)) for w in words]
    vertex = draw(st.integers(0, len(q.vertices) - 1))
    return [canonical_necklace(q, w) for w in words] + [idempotent_class(vertex)]


def _elements(q, necklaces):
    """(element, its terms by the old route): a constructor-built element,
    or a bracket of two, whose packed form exists before its view."""
    terms = st.lists(st.tuples(st.sampled_from(necklaces), _COEFFICIENTS), min_size=1, max_size=4)
    public = terms.map(lambda ts: HH0Element(q, ts))
    built = public.map(lambda x: (x, dict(x.terms)))
    bracketed = st.tuples(public, public).map(lambda xy: (necklace_bracket(*xy), reference_bracket(*xy).terms))
    return st.one_of(built, bracketed)


@st.composite
def _cases(draw):
    q = draw(st.sampled_from(QUIVERS))
    necklaces = draw(_necklaces(q))
    scalar = st.one_of(st.fractions(max_denominator=6), _COEFFICIENTS)
    path = st.integers(0, 10**6).map(lambda seed: make_path(q, random_closed_word(random.Random(seed), q, 4)))
    paths = st.lists(st.tuples(path, _COEFFICIENTS), max_size=3).map(lambda ts: PathAlgebraElement(q, ts))
    return q, draw(_elements(q, necklaces)), draw(_elements(q, necklaces)), draw(scalar), draw(paths)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_cases())
def test_packed_operations_match_the_polynomial_route(case):
    q, (x, X), (y, Y), c, p = case
    assert x.terms == X and dict(x.items()) == X
    assert necklace_bracket(x, y).terms == reference_bracket(HH0Element(q, X), HH0Element(q, Y)).terms
    assert (x + y).terms == add(X, Y)
    assert (x - y).terms == add(X, Y, -1)
    assert (-x).terms == scale(X, -1)
    assert x.scale(c).terms == scale(X, c)
    assert bool(x) == bool(X) and x.is_zero() == (not X)
    assert (x == y) == (X == Y)
    assert x == HH0Element(q, X) and (x + y) - y == x
    for n in list(X) + [idempotent_class(0), Necklace(None, (nhq.Letter(0, False),) * 5)]:
        assert x.coefficient(n) == X.get(n, HBarPolynomial.zero())
    assert natural_projection(p).terms == project(q, p.terms)


# -- canonical form -----------------------------------------------------------


def _loop(q, word):
    letters = {l.name(q): l for a in range(len(q.arrows)) for l in (nhq.Letter(a, False), nhq.Letter(a, True))}
    return canonical_necklace(q, [letters[c] for c in word.split()])


def test_constructor_built_element_equals_the_bracket_result():
    q = two_loop()
    x = HH0Element(q, {_loop(q, "x y"): Fraction(1, 2), _loop(q, "x"): H})
    y = HH0Element.of(q, _loop(q, "x'"), Fraction(2, 3))
    got = necklace_bracket(x, y)
    expected = HH0Element(q, {_loop(q, "y"): Fraction(1, 3), idempotent_class(0): H * Fraction(2, 3)})
    assert got == expected and expected == got
    assert got._sums == expected._sums and got._den == expected._den == 3


def test_equal_rationals_have_one_packed_form():
    q, n = jordan(), _loop(jordan(), "x x'")
    half = HH0Element.of(q, n, Fraction(1, 2))
    two_quarters = HH0Element.of(q, n, 2).scale(Fraction(1, 4))
    quarters = HH0Element.of(q, n, Fraction(1, 4)) + HH0Element.of(q, n, Fraction(1, 4))
    assert two_quarters == half and quarters == half
    for x in (half, two_quarters, quarters):
        assert (x._sums, x._den) == (({"\x00\x01": 1},), 2)
    # the same numerators over another denominator, or times h, make another element
    assert HH0Element.of(q, n, Fraction(1, 3)) != half
    assert half.scale(H) != half and half.scale(H)._sums == ({}, {"\x00\x01": 1})


def test_a_cancelled_term_is_dropped():
    q = two_loop()
    a, b = HH0Element.of(q, _loop(q, "x y"), Fraction(1, 3)), HH0Element.of(q, _loop(q, "y"), H)
    rest = (a + b) - a
    assert rest == b and rest._sums == ({}, {"\x02": 1}) and rest._den == 1
    assert list(rest.terms) == [_loop(q, "y")]
    zero = (a + b) - (b + a)
    assert zero.is_zero() and not zero and zero._sums == () and zero._den == 1 and zero.terms == {}
    # h^1 cancels, h^0 stays: no empty power past the last one
    c = HH0Element.of(q, _loop(q, "x"), 1 + H) - HH0Element.of(q, _loop(q, "x"), H)
    assert c._sums == ({"\x00": 1},)


def test_a_result_whose_only_term_is_an_idempotent_class():
    q = jordan()
    got = necklace_bracket(HH0Element.of(q, _loop(q, "x"), Fraction(3, 4)), HH0Element.of(q, _loop(q, "x'"), 2))
    assert got._sums == ({0: 3},) and got._den == 2
    assert got.terms == {idempotent_class(0): HBarPolynomial.constant(Fraction(3, 2))}
    assert got == HH0Element.of(q, idempotent_class(0), Fraction(3, 2))
    # an idempotent class brackets to zero
    assert necklace_bracket(got, HH0Element.of(q, _loop(q, "x x'"))).is_zero()


def test_a_jacobi_check_builds_no_polynomial_and_no_necklace(monkeypatch):
    """The lie_triple shape: antisymmetry and the Jacobi sum of three
    constructor-built elements with rational and h coefficients, down to
    ``is_zero``, read and make packed forms only."""
    q = two_loop()
    x = HH0Element(q, {_loop(q, "x x' y"): Fraction(1, 2), _loop(q, "y'"): H})
    y = HH0Element(q, {_loop(q, "x y y'"): Fraction(-2, 3), _loop(q, "x'"): 1 - H})
    z = HH0Element(q, {_loop(q, "x y' x'"): Fraction(3, 5), _loop(q, "y y"): 2})
    built = []
    with_coeffs = HBarPolynomial._with_coeffs
    necklace_init = Necklace.__init__
    coded = nhq.necklace._coded
    monkeypatch.setattr(HBarPolynomial, "_with_coeffs", staticmethod(lambda buf: built.append(buf) or with_coeffs(buf)))
    monkeypatch.setattr(Necklace, "__init__", lambda self, *a: built.append(a) or necklace_init(self, *a))
    monkeypatch.setattr(nhq.necklace, "_coded", lambda *a: built.append(a) or coded(*a))
    monkeypatch.setattr(HH0Element, "_public_key", staticmethod(lambda key: built.append(key) or coded(key)))
    br = necklace_bracket
    xy = br(x, y)
    anti = xy + br(y, x)
    jac = br(x, br(y, z)) + br(z, xy) + br(y, br(z, x))
    assert xy and anti.is_zero() and jac.is_zero()
    assert built == []
    # the spies see the view when it is read
    assert xy.terms and built


# -- the cyclic check ------------------------------------------------------------


def test_a_non_composable_word_is_refused_when_its_element_is_packed():
    """A hand-built necklace whose word does not close up is checked when
    the element holding it is packed, in its constructor, so neither the
    bracket nor ``+`` ever reads it."""
    q = a2()
    a = Letter(0, False)
    bad = Necklace(None, (a, a.star(), a))
    good = HH0Element.of(q, canonical_necklace(q, (a, a.star())))
    for operation in (
        lambda: necklace_bracket(HH0Element.of(q, bad), good),
        lambda: necklace_bracket(good, HH0Element.of(q, bad)),
        lambda: HH0Element.of(q, bad) + good,
        lambda: good + HH0Element.of(q, bad),
    ):
        with pytest.raises(CompositionError):
            operation()


def test_bracket_results_are_never_checked_again(monkeypatch):
    """The constructor-built operands of a Jacobi check are checked once
    each; the brackets and sums of bracket results check nothing."""
    q = two_loop()
    x = HH0Element(q, {_loop(q, "x x' y"): Fraction(1, 2), _loop(q, "y'"): H})
    y = HH0Element(q, {_loop(q, "x y y'"): Fraction(-2, 3), _loop(q, "x'"): 1 - H})
    z = HH0Element(q, {_loop(q, "x y' x'"): Fraction(3, 5), _loop(q, "y y"): 2})
    for element in (x, y, z):
        assert element  # packed, and so checked
    checked = []
    check = nhq.necklace._check_cyclic
    monkeypatch.setattr(nhq.necklace, "_check_cyclic", lambda *a: checked.append(a) or check(*a))
    br = necklace_bracket
    xy, yz, zx = br(x, y), br(y, z), br(z, x)
    jac = br(x, yz) + br(z, xy) + br(y, zx)
    assert xy and jac.is_zero() and (xy + br(y, x)).is_zero()
    assert checked == []
    # a public constructor's element is checked when it is packed
    assert HH0Element(q, xy.terms) == xy and len(checked) == len([n for n in xy.terms if not n.is_idempotent])
