"""The packed kernels of both rings against the tuple rings of ``weyl_oracle``.

A ``WeylElement`` or ``PolyElement`` keeps its terms packed and builds the
tuple ``terms`` only when it is read.  Every packed operation is checked
here through that view: products, commutators, Poisson brackets, sums,
scaling by rationals and by polynomials in h, the Rees grading, division
by h, the classical symbol, truth and equality.  The operands include
terms that are not homogeneous in h, ``Fraction`` coefficients, and pairs
packed in different layouts (other arrows, other field widths), which
every binary operation re-packs into their join.  Every result is in the
canonical form of the store: nonzero ``int`` numerators over one positive
``int`` denominator that shares no factor with all of them, so equal
elements from different layouts or routes compare equal, and weights that
cancel leave the denominator 1.  The field-boundary cases fill a field
exactly, need one bit more, push the h field up, and meet on disjoint
arrows of a quiver with 1,000 loops.  Traces of ``Fraction``-weighted sums
are checked against the tuple kernel of ``contraction_oracle``.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contraction_oracle
import weyl_oracle as oracle
from nhq import HBarPolynomial, PolyElement, WeylElement, classical_symbol, poisson, weyl_commutator, weyl_mul
from nhq.expr import parse_hh0_element, parse_qpa_element
from nhq.quiver import make_quiver
from nhq.repspace import _join, poly_mul
from nhq.sampling import a3p, jordan, small_quivers, two_loop
from nhq.quiver import Letter
from nhq.schedler import HeightConfiguration, QPAElement, lift_necklace_combination
from nhq.trace import trace_classical, trace_quantum

H = HBarPolynomial.h()
QUIVERS = small_quivers()


def _coordinates(q, d):
    return [
        (ai, row, col)
        for ai, a in enumerate(q.arrows)
        for row in range(1, d[a.target] + 1)
        for col in range(1, d[a.source] + 1)
    ]


_COEFFICIENTS = st.one_of(
    st.fractions(max_denominator=4).filter(bool),
    # not homogeneous in h: several powers, some of them Fraction
    st.lists(st.fractions(max_denominator=3), min_size=1, max_size=4).map(HBarPolynomial).filter(bool),
)


def _operators(q, d):
    """Up to four terms with exponents up to 4 on a few coordinates; half
    of them are a product of two such, so packed in a product's layout."""
    exponents = st.dictionaries(st.sampled_from(_coordinates(q, d)), st.integers(1, 4), max_size=3)
    terms = st.lists(st.tuples(exponents, exponents, _COEFFICIENTS), max_size=4)
    element = terms.map(
        lambda ts: WeylElement(q, d, [((tuple(sorted(p.items())), tuple(sorted(r.items()))), c) for p, r, c in ts])
    )
    return st.one_of(element, st.tuples(element, element).map(lambda xy: weyl_mul(*xy)))


def _variables(q, d):
    """The polynomial variables (arrow, starred, row, col): (a')_{r,c} has
    the block shape of a's transpose."""
    return [
        (ai, starred, row, col)
        for ai, a in enumerate(q.arrows)
        for starred, rows, cols in ((False, a.target, a.source), (True, a.source, a.target))
        for row in range(1, d[rows] + 1)
        for col in range(1, d[cols] + 1)
    ]


def _polynomials(q, d):
    """Up to four terms with exponents up to 4 and ``Fraction``
    coefficients; half of them are a product of two such, so packed in a
    product's layout."""
    exponents = st.dictionaries(st.sampled_from(_variables(q, d)), st.integers(1, 4), max_size=3)
    terms = st.lists(st.tuples(exponents, st.fractions(max_denominator=4).filter(bool)), max_size=4)
    element = terms.map(lambda ts: PolyElement(q, d, [(tuple(sorted(m.items())), c) for m, c in ts]))
    return st.one_of(element, st.tuples(element, element).map(lambda fg: poly_mul(*fg)))


@st.composite
def _cases(draw):
    q = draw(st.sampled_from(QUIVERS))
    d = tuple(draw(st.integers(1, 2)) for _ in q.vertices)
    scalar = st.one_of(st.fractions(max_denominator=4), _COEFFICIENTS)
    polys = (draw(_polynomials(q, d)), draw(_polynomials(q, d)), draw(st.fractions(max_denominator=4)))
    return draw(_operators(q, d)), draw(_operators(q, d)), draw(scalar), polys


def _canonical(*elements):
    """Each element holds nonzero ``int`` numerators over a positive
    ``int`` denominator, with no factor common to all of them."""
    for x in elements:
        assert type(x._den) is int and x._den > 0
        assert all(type(c) is int and c for c in x._packed.values())
        assert math.gcd(x._den, *x._packed.values()) == 1
    return True


def _check_polynomials(f, g, a):
    assert _canonical(f, g, poly_mul(f, g), poisson(f, g), f + g, f - g, -f, f.scale(a))
    F, G = f.terms, g.terms
    assert poly_mul(f, g).terms == oracle.poly_mul(F, G)
    assert (f * g).terms == oracle.poly_mul(F, G)
    assert poisson(f, g).terms == oracle.poisson(F, G)
    assert (f + g).terms == oracle.combine(F, G)
    assert (f - g).terms == oracle.combine(F, G, -1)
    assert (-f).terms == oracle.scale(F, -1)
    assert f.scale(a).terms == oracle.scale(F, a) and (a * f).terms == oracle.scale(F, a)
    assert bool(f) == bool(F) and (f == g) == (F == G)
    assert (f + g) - g == f


def _rees_degrees_per_top(x) -> set:
    """``WeylElement.rees_degrees`` read one distinct top (derivative half
    and h field) at a time, over all its bit planes."""
    codec = x._codec
    split, planes = codec.split, [(codec._ones << b, b) for b in range(codec.width)]
    tops = {key >> split for key in x._packed}
    return {sum([(top & ones).bit_count() << b for ones, b in planes]) + (top >> split) for top in tops}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_cases())
def test_packed_kernels_match_the_tuple_ring(case):
    x, y, c, polys = case
    X, Y = x.terms, y.terms
    assert _canonical(x, y, weyl_mul(x, y), weyl_commutator(x, y), x + y, x - y, -x, x.scale(c))
    assert _canonical(classical_symbol(x), x.scale(H).div_h())
    # halves that add up: the same numerators over the same denominator
    half = x.scale(Fraction(1, 2))
    assert half + half == x and (half + half)._den == x._den
    assert weyl_mul(x.scale(Fraction(2, 3)), y.scale(Fraction(3, 2))) == weyl_mul(x, y)
    assert weyl_mul(x, y).terms == oracle.weyl_mul(X, Y)
    assert weyl_commutator(x, y).terms == oracle.weyl_commutator(X, Y)
    assert (x + y).terms == oracle.combine(X, Y)
    assert (x - y).terms == oracle.combine(X, Y, -1)
    assert (-x).terms == oracle.scale(X, -1)
    assert x.scale(c).terms == oracle.scale(X, c)
    assert x.rees_degrees() == oracle.rees_degrees(X) == _rees_degrees_per_top(x)
    assert weyl_mul(x, y).rees_degrees() == _rees_degrees_per_top(weyl_mul(x, y))
    assert x.is_divisible_by_h() == oracle.is_divisible_by_h(X)
    if oracle.is_divisible_by_h(X):
        assert x.div_h().terms == oracle.div_h(X)
    else:
        with pytest.raises(ArithmeticError):
            x.div_h()
    assert x.scale(H).div_h() == x
    assert classical_symbol(x).terms == oracle.classical_symbol(X)
    assert bool(x) == bool(X) and x.is_zero() == (not X)
    assert (x == y) == (X == Y)
    # the same element in the join of two layouts
    assert (x + y) - y == x and (x - y).terms == oracle.combine(X, Y, -1)
    # the polynomial ring, and the symbols of two operators as polynomials
    _check_polynomials(*polys)
    _check_polynomials(classical_symbol(x), classical_symbol(y), polys[2])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_cases())
def test_an_element_with_no_terms_is_zero_in_every_context(case):
    """An element built with no terms skips packing: it is zero, equals
    the zero multiple of any element of its context, and adds to any of
    them, whatever their layout."""
    x, y, _, (f, g, _) = case
    for a in (x, y, f, g):
        for terms in (None, {}, []):
            zero = type(a)(a.quiver, a.dim, terms)
            assert zero.is_zero() and not zero and not zero.terms
            assert zero == a.scale(0) and a.scale(0) == zero
            assert zero + a == a and a + zero == a and a - zero == a and zero - a == -a


def _mono(q, d, pos=(), der=(), c=1):
    return WeylElement(q, d, {(tuple(sorted(pos)), tuple(sorted(der))): c})


def _check(product, x, y):
    assert product.terms == oracle.weyl_mul(x.terms, y.terms)


X11, X12 = (0, 1, 1), (0, 1, 2)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_rees_degrees_at_each_field_width(width):
    # every bit plane of the derivative fields is read: full fields, single
    # bits, a sum of fields past one field's range, and h powers above them
    q, d = jordan(), (2,)
    top = (1 << width) - 1
    coords = [X11, X12, (0, 2, 1), (0, 2, 2)]
    rng = random.Random(width)
    terms = {
        ((), ()): 1,
        (((X11, top),), ()): H,
        ((), tuple((v, top) for v in coords)): Fraction(1, 3),
        (((X12, 1),), ((X11, 1), (X12, top))): HBarPolynomial((0, 0, 2)),
    }
    for _ in range(8):
        der = tuple(sorted((v, rng.randint(1, top)) for v in rng.sample(coords, rng.randint(1, 4))))
        terms[((), der)] = HBarPolynomial.h(rng.randint(0, 9)) * rng.randint(1, 5)
    x = WeylElement(q, d, terms)
    assert x._codec.width == width
    assert x.rees_degrees() == oracle.rees_degrees(x.terms) == _rees_degrees_per_top(x)
    assert 4 * top in x.rees_degrees()


def test_a_product_exponent_that_fills_a_field_exactly():
    # the largest exponents 3 and 4 add up to 7, which fills a field of
    # three bits, next to a field that is full too
    q, d = jordan(), (2,)
    x = _mono(q, d, [(X11, 3), (X12, 3)])
    y = _mono(q, d, [(X11, 4), (X12, 4)], [(X11, 2)])
    p = weyl_mul(x, y)
    assert (x._codec.width, y._codec.width, p._codec.width) == (2, 3, 3)
    assert p.terms == {(((X11, 7), (X12, 7)), ((X11, 2),)): HBarPolynomial.one()}
    _check(p, x, y)
    # d^7 x^7 contracts up to seven times, from two full fields
    dd, xx = _mono(q, d, der=[(X11, 7)]), _mono(q, d, [(X11, 7)])
    _check(weyl_mul(dd, xx), dd, xx)
    assert weyl_mul(dd, xx).rees_degrees() == {7}


def test_a_product_exponent_that_needs_one_more_bit():
    q, d = jordan(), (2,)
    x = _mono(q, d, [(X11, 4), (X12, 1)], [(X12, 4)])
    p = weyl_mul(x, x)
    assert x._codec.width == 3 and p._codec.width == 4
    _check(p, x, x)
    assert ((X11, 8), (X12, 2)) in {pos for pos, _ in p.terms}
    assert weyl_commutator(x, x).is_zero()


def test_an_h_power_above_the_field_width_after_scaling():
    # the h field is the top one: h^7 and h^8 sit above fields of 3 bits
    q, d = jordan(), (2,)
    x = _mono(q, d, [(X11, 4)], [(X11, 3)], Fraction(1, 2))
    for k in (7, 8, 15):
        hk = x.scale(HBarPolynomial.h(k))
        assert hk.terms == oracle.scale(x.terms, HBarPolynomial.h(k))
        assert hk.rees_degrees() == {3 + k}
        _check(weyl_mul(hk, x), hk, x)
        assert weyl_commutator(hk, x).terms == oracle.weyl_commutator(hk.terms, x.terms)
        back = hk
        for _ in range(k):
            back = back.div_h()
        assert back == x and not back.is_divisible_by_h()


def test_operands_on_disjoint_arrows_of_a_thousand_loops():
    many = make_quiver(["v"], [(f"a{i}", "v", "v") for i in range(1000)])
    d = (1,)
    x = _mono(many, d, [((3, 1, 1), 3)], [((3, 1, 1), 1)], 2)
    y = _mono(many, d, [((999, 1, 1), 1)], [((999, 1, 1), 2)], H + 1)
    p = weyl_mul(x, y)
    assert p._codec.arrows == (3, 999) and p._codec.split == 2 * p._codec.width
    _check(p, x, y)
    assert weyl_commutator(x, y).is_zero()
    assert (x + y).terms == oracle.combine(x.terms, y.terms)
    assert x != y and (x + y) - y == x


def _poly(q, d, mono, c=1):
    return PolyElement(q, d, {tuple(sorted(mono)): c})


def test_polynomial_exponents_that_fill_a_field_and_need_one_more_bit():
    q, d = jordan(), (2,)
    x11, y12 = (0, False, 1, 1), (0, True, 1, 2)  # y12 = (x')_{1,2}, conjugate to (x)_{2,1}
    x21 = (0, False, 2, 1)
    f = _poly(q, d, [(x11, 3), (y12, 3)], Fraction(1, 2))
    g = _poly(q, d, [(x11, 4), (y12, 4), (x21, 2)], 3)
    p = poly_mul(f, g)
    # 3 + 4 = 7 fills a field of three bits, next to a full one
    assert (f._codec.width, g._codec.width, p._codec.width) == (2, 3, 3)
    assert p.terms == {((x11, 7), (x21, 2), (y12, 7)): Fraction(3, 2)}
    for a, b in ((f, g), (g, f), (g, g)):
        _check_polynomials(a, b, Fraction(-2, 3))
    # 4 + 4 = 8 needs a fourth bit
    h = _poly(q, d, [(x11, 4), (x21, 1), (y12, 4)])
    hh = poly_mul(h, h)
    assert h._codec.width == 3 and hh._codec.width == 4
    assert hh.terms == {((x11, 8), (x21, 2), (y12, 8)): Fraction(1)}
    _check_polynomials(hh, h, Fraction(5))
    # the bracket takes one unit off the full fields of conjugates
    k = _poly(q, d, [((0, True, 1, 1), 1), (y12, 1)])
    assert poisson(hh, k).terms == oracle.poisson(hh.terms, k.terms) != {}
    _check_polynomials(hh, k, Fraction(1, 3))


def test_polynomials_have_no_h():
    f = _poly(jordan(), (1,), [((0, False, 1, 1), 2)])
    for name in ("div_h", "rees_degrees", "is_divisible_by_h"):
        assert not hasattr(f, name) and not hasattr(PolyElement, name)
    with pytest.raises(TypeError):
        f.scale(H)
    with pytest.raises(TypeError):
        f.scale(HBarPolynomial.one())


def test_fractions_that_cancel_leave_the_denominator_one():
    q, d = jordan(), (2,)
    x = _mono(q, d, [(X11, 2)], [(X12, 1)], 3) + _mono(q, d, [(X12, 1)], c=H - 2)
    assert x._den == 1
    half, third = x.scale(Fraction(1, 2)), x.scale(Fraction(1, 3))
    assert (half._den, third._den) == (2, 3)
    assert half + half == x and (half + half)._den == 1
    assert third + third + third == x and (third + third + third)._den == 1
    assert half.scale(2) == x and (-half).scale(-2)._den == 1
    # 1/2 + 1/3 = 5/6; a sixth more is 1
    assert (half + third)._den == 6 and (half + third + x.scale(Fraction(1, 6))) == x
    # products and brackets: the denominators multiply, then cancel
    y = _mono(q, d, [(X12, 1)], [(X11, 2)], 4)
    assert weyl_mul(half, y.scale(Fraction(1, 2)))._den == 1  # 3/2 * 2 and (h-2)/2 * 2 are integral
    assert weyl_commutator(half, y.scale(2)) == weyl_commutator(x, y)
    # the symbol drops the h terms; those left may share a factor the
    # denominator kept for the dropped ones: (2 x + h x)/2 -> x
    z = _mono(q, d, [(X11, 1)], c=1 + Fraction(1, 2) * H)
    assert z._den == 2 and classical_symbol(z)._den == 1
    assert classical_symbol(z) == classical_symbol(_mono(q, d, [(X11, 1)]))
    f = _poly(q, d, [((0, False, 1, 1), 1)], Fraction(1, 2))
    g = _poly(q, d, [((0, True, 1, 1), 1)], 2)
    assert poisson(f, g)._den == 1 and poisson(f, g) == _poly(q, d, [], 1)
    assert f + f == _poly(q, d, [((0, False, 1, 1), 1)]) and (f + f)._den == 1


def test_equal_elements_from_different_layouts_compare_equal():
    q, d = jordan(), (2,)
    terms = {(((X11, 1),), ()): Fraction(2, 4), (((X12, 3),), ((X11, 1),)): Fraction(-3, 2)}
    x = WeylElement(q, d, terms)
    # the same element in wider fields and in a layout with another arrow,
    # each through a join, and with its coefficients built another way
    big = _mono(q, d, [(X11, 7)])
    wide = x + big - big
    many = make_quiver(["v"], [("x", "v", "v"), ("y", "v", "v")])
    other = WeylElement(many, d, {((((1, 1, 1), 1),), ()): 1})
    joined = WeylElement(many, d, terms) + other - other
    scaled = WeylElement(q, d, {m: 2 * c for m, c in terms.items()}).scale(Fraction(1, 2))
    assert wide._codec.width > x._codec.width and joined._codec.arrows == (0, 1)
    for a, b in ((x, wide), (x, scaled), (wide, scaled)):
        assert a == b and b == a and a._den == b._den == 2
        _, _, pa, pb = _join(a, b, False)
        assert pa == pb
    assert joined == WeylElement(many, d, terms) and joined._den == 2 and joined.terms == x.terms
    assert x != x.scale(Fraction(1, 3)) and x != x.scale(H)
    f = PolyElement(q, d, {(((0, False, 1, 1), 1),): Fraction(1, 3)})
    assert poly_mul(f, PolyElement.constant(q, d, 3)) == PolyElement.coordinate(q, d, 0, False, 1, 1)


@pytest.mark.parametrize(
    "quiver, dim, necklaces, configurations",
    [
        (two_loop(), (2,), "1/2*[x.y'] - 2/3*[x.x.y'] + 5/6*[y.y'.x.x']", "1/2*(x,2)(y',1) - 2/3*h*(x,1)(x',2)(y,3) + 5/6*(y,3)(y',1)(x,4)(x',2)"),
        (a3p(), (2, 2, 2, 1), "1/2*[a0.a0'] + 1/3*[a1'.a1] - 1/6*[a2.a1.a1'.a2']", "1/2*(a0',1)(a0,2) + 1/3*(a1,2)(a1',1) - 1/6*h*(a0,1)(a0',2)"),
    ],
    ids=["two_loop", "a3p"],
)
def test_fraction_weighted_traces_equal_the_oracle_sums(quiver, dim, necklaces, configurations):
    """Tr of a sum weighted by denominators 2, 3 and 6 is the weighted sum
    of the tuple kernel's traces, on both sides and as an element of the
    one rational form."""
    x = parse_hh0_element(quiver, necklaces)
    expected = PolyElement(quiver, dim)
    for cfg, c in lift_necklace_combination(x).items():
        traced = contraction_oracle.contract_letters(quiver, dim, cfg.components, False)
        expected += traced.scale(c.constant_term() * math.prod([dim[v] for v in cfg.idempotents]))
    got = trace_classical(x, dim)
    assert got == expected and _canonical(got) and got._den in (1, 2, 3, 6)
    y = parse_qpa_element(quiver, configurations)
    expected = WeylElement(quiver, dim)
    for cfg, c in y.items():
        traced = contraction_oracle.contract_letters(quiver, dim, cfg.components, True)
        expected += traced.scale(c * math.prod([dim[v] for v in cfg.idempotents]))
    got = trace_quantum(y, dim)
    assert got == expected and _canonical(got) and got._den in (1, 2, 3, 6)
    assert got.terms == expected.terms


def _component(quiver, *letters):
    """One component of the (name, height) ``letters``, a starred name
    ending in a prime."""
    arrows = {a.name: i for i, a in enumerate(quiver.arrows)}
    return tuple((Letter(arrows[name.rstrip("'")], name.endswith("'")), h) for name, h in letters)


def test_weights_that_cancel_in_a_trace_leave_the_denominator_one():
    """x and y' commute, and so do y and x': each pair of configurations
    below has one trace, so weights over 2, 3 and 6 add up to integers, and
    the trace's numerators over 6 share the factor 6."""
    q, d = two_loop(), (2,)
    weighted = [
        (Fraction(1, 2), (("x", 1), ("y'", 2))),
        (Fraction(1, 2), (("y'", 1), ("x", 2))),
        (Fraction(1, 3), (("x", 1), ("y", 2), ("x'", 3))),
        (Fraction(2, 3), (("x", 1), ("y", 3), ("x'", 2))),
        (Fraction(1, 6), (("x", 1), ("y", 2))),
        (Fraction(-1, 6), (("y", 1), ("x", 2))),
    ]
    y = QPAElement(q, {HeightConfiguration((_component(q, *letters),), ()): w for w, letters in weighted})
    assert len(y.terms) == len(weighted)
    expected = WeylElement(q, d)
    for w, letters in weighted:
        expected += contraction_oracle.contract_letters(q, d, (_component(q, *letters),), True).scale(w)
    got = trace_quantum(y, d)
    assert got == expected and got._den == 1 and _canonical(got) and got
