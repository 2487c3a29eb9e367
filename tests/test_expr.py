import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhq import ExpressionError, HBarPolynomial, Letter, Path, PathAlgebraElement
from nhq.expr import (
    format_hh0,
    format_path_element,
    format_poly,
    format_qpa,
    format_weyl,
    parse_hh0_element,
    parse_path_element,
    parse_qpa_element,
    tokenize,
)
from nhq.sampling import (
    random_coefficient,
    random_configuration,
    random_dimension,
    random_hh0,
    random_path_element,
    random_quiver,
)
from nhq.schedler import straighten
from nhq.trace import lift_necklace_combination, trace_classical, trace_quantum

H = HBarPolynomial.h()


def test_tokenize_positions():
    tokens = tokenize("[x] + 2*[ev]")
    assert tokens[0] == ("sym", "[", 0)
    assert ("int", "2", 6) in tokens
    with pytest.raises(ExpressionError) as err:
        tokenize("[x] ?")
    assert err.value.position == 4


def test_parse_paths(J, A2):
    from fractions import Fraction

    x = parse_path_element(J, "x.x'")
    assert list(x.terms) == [Path((Letter(0, False), Letter(0, True)))]
    assert parse_path_element(A2, "a.a").is_zero()  # non-composable product
    assert parse_path_element(J, "ev") == PathAlgebraElement.trivial(J, 0)
    assert parse_path_element(J, "3/2*x").coefficient(
        Path((Letter(0, False),))
    ) == HBarPolynomial.constant(Fraction(3, 2))


def test_parse_scalars_and_h(J):
    e = parse_path_element(J, "h^2*x - x")
    key = Path((Letter(0, False),))
    assert e.coefficient(key) == HBarPolynomial((-1, 0, 1))
    with pytest.raises(ExpressionError):
        parse_path_element(J, "x +")
    with pytest.raises(ExpressionError):
        parse_path_element(J, "unknown")


def test_parse_hh0(J):
    x = parse_hh0_element(J, "[x.x'] + 2*[ev]")
    assert len(x.terms) == 2
    with pytest.raises(ExpressionError):
        parse_hh0_element(J, "x")  # a bare path is not a class
    with pytest.raises(ExpressionError):
        parse_hh0_element(J, "[x]*[x]")  # no product on classes
    with pytest.raises(ExpressionError):
        parse_hh0_element(J, "[2]")  # scalars cannot be projected


def test_parse_rejects_open_path_in_brackets(A2):
    # [a] is the zero class (open path); representable but zero
    assert parse_hh0_element(A2, "[a]").is_zero()


def test_parse_qpa_heights_must_be_permutation(J):
    with pytest.raises(ExpressionError):
        parse_qpa_element(J, "(x,1)(x',3)")
    with pytest.raises(ExpressionError):
        parse_qpa_element(J, "(x,1)(x',1)")


def test_parse_qpa_basic(J):
    one = parse_qpa_element(J, "1")
    assert list(one.terms)[0].is_unit
    elem = parse_qpa_element(J, "h*ev & ev")
    (cfg,) = elem.terms
    assert cfg.idempotents == (0, 0)
    assert elem.terms[cfg] == H


def test_parse_qpa_normalizes(J):
    # non-canonical input straightens on parse
    elem = parse_qpa_element(J, "(x',1)(x,2)")
    assert elem == parse_qpa_element(J, "(x,1)(x',2) + h*ev & ev")


def test_round_trip_path_elements(J, A3P):
    rng = random.Random(51)
    for q in (J, A3P):
        for _ in range(15):
            x = random_path_element(rng, q)
            assert parse_path_element(q, format_path_element(x)) == x


def test_round_trip_hh0(J, A3P):
    rng = random.Random(52)
    for q in (J, A3P):
        for _ in range(15):
            x = random_hh0(rng, q)
            assert parse_hh0_element(q, format_hh0(x)) == x


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_property_on_sampled_elements(seed):
    rng = random.Random(seed)
    q = random_quiver(rng)
    x = random_hh0(rng, q, max_len=6, max_terms=4)
    x = x.scale(random_coefficient(rng, with_h=True))
    assert parse_hh0_element(q, format_hh0(x)) == x
    p = random_path_element(rng, q, max_len=6, max_terms=4)
    p = p.scale(random_coefficient(rng, with_h=True))
    assert parse_path_element(q, format_path_element(p)) == p


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_property_on_sampled_traces(seed):
    from nhq.expr import parse_poly_element, parse_weyl_element

    rng = random.Random(seed)
    q = random_quiver(rng)
    dim = random_dimension(rng, q, max_dim=2)
    x = random_hh0(rng, q, max_len=4, max_terms=3)
    c = random_coefficient(rng, with_h=True)
    w = trace_quantum(lift_necklace_combination(x), dim).scale(c)
    assert parse_weyl_element(q, dim, format_weyl(w)) == w
    p = trace_classical(x, dim).scale(c.constant_term())
    assert parse_poly_element(q, dim, format_poly(p)) == p


def test_round_trip_qpa(J, A2, A3P):
    rng = random.Random(53)
    for q in (J, A2, A3P):
        for _ in range(10):
            x = straighten(q, random_configuration(rng, q, max_letters=6))
            assert parse_qpa_element(q, format_qpa(x)) == x


def test_format_weyl_and_poly_shapes(J):
    from nhq import WeylElement, classical_symbol, weyl_mul

    d = (1,)
    D = weyl_mul(
        WeylElement.derivative(J, d, 0, 1, 1), WeylElement.position(J, d, 0, 1, 1)
    )
    text = format_weyl(D)
    assert "[x]_{1,1}*d(x)_{1,1}" in text and "h" in text
    sym = format_poly(classical_symbol(D))
    assert sym == "(x)_{1,1}*(x')_{1,1}"


def test_round_trip_weyl_and_poly(J, A2):
    import random as _r

    from nhq import WeylElement, classical_symbol, weyl_mul
    from nhq.expr import parse_poly_element, parse_weyl_element

    rng = _r.Random(54)
    for q, d in ((J, (2,)), (A2, (2, 1))):
        for _ in range(12):
            acc = WeylElement.constant(q, d, 1)
            for _ in range(rng.randint(1, 4)):
                ai = rng.randrange(len(q.arrows))
                arrow = q.arrows[ai]
                r = rng.randint(1, d[arrow.target])
                c = rng.randint(1, d[arrow.source])
                factory = (
                    WeylElement.position if rng.random() < 0.5 else WeylElement.derivative
                )
                acc = weyl_mul(acc, factory(q, d, ai, r, c))
            acc = acc.scale(HBarPolynomial((rng.randint(-2, 2), rng.randint(0, 2))))
            assert parse_weyl_element(q, d, format_weyl(acc)) == acc
            sym = classical_symbol(acc)
            assert parse_poly_element(q, d, format_poly(sym)) == sym


def test_format_hbar_round_trip_via_scalar_context(J):
    values = [
        HBarPolynomial.one(),
        -HBarPolynomial.one(),
        H,
        2 * H,
        H * H,
        1 - H,
        HBarPolynomial((0, 0, 3)),
    ]
    key = Path((Letter(0, False),))
    for value in values:
        elem = PathAlgebraElement(J, {key: value})
        assert parse_path_element(J, format_path_element(elem)) == elem
