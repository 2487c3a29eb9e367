import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhq import (
    CompositionError,
    ExpressionError,
    HBarPolynomial,
    Letter,
    Path,
    PathAlgebraElement,
)
from nhq.expr import (
    format_hh0,
    format_path_element,
    format_poly,
    format_qpa,
    format_weyl,
    parse_hh0_element,
    parse_path_element,
    parse_poly_element,
    parse_qpa_element,
    parse_weyl_element,
    tokenize,
)
from nhq.sampling import (
    random_coefficient,
    random_configuration,
    random_dimension,
    random_hh0,
    random_path_element,
    random_quiver,
    small_quivers,
)
from nhq.schedler import straighten
from nhq.trace import lift_necklace_combination, trace_classical, trace_quantum
from nhq.work import MAX_NESTING

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
    rng = random.Random(seed)
    q = random_quiver(rng)
    dim = random_dimension(rng, q, max_dim=2)
    x = random_hh0(rng, q, max_len=4, max_terms=3)
    c = random_coefficient(rng, with_h=True)
    w = trace_quantum(lift_necklace_combination(x), dim).scale(c)
    assert parse_weyl_element(q, dim, format_weyl(w)) == w
    p = trace_classical(x, dim).scale(c.constant_term())
    assert parse_poly_element(q, dim, format_poly(p)) == p


#: Pieces of the grammar of every parser, with the names the small quivers use.
_GRAMMAR_TOKENS = [
    "x", "x'", "y", "a", "b'", "ev", "e1", "e2", "h", "d", "_",
    "(", ")", "[", "]", "{", "}", ",", "+", "-", "*", "/", ".", "&", "^", "'",
    " ", "0", "1", "2", "3", "12",
]

#: Whole factors of each grammar (paths, classes, scalars, height pairs,
#: operator and coordinate entries, some outside a 2x2 block), joined below
#: by the operators of every grammar.
_FACTORS = [
    "x", "x'", "y", "a'", "b", "ev", "e1", "e2", "h", "h^2", "2", "3/2", "0",
    "[x.x']", "[a.a']", "(x+ev)^3", "x^0", "(x,1)", "(x',2)", "(a,1)(a',2)",
    "(y,2)(x,1)", "[x]_{1,2}", "[x]_{3,1}", "d(x)_{2,2}", "d(a)_{1,0}",
    "(x)_{1,1}", "(a')_{2,1}", "(b)_{1,5}",
]
_JOINS = ["+", "-", "*", ".", "&", " ", ""]

_TEXTS = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(_GRAMMAR_TOKENS), max_size=30).map("".join),
    st.lists(st.tuples(st.sampled_from(_JOINS), st.sampled_from(_FACTORS)), min_size=1, max_size=6)
    .map(lambda pieces: "".join(j + f for j, f in pieces)),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(small_quivers()), _TEXTS)
def test_every_parser_returns_an_element_or_a_parse_error(quiver, text):
    dim = (2,) * len(quiver.vertices)
    parsers = (
        parse_path_element,
        parse_hh0_element,
        parse_qpa_element,
        lambda q, t: parse_weyl_element(q, dim, t),
        lambda q, t: parse_poly_element(q, dim, t),
    )
    for parse in parsers:
        try:
            parse(quiver, text)
        except (ExpressionError, CompositionError):
            pass


def test_parse_errors_for_deep_nesting_and_entries_outside_the_block(J):
    deep = "(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1)
    for parse in (parse_path_element, parse_qpa_element):
        with pytest.raises(ExpressionError, match="nest deeper"):
            parse(J, deep)
    ok = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_path_element(J, ok) == parse_path_element(J, "x")
    assert parse_path_element(J, "-" * 5000 + "x") == parse_path_element(J, "x")
    with pytest.raises(ExpressionError, match=r"position 4: .*out of range for block 2x2"):
        parse_weyl_element(J, (2,), "h * [x]_{3,1}")
    with pytest.raises(ExpressionError, match=r"position 0: .*out of range"):
        parse_poly_element(J, (2,), "(x')_{1,0}")


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


# ---------------------------------------------------------------------------
# Exponents: one reader, x^0 is the unit


def test_zeroth_power_is_the_unit_in_every_parser(J, A3P):
    from nhq.repspace import PolyElement, WeylElement

    assert parse_path_element(J, "x^0") == PathAlgebraElement.unit(J)
    assert parse_path_element(A3P, "a0^0") == PathAlgebraElement.unit(A3P)
    assert parse_path_element(J, "(x + 2*x')^0") == PathAlgebraElement.unit(J)
    assert parse_path_element(J, "3^0") == PathAlgebraElement.unit(J)
    weyl_one = WeylElement.constant(J, (2,), 1)
    assert parse_weyl_element(J, (2,), "[x]_{1,2}^0") == weyl_one
    assert parse_weyl_element(J, (2,), "d(x)_{2,1}^0") == weyl_one
    assert parse_poly_element(J, (2,), "(x')_{1,2}^0") == PolyElement.constant(J, (2,), 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_powers_equal_repeated_products(J, A2, n):
    cases = [
        (lambda text: parse_path_element(J, text), "(x + 2*x')"),
        (lambda text: parse_path_element(J, text), "(x.x' - h)"),
        (lambda text: parse_path_element(J, text), "(1/2)"),
        (lambda text: parse_path_element(A2, text), "(a + e1)"),
        (lambda text: parse_path_element(A2, text), "(a'.a - e1)"),
        (lambda text: parse_weyl_element(J, (2,), text), "[x]_{1,2}"),
        (lambda text: parse_weyl_element(J, (2,), text), "d(x)_{2,1}"),
        (lambda text: parse_poly_element(J, (2,), text), "(x')_{1,2}"),
    ]
    for parse, factor in cases:
        assert parse(f"{factor}^{n}") == parse("*".join([factor] * n)), factor


def test_format_element_prints_tensors(J, A3P):
    from nhq.expr import format_element, format_tensor
    from nhq.necklace import double_bracket

    x = parse_path_element(A3P, "a1.a0 - 2*h*a0")
    y = parse_path_element(A3P, "a0'.a1'")
    t = double_bracket(x, y)
    assert format_element(t) == format_tensor(t)
    assert format_element(t).count(" (x) ") == len(t.terms)
    x, xs = parse_path_element(J, "x"), parse_path_element(J, "x'")
    assert format_tensor(double_bracket(x, xs)) == "ev (x) ev"
    assert format_tensor(double_bracket(x, x)) == "0"


def test_tensor_term_order_is_the_order_of_the_path_strs():
    # twelve vertices and arrows, so that arrow=10 sorts before arrow=2 and
    # vertex=10 before vertex=2 in the dataclass reprs
    from nhq.expr import _PerLetter, _path_repr, format_path, format_tensor
    from nhq.necklace import TensorElement
    from nhq.quiver import make_quiver
    from nhq.sampling import random_word

    names = [f"v{i}" for i in range(12)]
    quiver = make_quiver(
        names,
        [(f"a{i}", names[i], names[(i + 1) % 12]) for i in range(12)] + [("z", "v3", "v3")],
    )
    rng = random.Random(1515)
    paths = [Path.trivial(v) for v in range(12)]
    paths += [Path((letter,)) for letter in quiver.letters()]
    paths += [Path(tuple(random_word(rng, quiver, max_len=6))) for _ in range(300)]
    paths += [Path(p.letters[:1]) for p in paths[-50:]]  # one-letter prefixes
    reprs = _PerLetter(repr)
    assert [_path_repr(p, reprs) for p in paths] == [str(p) for p in paths]
    assert sorted(paths, key=lambda p: _path_repr(p, reprs)) == sorted(paths, key=str)
    rng.shuffle(paths)
    t = TensorElement(quiver, {(p, q): rng.randint(1, 3) for p, q in zip(paths, paths[::-1])})
    old = " + ".join(
        f"{c}*{format_path(quiver, p)} (x) {format_path(quiver, q)}" if c != 1
        else f"{format_path(quiver, p)} (x) {format_path(quiver, q)}"
        for (p, q), c in sorted(t.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
    )
    assert format_tensor(t) == old


def test_the_unit_monomial_prints_as_its_bare_coefficient(J):
    # as in format_qpa, the unit term of a symmetric element is its
    # coefficient alone: ``2``, not ``2*1``
    from nhq.expr import format_sym
    from nhq.necklace import canonical_necklace
    from nhq.schedler import SymElement

    x = canonical_necklace(J, (Letter(0, False),))
    unit = lambda c: SymElement.of(J, [], c)
    assert format_sym(unit(2)) == "2"
    assert format_sym(unit(1 + 2 * HBarPolynomial.h())) == "(1 + 2*h)"
    assert format_sym(unit(2) + SymElement.of(J, [x], 3)) == "2 + 3*[x]"
    assert format_sym(unit(-1) + SymElement.of(J, [x, x], 1)) == "-1 + [x] & [x]"
    assert format_sym(unit(1)) == "1" and format_sym(unit(0)) == "0"
