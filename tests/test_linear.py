"""The element base: one context, a trusted arithmetic path, coercing
public constructors.

Arithmetic results skip coercion and zero filtering, so every result of
``+``, ``-``, ``scale`` and each same-type product must already hold only
nonzero coefficients of the ring's type, in a dict of its own.
"""

import random
from fractions import Fraction

import pytest

import nhq
from nhq import (
    GlElement,
    HBarPolynomial,
    HH0Element,
    PathAlgebraElement,
    PolyElement,
    QPAElement,
    SymElement,
    TensorElement,
    WeylElement,
    double_bracket,
    gl_commutator,
    lift,
    necklace_bracket,
    path_mul,
    poisson,
    qpa_comm,
    qpa_mul,
    trace_classical,
    trace_quantum,
    weyl_commutator,
    weyl_mul,
)
from nhq.linear import LinearCombination
from nhq.repspace import poly_mul, poly_partial
from nhq.sampling import (
    random_coefficient,
    random_dimension,
    random_gl,
    random_hh0,
    random_path_element,
    random_sym_element,
    small_quivers,
)
from nhq.schedler import sym_mul
from nhq.trace import lift_necklace_combination

ELEMENT_TYPES = (
    HH0Element,
    TensorElement,
    PathAlgebraElement,
    PolyElement,
    WeylElement,
    GlElement,
    QPAElement,
    SymElement,
)


def _ring(x):
    return Fraction if isinstance(x, (PolyElement, GlElement)) else HBarPolynomial


def _check_clean(result, *operands):
    """Nonzero coefficients of the ring's type, in a dict no operand shares."""
    for key, value in result.terms.items():
        assert type(value) is _ring(result), (type(result).__name__, key, value)
        assert value, (type(result).__name__, key)
    assert all(result.terms is not x.terms for x in operands)


def _scalar(rng, x):
    c = random_coefficient(rng, with_h=_ring(x) is HBarPolynomial)
    return c if _ring(x) is HBarPolynomial else c.constant_term()


def _sampled_operands(rng, quiver):
    """Pairs (x, y, same-type products) of every element type over ``quiver``."""
    dim = random_dimension(rng, quiver)
    hh0 = [random_hh0(rng, quiver, max_len=3) for _ in range(2)]
    paths = [random_path_element(rng, quiver, max_len=3) for _ in range(4)]
    weyl = [trace_quantum(lift_necklace_combination(x), dim) for x in hh0]
    poly = [trace_classical(x, dim) for x in hh0]
    coord = PolyElement.coordinate(quiver, dim, 0, False, 1, 1)
    yield hh0, [necklace_bracket]
    yield [double_bracket(*paths[:2]), double_bracket(*paths[2:])], [
        lambda x, y: x.swap()
    ]
    yield paths[:2], [path_mul, lambda x, y: x * y, lambda x, y: 3 * x]
    yield poly, [
        poly_mul,
        poisson,
        lambda x, y: poly_partial(x, (0, False, 1, 1)),
        lambda x, y: x * coord,
        lambda x, y: Fraction(1, 2) * x,
    ]
    yield weyl, [
        weyl_mul,
        weyl_commutator,
        lambda x, y: weyl_commutator(x, y).div_h(),
        lambda x, y: -2 * x,
    ]
    yield [random_gl(rng, quiver, dim) for _ in range(2)], [gl_commutator]
    qpa = [lift(random_sym_element(rng, quiver, max_len=3)) for _ in range(2)]
    yield qpa, [qpa_mul, qpa_comm, lambda x, y: qpa_comm(x, y).div_h()]
    yield [random_sym_element(rng, quiver) for _ in range(2)], [sym_mul]


def test_arithmetic_results_hold_clean_coefficients():
    rng = random.Random(505)
    seen = set()
    for quiver in small_quivers():
        for _ in range(6):
            for (x, y), products in _sampled_operands(rng, quiver):
                seen.add(type(x))
                zero = x.scale(0)
                for result in (x + y, x - y, -x, x - x, x + zero, x.scale(_scalar(rng, x)), zero):
                    _check_clean(result, x, y)
                for product in products:
                    result = product(x, y)
                    assert type(result) is type(x)
                    _check_clean(result, x, y)
    assert seen == set(ELEMENT_TYPES)


def test_context_and_trusted_path_live_only_in_the_base():
    for cls in ELEMENT_TYPES:
        assert "_context" not in vars(cls) and "_with_terms" not in vars(cls)
        assert vars(cls).get("__rmul__", LinearCombination.scale) is LinearCombination.scale


def test_trusted_result_keeps_the_context(A3P):
    dim = (1, 2, 1, 1)
    x = PolyElement.coordinate(A3P, dim, 0, False, 2, 1, Fraction(3))
    y = x.scale(2)
    assert (y.quiver, y.dim) == (A3P, dim)
    assert y._context() == x._context() == (A3P, dim)
    assert y.terms == {(((0, False, 2, 1), 1),): Fraction(6)}


def test_public_constructors_still_coerce_and_drop_zeros(J):
    x = PathAlgebraElement(J, [(nhq.Path.trivial(0), 2), (nhq.Path.trivial(0), -2)])
    assert x.is_zero()
    y = PathAlgebraElement.trivial(J, 0, Fraction(1, 2))
    assert type(y.terms[nhq.Path.trivial(0)]) is HBarPolynomial
    g = GlElement.identity(J, (2,))
    assert all(type(v) is Fraction for v in g.terms.values())
    with pytest.raises(nhq.DimensionError):
        GlElement(J, (2,), {(0, 3, 1): 1})


def test_star_multiplication_is_scaling_on_the_right_only(J):
    p = PathAlgebraElement.trivial(J, 0)
    w = WeylElement.position(J, (1,), 0, 1, 1)
    for x in (p, w, QPAElement.unit(J), SymElement.of(J, ()), PolyElement.constant(J, (1,), 1)):
        assert 3 * x == x.scale(3) == x * 3
    for x in (HH0Element.of(J, nhq.idempotent_class(0)), GlElement.identity(J, (1,))):
        with pytest.raises(TypeError):
            2 * x
        with pytest.raises(TypeError):
            x * x
