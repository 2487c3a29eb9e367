"""The element stores: one context, one packed arithmetic per store,
coercing public constructors, and the term-dict oracle.

Every result of ``+``, ``-``, ``scale`` and each same-type product must
hold only nonzero coefficients of the ring's type, in a dict of its own.
Each keyed element (``linear._PackedSums``) and each kernel that reads and
makes its packed sums is checked through the ``terms`` view against the
term-dict arithmetic it replaced (``linear_oracle``), on operands with
``Fraction`` coefficients and up to three powers of h that are packed
before any view of them exists.
"""

import random
from fractions import Fraction

import pytest

import linear_oracle as oracle
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
    natural_projection,
    necklace_bracket,
    path_mul,
    poisson,
    project,
    qpa_comm,
    qpa_mul,
    trace_classical,
    trace_quantum,
    weyl_commutator,
    weyl_mul,
)
from nhq.linear import LinearCombination, _PackedSums
from nhq.repspace import _PackedOperator, poly_mul
from nhq.sampling import (
    random_coefficient,
    random_dimension,
    random_gl,
    random_hh0,
    random_path_element,
    random_sym_element,
    small_quivers,
)
from nhq.rings import as_fraction
from nhq.schedler import sym_mul
from nhq.trace import lift_necklace_combination
from test_necklace_oracles import reference_bracket

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


def _h_coefficient(rng):
    """A nonzero scalar of up to three powers of h, with Fraction coefficients."""
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    return HBarPolynomial(coeffs) or HBarPolynomial((0, Fraction(1, 2)))


def _sampled_operands(rng, quiver):
    """Per element type over ``quiver``: operands (x, y), same-type
    products [(kernel(x, y), its term-dict oracle or None)] and maps to
    other types [(kernel(x), its oracle)].  Each keyed operand is scaled
    by a scalar of several powers of h (a rational for gl), so it is packed
    before any view exists; the oracles take the operands' terms."""
    dim = random_dimension(rng, quiver)
    scaled = lambda xs: [x.scale(_h_coefficient(rng)) for x in xs]
    hh0 = scaled([random_hh0(rng, quiver, max_len=3) for _ in range(2)])
    paths = scaled([random_path_element(rng, quiver, max_len=3) for _ in range(4)])
    # traced through copies, so the operands keep no view
    weyl = [trace_quantum(lift_necklace_combination(x.scale(1)), dim) for x in hh0]
    poly = [trace_classical(x.scale(1), dim) for x in hh0]
    coord = PolyElement.coordinate(quiver, dim, 0, False, 1, 1)
    bracket = lambda X, Y: reference_bracket(HH0Element(quiver, X), HH0Element(quiver, Y)).terms
    yield hh0, [(necklace_bracket, bracket)], []
    tensors = [double_bracket(*paths[:2]), double_bracket(*paths[2:])]
    yield scaled(tensors), [(lambda x, y: x.swap(), lambda X, Y: oracle.tensor_swap(X))], [
        (lambda x: x.mult(), lambda X: oracle.tensor_mult(quiver, X))
    ]
    yield paths[:2], [
        (path_mul, lambda X, Y: oracle.path_mul(quiver, X, Y)),
        (lambda x, y: x * y, None),
        (lambda x, y: 3 * x, lambda X, Y: oracle.scale(X, 3)),
    ], [
        (natural_projection, lambda X: oracle.natural_projection(quiver, X)),
        (lambda x: double_bracket(x, paths[2]), lambda X: oracle.double_bracket(quiver, X, paths[2].terms)),
    ]
    yield poly, [
        (poly_mul, None),
        (poisson, None),
        (lambda x, y: x * coord, None),
        (lambda x, y: Fraction(1, 2) * x, None),
    ], []
    yield weyl, [
        (weyl_mul, None),
        (weyl_commutator, None),
        (lambda x, y: weyl_commutator(x, y).div_h(), None),
        (lambda x, y: -2 * x, None),
    ], []
    gl = [random_gl(rng, quiver, dim).scale(Fraction(rng.randint(1, 5), rng.randint(1, 3))) for _ in range(2)]
    yield gl, [(gl_commutator, oracle.gl_commutator)], []
    qpa_mul_terms = lambda X, Y: oracle.qpa_mul(quiver, X, Y)
    qpa = scaled([lift(random_sym_element(rng, quiver, max_len=3)) for _ in range(2)])
    yield qpa, [
        (qpa_mul, qpa_mul_terms),
        (qpa_comm, lambda X, Y: oracle.add(qpa_mul_terms(X, Y), qpa_mul_terms(Y, X), -1)),
        (lambda x, y: qpa_comm(x, y).div_h(), lambda X, Y: oracle.div_h(oracle.add(qpa_mul_terms(X, Y), qpa_mul_terms(Y, X), -1))),
    ], [(project, oracle.project)]
    yield scaled([random_sym_element(rng, quiver) for _ in range(2)]), [
        (sym_mul, oracle.sym_mul),
        (lambda x, y: x.constant_part(), lambda X, Y: oracle.constant_part(X)),
    ], [(lift, lambda X: oracle.lift(quiver, X))]


def test_arithmetic_results_hold_clean_coefficients():
    rng = random.Random(505)
    seen = set()
    for quiver in small_quivers():
        for _ in range(6):
            for (x, y), products, maps in _sampled_operands(rng, quiver):
                seen.add(type(x))
                zero = x.scale(0)
                for result in (x + y, x - y, -x, x - x, x + zero, x.scale(_scalar(rng, x)), zero):
                    _check_clean(result, x, y)
                # subtraction is one pass, with no negated copy of y
                for a, b in ((x, y), (y, x), (x, x), (x, zero), (zero, x)):
                    _check_clean(a - b, a, b)
                    assert a - b == a + (-b)
                for product, _ in products:
                    result = product(x, y)
                    assert type(result) is type(x)
                    _check_clean(result, x, y)
                for kernel, _ in maps:
                    _check_clean(kernel(x), x)
    assert seen == set(ELEMENT_TYPES)


def _has_view(x) -> bool:
    """Whether ``x``'s ``terms`` view was built, read without building it."""
    try:
        vars(LinearCombination)["terms"].__get__(x)
    except AttributeError:
        return False
    return True


def test_keyed_elements_match_the_term_dict_oracle():
    """Every packed operation and kernel of the keyed elements runs before
    any view of its operands is read, and its result's view equals the
    oracle's on the operands' views."""
    rng = random.Random(26)
    seen = set()
    for quiver in small_quivers():
        for _ in range(3):
            for (x, y), products, maps in _sampled_operands(rng, quiver):
                if not isinstance(x, _PackedSums):
                    continue
                seen.add(type(x))
                assert not _has_view(x) and not _has_view(y)
                c = _scalar(rng, x)
                coerce = as_fraction if type(x) is GlElement else HBarPolynomial.coerce
                got = [x + y, x - y, -x, x.scale(c), x.scale(0)]
                got += [kernel(x, y) for kernel, ref in products if ref]
                got += [kernel(x) for kernel, _ in maps]
                X, Y = x.terms, y.terms
                expected = [oracle.add(X, Y), oracle.add(X, Y, -1), oracle.neg(X), oracle.scale(X, c, coerce), {}]
                expected += [ref(X, Y) for _, ref in products if ref]
                expected += [ref(X) for _, ref in maps]
                assert [r.terms for r in got] == expected, type(x).__name__
                # a public constructor's element equals the packed one, and
                # views its keys back as given
                assert type(x)(*x._context(), X).terms == oracle.coerced(X, coerce) == X
                assert type(x)(*x._context(), list(X.items()) * 2) == x.scale(2)
    assert seen == {HH0Element, TensorElement, PathAlgebraElement, GlElement, QPAElement, SymElement}


def _unshared_view(x) -> dict:
    """``x``'s ``terms`` view built one new coefficient per key."""
    keys = dict.fromkeys([key for sums_k in x._sums for key in sums_k])
    return {
        x._public_key(key): HBarPolynomial([Fraction(sums_k.get(key, 0), x._den) for sums_k in x._sums])
        for key in keys
    }


def test_the_view_shares_one_coefficient_per_numerator_tuple():
    """On the oracle's cases the ``terms`` view equals the view built one
    coefficient per key, and keys with equal coefficients share one."""
    rng = random.Random(31)
    shared = 0
    for quiver in small_quivers():
        for (x, y), products, maps in _sampled_operands(rng, quiver):
            if not isinstance(x, _PackedSums) or x._rational:
                continue
            results = [x, y, x - y, *[kernel(x, y) for kernel, _ in products], *[kernel(x) for kernel, _ in maps]]
            for z in results:
                if not isinstance(z, _PackedSums) or z._rational:
                    continue
                view = z.terms
                assert view == _unshared_view(z), type(z).__name__
                assert len({id(c) for c in view.values()}) == len(set(view.values()))
                shared += len(view) - len(set(view.values()))
    assert shared > 0


def test_context_and_trusted_path_live_only_in_the_base():
    """The context lives in ``LinearCombination``; the arithmetic and the
    trusted constructor of packed results live in the two stores only."""
    for cls in ELEMENT_TYPES:
        store = _PackedSums if issubclass(cls, _PackedSums) else _PackedOperator
        assert "_context" not in vars(cls) and "_with_terms" not in vars(cls)
        for name in ("__add__", "__sub__", "__neg__", "scale", "__eq__", "__bool__"):
            assert name not in vars(cls) and name in vars(store)
        assert "_from_sums" not in vars(cls) and "_from_packed" not in vars(cls)
        assert vars(cls).get("__rmul__", store.scale) is store.scale
    # the base holds no arithmetic at all
    for name in ("__add__", "__sub__", "__neg__", "scale", "__eq__", "__bool__", "_with_terms"):
        assert name not in vars(LinearCombination)


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
